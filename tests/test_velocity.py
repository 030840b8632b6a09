import re

import numpy as np
import pytest

from rotconv.grid import (
    PhysicalField,
    SpectralField,
    _keep,
    forward_transform,
    inverse_transform,
    spectral_l2,
)
from rotconv.velocity import (
    CATALOG,
    MultiplierSpec,
    empirical_lp_ratio,
    hypothesis_check,
    lattice_sup,
    multiplier_value,
    residual_check,
    solve_velocity,
    spectral_divergence,
    velocity_symbols,
)

from conftest import random_band_limited


def test_sin_x_gives_w_equals_theta(grid32):
    X, _, _ = grid32.meshgrid()
    theta = forward_transform(PhysicalField(grid32, np.sin(X)))
    d = solve_velocity(theta)
    w = inverse_transform(d.w).values
    assert np.max(np.abs(w - np.sin(X))) < 1e-12
    assert spectral_l2(d.u) < 1e-14
    assert spectral_l2(d.v) < 1e-14
    assert spectral_l2(d.omega) < 1e-14


def test_sinx_cosz_gives_half_w(grid32):
    X, _, Z = grid32.meshgrid()
    theta = forward_transform(PhysicalField(grid32, np.sin(X) * np.cos(Z)))
    d = solve_velocity(theta)
    w = inverse_transform(d.w).values
    assert np.max(np.abs(w - 0.5 * np.sin(X) * np.cos(Z))) < 1e-12
    assert spectral_l2(d.u) < 1e-14


def test_mean_sector_input_rejected(grid16):
    _, _, Z = grid16.meshgrid()
    theta = forward_transform(PhysicalField(grid16, np.cos(Z)))
    with pytest.raises(ValueError):
        solve_velocity(theta)
    # without its horizontal-mean sector the horizontal-mean-only field is identically zero
    proj = _keep(theta)
    d = solve_velocity(proj)
    assert spectral_l2(d.w) == 0.0


def test_residual_check_random_fields(grid32):
    for seed in range(10):
        theta = random_band_limited(grid32, seed)
        r1, r2 = residual_check(theta, solve_velocity(theta))
        assert r1 <= 1e-13
        assert r2 <= 1e-13


def test_residual_zero_field(grid16):
    theta = SpectralField(grid16, np.zeros(grid16.spectral_shape, dtype=complex))
    r1, r2 = residual_check(theta, solve_velocity(theta))
    assert r1 == 0.0 and r2 == 0.0


def test_residual_grows_linearly_with_perturbation(grid16):
    theta = random_band_limited(grid16, 4)
    d = solve_velocity(theta)

    def perturbed(delta):
        c = d.w.coeffs.copy()
        c[2, 1, 3] += delta  # off the kz = 0 and kz = nz/2 planes: partner implied
        from rotconv.velocity import VelocityDiagnostics

        return VelocityDiagnostics(d.u, d.v, SpectralField(grid16, c), d.psi, d.omega)

    r_small = residual_check(theta, perturbed(1e-6))[0]
    r_big = residual_check(theta, perturbed(2e-6))[0]
    assert abs(r_big / r_small - 2.0) < 1e-6


def test_spectral_divergence(grid32):
    for seed in range(5):
        theta = random_band_limited(grid32, seed)
        d = solve_velocity(theta)
        assert spectral_divergence(d) <= 1e-14 * spectral_l2(theta)


def test_stream_function_relations(grid16):
    theta = random_band_limited(grid16, 8)
    d = solve_velocity(theta)
    kx, ky, kz = grid16.wavenumbers()
    assert kz.ravel().tolist() == list(range(grid16.nz // 2 + 1))
    kh2 = (kx**2 + ky**2).astype(float)
    scale = max(np.max(np.abs(d.psi.coeffs)), 1e-30)
    assert d.psi.coeffs.shape == grid16.spectral_shape
    assert np.max(np.abs(d.u.coeffs + 1j * ky * d.psi.coeffs)) <= 1e-14 * scale + 1e-20
    assert np.max(np.abs(d.v.coeffs - 1j * kx * d.psi.coeffs)) <= 1e-14 * scale + 1e-20
    assert np.max(np.abs(d.omega.coeffs + kh2 * d.psi.coeffs)) <= 1e-14 * scale + 1e-20


def test_outputs_stay_real(grid16):
    # every output passes the reality check of SpectralField, and the real
    # field irfftn builds from it carries all of its coefficients back
    theta = random_band_limited(grid16, 12)
    d = solve_velocity(theta)
    for f in (d.u, d.v, d.w, d.psi, d.omega):
        scale = max(np.max(np.abs(f.coeffs)), 1e-30)
        back = forward_transform(inverse_transform(f)).coeffs
        assert np.max(np.abs(back - f.coeffs)) <= 1e-13 * scale


def test_symbol_parity(grid16):
    mu, mv, mw = velocity_symbols(grid16)
    # solved from the unit field on the non-mean modes, psi and omega are their symbols
    ones = np.ones(grid16.spectral_shape)
    ones[0, 0, :] = 0.0
    d = solve_velocity(SpectralField(grid16, ones))
    mpsi, momega = d.psi.coeffs, d.omega.coeffs
    # on the half lattice index k is k3 = k; u is odd under k2 -> -k2, v under
    # k1 -> -k1, w is even in both, and every symbol is zero at k3 = 0 but w
    for (i, j, k) in [(1, 2, 3), (2, 1, 1), (3, 2, 2)]:
        assert mu[i, j, k] == -mu[i, -j, k] == -(j * k) / (k**2 + (i**2 + j**2) ** 3)
        assert mv[i, j, k] == -mv[-i, j, k]
        assert mw[i, j, k] == mw[-i, -j, k]
    for m in (mu, mv, mpsi, momega):
        assert np.all(m[:, :, 0] == 0.0)
    # the self-conjugate planes need sigma(-k1, -k2) = conj(sigma(k1, k2))
    for m in (mu, mv, mw, mpsi, momega):
        for k in (0, grid16.nz // 2):
            plane = m[:, :, k]
            partner = np.roll(plane[::-1, ::-1], 1, axis=(0, 1))
            assert np.array_equal(plane, np.conj(partner))


def test_multiplier_value_hand_checks():
    e1 = MultiplierSpec.make("5/9", "13/3", 2, 6)
    assert abs(multiplier_value(e1, (1, 0, 1)) - 2.0 ** (5.0 / 9.0) / 2.0) < 1e-14
    assert multiplier_value(e1, (0, 0, 5)) == 0.0
    w = MultiplierSpec.make(0, 2, 1, 3)
    assert abs(multiplier_value(w, (1, 1, 2)) - 1.0 / 3.0) < 1e-14


def test_hypothesis_check():
    assert hypothesis_check(MultiplierSpec.make("1/4", "13/6", 1, 3))
    assert hypothesis_check(MultiplierSpec.make(0, 3, 5, 3))
    assert not hypothesis_check(MultiplierSpec.make(1, 1, 1, 1))
    with pytest.raises(ValueError):
        hypothesis_check(MultiplierSpec.make(1, 1, 0, 1))


def test_lattice_sup_w_multiplier():
    w = MultiplierSpec.make(0, 2, 1, 3)
    assert lattice_sup(w, 64) == 1.0
    with pytest.raises(ValueError):
        lattice_sup(w, 4)


def test_lattice_sup_stable_in_K():
    for entry in CATALOG:
        s64 = lattice_sup(entry.spec, 64)
        s128 = lattice_sup(entry.spec, 128)
        assert abs(s128 - s64) <= 1e-9 * max(s64, 1.0)


def test_empirical_ratio_parseval_bound():
    w = MultiplierSpec.make(0, 2, 1, 3)
    ratio = empirical_lp_ratio(w, 2.0, 10, 42)
    assert ratio <= lattice_sup(w, 64) + 1e-12


def test_empirical_ratio_deterministic():
    spec = MultiplierSpec.make("1/4", "13/6", 1, 3)
    a = empirical_lp_ratio(spec, 3.0, 5, 42)
    b = empirical_lp_ratio(spec, 3.0, 5, 42)
    assert a == b
    for p in (1.0, "3", None):
        with pytest.raises(ValueError, match=re.escape(f"p must lie in (1, inf), got {p!r}")):
            empirical_lp_ratio(spec, p, 5, 42)
    for trials in (0, -2, 2.5, True, "5"):
        with pytest.raises(ValueError, match=re.escape(f"trials must be a positive integer, got {trials!r}")):
            empirical_lp_ratio(spec, 3.0, trials, 42)


def test_catalog_hypotheses():
    for entry in CATALOG:
        assert hypothesis_check(entry.spec), entry.name
