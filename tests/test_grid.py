import re

import numpy as np
import pytest

import rotconv.experiments
import rotconv.grid
import rotconv.velocity
from rotconv.grid import (
    DOMAIN_VOLUME,
    Grid,
    PhysicalField,
    SpectralField,
    apply_symbol,
    dealias,
    derivative_symbol,
    forward_transform,
    horizontal_power_symbol,
    inverse_transform,
    lp_norm,
    pad_to_grid,
    spectral_l2,
)

from conftest import random_band_limited


def test_grid_rejects_odd_or_small():
    with pytest.raises(ValueError):
        Grid(7, 8, 8)
    with pytest.raises(ValueError):
        Grid(8, 2, 8)


@pytest.mark.parametrize("n", ["16", True, 16.0, None])
def test_grid_rejects_non_integer_counts(n):
    with pytest.raises(ValueError, match="ny must be an even integer"):
        Grid(16, n, 16)


def test_constant_field_transform(grid16):
    F = forward_transform(PhysicalField(grid16, np.ones(grid16.shape)))
    assert abs(F.coeffs[0, 0, 0] - 1.0) < 1e-14
    c = F.coeffs.copy()
    c[0, 0, 0] = 0.0
    assert np.max(np.abs(c)) < 1e-14


def test_sin_x_coefficients(grid16):
    X, _, _ = grid16.meshgrid()
    F = forward_transform(PhysicalField(grid16, np.sin(X)))
    assert abs(F.coeffs[1, 0, 0] - (-0.5j)) < 1e-14
    assert abs(F.coeffs[-1, 0, 0] - 0.5j) < 1e-14
    c = F.coeffs.copy()
    c[1, 0, 0] = 0.0
    c[-1, 0, 0] = 0.0
    assert np.max(np.abs(c)) < 1e-13


def test_round_trip_many_seeds():
    grid = Grid(8, 8, 8)
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        f = PhysicalField(grid, rng.standard_normal(grid.shape))
        back = inverse_transform(forward_transform(f))
        scale = np.max(np.abs(f.values))
        worst = max(worst, np.max(np.abs(back.values - f.values)) / scale)
    assert worst <= 1e-12


def test_inverse_of_constant(grid16):
    c = np.zeros(grid16.spectral_shape, dtype=complex)
    c[0, 0, 0] = 3.25
    f = inverse_transform(SpectralField(grid16, c))
    assert np.max(np.abs(f.values - 3.25)) < 1e-13


def test_inverse_rejects_asymmetric_coeffs(grid16):
    # only the self-conjugate planes kz = 0 and kz = nz/2 store both a mode and
    # its partner; off them the partner is implied and any value is real
    for kz in (0, grid16.nz // 2):
        c = np.zeros(grid16.spectral_shape, dtype=complex)
        c[1, 2, kz] = 1.0  # no conjugate partner at (-1, -2, kz)
        with pytest.raises(ValueError, match="break reality"):
            SpectralField(grid16, c)
        c[-1, -2, kz] = 1.0
        pair = inverse_transform(SpectralField(grid16, c))
        X, Y, Z = grid16.meshgrid()
        exact = 2.0 * np.cos(X + 2 * Y + kz * Z)
        assert np.max(np.abs(pair.values - exact)) < 1e-13
    c = np.zeros(grid16.spectral_shape, dtype=complex)
    c[1, 2, 3] = 1.0j
    SpectralField(grid16, c)


def test_nonfinite_input_rejected(grid16):
    bad = np.ones(grid16.shape)
    bad[0, 0, 0] = np.nan
    with pytest.raises(ValueError):
        PhysicalField(grid16, bad)


def test_physical_field_keeps_its_own_copy(grid16):
    values = np.ones(grid16.shape)
    f = PhysicalField(grid16, values)
    values[0, 0, 0] = 5.0
    assert f.values[0, 0, 0] == 1.0
    assert not f.values.flags.writeable


def test_transformed_fields_are_read_only(grid16):
    F = random_band_limited(grid16, 1)
    for f in (inverse_transform(F), inverse_transform(F, derivative_symbol(grid16, 0))):
        assert not f.values.flags.writeable
        with pytest.raises(ValueError):
            f.values[0, 0, 0] = 1.0


def test_parseval(grid32):
    for seed in range(5):
        F = random_band_limited(grid32, seed)
        direct = lp_norm(inverse_transform(F), 2.0)
        assert abs(direct**2 - spectral_l2(F) ** 2) <= 1e-10 * direct**2


def test_derivative_symbol_on_sin(grid32):
    X, _, _ = grid32.meshgrid()
    F = forward_transform(PhysicalField(grid32, np.sin(X)))
    d = inverse_transform(apply_symbol(F, derivative_symbol(grid32, 0)))
    assert np.max(np.abs(d.values - np.cos(X))) < 1e-12


def test_derivative_exactness_single_modes(grid32):
    X, Y, Z = grid32.meshgrid()
    for (k1, k2, k3) in [(1, 0, 0), (2, 3, 1), (0, 5, 4)]:
        f = np.sin(k1 * X + k2 * Y + k3 * Z)
        F = forward_transform(PhysicalField(grid32, f))
        for axis, k in ((0, k1), (1, k2), (2, k3)):
            d = inverse_transform(apply_symbol(F, derivative_symbol(grid32, axis)))
            exact = k * np.cos(k1 * X + k2 * Y + k3 * Z)
            assert np.max(np.abs(d.values - exact)) < 1e-12


def test_horizontal_laplacian_on_sinx_cosz(grid32):
    X, _, Z = grid32.meshgrid()
    F = forward_transform(PhysicalField(grid32, np.sin(X) * np.cos(Z)))
    g = inverse_transform(apply_symbol(F, -horizontal_power_symbol(grid32, 1.0)))
    assert np.max(np.abs(g.values + np.sin(X) * np.cos(Z))) < 1e-12


def test_horizontal_power_kills_mean_sector(grid16):
    _, _, Z = grid16.meshgrid()
    F = forward_transform(PhysicalField(grid16, np.cos(2 * Z)))
    out = apply_symbol(F, horizontal_power_symbol(grid16, -0.5))
    assert np.max(np.abs(out.coeffs)) == 0.0


def test_apply_symbol_linearity(grid16):
    rng = np.random.default_rng(3)
    F = random_band_limited(grid16, 0, rng=rng)
    G = random_band_limited(grid16, 0, rng=rng)
    sym = horizontal_power_symbol(grid16, 0.5)
    lhs = apply_symbol(SpectralField(grid16, 2.0 * F.coeffs + G.coeffs), sym)
    rhs = 2.0 * apply_symbol(F, sym).coeffs + apply_symbol(G, sym).coeffs
    assert np.max(np.abs(lhs.coeffs - rhs)) < 1e-12


def test_apply_symbol_rejects_reality_breaking(grid16):
    F = random_band_limited(grid16, 1)
    kx, ky, kz = grid16.wavenumbers()
    with pytest.raises(ValueError, match="break reality"):
        apply_symbol(F, 1j * np.ones(np.broadcast(kx, ky, kz).shape))
    # i sign(kx) is odd and imaginary, so sigma(-k) = conj(sigma(k)) holds
    hilbert = apply_symbol(F, 1j * np.sign(kx) + 0.0 * kz)
    assert hilbert.coeffs.shape == grid16.spectral_shape


def test_dealias_cutoff(grid32):
    c = np.zeros(grid32.spectral_shape, dtype=complex)
    c[grid32.nx // 2 - 1, 0, 1] = 1.0  # |k1| = 15 > 32/3
    c[1, 1, 11] = 1.0  # k3 = 11 > 32/3
    c[1, 1, 10] = 2.0
    c[-10, 10, 1] = 3.0
    out = dealias(SpectralField(grid32, c))
    assert out.coeffs[grid32.nx // 2 - 1, 0, 1] == 0.0
    assert out.coeffs[1, 1, 11] == 0.0
    assert out.coeffs[1, 1, 10] == 2.0
    assert out.coeffs[-10, 10, 1] == 3.0


def test_dealias_idempotent_and_contractive(grid32):
    F = forward_transform(
        PhysicalField(grid32, np.random.default_rng(5).standard_normal(grid32.shape))
    )
    once = dealias(F)
    twice = dealias(once)
    assert np.array_equal(once.coeffs, twice.coeffs)
    assert spectral_l2(once) <= spectral_l2(F)


def test_lp_norm_constant(grid16):
    f = PhysicalField(grid16, np.full(grid16.shape, 1.0))
    for p in (1.0, 2.0, 3.0, 6.0):
        assert abs(lp_norm(f, p) - DOMAIN_VOLUME ** (1.0 / p)) < 1e-10


def test_lp_norm_sin_x():
    grid = Grid(64, 64, 64)
    X, _, _ = grid.meshgrid()
    f = PhysicalField(grid, np.sin(X))
    assert abs(lp_norm(f, 2.0) - np.sqrt(4.0 * np.pi**3)) < 1e-10
    assert abs(lp_norm(f, np.inf) - 1.0) < 1e-3


def test_lp_norm_rejects_small_p(grid16):
    f = PhysicalField(grid16, np.ones(grid16.shape))
    # p below 1, and any p that is not a real number >= 1 or inf
    for p in (0.5, -np.inf, float("nan"), True, "3", None):
        with pytest.raises(ValueError, match=re.escape(f"p must be a real number >= 1 or inf, got {p!r}")):
            lp_norm(f, p)


def test_pad_to_grid_preserves_field(grid32):
    fine = Grid(64, 64, 64)
    F = random_band_limited(grid32, 17)
    G = pad_to_grid(F, fine)
    coarse_vals = inverse_transform(F).values
    fine_vals = inverse_transform(G).values
    assert np.max(np.abs(fine_vals[::2, ::2, ::2] - coarse_vals)) < 1e-12
    with pytest.raises(ValueError):
        pad_to_grid(G, grid32)


@pytest.mark.parametrize("table", [
    lambda g: g.wavenumbers(),
    lambda g: rotconv.grid._lattice(g),
    lambda g: [rotconv.grid._kept(g, cap).outside for cap in (None, 2)],
    lambda g: [rotconv.grid._horizontal_gradient(g)],
    lambda g: [rotconv.velocity.velocity_symbols(g)],
    lambda g: [rotconv.velocity.half_box_w_symbol(g, cap) for cap in (None, 2)],
    lambda g: rotconv.experiments._h2h_squares(g),
], ids=["wavenumbers", "lattice", "kept", "horizontal-gradient", "velocity-symbols",
        "half-box-w-symbol", "h2h-squares"])
def test_cached_tables_are_read_only(grid16, table):
    # every caller gets the cache's own arrays, so a write to one would reach
    # every later reader in the process: `grid._table` makes each read-only
    for a in table(grid16):
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a += a
