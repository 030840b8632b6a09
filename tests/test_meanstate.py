import numpy as np
import pytest

from rotconv.grid import (
    Grid,
    PhysicalField,
    SpectralField,
    TWO_PI,
    _kept,
    half_box_z_profiles,
    horizontal_mean,
    inverse_transform,
)
from rotconv.invariants import _slice_lp
from rotconv.meanstate import (
    heat_flux,
    mean_gradient,
    mean_profile,
    profile_l2,
    reconstruct_mean,
)
from rotconv.velocity import half_box_w_symbol, velocity_symbols

from conftest import TRUNCATIONS, kept_modes, random_band_limited


def z_axis(nz):
    return np.arange(nz) * (TWO_PI / nz)


def test_heat_flux_closed_form(grid32):
    X, _, Z = grid32.meshgrid()
    theta = PhysicalField(grid32, np.sin(X) * np.cos(Z))
    w = PhysicalField(grid32, 0.5 * np.sin(X) * np.cos(Z))
    flux = heat_flux(theta, w)
    z = z_axis(grid32.nz)
    assert np.max(np.abs(flux - np.cos(z) ** 2 / 4.0)) < 1e-14


@pytest.mark.parametrize("box", ["own", "two-thirds"])
@pytest.mark.parametrize("shape, mode_cap", TRUNCATIONS)
def test_half_box_means_are_the_physical_ones(shape, mode_cap, box):
    # the horizontal means of theta w, theta^2 and w^2 at each level, on the
    # half box of the state's own truncation (the tendency) or of the 2/3
    # rule (the sweeps), are `heat_flux` and the squares of
    # `_slice_lp(., 2) / (2 pi)` of the physical fields
    grid = Grid(*shape)
    c = random_band_limited(grid, 5, kmin=0, kmax=max(shape)).coeffs
    theta = SpectralField(grid, np.where(kept_modes(grid, mode_cap), c, 0.0))
    cap = mode_cap if box == "own" else None
    mw_h = half_box_w_symbol(grid, cap)

    def profiles():
        return half_box_z_profiles(theta.coeffs, _kept(grid, cap), mw_h,
                                   np.empty_like(mw_h), np.empty_like(mw_h))

    theta_p, w_p = inverse_transform(theta), inverse_transform(theta, velocity_symbols(grid)[2])
    theta_h, w_h = profiles()
    pairs = [(horizontal_mean(theta_h, w_h), heat_flux(theta_p, w_p))]
    theta_h, w_h = profiles()
    for f_h, f_p in ((theta_h, theta_p), (w_h, w_p)):
        pairs.append((TWO_PI * np.sqrt(horizontal_mean(f_h, f_h)), _slice_lp(f_p.values, 2.0)))
    for got, expected in pairs:
        assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))


def test_heat_flux_orthogonal_modes(grid16):
    X, Y, _ = grid16.meshgrid()
    theta = PhysicalField(grid16, np.sin(X))
    w = PhysicalField(grid16, np.sin(Y))
    assert np.max(np.abs(heat_flux(theta, w))) < 1e-15


def test_heat_flux_zero_and_mismatch(grid16):
    zero = PhysicalField(grid16, np.zeros(grid16.shape))
    assert np.max(np.abs(heat_flux(zero, zero))) == 0.0
    other = Grid(32, 32, 32)
    with pytest.raises(ValueError):
        heat_flux(zero, PhysicalField(other, np.zeros(other.shape)))


def test_mean_gradient_closed_form():
    z = z_axis(64)
    flux = np.cos(z) ** 2 / 4.0
    dtz = mean_gradient(flux)
    assert np.max(np.abs(dtz - np.cos(2 * z) / 8.0)) < 1e-14


def test_mean_gradient_constant_and_gauge():
    z = z_axis(32)
    assert np.max(np.abs(mean_gradient(np.full(32, 0.7)))) == 0.0
    flux = np.sin(z)
    assert np.max(np.abs(mean_gradient(flux) - flux)) < 1e-15
    shifted = mean_gradient(flux + 3.0)
    assert np.max(np.abs(shifted - mean_gradient(flux))) < 1e-14


def test_reconstruct_mean_closed_forms():
    z = z_axis(64)
    theta_bar = reconstruct_mean(np.cos(2 * z) / 8.0)
    assert np.max(np.abs(theta_bar - np.sin(2 * z) / 16.0)) < 1e-13
    assert np.max(np.abs(reconstruct_mean(np.zeros(64)))) == 0.0
    assert np.max(np.abs(reconstruct_mean(np.cos(z)) - np.sin(z))) < 1e-13


def test_reconstruct_mean_rejects_nonzero_average():
    with pytest.raises(ValueError):
        reconstruct_mean(np.ones(32))


def test_mean_profile_invariants(grid32):
    # band-limited inputs keep the flux below the z-Nyquist mode, where the
    # reconstructed mean is an exact antiderivative
    from rotconv.grid import inverse_transform

    from conftest import random_band_limited

    theta = inverse_transform(random_band_limited(grid32, 2, kmax=6))
    w = inverse_transform(random_band_limited(grid32, 3, kmax=6))
    prof = mean_profile(theta, w)
    dz = TWO_PI / grid32.nz
    assert abs(np.sum(prof.dtheta_dz) * dz) < 1e-12
    assert abs(np.sum(prof.theta_bar) * dz) < 1e-12
    # d/dz theta_bar recovers dtheta_dz spectrally
    k = np.fft.rfftfreq(grid32.nz) * grid32.nz
    deriv = np.fft.irfft(1j * k * np.fft.rfft(prof.theta_bar), n=grid32.nz)
    scale = max(np.max(np.abs(prof.dtheta_dz)), 1.0)
    assert np.max(np.abs(deriv - prof.dtheta_dz)) < 1e-12 * scale


def test_energy_sign(grid16):
    rng = np.random.default_rng(11)
    for _ in range(5):
        flux = rng.standard_normal(grid16.nz)
        dtz = mean_gradient(flux)
        dz = TWO_PI / grid16.nz
        cross = np.sum(dtz * flux) * dz
        square = np.sum(dtz**2) * dz
        assert abs(cross - square) < 1e-12 * max(square, 1.0)
        assert square >= -1e-14


def test_profile_l2():
    z = z_axis(128)
    # ||cos z||_{L2(0,2pi)} = sqrt(pi)
    assert abs(profile_l2(np.cos(z)) - np.sqrt(np.pi)) < 1e-12
