"""The tendency against a textbook one: every factor in physical space by
`scipy.fft.irfftn`, the products formed there, `rfftn` back and the modes
outside the kept ones zeroed.  It is built from the model's equations alone,
not from the package's symbols, so any reordering of the tendency's
arithmetic is checked against it to round-off."""

import numpy as np
import pytest
import scipy.fft

import rotconv.evolution
from rotconv.evolution import tendency
from rotconv.grid import Grid, SpectralField

from conftest import TRUNCATIONS, kept_modes, random_band_limited

RTOL = 1e-13


def textbook_tendency(grid, c, eps, mode_cap=None):
    """-u.grad_h theta' - w dtheta_bar/dz + eps^2 lap_h theta' of the half
    spectrum `c`, on the modes `step` keeps under `mode_cap`.

    u = -k2 k3/D, v = k1 k3/D, w = kh^4/D with D = k3^2 + kh^6, zero on the
    horizontal-mean sector and the Nyquist planes; d/dx and d/dy zero on their
    Nyquist planes; dtheta_bar/dz the horizontal mean of theta' w less its z mean.
    """
    nx, ny, nz = grid.shape
    kx = np.fft.fftfreq(nx, 1.0 / nx).reshape(-1, 1, 1)
    ky = np.fft.fftfreq(ny, 1.0 / ny).reshape(1, -1, 1)
    kz = np.fft.rfftfreq(nz, 1.0 / nz).reshape(1, 1, -1)
    kh2 = kx**2 + ky**2
    retained = (kh2 > 0) & (np.abs(kx) < nx / 2) & (np.abs(ky) < ny / 2) & (kz < nz / 2)
    denom = np.where(retained, kz**2 + kh2**3, 1.0)
    mu, mv, mw = (np.where(retained, m / denom, 0.0) for m in (-ky * kz, kx * kz, kh2**2))
    dx = np.where(np.abs(kx) == nx / 2, 0.0, 1j * kx)
    dy = np.where(np.abs(ky) == ny / 2, 0.0, 1j * ky)

    def physical(symbol):
        return scipy.fft.irfftn(symbol * c, s=grid.shape, norm="forward")

    theta, u, v, w, theta_x, theta_y = map(physical, (1.0, mu, mv, mw, dx, dy))
    flux = np.mean(theta * w, axis=(0, 1))
    product = u * theta_x + v * theta_y + w * (flux - np.mean(flux))
    kept = kept_modes(grid, mode_cap)
    return np.where(kept, -scipy.fft.rfftn(product, norm="forward") - eps**2 * kh2 * c, 0.0)


def _kept_field(grid, mode_cap, seed):
    """A generic field on every mode `step` keeps under `mode_cap`."""
    theta = random_band_limited(grid, seed, kmin=0, kmax=max(grid.shape))
    return np.where(kept_modes(grid, mode_cap), theta.coeffs, 0.0)


def _relative(got, expected):
    return np.max(np.abs(got - expected)) / np.max(np.abs(expected))


@pytest.mark.parametrize("eps", [0.0, 0.3])
@pytest.mark.parametrize("shape", sorted({shape for shape, _ in TRUNCATIONS}))
def test_tendency_is_the_textbook_tendency(shape, eps):
    grid = Grid(*shape)
    c = _kept_field(grid, None, 11)
    got = tendency(SpectralField(grid, c), eps).coeffs
    assert _relative(got, textbook_tendency(grid, c, eps)) <= RTOL


@pytest.mark.parametrize("shape, mode_cap", TRUNCATIONS)
def test_capped_advective_tendency_is_the_textbook_tendency(shape, mode_cap):
    grid = Grid(*shape)
    c = _kept_field(grid, mode_cap, 12)
    stepper = rotconv.evolution._Stepper(grid, mode_cap)
    got = stepper.advective(c, np.empty_like(c))
    assert _relative(got, textbook_tendency(grid, c, 0.0, mode_cap)) <= RTOL
