import threading

import numpy as np
import pytest
from hypothesis import settings

import rotconv.grid

from rotconv.grid import Grid, PhysicalField, SpectralField, forward_transform

# property tests replay the same examples on every run and have no deadline,
# so a slow shared machine cannot fail them
settings.register_profile(
    "rotconv", derandomize=True, deadline=None, max_examples=50, database=None
)
settings.load_profile("rotconv")


def random_band_limited(grid, seed, kmin=1, kmax=6, rng=None):
    """Seeded real random field restricted to kmin <= max|k_i| <= kmax,
    with the horizontal-mean sector removed."""
    if rng is None:
        rng = np.random.default_rng(seed)
    F = forward_transform(PhysicalField(grid, rng.standard_normal(grid.shape)))
    kx, ky, kz = grid.wavenumbers()
    kmag = np.maximum(np.maximum(np.abs(kx), np.abs(ky)), np.abs(kz))
    band = (kmag >= kmin) & (kmag <= kmax)
    c = np.where(band, F.coeffs, 0.0)
    c[0, 0, :] = 0.0
    return SpectralField(grid, c)


# grid shapes and Galerkin caps of the truncation tests: unequal axes, caps
# that bind on some axes or all, and the smallest grid
TRUNCATIONS = [
    ((24, 20, 18), None), ((24, 20, 18), 4), ((8, 12, 16), None), ((8, 12, 16), 2),
    ((4, 4, 4), None),
]


def kept_modes(grid, mode_cap=None, mean=False):
    """The modes a step keeps, written out on the lattice: every |k_i| <=
    n_i // 3 and <= `mode_cap`, off the horizontal-mean sector unless `mean`."""
    k = grid.wavenumbers()
    keep = np.ones(grid.spectral_shape, dtype=bool)
    for k_i, n_i in zip(k, grid.shape):
        keep &= (np.abs(k_i) <= n_i // 3) & (mode_cap is None or np.abs(k_i) <= mode_cap)
    return keep if mean else keep & ((k[0] != 0) | (k[1] != 0))


@pytest.fixture(autouse=True)
def no_thread_left():
    """Fail a test that leaves more threads alive than it started with."""
    before = set(threading.enumerate())
    yield
    left = set(threading.enumerate()) - before
    assert not left, f"threads left alive: {sorted(t.name for t in left)}"


@pytest.fixture
def to_physical_calls(monkeypatch):
    """A list that grows by one entry per call of rotconv.grid.to_physical,
    which every inverse transform calls: a copy of the half spectrum, or of
    the batch of half spectra, it was given."""
    calls = []
    original = rotconv.grid.to_physical

    def counting(coeffs, *args, **kwargs):
        calls.append(coeffs.copy())
        return original(coeffs, *args, **kwargs)

    monkeypatch.setattr(rotconv.grid, "to_physical", counting)
    return calls


@pytest.fixture
def grid32():
    return Grid(32, 32, 32)


@pytest.fixture
def grid16():
    return Grid(16, 16, 16)
