"""Property tests of the half-spectrum core on random 2/3-truncated fields.

Each example is a seeded real random field on N = 16, dealiased by the 2/3
rule and with its horizontal-mean sector removed.  Parseval is also checked
on the raw field, whose kz = nz/2 plane is not empty, so a wrong Parseval
weight on either self-conjugate plane fails a test.  The batched
transforms are checked bit for bit against `scipy.fft.irfftn` and `rfftn` on
random half spectra of unequal sizes, and so are their pruned forms, which
run the (x, y) passes on the box of the modes a step keeps only, and the
forward's form that writes into the caller's array.  The inverse returns its
real fields in the memory of the spectra it reads, and is checked bit for
bit against the same passes out of place too, on batches of grids up to 128
points a side.  The inverse of a field times a chain of symbols is checked
bit for bit against `scipy.fft.irfftn` of the product.  The z-profile antiderivative of the mean
temperature is checked the same way against `scipy.fft.rfft` and `irfft`,
and the lattice's wavenumbers against `scipy.fft.fftfreq`.
"""

from functools import reduce

import numpy as np
import scipy.fft
from hypothesis import assume, given, strategies as st

from rotconv.evolution import SimConfig, SimState, step, tendency
from rotconv.grid import (
    Grid,
    PhysicalField,
    _keep,
    _kept,
    _lattice,
    _z_antiderivative,
    derivative_symbol,
    forward_transform,
    inverse_transform,
    _pf,
    lp_norm,
    parseval_sum,
    spectral_l2,
    to_physical,
    to_spectral,
)
from rotconv.invariants import compute_report
from rotconv.velocity import velocity_symbols

from conftest import kept_modes

GRID = Grid(16, 16, 16)

seeds = st.integers(min_value=0, max_value=2**32 - 1)
# the dissipation scales as amplitude^4 and the round-off of the advective
# terms as amplitude^3, so the relative check needs amplitudes of order one
amplitudes = st.floats(min_value=0.1, max_value=10.0)


def random_field(seed, amplitude):
    rng = np.random.default_rng(seed)
    return forward_transform(PhysicalField(GRID, amplitude * rng.standard_normal(GRID.shape)))


def truncated_field(seed, amplitude):
    return _keep(random_field(seed, amplitude))


@given(seed=seeds, amplitude=amplitudes, eps=st.sampled_from([0.0, 0.2]))
def test_semi_discrete_energy_identity(seed, amplitude, eps):
    # (2pi)^3 Re<theta, T(theta)> = -(diss_h + diss_z): the advective term
    # conserves the L2 norm exactly, since the cubic products of 2/3-truncated
    # fields stay below the grid's aliasing limit
    theta = truncated_field(seed, amplitude)
    rate = parseval_sum(GRID, (np.conj(theta.coeffs) * tendency(theta, eps).coeffs).real)
    report = compute_report(SimState(0.0, theta), eps)
    dissipation = report.diss_h + report.diss_z
    assert abs(rate + dissipation) <= 1e-11 * dissipation


@given(seed=seeds, amplitude=amplitudes, truncate=st.booleans())
def test_weighted_parseval(seed, amplitude, truncate):
    theta = (truncated_field if truncate else random_field)(seed, amplitude)
    quadrature = lp_norm(inverse_transform(theta), 2.0) ** 2
    assert abs(spectral_l2(theta) ** 2 - quadrature) <= 1e-12 * quadrature


@given(seed=seeds, amplitude=amplitudes)
def test_transform_round_trip(seed, amplitude):
    theta = truncated_field(seed, amplitude)
    values = inverse_transform(theta)
    back = forward_transform(values).coeffs
    assert np.max(np.abs(back - theta.coeffs)) <= 1e-13 * np.max(np.abs(theta.coeffs))
    again = inverse_transform(forward_transform(values)).values
    assert np.max(np.abs(again - values.values)) <= 1e-13 * np.max(np.abs(values.values))


@given(seed=seeds, amplitude=amplitudes, eps=st.sampled_from([0.0, 0.2]),
       integrator=st.sampled_from(["rk4", "if-rk4"]))
def test_step_keeps_mean_sector_zero(seed, amplitude, eps, integrator):
    theta = truncated_field(seed, amplitude)
    config = SimConfig(grid=GRID, epsilon=eps, dt=0.01, integrator=integrator)
    moved = step(SimState(0.0, theta), 0.01, config)
    assert np.all(moved.theta.coeffs[0, 0, :] == 0.0)


even_sizes = st.integers(min_value=2, max_value=10).map(lambda h: 2 * h)


@given(nx=even_sizes, ny=even_sizes, nz=even_sizes, batch=st.integers(1, 9), seed=seeds)
def test_batched_transforms_are_scipy_transforms(nx, ny, nz, batch, seed):
    rng = np.random.default_rng(seed)
    shape = (batch, nx, ny, nz // 2 + 1)
    coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    expected = scipy.fft.irfftn(coeffs, axes=(-3, -2, -1), norm="forward")
    values = to_physical(coeffs.copy())
    spectra = to_spectral(values)
    assert values.shape == (batch, nx, ny, nz)
    assert np.array_equal(values, expected)
    assert np.array_equal(spectra, scipy.fft.rfftn(values, axes=(-3, -2, -1), norm="forward"))


@given(nx=even_sizes, ny=even_sizes, nz=even_sizes, batch=st.sampled_from([(), (1,), (3,)]),
       mode_cap=st.none() | st.integers(1, 7), seed=seeds, into=st.booleans())
def test_pruned_transforms_are_scipy_transforms(nx, ny, nz, batch, mode_cap, seed, into):
    # the tendency's passes: an inverse of spectra that are zero outside the
    # box of the kept modes, returned in their memory, and a negated forward
    # read on that box, written into the caller's array if `into`
    grid = Grid(nx, ny, nz)
    box = kept_modes(grid, mode_cap, mean=True)
    rng = np.random.default_rng(seed)
    shape = batch + grid.spectral_shape
    coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    coeffs[..., ~box] = 0.0
    values = rng.standard_normal(batch + grid.shape)
    spectra = scipy.fft.rfftn(values, axes=(-3, -2, -1), norm="forward")
    spectral_out = np.empty(shape, dtype=np.complex128) if into else None
    consumed = coeffs.copy()
    physical = to_physical(consumed, _kept(grid, mode_cap))
    assert np.shares_memory(physical, consumed)
    assert np.array_equal(physical, to_physical(coeffs.copy()))
    assert np.array_equal(to_spectral(values), spectra)
    negated = to_spectral(values, _kept(grid, mode_cap), -1.0, spectral_out)
    assert np.array_equal(physical.view(np.uint64), scipy.fft.irfftn(
        coeffs, axes=(-3, -2, -1), norm="forward").view(np.uint64))
    assert np.array_equal(negated[..., box], -spectra[..., box])
    if into:
        assert negated is spectral_out


grid_sizes = st.integers(min_value=2, max_value=64).map(lambda h: 2 * h)


@given(nx=grid_sizes, ny=grid_sizes, nz=grid_sizes, batch=st.integers(2, 3),
       pruned=st.booleans(), mode_cap=st.none() | st.integers(1, 43), seed=seeds)
def test_inverse_in_place_is_the_out_of_place_inverse(nx, ny, nz, batch, pruned, mode_cap, seed):
    # the real z pass writes line L of a batch entry over its input lines
    # K <= L only; any reordering of pocketfft's reads and writes (or a
    # second thread) would show here as a changed bit; pruned, the spectra
    # are zero outside the box of the kept modes
    assume(nx * ny * nz <= 2**18 and len({nx, ny, nz}) > 1)
    grid = Grid(nx, ny, nz)
    rng = np.random.default_rng(seed)
    shape = (batch, *grid.spectral_shape)
    coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if pruned:
        coeffs[..., ~kept_modes(grid, mode_cap, mean=True)] = 0.0
    consumed = coeffs.copy()
    values = to_physical(consumed, _kept(grid, mode_cap) if pruned else None)
    xy = _pf.c2c(coeffs, (-3, -2), False, 0, None, 1)
    assert values.shape == (batch, nx, ny, nz)
    assert np.shares_memory(values, consumed)
    assert np.array_equal(values, _pf.c2r(xy, (-1,), nz, False, 0, None, 1))
    assert np.array_equal(values, scipy.fft.irfftn(coeffs, axes=(-3, -2, -1), norm="forward"))


@given(nx=even_sizes, ny=even_sizes, nz=even_sizes, picks=st.lists(st.integers(0, 5), max_size=2),
       seed=seeds)
def test_inverse_of_symbols_is_irfftn_of_their_product(nx, ny, nz, picks, seed):
    # inverse_transform(F, s_1, s_2) is the real field of (F * s_1) * s_2
    assume(len({nx, ny, nz}) > 1)
    grid = Grid(nx, ny, nz)
    F = forward_transform(PhysicalField(grid, np.random.default_rng(seed).standard_normal(grid.shape)))
    table = (*velocity_symbols(grid), *(derivative_symbol(grid, axis) for axis in range(3)))
    symbols = [table[i] for i in picks]
    expected = scipy.fft.irfftn(reduce(np.multiply, symbols, F.coeffs), grid.shape, norm="forward")
    values = inverse_transform(F, *symbols).values
    assert np.array_equal(values.view(np.uint64), expected.view(np.uint64))


def test_forward_scaling_is_rfftn_scaling():
    # 1/N for N = 4 * 4 * 5462 = 2^5 * 2731 rounds differently straight to
    # double than through long double, as pocketfft computes it
    grid = Grid(4, 4, 5462)
    values = np.random.default_rng(5).standard_normal(grid.shape)
    expected = scipy.fft.rfftn(values, norm="forward")
    assert np.array_equal(to_spectral(values), expected)
    for mode_cap in (None, 1, 5):
        box = kept_modes(grid, mode_cap, mean=True)
        negated = to_spectral(values, _kept(grid, mode_cap), -1.0)
        assert np.array_equal(negated[box], -expected[box])


@given(nz=st.integers(min_value=2, max_value=64).map(lambda h: 2 * h), seed=seeds)
def test_z_antiderivative_is_scipy_antiderivative(nz, seed):
    g = np.random.default_rng(seed).standard_normal(nz)
    g -= np.mean(g)
    ghat = scipy.fft.rfft(g)
    k = np.arange(ghat.size, dtype=np.float64)
    ghat[0] = 0.0
    ghat[1:] = ghat[1:] / (1j * k[1:])
    ghat[-1] = 0.0  # the Nyquist mode of an even nz
    expected = scipy.fft.irfft(ghat, n=nz)
    assert np.array_equal(_z_antiderivative(g).view(np.uint64), expected.view(np.uint64))


@given(nx=even_sizes, ny=st.integers(min_value=2, max_value=129).map(lambda h: 2 * h))
def test_wavenumbers_are_fftfreq_integers(nx, ny):
    lat = _lattice(Grid(nx, ny, 4))
    assert lat.kx.dtype == lat.ky.dtype == np.int64
    assert lat.kx.ravel().tolist() == np.rint(scipy.fft.fftfreq(nx) * nx).astype(int).tolist()
    assert lat.ky.ravel().tolist() == np.rint(scipy.fft.fftfreq(ny) * ny).astype(int).tolist()
