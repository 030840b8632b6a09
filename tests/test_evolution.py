import re
import resource
import sys
import threading
import time
import tracemalloc
import types
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
import scipy.fft

import rotconv.evolution
import rotconv.experiments
import rotconv.grid
import rotconv.velocity
from rotconv.evolution import (
    BlowUpError,
    InitialSpec,
    SimConfig,
    SimState,
    Trajectory,
    build_initial,
    cfl_dt,
    initial_state,
    run,
    samples,
    step,
    tendency,
)
from rotconv.grid import (
    Grid,
    PhysicalField,
    SpectralField,
    dealias,
    forward_transform,
    inverse_transform,
    lp_norm,
    spectral_l2,
)
from rotconv.invariants import compute_report
from rotconv.meanstate import mean_profile

from conftest import TRUNCATIONS, kept_modes, random_band_limited


def single_mode_config(grid, amplitude=1.0, **kw):
    init = InitialSpec(kind="analytic-single-mode", mode=(1, 0, 0), amplitude=amplitude)
    return SimConfig(grid=grid, initial=init, **kw)


def test_config_validation(grid16):
    with pytest.raises(ValueError):
        SimConfig(grid=grid16, epsilon=-1.0)
    with pytest.raises(ValueError):
        SimConfig(grid=grid16, integrator="euler")
    with pytest.raises(ValueError):
        SimConfig(grid=grid16, diagnostics_every=0)


@pytest.mark.parametrize("dt", ["fast", 0.0, -0.05, float("nan"), float("inf"), True, None])
def test_config_rejects_bad_dt(grid16, dt):
    with pytest.raises(ValueError, match="dt must be"):
        SimConfig(grid=grid16, dt=dt)


@pytest.mark.parametrize("field, value", [
    ("epsilon", float("nan")), ("epsilon", float("inf")), ("epsilon", -1.0), ("epsilon", True),
    ("t_end", float("nan")), ("t_end", float("inf")), ("t_end", -0.5), ("t_end", "1"),
    ("diagnostics_every", 2.5), ("diagnostics_every", 0), ("diagnostics_every", True),
    ("safety", 0.0), ("safety", 1.5), ("safety", -0.5), ("safety", float("nan")),
    ("safety", "0.5"),
])
def test_config_rejects_bad_epsilon_t_end_and_cadence(grid16, field, value):
    with pytest.raises(ValueError, match=f"{field} must be"):
        SimConfig(grid=grid16, **{field: value})


# the 2/3 rule keeps |k_i| <= 5 on N = 16, so a cap of 6 truncates like no cap
@pytest.mark.parametrize("mode_cap", [0, -1, 6, 9, 2.5, True])
def test_config_rejects_mode_cap_outside_grid(grid16, mode_cap):
    with pytest.raises(ValueError, match="mode_cap must be an integer in 1..5, the largest"):
        SimConfig(grid=grid16, mode_cap=mode_cap)


def test_config_accepts_dt_and_mode_cap_limits():
    grid = Grid(8, 16, 8)  # the 2/3 rule keeps |k_i| <= (2, 5, 2)
    SimConfig(grid=grid, dt=1, mode_cap=1)
    SimConfig(grid=grid, dt=np.float64(0.05), mode_cap=5)


def test_tendency_single_horizontal_mode_is_steady(grid32):
    X, _, _ = grid32.meshgrid()
    theta = forward_transform(PhysicalField(grid32, 0.7 * np.sin(X)))
    assert spectral_l2(tendency(theta, 0.0)) < 1e-14
    t_eps = inverse_transform(tendency(theta, 0.2))
    assert np.max(np.abs(t_eps.values + 0.2**2 * 0.7 * np.sin(X))) < 1e-12


def test_tendency_sinx_cosz_closed_form(grid32):
    X, _, Z = grid32.meshgrid()
    theta = forward_transform(PhysicalField(grid32, np.sin(X) * np.cos(Z)))
    t0 = inverse_transform(tendency(theta, 0.0))
    exact = -(1.0 / 16.0) * np.sin(X) * np.cos(Z) * np.cos(2 * Z)
    assert np.max(np.abs(t0.values - exact)) < 1e-13


def test_tendency_zero_field(grid16):
    theta = SpectralField(grid16, np.zeros(grid16.spectral_shape, dtype=complex))
    assert spectral_l2(tendency(theta, 0.3)) == 0.0


def test_steady_state_under_stepping(grid32):
    config = single_mode_config(grid32, epsilon=0.0, dt=1e-2, integrator="rk4")
    state = SimState(0.0, build_initial(grid32, config.initial))
    c0 = state.theta.coeffs.copy()
    for _ in range(100):
        state = step(state, 1e-2, config)
    assert np.max(np.abs(state.theta.coeffs - c0)) < 1e-12


def test_ifrk4_exact_diffusion_factor(grid32):
    eps, dt = 0.3, 0.05
    config = single_mode_config(grid32, epsilon=eps, dt=dt, integrator="if-rk4")
    state = SimState(0.0, build_initial(grid32, config.initial))
    before = state.theta.coeffs[1, 0, 0]
    after = step(state, dt, config).theta.coeffs[1, 0, 0]
    assert abs(after - before * np.exp(-(eps**2) * dt)) < 1e-15


def test_one_step_fourth_order(grid32):
    X, _, Z = grid32.meshgrid()
    theta0 = forward_transform(PhysicalField(grid32, np.sin(X) * np.cos(Z)))
    config = SimConfig(grid=grid32, epsilon=0.0, integrator="rk4")

    def advance(dt, n):
        state = SimState(0.0, theta0)
        for _ in range(n):
            state = step(state, dt, config)
        return state.theta.coeffs

    dt = 0.1
    ref = advance(dt / 64.0, 64)
    err_full = np.max(np.abs(advance(dt, 1) - ref))
    err_half = np.max(np.abs(advance(dt / 2.0, 2) - ref))
    ratio = err_full / err_half
    assert 16.0 * 0.8 <= ratio <= 16.0 * 1.2


def test_rk4_step_is_rk4_on_the_public_tendency(grid16):
    # classical RK4 and `tendency` share one definition of the full right-hand
    # side, eps^2 lap_h theta' included, to the last bit
    eps, dt = 0.2, 0.05
    config = SimConfig(grid=grid16, epsilon=eps, integrator="rk4")
    c = dealias(random_band_limited(grid16, 4)).coeffs

    def k(x):
        return tendency(SpectralField(grid16, x), eps).coeffs

    k1 = k(c)
    k2 = k(c + 0.5 * dt * k1)
    k3 = k(c + 0.5 * dt * k2)
    k4 = k(c + dt * k3)
    expected = c + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    got = step(SimState(0.0, SpectralField(grid16, c)), dt, config).theta.coeffs
    assert np.array_equal(got, expected)


def test_ifrk4_step_is_its_formula_on_the_public_tendency(grid16):
    # the integrating-factor step is RK4 on `tendency` without diffusion, the
    # diffusion taken exactly per mode, in its docstring's operation order
    # (2 e_half n2 joins the sum before n3 arrives), to the last bit
    eps, dt = 0.2, 0.05
    config = SimConfig(grid=grid16, epsilon=eps, integrator="if-rk4")
    c = dealias(random_band_limited(grid16, 4)).coeffs
    kh2 = rotconv.grid._lattice(grid16).kh2

    def n(x):
        return tendency(SpectralField(grid16, x), 0.0).coeffs

    e_half = np.exp(0.5 * dt * eps**2 * -kh2)
    e_full = e_half * e_half
    n1 = n(c)
    n2 = n(e_half * (c + (0.5 * dt) * n1))
    n3 = n(e_half * c + (0.5 * dt) * n2)
    n4 = n((dt * e_half) * n3 + e_full * c)
    expected = e_full * c + (dt / 6.0) * (((e_full * n1 + (2.0 * e_half) * n2)
                                           + (2.0 * e_half) * n3) + n4)
    expected[0, 0, :] = 0.0
    got = step(SimState(0.0, SpectralField(grid16, c)), dt, config).theta.coeffs
    assert np.array_equal(got, expected)


def test_tendency_is_the_tendency_of_the_kept_modes(grid16):
    # modes |k_i| = 6 lie outside the 2/3 rule at N = 16; the tendency reads
    # them as zero, its diffusive term included
    theta = random_band_limited(grid16, 4, kmax=6)
    assert not np.array_equal(theta.coeffs, dealias(theta).coeffs)
    assert tendency(theta, 0.2) == tendency(dealias(theta), 0.2)


@pytest.mark.parametrize("mode_cap, planes", [(None, 6), (3, 4)])
def test_tendency_xy_passes_run_on_the_kept_planes(grid16, monkeypatch, mode_cap, planes):
    # a tendency makes 10 pocketfft calls, every complex pass in place on the
    # box of the kept modes |k_i| <= m = planes - 1 and no more: one batched
    # inverse of u, v, d_x theta' and d_y theta' in `spec[1:5]` runs its x pass
    # on the two blocks of kept k_y rows of the kept kz planes, then its y
    # pass on those planes, then one c2r into the memory it reads; one forward
    # reads a stepper buffer, writes `out` and runs its x pass on the kept
    # planes, then its y pass on the two blocks of kept k_x columns.  Then two
    # z-only passes run on the half box (2 m + 1, m + 1, 16) in the memory of
    # `spec[3:5]`: one inverse of the pair (theta', w), and the forward of
    # w dtheta_bar/dz with 1/nz.  Every pass runs on one FFT thread
    stepper = rotconv.evolution._Stepper(grid16, mode_cap)
    c = dealias(random_band_limited(grid16, 4)).coeffs
    pf = rotconv.grid._pf
    xy, z, z_only = [], [], []

    def in_spec(a):
        return [np.shares_memory(a, buf) for buf in stepper.spec]

    def c2c(a, axes, forward, inorm, out, nthreads):
        assert out is a and nthreads == 1
        if axes == (-1,):
            z_only.append((forward, inorm, a.shape, in_spec(a)))
        else:
            xy.append((forward, axes, a.shape))
        return pf.c2c(a, axes, forward, inorm, out, nthreads)

    def c2r(a, axes, lastsize, forward, inorm, out, nthreads):
        assert nthreads == 1
        z.append((a.shape, in_spec(a), np.shares_memory(out, a)))
        return pf.c2r(a, axes, lastsize, forward, inorm, out, nthreads)

    def r2c(a, axes, forward, inorm, out, nthreads):
        assert nthreads == 1
        z.append((a.shape, in_spec(a), out is target))
        return pf.r2c(a, axes, forward, inorm, out, nthreads)

    monkeypatch.setattr(rotconv.grid, "_pf", types.SimpleNamespace(c2c=c2c, c2r=c2r, r2c=r2c))
    target = stepper.spec[0]
    stepper.rhs(c, 0.2, target)
    assert len(xy + z + z_only) == 10
    m = planes - 1
    inverse = [(False, (-3,), (4, 16, m + 1, m + 1)), (False, (-3,), (4, 16, m, m + 1)),
               (False, (-2,), (4, 16, 16, m + 1))]
    forward = [(True, (-3,), (16, 16, m + 1)), (True, (-2,), (m + 1, 16, m + 1)),
               (True, (-2,), (m, 16, m + 1))]
    assert xy == inverse + forward
    batch, slot_2 = [False] + [True] * 4, [False, False, True, False, False]
    assert z == [((4, 16, 16, 9), batch, True), ((16, 16, 16), slot_2, True)]
    box, pair = (2 * m + 1, m + 1, 16), [False] * 3 + [True, False]
    assert z_only == [(False, 0, (2, *box), pair), (True, 2, box, pair)]


@pytest.mark.parametrize("shape, mode_cap", [
    ((16, 16, 16), None), ((16, 16, 16), 3), ((32, 32, 32), None),
    ((24, 20, 18), 4), ((8, 12, 16), 1), ((48, 48, 48), 20), ((4, 4, 4), None),
])
def test_workspace_drops_the_modes_outside_the_rule(shape, mode_cap):
    # the union of the four boxes the tendency fills with zeros is the mean
    # sector and every mode outside the 2/3 rule or `mode_cap`
    grid = Grid(*shape)
    dropped = np.zeros(grid.spectral_shape, dtype=bool)
    for box in rotconv.grid._kept(grid, mode_cap).boxes:
        dropped[box] = True
    assert np.array_equal(dropped, ~kept_modes(grid, mode_cap))


@pytest.mark.parametrize("mode_cap", [None, 3])
def test_stepper_reads_each_table_from_its_owner(grid16, mode_cap):
    # one owner per table: the stepper holds the owners' cached arrays, or
    # views of them, not copies
    stepper = rotconv.evolution._Stepper(grid16, mode_cap)
    symbols = rotconv.velocity.velocity_symbols(grid16)
    assert stepper.m_h.base is symbols and np.array_equal(stepper.m_h, symbols[:2])
    assert stepper.grad_h is rotconv.grid._horizontal_gradient(grid16)
    assert not (symbols.flags.writeable or stepper.grad_h.flags.writeable)
    assert stepper.kh2 is rotconv.grid._lattice(grid16).kh2
    # the packed mw is cached per (grid, mode_cap): a stepper per public
    # `step` reads it, and builds it only once
    assert stepper.mw_h is rotconv.velocity.half_box_w_symbol(grid16, mode_cap)
    assert stepper.mw_h.dtype == np.complex128 and not stepper.mw_h.flags.writeable
    assert stepper.kept is rotconv.grid._kept(grid16, mode_cap)


@pytest.mark.parametrize("shape, mode_cap", TRUNCATIONS)
def test_every_truncation_zeroes_exactly_the_modes_outside_the_box(shape, mode_cap):
    # a generic field keeps every mode of the box and none outside it; the
    # 2/3 rule alone for the readers that take no `mode_cap`, with the mean
    # sector for `dealias`
    grid = Grid(*shape)
    rule, kept = kept_modes(grid), kept_modes(grid, mode_cap)
    config = SimConfig(grid=grid, mode_cap=mode_cap, initial=InitialSpec(band=(0, max(shape))))
    full = forward_transform(PhysicalField(grid, np.random.default_rng(7).standard_normal(shape)))
    theta = build_initial(grid, config.initial)
    assert np.array_equal(dealias(full).coeffs != 0, kept_modes(grid, mean=True))
    assert np.array_equal(theta.coeffs != 0, rule)
    assert np.array_equal(tendency(theta, 0.3).coeffs != 0, rule)
    assert np.array_equal(rotconv.evolution._truncate(config, theta, "band").coeffs != 0, kept)
    pert = rotconv.experiments._perturbation_field(config, (1, 1, 1), 1e-6)
    assert not np.any(pert.coeffs[~kept]) and pert.coeffs[1, 1, 1] != 0


@pytest.mark.parametrize("shape, mode_cap", TRUNCATIONS)
def test_pruned_steps_are_the_full_pass_steps(shape, mode_cap, monkeypatch):
    # pruning the (x, y) passes to the kept box changes no bit of a step: the
    # inverses skip zero lines only, and `step` zeroes the forward's skipped modes
    grid = Grid(*shape)
    cases = [("rk4", 0.0), ("rk4", 0.3), ("if-rk4", 0.2)]

    def three_steps(integrator, eps):
        config = SimConfig(grid=grid, epsilon=eps, integrator=integrator, mode_cap=mode_cap,
                           initial=InitialSpec(band=(0, max(shape))))
        state = SimState(0.0, initial_state(config))
        for _ in range(3):
            state = step(state, 0.01, config)
        return state.theta.coeffs.view(np.uint64)

    pruned = [three_steps(*case) for case in cases]
    monkeypatch.setattr(rotconv.evolution, "to_physical",
                        lambda c, kept: rotconv.grid.to_physical(c))
    monkeypatch.setattr(rotconv.evolution, "to_spectral",
                        lambda v, kept, scale, out: rotconv.grid.to_spectral(v, None, scale, out))
    for case, bits in zip(cases, pruned):
        assert np.array_equal(three_steps(*case), bits)


# the 2/3 rule keeps |k_i| <= (8, 6, 6) on the 24 x 20 x 18 grid: a cap of 4
# binds on every axis, a cap of 7 on x only
UNRESOLVED = "is not resolved on the (24, 20, 18) grid: it needs |k_i| <= (8, 6, 6)"


@pytest.mark.parametrize("mode_cap, axis, m, message", [
    (None, 0, 8, UNRESOLVED), (None, 2, 6, UNRESOLVED),
    (4, 1, 4, "lies outside the Galerkin truncation mode_cap = 4: it needs |k_i| <= 4"),
    (7, 0, 7, "lies outside the Galerkin truncation mode_cap = 7: it needs |k_i| <= 7"),
    (7, 1, 6, UNRESOLVED),
])
@pytest.mark.parametrize("sign", [1, -1])
def test_check_mode_accepts_the_outermost_kept_mode_and_no_further(mode_cap, axis, m, message,
                                                                   sign):
    grid = Grid(24, 20, 18)
    mode = [1, 1, 1]
    mode[axis] = sign * m
    rotconv.evolution._check_mode("mode", tuple(mode), grid, mode_cap)
    mode[axis] = sign * (m + 1)
    with pytest.raises(ValueError, match=re.escape(f"mode {tuple(mode)!r} {message}") + "$"):
        rotconv.evolution._check_mode("mode", tuple(mode), grid, mode_cap)


def test_transforms_run_on_no_gil_holding_fft(grid16, monkeypatch):
    # the public FFTs that hold the GIL, or add Python dispatch, are never
    # reached: not by stepping, the tendency, the batched transforms, the
    # mean profile's antiderivative or the lattice's wavenumbers
    def refuse(*args, **kwargs):
        raise AssertionError("rotconv called a public FFT function")

    for module, names in ((np.fft, ("rfft", "irfft")),
                          (scipy.fft, ("fftn", "ifftn", "rfftn", "irfftn", "rfft", "irfft",
                                       "fftfreq"))):
        for name in names:
            monkeypatch.setattr(module, name, refuse)
    config = SimConfig(grid=grid16, epsilon=0.1, dt=0.01, t_end=0.03, integrator="rk4")
    states = list(samples(config))
    assert len(states) == 4
    theta = states[-1].theta
    mw = rotconv.velocity.velocity_symbols(grid16)[2]
    profile = mean_profile(inverse_transform(theta), inverse_transform(theta, mw))
    assert np.max(np.abs(profile.theta_bar)) > 0.0
    tendency(initial_state(config), 0.1)
    coeffs = np.stack([initial_state(config).coeffs] * 2)
    values = rotconv.grid.to_physical(coeffs.copy())
    assert values.shape == (2, 16, 16, 16)
    assert np.allclose(rotconv.grid.to_spectral(values), coeffs, rtol=0, atol=1e-15)
    misses = rotconv.grid._lattice.cache_info().misses
    assert rotconv.grid._lattice(Grid(6, 10, 14)).kx.ravel().tolist() == [0, 1, 2, -3, -2, -1]
    assert rotconv.grid._lattice.cache_info().misses == misses + 1


@pytest.mark.parametrize("dt", [0.0, -0.05, float("nan"), float("inf"), True, "0.1", None])
def test_step_rejects_bad_dt(grid16, dt):
    # the rule of SimConfig's dt: a positive finite number, not a bool
    config = single_mode_config(grid16)
    state = SimState(0.0, build_initial(grid16, config.initial, True))
    with pytest.raises(ValueError, match=f"dt must be a positive finite number, got {dt!r}$"):
        step(state, dt, config)


@pytest.mark.parametrize("entry", [
    lambda state, config: step(state, 0.05, config),
    lambda state, config: next(samples(config, state.theta)),
    lambda state, config: run(config, state.theta),
    lambda state, config: cfl_dt(state, 0.5, config),
], ids=["step", "samples", "run", "cfl_dt"])
def test_entry_points_reject_a_state_on_another_grid(grid16, grid32, entry):
    config = single_mode_config(grid16, dt=0.05, t_end=0.1)
    state = SimState(0.0, build_initial(grid32, config.initial, True))
    named = re.escape(f"on {grid32}, but the config's grid is {grid16}")
    with pytest.raises(ValueError, match=named):
        entry(state, config)


def test_blow_up_reported(grid16):
    init = InitialSpec(kind="random-band-limited", band=(1, 4), amplitude=1e160, seed=0)
    config = SimConfig(grid=grid16, epsilon=0.0, integrator="rk4", initial=init)
    state = SimState(0.0, build_initial(grid16, init, True))
    with pytest.raises(BlowUpError) as info:
        with pytest.warns(RuntimeWarning):  # the overflow that the blow-up check catches
            step(state, 1e-3, config)
    assert info.value.last_state.t == 0.0


def test_cfl_zero_state_default_cap(grid16):
    theta = SpectralField(grid16, np.zeros(grid16.spectral_shape, dtype=complex))
    config = SimConfig(grid=grid16, epsilon=0.0)
    assert cfl_dt(SimState(0.0, theta), 0.5, config) == pytest.approx(0.05)


@pytest.mark.parametrize("safety", [True, "0.5", None, float("nan"), 0, 1.5])
def test_cfl_rejects_bad_safety(grid16, safety):
    theta = SpectralField(grid16, np.zeros(grid16.spectral_shape, dtype=complex))
    config = SimConfig(grid=grid16, epsilon=0.0)
    with pytest.raises(ValueError, match=re.escape(f"safety must be a number in (0, 1], got {safety!r}")):
        cfl_dt(SimState(0.0, theta), safety, config)


def test_cfl_advection_limited(grid32):
    # theta = A sin(x) cos(z) has |v|_max = A/2, |u| = 0
    X, _, Z = grid32.meshgrid()
    config = SimConfig(grid=grid32, epsilon=0.0)

    def dt_for(amp):
        theta = forward_transform(PhysicalField(grid32, amp * np.sin(X) * np.cos(Z)))
        return cfl_dt(SimState(0.0, theta), 1.0, config)

    dy = 2.0 * np.pi / grid32.ny
    assert dt_for(20.0) == pytest.approx(dy / 10.0, rel=1e-10)
    assert dt_for(40.0) == pytest.approx(dt_for(20.0) / 2.0, rel=1e-10)


def rk4_amplification(z):
    """Classical RK4's amplification of y' = lambda y at z = lambda dt."""
    return 1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24


def test_rk4_real_limit_is_the_last_damping_float():
    # |R(-x)| <= 1 in exact arithmetic at the limit, and > 1 at the next float out
    limit = rotconv.evolution._RK4_REAL_LIMIT
    assert abs(rk4_amplification(-Fraction(limit))) <= 1
    assert abs(rk4_amplification(-Fraction(np.nextafter(limit, 3.0)))) > 1


# the largest kept kh2 = m_x^2 + m_y^2: m_i = 10 on N = 32, and 4 under mode_cap 4
DIFFUSIVE_CASES = [(None, 1.0, 200), (None, 0.5, 200), (4, 1.0, 32)]


@pytest.mark.parametrize("mode_cap, eps, kh2", DIFFUSIVE_CASES)
@pytest.mark.parametrize("safety", [0.5, 1.0])
def test_cfl_rk4_diffusive_cap_reads_the_kept_modes(grid32, mode_cap, eps, kh2, safety):
    # the real root of (R(z) - 1)/z, where RK4's real stability interval ends
    roots = np.roots([1 / 24, 1 / 6, 1 / 2, 1])
    limit = -roots[np.argmin(np.abs(roots.imag))].real
    assert limit == pytest.approx(2.7852935634, abs=1e-10)
    config = SimConfig(grid=grid32, epsilon=eps, integrator="rk4", mode_cap=mode_cap)
    state = SimState(0.0, initial_state(config))  # amplitude 0.1: the advective steps are longer
    assert cfl_dt(state, safety, config) == pytest.approx(
        safety * limit / (eps**2 * kh2), rel=1e-13)


@pytest.mark.parametrize("mode_cap, eps, kh2", DIFFUSIVE_CASES)
def test_cfl_rk4_step_damps_the_outermost_kept_mode(grid32, mode_cap, eps, kh2):
    # at safety 1 the outermost kept mode's diffusive amplification is at most 1,
    # in exact arithmetic; 1% more and RK4 amplifies it (by 1.043)
    config = SimConfig(grid=grid32, epsilon=eps, integrator="rk4", mode_cap=mode_cap)
    dt = cfl_dt(SimState(0.0, initial_state(config)), 1.0, config)
    rate = -Fraction(eps) ** 2 * kh2
    assert abs(rk4_amplification(rate * Fraction(dt))) <= 1
    assert abs(rk4_amplification(rate * Fraction(1.01 * dt))) > Fraction(1.04)


@pytest.mark.parametrize("safety", [0.5, 1.0])
def test_step_zeroes_the_modes_it_does_not_keep(grid32, safety):
    # a theta0 with content outside the kept modes (three boxes and the mean
    # sector) 1e-13 relative, which `samples` accepts as round-off; the outermost
    # mode (16, 16) sits at 2.56 times the kept modes' kh2, where RK4 at the kept
    # modes' step amplifies it
    config = SimConfig(grid=grid32, epsilon=1.0, integrator="rk4", safety=safety)
    c = initial_state(config).coeffs.copy()
    tiny = 1e-13 * np.max(np.abs(c))
    for mode in [(16, 16, 1), (12, 1, 1), (1, 1, 12), (0, 0, 1)]:
        c[mode] = tiny
    outside = ~kept_modes(grid32)
    states = list(samples(replace(config, diagnostics_every=1), SpectralField(grid32, c)))
    assert np.count_nonzero(states[0].theta.coeffs[outside]) == 4
    assert all(np.all(s.theta.coeffs[outside] == 0.0) for s in states[1:])
    assert states[-1].t == pytest.approx(1.0, abs=1e-12)
    assert len(states) - 1 == {0.5: 144, 1.0: 72}[safety]
    l2 = [spectral_l2(s.theta) for s in states]
    assert all(b <= a for a, b in zip(l2, l2[1:]))


def test_run_from_given_initial_state(grid16):
    init = InitialSpec(kind="random-band-limited", band=(1, 4), amplitude=0.5, seed=5)
    config = SimConfig(grid=grid16, epsilon=0.1, dt=0.05, t_end=0.2, initial=init,
                       mode_cap=3)
    a = run(config)
    b = run(config, theta0=initial_state(config))
    assert [r.t for r in a.reports] == [r.t for r in b.reports] and a.reports == b.reports
    assert np.array_equal(a.final_state.theta.coeffs, b.final_state.theta.coeffs)
    _, _, Z = grid16.meshgrid()
    with pytest.raises(ValueError):
        run(config, theta0=forward_transform(PhysicalField(grid16, np.cos(Z))))


@pytest.mark.parametrize("mode_cap, mode", [(None, (6, 1, 0)), (None, (1, 0, 6)),
                                           (3, (4, 1, 0)), (3, (1, 0, 4))])
def test_samples_rejects_modes_outside_the_kept_ones(grid16, mode_cap, mode):
    X, Y, Z = grid16.meshgrid()
    config = SimConfig(grid=grid16, epsilon=0.1, dt=0.05, t_end=0.1, mode_cap=mode_cap)
    kept = 0.5 * np.sin(X + Y + Z)
    outside = 1e-9 * np.sin(mode[0] * X + mode[1] * Y + mode[2] * Z)
    rule = "2/3 rule" + ("" if mode_cap is None else f".*mode_cap = {mode_cap}")
    with pytest.raises(ValueError, match=rule):
        run(config, theta0=forward_transform(PhysicalField(grid16, kept + outside)))
    # the round-off a transform leaves outside the kept modes is accepted
    traj = run(config, theta0=forward_transform(PhysicalField(grid16, kept)))
    assert [r.t for r in traj.reports] == pytest.approx([0.0, 0.05, 0.1], abs=1e-15)


def test_samples_cadence(grid16):
    # 5 steps of 0.05, sampled every 2nd step and at the last one
    config = single_mode_config(grid16, dt=0.05, t_end=0.25, diagnostics_every=2)
    times = [s.t for s in samples(config)]
    assert times == pytest.approx([0.0, 0.1, 0.2, 0.25], abs=1e-15)
    assert times == [r.t for r in run(config).reports]


def test_step_keeps_the_integrator_output(grid16, monkeypatch):
    # the new state wraps the integrator's fresh array: no copy, read-only
    config = single_mode_config(grid16, epsilon=0.1)
    state = SimState(0.0, build_initial(grid16, config.initial, True))
    outputs = []

    def recording(*args):
        outputs.append(original(*args))
        return outputs[-1]

    original = rotconv.evolution._Stepper.ifrk4
    monkeypatch.setattr(rotconv.evolution._Stepper, "ifrk4", recording)
    new = step(state, 0.01, config)
    assert new.theta.coeffs is outputs[0]
    assert not new.theta.coeffs.flags.writeable


def test_step_rejects_output_breaking_reality(grid16, monkeypatch):
    config = single_mode_config(grid16)
    state = SimState(0.0, build_initial(grid16, config.initial, True))

    def unpaired(stepper, c, *args):
        out = np.zeros_like(c)
        out[1, 2, 0] = 1.0  # its partner at (-1, -2, 0) stays zero
        return out

    monkeypatch.setattr(rotconv.evolution._Stepper, "ifrk4", unpaired)
    with pytest.raises(BlowUpError, match="reality") as info:
        step(state, 0.01, config)
    assert info.value.last_state is state


@pytest.mark.parametrize("t_end, builds", [(0.0, 0), (0.1, 1)])
def test_samples_builds_a_stepper_only_to_step(grid16, monkeypatch, t_end, builds):
    built = []

    class Counting(rotconv.evolution._Stepper):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(rotconv.evolution, "_Stepper", Counting)
    states = list(samples(single_mode_config(grid16, dt=0.05, t_end=t_end)))
    assert len(states) == 1 + 2 * builds
    assert len(built) == builds


def test_run_t_end_zero(grid16):
    config = single_mode_config(grid16, t_end=0.0)
    traj = run(config)
    assert traj.final_state.t == 0.0
    assert [r.t for r in traj.reports] == [0.0]


def test_run_steady_state(grid32):
    config = single_mode_config(grid32, epsilon=0.0, dt=0.02, t_end=1.0,
                                integrator="rk4")
    states = list(samples(config))
    diff = states[-1].theta.coeffs - states[0].theta.coeffs
    assert spectral_l2(SpectralField(grid32, diff)) <= 1e-10


def test_run_deterministic(grid16):
    init = InitialSpec(kind="random-band-limited", band=(1, 4), amplitude=0.5, seed=5)
    config = SimConfig(grid=grid16, epsilon=0.1, dt=0.05, t_end=0.5, initial=init)
    a = run(config)
    b = run(config)
    assert np.array_equal(a.final_state.theta.coeffs, b.final_state.theta.coeffs)
    assert [r.l2 for r in a.reports] == [r.l2 for r in b.reports]


def test_mean_sector_stays_zero(grid16):
    init = InitialSpec(kind="random-band-limited", band=(1, 4), amplitude=1.0, seed=1)
    config = SimConfig(grid=grid16, epsilon=0.05, dt=0.05, t_end=0.5, initial=init)
    for s in samples(config):
        assert np.max(np.abs(s.theta.coeffs[0, 0, :])) == 0.0


def test_z_independent_sector_keeps_flat_mean(grid16):
    # data with only k3 = 0 modes: the flux is z independent, so the mean
    # gradient vanishes identically along the run
    X, Y, _ = grid16.meshgrid()
    values = np.sin(X) + 0.5 * np.sin(X + Y)
    theta = forward_transform(PhysicalField(grid16, values))
    config = SimConfig(grid=grid16, epsilon=0.0, dt=0.02, integrator="rk4")
    state = SimState(0.0, theta)
    from rotconv.invariants import compute_report

    for _ in range(10):
        state = step(state, 0.02, config)
        assert compute_report(state, 0.0).mean_grad_l2 <= 1e-13


def test_l2_decay_random_runs(grid16):
    for eps in (0.0, 0.1):
        init = InitialSpec(kind="random-band-limited", band=(1, 4), amplitude=1.0, seed=9)
        config = SimConfig(grid=grid16, epsilon=eps, dt=0.02, t_end=0.5,
                           integrator="rk4", initial=init)
        traj = run(config)
        l2 = [r.l2 for r in traj.reports]
        for a, b in zip(l2, l2[1:]):
            assert b <= a + 1e-8 * l2[0]


def test_initial_spec_normalization(grid32):
    spec = InitialSpec(kind="random-band-limited", band=(2, 5), amplitude=0.25, seed=3)
    F = build_initial(grid32, spec, True)
    assert abs(lp_norm(inverse_transform(F), 6.0) - 0.25) < 1e-12
    assert np.max(np.abs(F.coeffs[0, 0, :])) == 0.0
    kx, ky, kz = grid32.wavenumbers()
    kmag = np.maximum(np.maximum(np.abs(kx), np.abs(ky)), np.abs(kz))
    outside = (kmag < 2) | (kmag > 5)
    assert np.max(np.abs(np.where(outside, F.coeffs, 0.0))) == 0.0


@pytest.mark.parametrize("field, value", [
    ("kind", "bogus"),
    ("mode", (1, 2)), ("mode", (1, 2, 3, 4)), ("mode", (1.0, 0, 0)), ("mode", [1, 0, 0]),
    ("mode", (0, 0, 3)), ("mode", 5),
    ("band", (6, 1)), ("band", (-1, 4)), ("band", (1,)), ("band", (1, 4.5)),
    ("amplitude", 0.0), ("amplitude", float("nan")), ("amplitude", float("inf")),
    ("amplitude", "0.1"), ("amplitude", True),
    ("seed", -1), ("seed", 1.5), ("seed", "3"), ("seed", True),
])
def test_initial_spec_rejects_bad_fields(field, value):
    with pytest.raises(ValueError, match=field):
        InitialSpec(**{field: value})


@pytest.mark.parametrize("band", [(0, 0), (6, 8), (20, 30)])
def test_build_initial_rejects_band_with_no_kept_mode(grid16, band):
    # N = 16 keeps |k_i| <= 5 under the 2/3 rule; (0, 0) is the mean sector only
    with pytest.raises(ValueError, match="band"):
        build_initial(grid16, InitialSpec(band=band))


@pytest.mark.parametrize("mode_cap, initial, named", [
    (2, InitialSpec(band=(3, 6)), r"band \(3, 6\)"),
    (2, InitialSpec(kind="analytic-single-mode", mode=(3, 1, 0)), r"mode \(3, 1, 0\)"),
], ids=["band", "mode"])
def test_initial_state_rejects_mode_cap_below_the_initial_modes(grid16, mode_cap, initial, named):
    config = SimConfig(grid=grid16, mode_cap=mode_cap, initial=initial)
    with pytest.raises(ValueError, match=f"mode_cap {mode_cap} .*{named}"):
        initial_state(config)


def test_initial_state_keeps_a_nonzero_capped_start(grid16):
    config = SimConfig(grid=grid16, mode_cap=3, initial=InitialSpec(band=(3, 6)))
    full = build_initial(grid16, config.initial)
    kx, ky, kz = grid16.wavenumbers()
    kept = np.maximum(np.maximum(np.abs(kx), np.abs(ky)), kz) <= 3
    assert np.array_equal(initial_state(config).coeffs, np.where(kept, full.coeffs, 0.0))


# the 2/3 rule keeps |k_i| <= 5 on N = 16
@pytest.mark.parametrize("mode", [
    (6, 0, 0), (1, 0, 6),
    (0, 8, 0),  # the Nyquist mode: sin(8 y) vanishes at every grid point
    (9, 0, 0),  # aliases to k1 = -7
    (7, -7, 7),  # resolved by the grid (|k_i| < 8), but removed by the 2/3 rule
])
def test_build_initial_rejects_unresolved_single_mode(grid16, mode):
    spec = InitialSpec(kind="analytic-single-mode", mode=mode)
    message = f"mode {mode!r} is not resolved on the (16, 16, 16) grid"
    with pytest.raises(ValueError, match=re.escape(message)):
        build_initial(grid16, spec)


def test_build_initial_accepts_the_outermost_resolved_single_mode(grid16):
    F = build_initial(grid16, InitialSpec(kind="analytic-single-mode", mode=(5, 0, 5)))
    assert spectral_l2(F) == pytest.approx(np.sqrt((2 * np.pi) ** 3 / 2) * 0.1)


def test_build_initial_rejects_turning_off_the_two_thirds_rule(grid16):
    with pytest.raises(ValueError, match="2/3 rule"):
        build_initial(grid16, InitialSpec(), False)


@pytest.mark.parametrize("integrator", ["rk4", "if-rk4"])
def test_step_memory_budget(grid32, integrator):
    # one step allocates at most 7 half-spectrum fields at once: the stage
    # inputs, the stages and the transforms' real outputs live in the 5
    # half-spectrum buffers of its one-off stepper, and the RK sum grows in
    # the new state, the only other field (6.54 for rk4 and 6.60 for if-rk4,
    # with numpy's casting buffer for the real-by-complex products); 3
    # half-spectrum and 3 real buffers took 7.37 and 7.43
    config = SimConfig(grid=grid32, epsilon=0.1, dt=0.01, integrator=integrator)
    state = SimState(0.0, build_initial(grid32, config.initial))
    step(state, 0.01, config)  # fills the caches and the FFT plans
    tracemalloc.start()
    try:
        step(state, 0.01, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 7 * state.theta.coeffs.nbytes


@pytest.mark.parametrize("mode_cap", [None, 3])
def test_a_second_stepper_allocates_only_its_buffers(grid32, mode_cap):
    # criterion 3 builds a stepper per public `step`, so every table a stepper
    # reads stays cached by its owner: the symbols per grid, the packed mw and
    # the mask of the dropped modes per truncation.  A second stepper then
    # allocates its 5 half-spectrum buffers and a few hundred bytes of views
    # (about 0.8 kB here); a stacked (i kx, i ky) built per stepper would add
    # 32 kB, the mask 17 kB and -kh2 8 kB
    rotconv.evolution._Stepper(grid32, mode_cap)  # fills the caches
    tracemalloc.start()
    try:
        stepper = rotconv.evolution._Stepper(grid32, mode_cap)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stepper.spec.shape == (5, *grid32.spectral_shape)
    assert stepper.spec.nbytes <= peak <= stepper.spec.nbytes + 4096


@pytest.mark.skipif(not hasattr(resource, "RUSAGE_THREAD"), reason="no per-thread rusage")
@pytest.mark.parametrize("integrator", ["rk4", "if-rk4"])
def test_trajectory_steps_in_its_own_buffers(grid32, integrator):
    # after warm-up the steps of one `samples` trajectory take no fresh pages
    # from the kernel, and allocate about 2 half-spectrum fields at once: the
    # state the caller holds and the next one, plus the O(nx ny) reality
    # check of the next one; everything else is reused
    config = SimConfig(grid=grid32, epsilon=0.1, dt=1e-3, t_end=1.0, integrator=integrator)
    states = samples(config)
    for _ in range(5):
        state = next(states)
    before = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt
    for _ in range(10):
        state = next(states)
    faults = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt - before
    tracemalloc.start()
    try:
        for _ in range(10):
            state = next(states)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        states.close()
    assert faults < 50
    assert peak <= 3 * state.theta.coeffs.nbytes


def _run_config(grid):
    init = InitialSpec(kind="random-band-limited", band=(1, 4), amplitude=0.5, seed=3)
    return SimConfig(grid=grid, epsilon=0.1, dt=0.05, t_end=0.3, initial=init)


def test_runs_of_one_config_compare_equal(grid16):
    # fields compare by grid and values, so states and trajectories compare whole
    first, second = run(_run_config(grid16)), run(_run_config(grid16))
    assert first == second
    theta = first.final_state.theta
    changed = theta.coeffs.copy()
    changed[1, 0, 1] += 1e-12
    changed = SpectralField(grid16, changed)
    assert changed != theta
    assert SimState(first.final_state.t, changed) != first.final_state
    assert inverse_transform(theta) == inverse_transform(second.final_state.theta)
    assert inverse_transform(changed) != inverse_transform(theta)


def test_threaded_run_matches_the_serial_path(grid16, monkeypatch):
    # one started thread, not the caller, computes every report while the
    # caller steps, and the reports and final state are the serial order's
    config = _run_config(grid16)
    states = list(samples(config))
    serial = Trajectory([compute_report(s, config.epsilon) for s in states], states[-1])
    reports, steps, started = [], [], []  # thread id per call

    def recording_report(state, epsilon):
        reports.append(threading.get_ident())
        return original_report(state, epsilon)

    def recording_step(*args, **kwargs):
        steps.append(threading.get_ident())
        return original_step(*args, **kwargs)

    def counting_start(thread):
        started.append(thread)
        original_start(thread)

    original_report = rotconv.evolution.compute_report
    original_step = rotconv.evolution.step
    original_start = threading.Thread.start
    monkeypatch.setattr(rotconv.evolution, "compute_report", recording_report)
    monkeypatch.setattr(rotconv.evolution, "step", recording_step)
    monkeypatch.setattr(threading.Thread, "start", counting_start)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threaded = run(config)
    finally:
        sys.setswitchinterval(interval)
    assert len(reports) == 7 and len(steps) == 6
    assert set(steps) == {threading.get_ident()}
    assert len(started) == 1
    assert set(reports) == {started[0].ident}
    assert started[0].ident != threading.get_ident()
    assert threaded == serial


def _outcome_of(call):
    """How `call` ended, run in a thread of its own so that a hang fails the
    test: its error."""
    outcome = {}

    def target():
        try:
            call()
        except Exception as err:
            outcome["error"] = f"{type(err).__name__}: {err}"

    runner = threading.Thread(target=target, daemon=True)
    runner.start()
    runner.join(timeout=60)
    assert not runner.is_alive()
    return outcome


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_run_report_error_reaches_the_caller(grid16, monkeypatch, workers):
    # no report starts after the failing one, as in the serial order, and
    # run keeps that order whatever CPU count experiments has read
    started = []

    def failing_report(state, epsilon):
        started.append(state.t)
        if state.t > 0.07:
            raise ValueError(f"injected at t = {state.t:.2f}")
        return original_report(state, epsilon)

    original_report = rotconv.evolution.compute_report
    monkeypatch.setattr(rotconv.experiments, "WORKERS", workers)
    monkeypatch.setattr(rotconv.evolution, "compute_report", failing_report)
    outcome = _outcome_of(lambda: run(_run_config(grid16)))
    assert outcome == {"error": "ValueError: injected at t = 0.10"}
    assert len(started) == 3


@pytest.mark.parametrize("report_fails, error", [
    (False, "BlowUpError: injected at t = 0.15"),
    # the serial order meets the report of t = 0.1 before the step to t = 0.15
    (True, "ValueError: injected at t = 0.10"),
], ids=["step", "report-first"])
def test_run_blow_up_while_a_report_is_pending(grid16, monkeypatch, report_fails, error):
    # the report of t = 0.1 waits until the step from it has failed
    failed = threading.Event()
    finished = []

    def waiting_report(state, epsilon):
        if state.t > 0.07:
            assert failed.wait(timeout=30)
            if report_fails:
                raise ValueError(f"injected at t = {state.t:.2f}")
        finished.append(state.t)
        return original_report(state, epsilon)

    def failing_step(state, dt, config, *args):
        if state.t + dt > 0.12:
            failed.set()
            raise BlowUpError(f"injected at t = {state.t + dt:.2f}", state)
        return original_step(state, dt, config, *args)

    original_report = rotconv.evolution.compute_report
    original_step = rotconv.evolution.step
    monkeypatch.setattr(rotconv.evolution, "compute_report", waiting_report)
    monkeypatch.setattr(rotconv.evolution, "step", failing_step)
    outcome = _outcome_of(lambda: run(_run_config(grid16)))
    assert outcome == {"error": error}
    assert len(finished) == (2 if report_fails else 3)


def test_run_report_thread_start_failure_reaches_the_caller(grid16, monkeypatch):
    # the one report thread of the call fails to start
    def start(thread):
        started.append(thread)
        raise RuntimeError("can't start new thread")

    started = []
    before = set(threading.enumerate())
    monkeypatch.setattr(threading.Thread, "start", start)
    with pytest.raises(RuntimeError, match="can't start new thread"):
        run(_run_config(grid16))
    assert len(started) == 1
    assert set(threading.enumerate()) == before


def test_run_builds_each_table_once(grid16, monkeypatch):
    # the report thread and the stepping thread both read the velocity symbols
    # and the lattice, with no caller building them first; a slow build holds
    # a cold cache miss open while both reach it, and still each table is
    # built once (`grid._table`)
    def slow(build):
        def building(*args):
            time.sleep(0.05)
            return build(*args)
        return building

    monkeypatch.setattr(rotconv.grid, "_Lattice", slow(rotconv.grid._Lattice))
    monkeypatch.setattr(rotconv.velocity, "_lattice", slow(rotconv.velocity._lattice))
    tables = (rotconv.grid._lattice, rotconv.grid._kept, rotconv.grid._horizontal_gradient,
              rotconv.velocity.velocity_symbols, rotconv.velocity.half_box_w_symbol)
    for table in tables:
        table.cache_clear()
    run(_run_config(grid16))
    assert [table.cache_info().misses for table in tables] == [1] * len(tables)
