import re
import tracemalloc

import numpy as np
import pytest

import rotconv.evolution
from rotconv.evolution import (
    BlowUpError,
    InitialSpec,
    SimConfig,
    SimState,
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

from conftest import random_band_limited


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


@pytest.mark.parametrize("mode_cap", [0, -1, 9, 2.5, True])
def test_config_rejects_mode_cap_outside_grid(grid16, mode_cap):
    with pytest.raises(ValueError, match="mode_cap must be"):
        SimConfig(grid=grid16, mode_cap=mode_cap)


def test_config_accepts_dt_and_mode_cap_limits():
    grid = Grid(8, 16, 8)
    SimConfig(grid=grid, dt=1, mode_cap=1)
    SimConfig(grid=grid, dt=np.float64(0.05), mode_cap=8)


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
    state = SimState(0.0, build_initial(grid32, config.initial, config.dealias))
    c0 = state.theta.coeffs.copy()
    for _ in range(100):
        state = step(state, 1e-2, config)
    assert np.max(np.abs(state.theta.coeffs - c0)) < 1e-12


def test_ifrk4_exact_diffusion_factor(grid32):
    eps, dt = 0.3, 0.05
    config = single_mode_config(grid32, epsilon=eps, dt=dt, integrator="if-rk4")
    state = SimState(0.0, build_initial(grid32, config.initial, config.dealias))
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


def test_step_rejects_bad_dt(grid16):
    config = single_mode_config(grid16)
    state = SimState(0.0, build_initial(grid16, config.initial, True))
    with pytest.raises(ValueError):
        step(state, 0.0, config)


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


def test_run_from_given_initial_state(grid16):
    init = InitialSpec(kind="random-band-limited", band=(1, 4), amplitude=0.5, seed=5)
    config = SimConfig(grid=grid16, epsilon=0.1, dt=0.05, t_end=0.2, initial=init,
                       mode_cap=3)
    a = run(config)
    b = run(config, theta0=initial_state(config))
    assert a.times == b.times and a.reports == b.reports
    assert np.array_equal(a.final_state.theta.coeffs, b.final_state.theta.coeffs)
    _, _, Z = grid16.meshgrid()
    with pytest.raises(ValueError):
        run(config, theta0=forward_transform(PhysicalField(grid16, np.cos(Z))))


def test_samples_cadence(grid16):
    # 5 steps of 0.05, sampled every 2nd step and at the last one
    config = single_mode_config(grid16, dt=0.05, t_end=0.25, diagnostics_every=2)
    times = [s.t for s in samples(config)]
    assert times == pytest.approx([0.0, 0.1, 0.2, 0.25], abs=1e-15)
    assert times == run(config).times


def test_step_keeps_the_integrator_output(grid16, monkeypatch):
    # the new state wraps the integrator's fresh array: no copy, read-only
    config = single_mode_config(grid16, epsilon=0.1)
    state = SimState(0.0, build_initial(grid16, config.initial, True))
    outputs = []

    def recording(*args):
        outputs.append(original(*args))
        return outputs[-1]

    original = rotconv.evolution._ifrk4_step
    monkeypatch.setattr(rotconv.evolution, "_ifrk4_step", recording)
    new = step(state, 0.01, config)
    assert new.theta.coeffs is outputs[0]
    assert not new.theta.coeffs.flags.writeable


def test_step_rejects_output_breaking_reality(grid16, monkeypatch):
    config = single_mode_config(grid16)
    state = SimState(0.0, build_initial(grid16, config.initial, True))

    def unpaired(c, *args):
        out = np.zeros_like(c)
        out[1, 2, 0] = 1.0  # its partner at (-1, -2, 0) stays zero
        return out

    monkeypatch.setattr(rotconv.evolution, "_ifrk4_step", unpaired)
    with pytest.raises(BlowUpError, match="reality") as info:
        step(state, 0.01, config)
    assert info.value.last_state is state


def test_run_t_end_zero(grid16):
    config = single_mode_config(grid16, t_end=0.0)
    traj = run(config)
    assert traj.final_state.t == 0.0
    assert len(traj.times) == 1


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


@pytest.mark.parametrize("mode, dealiased", [
    ((6, 0, 0), True), ((1, 0, 6), True),  # removed by the 2/3 rule: |k_i| <= 5 on N = 16
    ((0, 8, 0), False),  # the Nyquist mode: sin(8 y) vanishes at every grid point
    ((9, 0, 0), False),  # aliases to k1 = -7
])
def test_build_initial_rejects_unresolved_single_mode(grid16, mode, dealiased):
    spec = InitialSpec(kind="analytic-single-mode", mode=mode)
    message = f"mode {mode!r} is not resolved on the (16, 16, 16) grid"
    with pytest.raises(ValueError, match=re.escape(message)):
        build_initial(grid16, spec, dealiased)


@pytest.mark.parametrize("mode, dealiased", [((5, 0, 5), True), ((7, -7, 7), False)])
def test_build_initial_accepts_the_outermost_resolved_single_mode(grid16, mode, dealiased):
    F = build_initial(grid16, InitialSpec(kind="analytic-single-mode", mode=mode), dealiased)
    assert spectral_l2(F) == pytest.approx(np.sqrt((2 * np.pi) ** 3 / 2) * 0.1)


@pytest.mark.parametrize("integrator", ["rk4", "if-rk4"])
def test_step_memory_budget(grid32, integrator):
    # one step allocates at most 10 half-spectrum fields at once: the stage
    # inputs, the growing RK sum and the stages are formed in place, and the
    # tendency transforms one factor at a time
    config = SimConfig(grid=grid32, epsilon=0.1, dt=0.01, integrator=integrator)
    state = SimState(0.0, build_initial(grid32, config.initial))
    step(state, 0.01, config)  # fills the caches and the FFT plans
    tracemalloc.start()
    try:
        step(state, 0.01, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 * state.theta.coeffs.nbytes
