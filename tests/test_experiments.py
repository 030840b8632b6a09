import re
import sys
import threading
import weakref
from collections import defaultdict
from dataclasses import replace

import numpy as np
import pytest

import rotconv.evolution
import rotconv.experiments
import rotconv.grid
from rotconv.evolution import (
    BlowUpError,
    InitialSpec,
    SimConfig,
    build_initial,
    cfl_dt,
    samples,
)
from rotconv.experiments import (
    _sweep_errors,
    _sweep_reference,
    h2h_bound_constant,
    mean_h1_error_and_bound,
    sweep_epsilon,
    sweep_resolution,
    twin_run,
)
from rotconv.evolution import SimState
from rotconv.grid import DOMAIN_VOLUME, SpectralField, spectral_l2

from conftest import random_band_limited


def random_config(grid, **kw):
    defaults = dict(
        epsilon=0.0,
        dt=0.05,
        t_end=0.5,
        integrator="if-rk4",
        initial=InitialSpec(kind="random-band-limited", band=(1, 4),
                            amplitude=0.5, seed=2),
        diagnostics_every=2,
    )
    defaults.update(kw)
    return SimConfig(grid=grid, **defaults)


def test_h2h_bound_constant(grid32):
    # sup_k of kh2 * |m| is 1 for the w symbol (attained at k3 = 0, kh2 = 1)
    # and 1/2 for each horizontal component (attained at |k2| = |k3| = 1)
    assert h2h_bound_constant(grid32) == pytest.approx(2.0, abs=1e-12)


def test_sweep_epsilon_validation(grid16):
    cfg = random_config(grid16)
    with pytest.raises(ValueError):
        sweep_epsilon(cfg, [0.5, 1.5])
    with pytest.raises(ValueError):
        sweep_epsilon(cfg, [0.125, 0.25])
    with pytest.raises(ValueError, match="strictly decreasing"):
        sweep_epsilon(cfg, [0.5, 0.5])
    with pytest.raises(ValueError, match="strictly decreasing"):
        sweep_epsilon(cfg, [0.5, 0.25, 0.25])
    with pytest.raises(ValueError):
        sweep_epsilon(cfg, [0.5, 0.25], "sideways")


@pytest.mark.parametrize("modes", [[8, 4], [4, 4, 6], [4, 6, 6]])
def test_sweep_resolution_validation(grid16, modes):
    with pytest.raises(ValueError, match="mode counts must be strictly increasing"):
        sweep_resolution(random_config(grid16), modes)


def test_sweep_epsilon_single_value(grid16):
    res = sweep_epsilon(random_config(grid16, t_end=0.2), [0.25])
    assert res.slope is None
    assert len(res.err_l2) == 1 and res.err_l2[0] > 0.0


def test_sweep_epsilon_steady_mode_superconvergence(grid16):
    # steady single-mode data: the regularized run is pure per-mode diffusion,
    # so the error is norm0 * (1 - exp(-eps^2 t)) and the rate doubles to O(eps^2)
    init = InitialSpec(kind="analytic-single-mode", mode=(1, 0, 0), amplitude=1.0)
    cfg = SimConfig(grid=grid16, epsilon=0.0, dt=0.02, t_end=0.2,
                    integrator="if-rk4", initial=init)
    eps = [0.5, 0.25, 0.125]
    res = sweep_epsilon(cfg, eps)
    norm0 = np.sqrt(DOMAIN_VOLUME / 2.0)
    for e, err in zip(eps, res.err_l2):
        exact = norm0 * (1.0 - np.exp(-(e**2) * 0.2))
        assert abs(err - exact) < 1e-10
    assert 1.9 <= res.slope <= 2.05


def test_sweep_epsilon_error_bounds_hold(grid16):
    res = sweep_epsilon(random_config(grid16), [0.5, 0.25])
    assert res.max_vel_excess <= 1e-10
    assert res.max_mean_excess <= 1e-10
    # the t = 0 samples of a matched sweep have identically zero difference;
    # the worst excess is the margin of the other samples, below their bounds
    assert res.max_vel_excess < 0.0
    assert res.max_mean_excess < 0.0


def test_sweep_members_share_the_reference_time_grid(grid16):
    # rk4 caps dt by diffusion for eps > 0, so under dt = "auto" each member
    # would pick its own step; the sweep must step all of them on the smallest
    cfg = random_config(grid16, dt="auto", t_end=0.2, integrator="rk4",
                        diagnostics_every=1)
    state0 = SimState(0.0, build_initial(grid16, cfg.initial))
    members = [replace(cfg, epsilon=e) for e in (0.0, 0.5)]
    dt = min(cfl_dt(state0, cfg.safety, m) for m in members)
    ref, member = (list(samples(replace(m, dt=dt))) for m in members)
    expected = [
        spectral_l2(SpectralField(grid16, a.theta.coeffs - b.theta.coeffs))
        for a, b in zip(member, ref)
    ]
    res = sweep_epsilon(cfg, [0.5])
    assert res.times == [s.t for s in ref]
    assert res.per_time_l2 == [expected]


@pytest.mark.parametrize("experiment, n_members", [
    (lambda cfg: sweep_epsilon(cfg, [0.5, 0.25, 0.125]), 3),
    (lambda cfg: sweep_epsilon(cfg, [0.5, 0.25], "eps-scaled"), 2),
    (lambda cfg: sweep_resolution(cfg, [2, 3, 4, 5]), 3),
    (lambda cfg: twin_run(cfg, 1e-6), 2),
], ids=["sweep-epsilon", "sweep-epsilon-scaled", "sweep-resolution", "twin"])
def test_members_stream_against_the_stored_reference(grid16, monkeypatch, experiment, n_members):
    # members run beside the reference, on one helper thread and then on the
    # caller.  Whenever a run steps, in its thread: of its own samples only the
    # one being stepped is alive, no state of a run whose thread has moved on
    # to another run is alive, and no difference field that thread measured is
    # alive.  Once the experiment returns, no sampled state is alive: the
    # stored reference parts are the only trajectory held
    runs = []  # weakrefs to the states of each `samples` call
    first = {}  # thread id -> the weakrefs of its first run: the caller's is the reference
    current = {}  # thread id -> the weakrefs of the run it is stepping
    finished = []  # the runs whose thread has started another run since
    measured = defaultdict(list)  # thread id -> weakrefs to the fields whose L2 norm it took
    alive = []  # per step: (is a member, (finished runs' states, own states, own measured fields))

    def recording_samples(*args, **kwargs):
        mine = []
        runs.append(mine)
        first.setdefault(threading.get_ident(), mine)
        if threading.get_ident() in current:
            finished.append(current[threading.get_ident()])
        current[threading.get_ident()] = mine
        for state in original_samples(*args, **kwargs):
            mine.append(weakref.ref(state))
            yield state

    def checking_step(*args, **kwargs):
        own = current[threading.get_ident()]
        alive.append((own is not first[caller],
                      (sum(r() is not None for run_ in list(finished) for r in run_),
                       sum(r() is not None for r in own),
                       sum(r() is not None for r in measured[threading.get_ident()]))))
        return original_step(*args, **kwargs)

    def recording_l2(field):
        measured[threading.get_ident()].append(weakref.ref(field))
        return original_l2(field)

    caller = threading.get_ident()
    original_samples = rotconv.experiments.samples
    original_step = rotconv.evolution.step
    original_l2 = rotconv.experiments.spectral_l2
    monkeypatch.setattr(rotconv.grid, "WORKERS", 2)
    monkeypatch.setattr(rotconv.experiments, "samples", recording_samples)
    monkeypatch.setattr(rotconv.evolution, "step", checking_step)
    monkeypatch.setattr(rotconv.experiments, "spectral_l2", recording_l2)
    experiment(random_config(grid16, t_end=0.15, diagnostics_every=1))
    assert len(runs) == 1 + n_members
    assert sorted(member for member, _ in alive) == [False] * 3 + [True] * 3 * n_members
    assert len(current) == 2 and finished  # two threads, and one moved on
    assert {counts for _, counts in alive} == {(0, 1, 0)}
    assert sum(r() is not None for run_ in runs for r in run_) == 0


def _failing_step(fail_at):
    """`step` raising BlowUpError from the state at time >= fail_at[eps] of a
    run with that eps."""
    def step(state, dt, config):
        if state.t >= fail_at.get(config.epsilon, np.inf) - 1e-12:
            raise BlowUpError(f"injected at eps = {config.epsilon}", state)
        return original(state, dt, config)

    original = rotconv.evolution.step
    return step


@pytest.mark.parametrize("workers", [1, 2, 4])
@pytest.mark.parametrize("fail_at, failing_eps", [
    ({0.0: 0.1}, 0.0),
    # the later member fails first, but the error is the one serial order meets
    ({0.25: 0.2, 0.125: 0.0}, 0.25),
], ids=["reference", "members"])
def test_stream_errors_reach_the_caller(grid16, monkeypatch, workers, fail_at, failing_eps):
    monkeypatch.setattr(rotconv.grid, "WORKERS", workers)
    monkeypatch.setattr(rotconv.evolution, "step", _failing_step(fail_at))
    before = set(threading.enumerate())
    outcome = {}

    def call():
        try:
            sweep_epsilon(random_config(grid16), [0.5, 0.25, 0.125])
        except BlowUpError as err:
            outcome["error"] = str(err)
        outcome["workers set"] = hasattr(rotconv.grid._thread, "workers")

    runner = threading.Thread(target=call, daemon=True)
    runner.start()
    runner.join(timeout=60)
    assert not runner.is_alive()
    assert outcome == {"error": f"injected at eps = {failing_eps}", "workers set": False}
    assert set(threading.enumerate()) == before


def test_helper_start_failure_reaches_the_caller(grid16, monkeypatch):
    # the first helper starts and waits on the reference; the second cannot start
    def start(thread):
        if len(started) == 1:
            raise RuntimeError("can't start new thread")
        started.append(thread)
        original_start(thread)

    started = []
    original_start = threading.Thread.start
    monkeypatch.setattr(rotconv.grid, "WORKERS", 4)
    monkeypatch.setattr(threading.Thread, "start", start)
    with pytest.raises(RuntimeError, match="can't start new thread"):
        sweep_epsilon(random_config(grid16), [0.5, 0.25, 0.125])
    assert not started[0].is_alive()
    assert not hasattr(rotconv.grid._thread, "workers")


@pytest.mark.parametrize("fail_at, started", [({0.0: 0.1}, 1), ({0.5: 0.1}, 2)],
                         ids=["reference", "first-member"])
def test_no_member_starts_after_a_failure(grid16, monkeypatch, fail_at, started):
    # in serial order a failing run is the last one to start
    calls = []

    def counting_samples(*args, **kwargs):
        calls.append(args[0].epsilon)
        return original_samples(*args, **kwargs)

    original_samples = rotconv.experiments.samples
    monkeypatch.setattr(rotconv.grid, "WORKERS", 1)
    monkeypatch.setattr(rotconv.evolution, "step", _failing_step(fail_at))
    monkeypatch.setattr(rotconv.experiments, "samples", counting_samples)
    with pytest.raises(BlowUpError):
        sweep_epsilon(random_config(grid16), [0.5, 0.25, 0.125])
    assert calls == [0.0, 0.5, 0.25, 0.125][:started]


@pytest.mark.parametrize("experiment", [
    lambda cfg: sweep_epsilon(cfg, [0.5, 0.25, 0.125]),
    lambda cfg: sweep_epsilon(cfg, [0.5, 0.25], "eps-scaled"),
    lambda cfg: sweep_resolution(cfg, [2, 3, 4, 5]),
    lambda cfg: twin_run(cfg, 1e-6),
], ids=["sweep-epsilon", "sweep-epsilon-scaled", "sweep-resolution", "twin"])
def test_concurrent_members_match_the_serial_path(grid16, monkeypatch, experiment):
    # WORKERS = 1 runs every trajectory in the caller in turn; 4 gives every
    # member a helper thread of its own, and with a short switch interval the
    # threads interleave often.  While helpers run, each thread transforms a
    # large grid with one FFT worker, and the caller's count comes back once
    # they are done
    fft_workers = []  # per step: the stepping thread's FFT worker count at 64^3

    def recording_step(*args, **kwargs):
        fft_workers.append(rotconv.grid._workers(64, 64, 64))
        return original_step(*args, **kwargs)

    original_step = rotconv.evolution.step
    monkeypatch.setattr(rotconv.evolution, "step", recording_step)
    results = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for workers in (1, 2, 4):
            monkeypatch.setattr(rotconv.grid, "WORKERS", workers)
            fft_workers.clear()
            results.append(experiment(random_config(grid16)))
            assert set(fft_workers) == {1}
            assert rotconv.grid._workers(64, 64, 64) == workers
    finally:
        sys.setswitchinterval(interval)
    assert results[1] == results[0]
    assert results[2] == results[0]


def test_eps_scaled_sweep_samples_every_reference_time(grid16):
    res = sweep_epsilon(random_config(grid16), [0.5, 0.25], "eps-scaled")
    assert res.times[-1] == pytest.approx(0.5)
    assert [len(s) for s in res.per_time_l2] == [len(res.times)] * 2
    assert all(s[0] > 0.0 for s in res.per_time_l2)


def test_mean_h1_bound_is_at_most_three_inverse_transforms(grid16, to_physical_calls):
    a = SimState(0.0, random_band_limited(grid16, 21, kmax=4))
    b = SimState(0.0, random_band_limited(grid16, 22, kmax=4))
    to_physical_calls.clear()
    mean_h1_error_and_bound(a, b)
    assert len(to_physical_calls) <= 3


def test_member_sample_is_one_inverse_transform(grid16, to_physical_calls):
    # the reference part runs once per reference sample; each member sample
    # with a nonzero difference then costs one batched inverse, of its (theta, w)
    ref = _sweep_reference(random_band_limited(grid16, 22, kmax=4))
    theta = random_band_limited(grid16, 21, kmax=4)
    to_physical_calls.clear()
    errors = _sweep_errors(theta, ref)
    assert len(to_physical_calls) == 1
    assert errors[0] > 0.0


def test_mean_h1_bound_on_random_states(grid16):
    a = SimState(0.0, random_band_limited(grid16, 21, kmax=4))
    b = SimState(0.0, random_band_limited(grid16, 22, kmax=4))
    err, bound = mean_h1_error_and_bound(a, b)
    assert err <= bound + 1e-12


def test_sweep_resolution_single_mode_floor(grid16):
    init = InitialSpec(kind="analytic-single-mode", mode=(1, 0, 0), amplitude=1.0)
    cfg = SimConfig(grid=grid16, epsilon=0.0, dt=0.05, t_end=0.2,
                    integrator="rk4", initial=init)
    res = sweep_resolution(cfg, [2, 4, 5])
    assert all(e < 1e-12 for e in res.err_l2)


def test_sweep_resolution_monotone(grid32):
    cfg = random_config(grid32, t_end=0.4,
                        initial=InitialSpec(kind="random-band-limited",
                                            band=(1, 8), amplitude=2.0, seed=13))
    res = sweep_resolution(cfg, [4, 8, 10])
    assert res.err_l2[0] >= res.err_l2[1] >= res.err_l2[2]
    assert res.err_l2[2] == 0.0  # the finest member is the reference
    with pytest.raises(ValueError):
        sweep_resolution(cfg, [8, 4])


def test_twin_zero_perturbation(grid16):
    rep = twin_run(random_config(grid16, t_end=0.2), 0.0)
    assert max(rep.err_l2) == 0.0
    assert max(rep.err_dual) == 0.0


def test_twin_linear_response(grid16):
    rep = twin_run(random_config(grid16), 1e-6, (1, 1, 1))
    assert rep.response_ratio == pytest.approx(0.5, abs=0.05)
    assert rep.in_linear_regime
    assert np.isfinite(rep.fitted_rate)


def test_twin_rejects_mean_sector_perturbation(grid16):
    with pytest.raises(ValueError):
        twin_run(random_config(grid16), 1e-6, (0, 0, 1))


@pytest.mark.parametrize("delta_amp, delta_mode, dealiased, message", [
    (1e-6, (20, 0, 0), False, "delta_mode (20, 0, 0) is not resolved"),  # aliases to k1 = 4
    (1e-6, (8, 0, 0), False, "delta_mode (8, 0, 0) is not resolved"),  # the Nyquist plane
    (1e-6, (6, 0, 0), True, "delta_mode (6, 0, 0) is not resolved"),  # removed by the 2/3 rule
    (1e-6, (1, 1), True, "delta_mode must be a tuple of three integers"),
    (1e-6, (1, 1.5, 0), True, "delta_mode must be a tuple of three integers"),
    (float("nan"), (1, 1, 1), True, "delta_amp must be a finite number"),
    (float("inf"), (1, 1, 1), True, "delta_amp must be a finite number"),
    ("1e-6", (1, 1, 1), True, "delta_amp must be a finite number"),
])
def test_twin_rejects_perturbations_the_grid_cannot_carry(grid16, delta_amp, delta_mode,
                                                          dealiased, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        twin_run(random_config(grid16, dealias=dealiased), delta_amp, delta_mode)


def test_twin_accepts_the_outermost_resolved_mode(grid16):
    rep = twin_run(random_config(grid16, t_end=0.1), 1e-6, (5, 0, 5))
    assert rep.err_l2[0] == pytest.approx(1e-6)
