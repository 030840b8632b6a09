import re
import sys
import threading
import time
import tracemalloc
import weakref
from collections import defaultdict
from dataclasses import replace

import numpy as np
import pytest

import rotconv.evolution
import rotconv.experiments
import rotconv.grid
import rotconv.velocity
from rotconv.evolution import (
    BlowUpError,
    InitialSpec,
    SimConfig,
    build_initial,
    cfl_dt,
    samples,
)
from rotconv.experiments import (
    _stream,
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

from conftest import kept_modes, random_band_limited


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
    with pytest.raises(ValueError, match="eps list must not be empty"):
        sweep_epsilon(cfg, [])
    # named, not a bare TypeError from the range check
    with pytest.raises(ValueError, match=r"eps values must be numbers, got \['0.5'\]"):
        sweep_epsilon(cfg, ["0.5"])
    with pytest.raises(ValueError, match=r"eps values must be numbers, got \[None\]"):
        sweep_epsilon(cfg, [None])


@pytest.mark.parametrize("modes", [[8, 4], [4, 4, 6], [4, 6, 6]])
def test_sweep_resolution_validation(grid16, modes):
    with pytest.raises(ValueError, match="mode counts must be strictly increasing"):
        sweep_resolution(random_config(grid16), modes)


@pytest.mark.parametrize("modes, message", [
    ([], "mode counts must not be empty"),
    # the reference alone would be compared with itself: a fake zero error
    ([3], r"mode counts must not be empty or a single count .*got \[3\]"),
    # would run mode_cap 2 but fit the slope at 2.5
    ([2.5, 3], "mode counts must be integers"),
    ([2, 3.0], "mode counts must be integers"),
    # every count from n_i // 3 = 5 on keeps the same modes: fake zero errors and slopes
    ([5, 6, 7], r"mode counts must be at most 5, .* on the \(16, 16, 16\) grid, got \[5, 6, 7\]"),
    ([3, 6, 8], r"mode counts must be at most 5, .*got \[3, 6, 8\]"),
])
def test_sweep_resolution_rejects_malformed_mode_counts(grid16, modes, message):
    with pytest.raises(ValueError, match=message):
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
    # members run beside the reference: 3 runs do not divide evenly over 2
    # CPUs, so each member steps on a helper of its own; 4 runs do, so the
    # members run on one helper and then on the caller.  Whenever a run
    # steps, in its thread: of its own samples only the one being stepped is
    # alive, no state of a run whose thread has moved on to another run is
    # alive, and no difference field that thread measured is alive.  Once the
    # experiment returns, no sampled state is alive: the stored reference
    # parts are the only trajectory held
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
    monkeypatch.setattr(rotconv.experiments, "WORKERS", 2)
    monkeypatch.setattr(rotconv.experiments, "samples", recording_samples)
    monkeypatch.setattr(rotconv.evolution, "step", checking_step)
    monkeypatch.setattr(rotconv.experiments, "spectral_l2", recording_l2)
    experiment(random_config(grid16, t_end=0.15, diagnostics_every=1))
    assert len(runs) == 1 + n_members
    assert sorted(member for member, _ in alive) == [False] * 3 + [True] * 3 * n_members
    if (1 + n_members) % 2:
        assert len(current) == 1 + n_members and not finished  # a thread per run
    else:
        assert len(current) == 2 and finished  # two threads, and one moved on
    assert {counts for _, counts in alive} == {(0, 1, 0)}
    assert sum(r() is not None for run_ in runs for r in run_) == 0


def _failing_step(fail_at):
    """`step` raising BlowUpError from the state at time >= fail_at[eps] of a
    run with that eps."""
    def step(state, dt, config, *args):
        if state.t >= fail_at.get(config.epsilon, np.inf) - 1e-12:
            raise BlowUpError(f"injected at eps = {config.epsilon}", state)
        return original(state, dt, config, *args)

    original = rotconv.evolution.step
    return step


@pytest.mark.parametrize("workers", [1, 2, 4])
@pytest.mark.parametrize("eps_list, fail_at, failing_eps", [
    ([0.5, 0.25, 0.125], {0.0: 0.1}, 0.0),
    # the later member fails first, but the error is the one serial order meets
    ([0.5, 0.25, 0.125], {0.25: 0.2, 0.125: 0.0}, 0.25),
    # likewise when 3 runs give each member a helper of its own
    ([0.5, 0.25], {0.5: 0.2, 0.25: 0.0}, 0.5),
], ids=["reference", "members", "three-runs"])
def test_stream_errors_reach_the_caller(grid16, monkeypatch, workers, eps_list, fail_at,
                                        failing_eps):
    monkeypatch.setattr(rotconv.experiments, "WORKERS", workers)
    monkeypatch.setattr(rotconv.evolution, "step", _failing_step(fail_at))
    before = set(threading.enumerate())
    outcome = {}

    def call():
        try:
            sweep_epsilon(random_config(grid16), eps_list)
        except BlowUpError as err:
            outcome["error"] = str(err)

    runner = threading.Thread(target=call, daemon=True)
    runner.start()
    runner.join(timeout=60)
    assert not runner.is_alive()
    assert outcome == {"error": f"injected at eps = {failing_eps}"}
    assert set(threading.enumerate()) == before


def _second_helper_fails_to_start(monkeypatch, workers, experiment):
    """Run `experiment` on `workers` CPUs where the first helper starts and
    waits on the reference and the second cannot start: the error reaches the
    caller and the started helper is joined."""
    def start(thread):
        if len(started) == 1:
            raise RuntimeError("can't start new thread")
        started.append(thread)
        original_start(thread)

    started = []
    original_start = threading.Thread.start
    monkeypatch.setattr(rotconv.experiments, "WORKERS", workers)
    monkeypatch.setattr(threading.Thread, "start", start)
    with pytest.raises(RuntimeError, match="can't start new thread"):
        experiment()
    assert not started[0].is_alive()


def test_helper_start_failure_reaches_the_caller(grid16, monkeypatch):
    _second_helper_fails_to_start(
        monkeypatch, 4, lambda: sweep_epsilon(random_config(grid16), [0.5, 0.25, 0.125]))


def test_twin_helper_start_failure_reaches_the_caller(grid16, monkeypatch):
    # 3 runs on 2 CPUs ask for two helpers
    _second_helper_fails_to_start(monkeypatch, 2, lambda: twin_run(random_config(grid16), 1e-6))


@pytest.mark.parametrize("experiment, threads", [
    (lambda cfg: twin_run(cfg, 1e-6), {1: 1, 2: 3, 4: 3}),
    (lambda cfg: sweep_epsilon(cfg, [0.5, 0.25, 0.125]), {1: 1, 2: 2, 4: 4}),
    (lambda cfg: sweep_epsilon(cfg, [0.5, 0.25, 0.125, 0.0625]), {1: 1, 2: 3, 4: 5}),
], ids=["twin", "sweep-epsilon", "sweep-epsilon-5"])
def test_runs_get_a_thread_each_when_they_split_unevenly(grid16, monkeypatch, experiment, threads):
    # per CPU count W, the threads that step a run: runs = q W + r start
    # min(runs, W + r) of them.  3 runs do not divide evenly over 2 CPUs, so
    # each gets a thread; 4 runs do, and keep one thread per CPU; 5 runs on 2
    # start 3, and the two that finish first take the last two runs.  Every
    # thread but the caller is a started helper, and the results do not
    # depend on the count
    def recording_samples(*args, **kwargs):
        stepping.add(threading.get_ident())
        return original_samples(*args, **kwargs)

    def counting_start(thread):
        starts.append(thread)
        original_start(thread)

    stepping, starts, counts, results = set(), [], {}, []
    original_samples = rotconv.experiments.samples
    original_start = threading.Thread.start
    monkeypatch.setattr(rotconv.experiments, "samples", recording_samples)
    monkeypatch.setattr(threading.Thread, "start", counting_start)
    for workers in threads:
        monkeypatch.setattr(rotconv.experiments, "WORKERS", workers)
        stepping.clear()
        starts.clear()
        results.append(experiment(random_config(grid16, t_end=0.2)))
        counts[workers] = len(stepping)
        assert len(starts) == len(stepping) - 1
    assert counts == threads
    assert results[1] == results[0]
    assert results[2] == results[0]


@pytest.mark.parametrize("fail_at, started", [({0.0: 0.1}, 1), ({0.5: 0.1}, 2)],
                         ids=["reference", "first-member"])
def test_no_member_starts_after_a_failure(grid16, monkeypatch, fail_at, started):
    # in serial order a failing run is the last one to start
    calls = []

    def counting_samples(*args, **kwargs):
        calls.append(args[0].epsilon)
        return original_samples(*args, **kwargs)

    original_samples = rotconv.experiments.samples
    monkeypatch.setattr(rotconv.experiments, "WORKERS", 1)
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
    # threads interleave often
    results = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for workers in (1, 2, 4):
            monkeypatch.setattr(rotconv.experiments, "WORKERS", workers)
            results.append(experiment(random_config(grid16)))
    finally:
        sys.setswitchinterval(interval)
    assert results[1] == results[0]
    assert results[2] == results[0]


@pytest.mark.parametrize("experiment, keys, caps", [
    (lambda cfg: sweep_epsilon(cfg, [0.5, 0.25, 0.125]), 1, 1),
    # the uncapped rule of the initial states and the sweep parts, then the four caps
    (lambda cfg: sweep_resolution(cfg, [2, 3, 4, 5]), 5, 5),
    (lambda cfg: twin_run(cfg, 1e-6), 1, 1),
], ids=["sweep-epsilon", "sweep-resolution", "twin"])
def test_stream_builds_each_workspace_once(grid16, monkeypatch, experiment, keys, caps):
    # a slow build holds a cold cache miss open while every thread reaches
    # it; still each table a stepper reads is built once: the velocity
    # symbols of the grid, and the kept modes and the packed w symbol of
    # each (grid, mode_cap) of the runs and of (grid, None), which the sweep
    # parts read
    def slow(build):
        def building(*args):
            time.sleep(0.05)
            return build(*args)
        return building

    # each velocity-symbol build reads the lattice once, each kept-mode build makes one `_Kept`;
    # these configs' fixed dt keeps `cfl_dt` from building the symbols first
    monkeypatch.setattr(rotconv.velocity, "_lattice", slow(rotconv.velocity._lattice))
    monkeypatch.setattr(rotconv.grid, "_Kept", slow(rotconv.grid._Kept))
    monkeypatch.setattr(rotconv.velocity, "pack_half_box", slow(rotconv.velocity.pack_half_box))
    monkeypatch.setattr(rotconv.experiments, "WORKERS", 4)
    rotconv.velocity.velocity_symbols.cache_clear()
    rotconv.grid._kept.cache_clear()
    rotconv.velocity.half_box_w_symbol.cache_clear()
    experiment(random_config(grid16))
    assert rotconv.velocity.velocity_symbols.cache_info().misses == 1
    assert rotconv.grid._kept.cache_info().misses == keys
    assert rotconv.velocity.half_box_w_symbol.cache_info().misses == caps


def test_eps_scaled_perturbation_lies_inside_the_truncation(grid16, monkeypatch):
    # the perturbation direction is restricted to the kept modes, then normalised
    def capturing_stream(configs, theta0s, *args):
        starts.extend(theta0s)
        return original_stream(configs, theta0s, *args)

    starts = []
    original_stream = rotconv.experiments._stream
    monkeypatch.setattr(rotconv.experiments, "_stream", capturing_stream)
    config = random_config(grid16, mode_cap=2, initial=InitialSpec(band=(1, 6), amplitude=0.5))
    sweep_epsilon(config, [0.5, 0.25], "eps-scaled")
    kx, ky, kz = grid16.wavenumbers()
    outside = np.maximum(np.maximum(np.abs(kx), np.abs(ky)), kz) > 2
    for eps, theta0 in zip([0.5, 0.25], starts[1:]):
        diff = SpectralField(grid16, theta0.coeffs - starts[0].coeffs)
        assert np.all(diff.coeffs[np.broadcast_to(outside, diff.coeffs.shape)] == 0.0)
        assert spectral_l2(diff) == pytest.approx(eps, rel=1e-12)


def test_eps_scaled_sweep_rejects_a_perturbation_band_outside_the_truncation(grid16):
    # a single-mode start inside the cap, but the perturbation uses band (5, 6)
    init = InitialSpec(kind="analytic-single-mode", mode=(1, 0, 0), band=(5, 6))
    with pytest.raises(ValueError, match=re.escape(
            "mode_cap 2 removes every mode of the eps-scaled perturbation band (5, 6)")):
        sweep_epsilon(random_config(grid16, mode_cap=2, initial=init), [0.5], "eps-scaled")


def test_eps_scaled_sweep_samples_every_reference_time(grid16):
    res = sweep_epsilon(random_config(grid16), [0.5, 0.25], "eps-scaled")
    assert res.times[-1] == pytest.approx(0.5)
    assert [len(s) for s in res.per_time_l2] == [len(res.times)] * 2
    assert all(s[0] > 0.0 for s in res.per_time_l2)


def test_mean_h1_bound_makes_no_full_transform(grid16, to_physical_calls):
    # theta and w of each state stay spectral in (x, y): the mean profiles and
    # the level-wise L^2_h norms are half-box reductions
    a = SimState(0.0, random_band_limited(grid16, 21, kmax=4))
    b = SimState(0.0, random_band_limited(grid16, 22, kmax=4))
    to_physical_calls.clear()
    mean_h1_error_and_bound(a, b)
    assert to_physical_calls == []


def test_member_sample_makes_no_full_transform(grid16, to_physical_calls):
    # neither the reference part, once per reference sample, nor a member
    # sample with a nonzero difference inverse-transforms a field
    to_physical_calls.clear()
    ref = _sweep_reference(random_band_limited(grid16, 22, kmax=4))
    errors = _sweep_errors(random_band_limited(grid16, 21, kmax=4), ref)
    assert to_physical_calls == []
    assert errors[0] > 0.0


def test_member_sample_memory(grid32):
    # one member sample's traced peak, in half-spectrum fields: the
    # |difference|^2 array and the H2h symbol products with it, then the two
    # half-box arrays of theta and w (2.24); the two full inverse transforms
    # of theta and w that it made before took 3.45
    ref = _sweep_reference(random_band_limited(grid32, 22, kmax=8))
    theta = random_band_limited(grid32, 21, kmax=8)
    _sweep_errors(theta, ref)  # fills the caches and the FFT plans
    tracemalloc.start()
    try:
        _sweep_errors(theta, ref)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.0 * theta.coeffs.nbytes


@pytest.mark.parametrize("index, accepted", [
    # N = 16 keeps |k_i| <= 5: the outermost kept mode on each axis, the first one beyond
    ((5, 1, 1), True), ((-5, -5, 5), True), ((6, 1, 1), False), ((-6, 1, 1), False),
    ((1, 6, 1), False), ((1, -6, 1), False), ((1, 1, 6), False),
], ids=["kx5", "k-5-5-5", "kx6", "kx-6", "ky6", "ky-6", "kz6"])
@pytest.mark.parametrize("which", [0, 1], ids=["state_eps", "state_ref"])
def test_mean_h1_bound_rejects_modes_outside_the_two_thirds_rule(grid16, index, accepted, which):
    # the sweep parts read the half box of the 2/3 rule only, so the public
    # entry rejects a state that the rule would cut, beyond round-off
    states = [SimState(0.0, random_band_limited(grid16, seed, kmax=4)) for seed in (21, 22)]
    for amplitude, rejected in ((1e-13, False), (1e-3, not accepted)):
        c = states[which].theta.coeffs.copy()
        c[index] = amplitude  # off the kz = 0 plane: no conjugate partner to match
        moved = list(states)
        moved[which] = SimState(0.0, SpectralField(grid16, c))
        if rejected:
            name = ("state_eps", "state_ref")[which]
            with pytest.raises(ValueError, match=re.escape(f"{name} has modes outside") + ".*2/3"):
                mean_h1_error_and_bound(*moved)
        else:
            err, bound = mean_h1_error_and_bound(*moved)
            assert err <= bound + 1e-12


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


@pytest.mark.parametrize("integrator", ["rk4", "if-rk4"])
def test_stream_memory_per_trajectory_in_flight(grid32, monkeypatch, integrator):
    # the traced peak of two runs in flight at once, less that of the same two
    # runs in turn: one trajectory's 5 half-spectrum stepper buffers, the
    # state it holds and the one it builds, about 7.6 half-spectrum fields
    # with numpy's casting buffer for the real-by-complex products; a stepper
    # of 3 half-spectrum and 3 real buffers took 8.39 (rk4) and 8.42 (if-rk4)
    cfg = random_config(grid32, epsilon=0.1, dt=0.01, t_end=0.1, integrator=integrator,
                        diagnostics_every=1)
    theta0 = rotconv.evolution.initial_state(cfg)

    def peak(workers):
        monkeypatch.setattr(rotconv.experiments, "WORKERS", workers)
        tracemalloc.start()
        try:
            _stream([cfg] * 2, [theta0] * 2, lambda theta: None, lambda theta, part: None)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1)  # fills the caches and the FFT plans
    per_trajectory = peak(2) - peak(1)
    assert 5 * theta0.coeffs.nbytes <= per_trajectory <= 8 * theta0.coeffs.nbytes


def test_sweep_resolution_fits_the_counts_it_measures(grid16, monkeypatch):
    # the reference's row is its zero error, written without comparing it
    # with itself, and no point of the slope: the fit runs over the other
    # counts, and a single other count fits none, as a one-eps sweep does
    measure = rotconv.experiments._sweep_errors

    def member_errors(theta, ref):
        assert theta is not ref.theta
        return measure(theta, ref)

    monkeypatch.setattr(rotconv.experiments, "_sweep_errors", member_errors)
    cfg = random_config(grid16, t_end=0.2)
    res = sweep_resolution(cfg, [2, 3, 4, 5])
    assert res.per_time_l2[-1] == [0.0] * len(res.times)
    assert all(e > 0.0 for e in res.err_l2[:-1])
    slope, ci = rotconv.experiments._fit_slope([2.0, 3.0, 4.0], res.err_l2[:-1])
    assert (res.slope, res.slope_ci) == (slope, ci)
    assert -20.0 < slope < 0.0
    two = sweep_resolution(cfg, [3, 5])
    assert two.err_l2[0] > 0.0 and (two.slope, two.slope_ci) == (None, None)


def test_twin_rejects_a_zero_perturbation(grid16):
    # identical twins leave no separation to fit a rate to; a negative
    # amplitude is a perturbation of the opposite sign
    for delta_amp in (0.0, -0.0, 0):
        with pytest.raises(ValueError, match="delta_amp must be nonzero"):
            twin_run(random_config(grid16, t_end=0.2), delta_amp)
    rep = twin_run(random_config(grid16, t_end=0.2), -1e-6)
    assert rep.err_l2[0] == pytest.approx(1e-6)


def test_twin_linear_response(grid16):
    rep = twin_run(random_config(grid16), 1e-6, (1, 1, 1))
    assert rep.response_ratio == pytest.approx(0.5, abs=0.05)
    assert rep.in_linear_regime
    assert np.isfinite(rep.fitted_rate)


def test_twin_rejects_mean_sector_perturbation(grid16):
    with pytest.raises(ValueError):
        twin_run(random_config(grid16), 1e-6, (0, 0, 1))


@pytest.mark.parametrize("delta_amp, delta_mode, message", [
    (1e-6, (20, 0, 0), "delta_mode (20, 0, 0) is not resolved"),  # aliases to k1 = 4
    (1e-6, (8, 0, 0), "delta_mode (8, 0, 0) is not resolved"),  # the Nyquist plane
    (1e-6, (6, 0, 0), "delta_mode (6, 0, 0) is not resolved"),  # removed by the 2/3 rule
    (1e-6, (1, 1), "delta_mode must be a tuple of three integers"),
    (1e-6, (1, 1.5, 0), "delta_mode must be a tuple of three integers"),
    (float("nan"), (1, 1, 1), "delta_amp must be a finite number"),
    (float("inf"), (1, 1, 1), "delta_amp must be a finite number"),
    ("1e-6", (1, 1, 1), "delta_amp must be a finite number"),
])
def test_twin_rejects_perturbations_the_grid_cannot_carry(grid16, delta_amp, delta_mode, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        twin_run(random_config(grid16), delta_amp, delta_mode)


@pytest.mark.parametrize("delta_mode", [(4, 0, 0), (0, -3, 1), (1, 1, -3)])
def test_twin_rejects_perturbations_outside_the_truncation(grid16, delta_mode):
    with pytest.raises(ValueError, match=re.escape(
            f"delta_mode {delta_mode!r} lies outside the Galerkin truncation mode_cap = 2")):
        twin_run(random_config(grid16, mode_cap=2), 1e-6, delta_mode)


def test_twin_accepts_the_outermost_capped_mode(grid16):
    rep = twin_run(random_config(grid16, t_end=0.1, mode_cap=2), 1e-6, (2, -2, -2))
    assert rep.err_l2[0] == pytest.approx(1e-6)


def test_twin_accepts_the_outermost_resolved_mode(grid16):
    rep = twin_run(random_config(grid16, t_end=0.1), 1e-6, (5, 0, 5))
    assert rep.err_l2[0] == pytest.approx(1e-6)


@pytest.mark.parametrize("mode_cap, delta_mode", [(None, (1, 1, 1)), (2, (2, -2, 1))])
def test_twin_perturbation_is_zero_on_the_dropped_modes(grid32, mode_cap, delta_mode):
    # the forward transform of the single mode leaves round-off on every
    # mode; the twin members start exactly zero on those `step` drops
    config = random_config(grid32, mode_cap=mode_cap)
    pert = rotconv.experiments._perturbation_field(config, delta_mode, 1e-6)
    assert not np.any(pert.coeffs[~kept_modes(grid32, mode_cap)])
    assert spectral_l2(pert) == pytest.approx(1e-6, rel=1e-14)
