"""Drivers for the quantitative claims: the vanishing-diffusivity sweep, the
Galerkin resolution sweep, and the continuous-dependence twin run."""

from __future__ import annotations

import math
import numbers
import os
import threading
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .grid import (
    TWO_PI,
    Grid,
    PhysicalField,
    SpectralField,
    _is_number,
    _keep,
    _kept,
    _lattice,
    forward_transform,
    half_box_z_profiles,
    horizontal_mean,
    parseval_sum,
    spectral_l2,
)
from .evolution import (
    SimConfig,
    SimState,
    _check_kept,
    _check_mode,
    _truncate,
    build_initial,
    cfl_dt,
    initial_state,
    samples,
)
from .invariants import dual_norm
from .meanstate import mean_gradient, profile_l2
# solve_velocity is unused here but bench/test_bench.py rebinds it through this module
from .velocity import half_box_w_symbol, solve_velocity, velocity_symbols  # noqa: F401

# the CPUs this process may run on (`taskset` caps them): they size the helpers of `_stream`
WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
           else os.cpu_count() or 1)


def _h2h_symbols(grid: Grid) -> Iterator[np.ndarray]:
    """|symbols| mapping the temperature difference to lap_h of (u, v, w), one at a time."""
    kh2 = _lattice(grid).kh2
    return (kh2 * np.abs(m) for m in velocity_symbols(grid))


def h2h_bound_constant(grid: Grid) -> float:
    """Sup over the grid lattice of the symbols mapping the temperature
    difference to the three Laplacian-velocity components, summed; by Parseval
    the H2h velocity error is bounded by this constant times the L2 error."""
    return float(sum(np.max(m) for m in _h2h_symbols(grid)))


class _Reference(NamedTuple):
    """What every member's errors at one sample need of the reference sample."""

    theta: SpectralField
    dtheta_dz: np.ndarray  # mean temperature gradient profile
    theta_l2h_sup: float  # sup over z of ||theta||_{L^2_h}


def _z_profiles(theta: SpectralField) -> tuple[np.ndarray, np.ndarray]:
    """theta and w at each level z on the half box of the 2/3 rule, which holds
    every capped box (`grid.half_box_z_profiles`), in two new arrays."""
    mw_h = half_box_w_symbol(theta.grid, None)
    return half_box_z_profiles(theta.coeffs, _kept(theta.grid, None), mw_h,
                               np.empty_like(mw_h), np.empty_like(mw_h))


def _sweep_reference(theta: SpectralField) -> _Reference:
    """The reference part of `_sweep_errors`, run once per reference sample
    whatever the number of members; sup_z ||theta||_{L^2_h} is 2 pi sqrt(max_z
    mean_h theta^2).  Neither part makes a full transform (`_z_profiles`)."""
    theta_h, w_h = _z_profiles(theta)
    dtz = mean_gradient(horizontal_mean(w_h, theta_h))  # w_h then holds the products
    return _Reference(theta, dtz, TWO_PI * math.sqrt(np.max(horizontal_mean(theta_h, theta_h))))


def _sweep_errors(theta: SpectralField, ref: _Reference):
    """(L2 error, H2h velocity error, mean-profile Hdot1 error, its bound) of
    one member sample against the reference part of its reference sample; an
    identically zero difference has zero errors and zero bounds.

    The mean gradient and sup_z ||w||_{L^2_h} come from the half box, as in
    `_sweep_reference`.  The H2h velocity error and ||w_e - w||_2 are weighted
    Parseval sums of one |difference|^2 array: on grid samples Parseval is
    exact, so ||w_e - w||_2 is the collocation norm the bound needs.  Every
    step of the Hdot1 bound is an exact inequality on grid samples, so the
    measured error can exceed the bound only by rounding.
    """
    grid = theta.grid
    c2 = np.abs(theta.coeffs - ref.theta.coeffs) ** 2
    d_l2 = float(np.sqrt(parseval_sum(grid, c2)))  # spectral_l2 of the difference
    if d_l2 == 0.0:
        return 0.0, 0.0, 0.0, 0.0
    vel_h2 = float(sum(np.sqrt(parseval_sum(grid, m**2 * c2)) for m in _h2h_symbols(grid)))
    w_diff_l2 = np.sqrt(parseval_sum(grid, velocity_symbols(grid)[2] ** 2 * c2))
    theta_h, w_h = _z_profiles(theta)
    err = profile_l2(mean_gradient(horizontal_mean(theta_h, w_h)) - ref.dtheta_dz)
    w_l2h_sup = TWO_PI * math.sqrt(np.max(horizontal_mean(w_h, w_h)))
    # |mean_h(D w_e)| <= rms_h(D) rms_h(w_e) level-wise, rms_h = ||.||_{L^2_h} / (2 pi);
    # sum over z and pull out the sup_z factor
    bound = (w_l2h_sup * d_l2 + ref.theta_l2h_sup * w_diff_l2) / TWO_PI**2
    return d_l2, vel_h2, err, float(bound)


def mean_h1_error_and_bound(state_eps: SimState, state_ref: SimState) -> tuple[float, float]:
    """Hdot1(0,2pi) error of the mean-temperature profile and its
    Cauchy-Schwarz bound in terms of the L2 temperature error: `_sweep_errors`
    against `_sweep_reference` of the reference state.  The sweeps call the two
    parts directly, so that the reference part runs once per reference sample.
    Both parts read the modes of the 2/3 rule only (`_check_kept`).
    """
    for name, state in (("state_eps", state_eps), ("state_ref", state_ref)):
        _check_kept(state.theta, None, name)
    return _sweep_errors(state_eps.theta, _sweep_reference(state_ref.theta))[2:]


@dataclass
class SweepResult:
    parameters: list[float]
    err_l2: list[float]
    err_mean_h1: list[float]
    err_vel_h2: list[float]
    slope: float | None
    slope_ci: float | None
    times: list[float]
    per_time_l2: list[list[float]]
    # worst per-sample violation of the a priori error bounds (negative when
    # every sample sits below its bound)
    max_vel_excess: float = -np.inf
    max_mean_excess: float = -np.inf


def _fit_slope(params, errors):
    """Least-squares slope of log error vs log parameter, with a 95% CI."""
    x = np.log(np.asarray(params, dtype=np.float64))
    y = np.log(np.maximum(np.asarray(errors, dtype=np.float64), 1e-300))
    if x.size < 2:
        return None, None
    A = np.vstack([x, np.ones_like(x)]).T
    coef, res, _, _ = np.linalg.lstsq(A, y, rcond=None)
    slope = float(coef[0])
    if x.size > 2 and res.size > 0:
        sigma2 = float(res[0]) / (x.size - 2)
        se = np.sqrt(sigma2 / np.sum((x - x.mean()) ** 2))
        return slope, float(1.96 * se)
    return slope, 0.0


def _stream(configs, theta0s, reference, measure):
    """Run the first member as the reference and every other member sample
    by sample against it, all on one time step: the configured dt or, under
    "auto", the members' smallest CFL step at t = 0.

    Returns the reference sample times, `reference(theta)` of each reference
    sample (run once per sample and stored in its place) and, per member,
    `measure(member theta, stored part)` at every sample.  Each member sample
    is dropped once it is measured and stepped, so no member trajectory is
    stored.

    The calling thread runs the reference and publishes each part as soon as
    it is stored, while helpers, the workers of one executor, and then the
    caller, draw member indices in order from one shared iterator.  With
    runs = q WORKERS + r, there are `min(runs, WORKERS + r) - 1` helpers: the
    first WORKERS + r runs start together and share the CPUs (the twin's 3
    runs on 2, so that no CPU idles while another steps two trajectories in
    turn), each thread that finishes a run draws the next, and at most
    2 WORKERS - 1 trajectories are in flight.  A member waits only for the
    part of the sample it measures, and stops if the reference closes
    without it.  Under `taskset -c 0`, `WORKERS` is 1: no helper is
    submitted, so no thread starts, and the runs go in serial order.  The
    tables the steppers and sweep parts read from a cache, the velocity
    symbols of each grid and the kept modes and packed w symbol of each
    (grid, mode_cap) and (grid, None), are built on the calling thread
    before any helper starts, so no two threads build one.
    A failing run records its error and drains the iterator, so no member that
    has not started starts.  Once the executor's shutdown has joined the
    helpers, the error of the lowest run index is raised: every member below
    it has started, so it is the error the serial order meets first.
    """
    dt = configs[0].dt
    if dt == "auto":
        dt = min(cfl_dt(SimState(0.0, theta0), cfg.safety, cfg)
                 for cfg, theta0 in zip(configs, theta0s))
    runs = [(replace(cfg, dt=dt), theta0) for cfg, theta0 in zip(configs, theta0s)]
    times, parts, rows = [], [], [None] * (len(runs) - 1)
    errors = {}  # run index -> its error; -1 is the reference
    members = iter(range(len(rows)))
    cond = threading.Condition()
    closed = False  # the reference has published its last part
    helpers = min(len(runs), WORKERS + len(runs) % WORKERS) - 1
    for grid, cap in {(cfg.grid, c) for cfg in configs for c in (cfg.mode_cap, None)}:
        # threads that miss a cache together each build
        velocity_symbols(grid), _kept(grid, cap), half_box_w_symbol(grid, cap)

    def lead(_):
        nonlocal closed
        try:  # a helper that fails to start closes the reference, releasing the others
            for _ in range(helpers):
                pool.submit(work)
            for s in samples(*runs[0]):
                times.append(s.t)
                part = reference(s.theta)
                with cond:
                    parts.append(part)
                    cond.notify_all()
        finally:
            with cond:
                closed = True
                cond.notify_all()

    def member(k):
        row = []
        for i, s in enumerate(samples(*runs[k + 1])):
            with cond:
                cond.wait_for(lambda: len(parts) > i or closed)
                if len(parts) <= i:
                    return
            row.append(measure(s.theta, parts[i]))
        rows[k] = row

    def attempt(k, run):
        try:
            run(k)
        except BaseException as err:  # raised in the caller once the helpers are joined
            with cond:
                errors[k] = err
                for _ in members:  # drain: no member that has not started starts
                    pass

    def draw():
        with cond:
            return next(members, None)

    def work():
        while (k := draw()) is not None:
            attempt(k, member)

    with ThreadPoolExecutor(max(helpers, 1)) as pool:
        attempt(-1, lead)
        work()
    if errors:
        raise errors[min(errors)]
    return times, parts, rows


def _compare(parameters, times, refs: list[_Reference], rows) -> SweepResult:
    """Sweep result from each member's `_sweep_errors` rows.  Samples with an
    identically zero difference enter the errors and the per-time series only,
    not the worst excess over the a priori error bounds."""
    vel_const = h2h_bound_constant(refs[0].theta.grid)
    cols = [list(zip(*row)) for row in rows]
    nonzero = [sample for row in rows for sample in row if sample[0] > 0.0]
    err_l2 = [max(l2) for l2, _, _, _ in cols]
    slope, ci = _fit_slope(parameters, err_l2)
    return SweepResult(
        parameters=parameters,
        err_l2=err_l2,
        err_mean_h1=[max(h1) for _, _, h1, _ in cols],
        err_vel_h2=[max(vel) for _, vel, _, _ in cols],
        slope=slope,
        slope_ci=ci,
        times=times,
        per_time_l2=[list(l2) for l2, _, _, _ in cols],
        max_vel_excess=max((v - vel_const * l2 for l2, v, _, _ in nonzero), default=-np.inf),
        max_mean_excess=max((h1 - bound for _, _, h1, bound in nonzero), default=-np.inf),
    )


def sweep_epsilon(
    base: SimConfig,
    eps_list,
    init_perturbation: str = "matched",
) -> SweepResult:
    """Vanishing-diffusivity sweep against the eps = 0 reference run."""
    eps_list = list(eps_list)
    if not eps_list:
        raise ValueError("eps list must not be empty")
    if not all(_is_number(e) for e in eps_list):
        raise ValueError(f"eps values must be numbers, got {eps_list!r}")
    if any(e <= 0 or e > 1 for e in eps_list):
        raise ValueError(f"eps values must lie in (0, 1], got {eps_list!r}")
    if any(a <= b for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError(f"eps list must be strictly decreasing, got {eps_list!r}")
    if init_perturbation not in ("matched", "eps-scaled"):
        raise ValueError(f"unknown perturbation mode {init_perturbation!r}")

    theta0 = initial_state(base)
    theta0s = [theta0] * (1 + len(eps_list))
    if init_perturbation == "eps-scaled":
        pert_spec = replace(
            base.initial, kind="random-band-limited", seed=base.initial.seed + 104729
        )
        # a direction outside the Galerkin truncation would not perturb the truncated system
        direction = _truncate(base, build_initial(base.grid, pert_spec),
                              f"eps-scaled perturbation band {pert_spec.band!r}")
        direction = direction.coeffs / spectral_l2(direction)
        theta0s[1:] = [SpectralField(base.grid, theta0.coeffs + eps * direction)
                       for eps in eps_list]

    configs = [replace(base, epsilon=eps) for eps in [0.0] + eps_list]
    return _compare(eps_list, *_stream(configs, theta0s, _sweep_reference, _sweep_errors))


def sweep_resolution(base: SimConfig, mode_counts) -> SweepResult:
    """Galerkin truncation sweep; the finest truncation is the reference."""
    mode_counts = list(mode_counts)
    # a single count is the reference alone, which would be compared with itself
    if len(mode_counts) < 2:
        raise ValueError("mode counts must not be empty or a single count (the reference"
                         f" alone), got {mode_counts!r}")
    # a fractional count would run its floor but report itself as the parameter
    if not all(_is_number(m, numbers.Integral) for m in mode_counts):
        raise ValueError(f"mode counts must be integers, got {mode_counts!r}")
    if any(a >= b for a, b in zip(mode_counts, mode_counts[1:])):
        raise ValueError(f"mode counts must be strictly increasing, got {mode_counts!r}")
    # every larger count keeps the same modes as the bound, the largest the 2/3 rule keeps
    bound = max(_kept(base.grid, None).m)
    if mode_counts[-1] > bound:
        raise ValueError(f"mode counts must be at most {bound}, the largest |k_i| the 2/3 rule"
                         f" keeps on the {base.grid.shape} grid, got {mode_counts!r}")
    # the finest truncation is the reference: it runs first, and its own
    # member row, the last one, is its zero error against itself
    configs = [replace(base, mode_cap=int(m)) for m in mode_counts[-1:] + mode_counts[:-1]]
    times, refs, rows = _stream(configs, [initial_state(c) for c in configs],
                                _sweep_reference, _sweep_errors)
    rows.append([(0.0, 0.0, 0.0, 0.0)] * len(refs))
    counts = [float(m) for m in mode_counts]
    result = _compare(counts, times, refs, rows)
    # a zero error is no point of the convergence law: fit the other counts only
    result.slope, result.slope_ci = _fit_slope(counts[:-1], result.err_l2[:-1])
    return result


@dataclass
class TwinRunReport:
    times: list[float]
    err_l2: list[float]
    err_dual: list[float]
    fitted_rate: float
    response_ratio: float
    in_linear_regime: bool


def twin_run(
    base: SimConfig,
    delta_amp: float,
    delta_mode: tuple[int, int, int] = (1, 1, 1),
) -> TwinRunReport:
    """Continuous dependence: evolve a base state and a perturbed twin.

    Fits the exponential separation rate and verifies that halving the
    perturbation roughly halves the response.
    """
    if not (_is_number(delta_amp) and math.isfinite(delta_amp)):
        raise ValueError(f"delta_amp must be a finite number, got {delta_amp!r}")
    if delta_amp == 0:  # the twins would coincide, leaving no separation to fit
        raise ValueError(f"delta_amp must be nonzero, got {delta_amp!r}")
    _check_mode("delta_mode", delta_mode, base.grid, base.mode_cap)

    pert = _perturbation_field(base, delta_mode, delta_amp)
    theta0 = initial_state(base)
    theta0s = [theta0] + [
        SpectralField(base.grid, theta0.coeffs + a * pert.coeffs) for a in (1.0, 0.5)
    ]
    times, _, rows = _stream([base] * len(theta0s), theta0s, lambda theta: theta, _separation)
    errs, duals = (list(col) for col in zip(*rows[0]))
    t = np.asarray(times)
    y = np.log(np.maximum(np.asarray(errs), 1e-300))
    rate = float(np.polyfit(t, y, 1)[0]) if t.size > 1 else 0.0

    response_ratio = max(l2 for l2, _ in rows[1]) / max(max(errs), 1e-300)
    return TwinRunReport(
        times=times,
        err_l2=errs,
        err_dual=duals,
        fitted_rate=rate,
        response_ratio=response_ratio,
        in_linear_regime=0.3 <= response_ratio <= 0.7,
    )


def _separation(theta_p: SpectralField, theta_r: SpectralField) -> tuple[float, float]:
    """L2 and dual norm of the difference of two states."""
    diff = SpectralField._wrap(theta_r.grid, theta_p.coeffs - theta_r.coeffs)
    return spectral_l2(diff), dual_norm(diff)


def _perturbation_field(config: SimConfig, mode, amplitude: float) -> SpectralField:
    """Single-mode real perturbation with unit-L2-per-amplitude normalization,
    zero on the modes `step` drops (the mean sector among them), so that no
    twin member starts with the transform's round-off there."""
    grid = config.grid
    X, Y, Z = grid.meshgrid()
    k1, k2, k3 = mode
    values = np.cos(k1 * X + k2 * Y + k3 * Z)
    F = _keep(forward_transform(PhysicalField(grid, values)), config.mode_cap)
    n = spectral_l2(F)
    return SpectralField(grid, F.coeffs * (amplitude / n))
