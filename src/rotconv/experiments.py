"""Drivers for the quantitative claims: the vanishing-diffusivity sweep, the
Galerkin resolution sweep, and the continuous-dependence twin run."""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import grid as _grid
from .grid import (
    Grid,
    PhysicalField,
    SpectralField,
    _lattice,
    forward_transform,
    inverse_transform_batch,
    parseval_sum,
    project_zero_horizontal_mean,
    spectral_l2,
)
from .evolution import (
    SimConfig,
    SimState,
    _check_mode,
    _is_number,
    build_initial,
    cfl_dt,
    initial_state,
    samples,
)
from .invariants import dual_norm
from .meanstate import heat_flux, mean_gradient, profile_l2
# solve_velocity is unused here but bench/test_bench.py rebinds it through this module
from .velocity import solve_velocity, velocity_symbols  # noqa: F401


@lru_cache(maxsize=32)
def _h2h_symbols(grid: Grid) -> tuple[np.ndarray, ...]:
    """|symbols| mapping the temperature difference to lap_h of (u, v, w)."""
    kh2 = _lattice(grid.nx, grid.ny, grid.nz).kh2
    return tuple(kh2 * np.abs(m) for m in velocity_symbols(grid)[:3])


def h2h_bound_constant(grid: Grid) -> float:
    """Sup over the grid lattice of the symbols mapping the temperature
    difference to the three Laplacian-velocity components, summed; by Parseval
    the H2h velocity error is bounded by this constant times the L2 error."""
    return float(sum(np.max(m) for m in _h2h_symbols(grid)))


def _rms_h_sup(values: np.ndarray) -> float:
    """sup over z of the horizontal root-mean-square."""
    return float(np.sqrt(np.max(np.mean(values**2, axis=(0, 1)))))


def _physical_mean_gradient(theta: SpectralField):
    """theta and w in physical space, from one inverse transform, and the
    mean temperature gradient profile of their heat flux."""
    mw = velocity_symbols(theta.grid)[2]
    theta_p, w_p = inverse_transform_batch(theta, [(), (mw,)])
    return theta_p, w_p, mean_gradient(heat_flux(theta_p, w_p))


class _Reference(NamedTuple):
    """What every member's errors at one sample need of the reference sample."""

    theta: SpectralField
    dtheta_dz: np.ndarray  # mean temperature gradient profile
    theta_rms_sup: float  # sup over z of rms_h(theta)


def _sweep_reference(theta: SpectralField) -> _Reference:
    """The reference part of `_sweep_errors`: one inverse transform of
    (theta, w), run once per reference sample whatever the number of members."""
    theta_p, _, dtz = _physical_mean_gradient(theta)
    return _Reference(theta, dtz, _rms_h_sup(theta_p.values))


def _sweep_errors(theta: SpectralField, ref: _Reference):
    """(L2 error, H2h velocity error, mean-profile Hdot1 error, its bound) of
    one member sample against the reference part of its reference sample; an
    identically zero difference has zero errors and zero bounds.

    A nonzero difference costs one inverse transform, of the member's
    (theta, w).  The H2h velocity error and ||w_e - w||_2 are weighted Parseval
    sums of one |difference|^2 array: on grid samples Parseval is exact, so
    ||w_e - w||_2 is the collocation norm the bound needs.  Every step of the
    Hdot1 bound is an exact inequality on grid samples, so the measured error
    can exceed the bound only by rounding.
    """
    grid = theta.grid
    diff = SpectralField._wrap(grid, theta.coeffs - ref.theta.coeffs)
    d_l2 = spectral_l2(diff)
    if d_l2 == 0.0:
        return 0.0, 0.0, 0.0, 0.0
    c2 = np.abs(diff.coeffs) ** 2
    vel_h2 = float(sum(np.sqrt(parseval_sum(grid, m**2 * c2)) for m in _h2h_symbols(grid)))
    w_diff_l2 = np.sqrt(parseval_sum(grid, velocity_symbols(grid)[2] ** 2 * c2))
    _, w_p, dtz = _physical_mean_gradient(theta)
    err = profile_l2(dtz - ref.dtheta_dz)
    # |mean_h(D w_e)| <= rms_h(D) rms_h(w_e) level-wise; sum over z and pull
    # out the sup_z factor
    bound = (_rms_h_sup(w_p.values) * d_l2 + ref.theta_rms_sup * w_diff_l2) / (2.0 * np.pi)
    return d_l2, vel_h2, err, float(bound)


def mean_h1_error_and_bound(state_eps: SimState, state_ref: SimState) -> tuple[float, float]:
    """Hdot1(0,2pi) error of the mean-temperature profile and its
    Cauchy-Schwarz bound in terms of the L2 temperature error: `_sweep_errors`
    against `_sweep_reference` of the reference state.  The sweeps call the two
    parts directly, so that the reference part runs once per reference sample.
    """
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
    it is stored, while `min(grid.WORKERS, len(configs)) - 1` helper threads,
    and then the caller, draw member indices in order from one shared
    iterator.  A member waits only for the part of the sample it measures,
    and stops if the reference closes without it.  While helpers run, each of
    these threads transforms with one FFT worker (`grid._thread.workers`).
    Under `taskset -c 0`, `grid.WORKERS` is 1: no thread starts, and the runs
    go in serial order.  A failing run records its error and drains the
    iterator, so no member that has not started starts.  Once the helpers are
    joined, the error of the lowest run index is raised: every member below
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

    def lead(_):
        nonlocal closed
        try:  # a helper that fails to start closes the reference, releasing the others
            for thread in helpers:
                thread.start()
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

    def helper():
        _grid._thread.workers = 1
        work()

    helpers = [threading.Thread(target=helper, daemon=True)
               for _ in range(min(_grid.WORKERS, len(runs)) - 1)]
    if helpers:
        _grid._thread.workers = 1
    try:
        attempt(-1, lead)
        work()
    finally:
        for thread in helpers:
            if thread.ident is not None:  # started
                thread.join()
        if helpers:
            del _grid._thread.workers
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
    if any(e <= 0 or e > 1 for e in eps_list):
        raise ValueError("eps values must lie in (0, 1]")
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
        direction = build_initial(base.grid, pert_spec, base.dealias)
        direction = direction.coeffs / spectral_l2(direction)
        theta0s[1:] = [SpectralField(base.grid, theta0.coeffs + eps * direction)
                       for eps in eps_list]

    configs = [replace(base, epsilon=eps) for eps in [0.0] + eps_list]
    return _compare(eps_list, *_stream(configs, theta0s, _sweep_reference, _sweep_errors))


def sweep_resolution(base: SimConfig, mode_counts) -> SweepResult:
    """Galerkin truncation sweep; the finest truncation is the reference."""
    mode_counts = list(mode_counts)
    if any(a >= b for a, b in zip(mode_counts, mode_counts[1:])):
        raise ValueError(f"mode counts must be strictly increasing, got {mode_counts!r}")
    # the finest truncation is the reference: it runs first, and its stored
    # samples stand in for its own member row, the last one
    configs = [replace(base, mode_cap=int(m)) for m in mode_counts[-1:] + mode_counts[:-1]]
    times, refs, rows = _stream(configs, [initial_state(c) for c in configs],
                                _sweep_reference, _sweep_errors)
    rows.append([_sweep_errors(r.theta, r) for r in refs])
    return _compare([float(m) for m in mode_counts], times, refs, rows)


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
    _check_mode("delta_mode", delta_mode, base.grid, base.dealias)

    pert = _perturbation_field(base.grid, delta_mode, delta_amp)
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


def _perturbation_field(grid: Grid, mode, amplitude: float) -> SpectralField:
    """Single-mode real perturbation with unit-L2-per-amplitude normalization."""
    X, Y, Z = grid.meshgrid()
    k1, k2, k3 = mode
    values = np.cos(k1 * X + k2 * Y + k3 * Z)
    F = project_zero_horizontal_mean(forward_transform(PhysicalField(grid, values)))
    n = spectral_l2(F)
    return SpectralField(grid, F.coeffs * (amplitude / n))
