"""Drivers for the quantitative claims: the vanishing-diffusivity sweep, the
Galerkin resolution sweep, and the continuous-dependence twin run."""

from __future__ import annotations

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


class _Members:
    """Members streamed against a reference that one thread publishes part by
    part.  Each member row is stored by member index, and a failure is kept
    with the index of the run it came from (-1 for the reference)."""

    def __init__(self, configs, theta0s, measure):
        self.runs = list(zip(configs, theta0s))
        self.measure = measure
        self.parts = []
        self.rows = [None] * len(self.runs)
        self.claimed = 0
        self.done = False  # the reference has published its last part
        # a run that fails stops every member after it, whose rows serial
        # order would never reach: the error raised is the one serial order meets
        self.failed = len(self.runs)
        self.error = None
        self.cond = threading.Condition()

    def lead(self, states, reference) -> list[float]:
        """Publish `reference(theta)` of each reference sample as soon as it is
        stored; returns the sample times."""
        times = []
        for s in states:
            times.append(s.t)
            part = reference(s.theta)
            with self.cond:
                self.parts.append(part)
                self.cond.notify_all()
        self.finish()
        return times

    def finish(self) -> None:
        with self.cond:
            self.done = True
            self.cond.notify_all()

    def fail(self, k: int, error: BaseException) -> None:
        with self.cond:
            if k < self.failed:
                self.failed, self.error = k, error
            self.cond.notify_all()

    def _part(self, k: int, i: int):
        """Reference part i, once published; None if the reference has no
        sample i or member k is to stop."""
        with self.cond:
            self.cond.wait_for(lambda: len(self.parts) > i or self.done or self.failed < k)
            return self.parts[i] if len(self.parts) > i and self.failed > k else None

    def _member(self, k: int) -> None:
        config, theta0 = self.runs[k]
        row = []
        try:
            for i, s in enumerate(samples(config, theta0)):
                part = self._part(k, i)
                if part is None:
                    break
                row.append(self.measure(s.theta, part))
        except BaseException as err:  # raised again in the caller by `_stream`
            self.fail(k, err)
        else:
            self.rows[k] = row

    def work(self) -> None:
        """Run unclaimed members until none is left."""
        while True:
            with self.cond:
                k = self.claimed
                self.claimed += 1
            if k >= min(len(self.runs), self.failed):
                return
            self._member(k)

    def helper(self) -> None:
        """`work` in a helper thread, with one FFT worker."""
        _grid._thread.workers = 1
        self.work()


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
    it is stored.  `min(grid.WORKERS, len(configs)) - 1` helper threads take
    the members in turn from one shared counter, and the caller joins them
    once the reference is done; a member waits only for the part of the
    sample it measures.  While helpers run, every thread transforms with one
    FFT worker.  An error raised in any run is raised here once the helpers
    have stopped.
    """
    dt = configs[0].dt
    if dt == "auto":
        dt = min(cfl_dt(SimState(0.0, theta0), cfg.safety, cfg)
                 for cfg, theta0 in zip(configs, theta0s))
    stream = _Members([replace(cfg, dt=dt) for cfg in configs[1:]], theta0s[1:], measure)
    helpers = [threading.Thread(target=stream.helper, daemon=True)
               for _ in range(min(_grid.WORKERS, len(configs)) - 1)]
    if helpers:
        _grid._thread.workers = 1
    try:
        for helper in helpers:
            helper.start()
        times = stream.lead(samples(replace(configs[0], dt=dt), theta0s[0]), reference)
        stream.work()
    except BaseException as err:  # raised below, once the helpers have stopped
        stream.fail(-1, err)
    finally:
        stream.finish()
        for helper in helpers:
            helper.join()
        if helpers:
            del _grid._thread.workers
    if stream.error is not None:
        raise stream.error
    return times, stream.parts, stream.rows


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
    if sorted(eps_list, reverse=True) != eps_list:
        raise ValueError("eps list must be strictly decreasing")
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
    if sorted(mode_counts) != mode_counts:
        raise ValueError("mode counts must be increasing")
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
    if delta_mode[0] == 0 and delta_mode[1] == 0:
        raise ValueError("perturbation must have zero horizontal mean")

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
    diff = SpectralField(theta_r.grid, theta_p.coeffs - theta_r.coeffs)
    return spectral_l2(diff), dual_norm(diff)


def _perturbation_field(grid: Grid, mode, amplitude: float) -> SpectralField:
    """Single-mode real perturbation with unit-L2-per-amplitude normalization."""
    X, Y, Z = grid.meshgrid()
    k1, k2, k3 = mode
    values = np.cos(k1 * X + k2 * Y + k3 * Z)
    F = project_zero_horizontal_mean(forward_transform(PhysicalField(grid, values)))
    n = spectral_l2(F)
    return SpectralField(grid, F.coeffs * (amplitude / n))
