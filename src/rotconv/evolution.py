"""Time evolution of the temperature fluctuation.

The tendency assembles -u.grad_h theta' - w dtheta_bar/dz (+ eps^2 lap_h theta')
with the velocity solved exactly per mode under the 2/3 rule: u.grad_h theta'
is formed in physical space, and the mean flux and w dtheta_bar/dz, which act
on z alone, on each horizontal mode of the kept box.  Two integrators are provided: classical
RK4 on the full tendency, and an integrating-factor RK4 that treats the
horizontal diffusion term exactly per mode.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from typing import ClassVar

import numpy as np

from .grid import (
    TWO_PI,
    Grid,
    PhysicalField,
    SimState,
    SpectralField,
    _horizontal_gradient,
    _is_number,
    _keep,
    _kept,
    _lattice,
    forward_transform,
    half_box_z_profiles,
    horizontal_mean,
    inverse_transform,
    lp_norm,
    subtract_half_box,
    to_physical,
    to_spectral,
)
from .invariants import compute_report
from .meanstate import mean_gradient
from .velocity import half_box_w_symbol, velocity_symbols


class BlowUpError(RuntimeError):
    """Raised when the state leaves the finite range; carries the last good state."""

    def __init__(self, message: str, last_state: SimState):
        super().__init__(message)
        self.last_state = last_state


def _is_time_step(dt) -> bool:
    """dt is a positive finite number and not a bool."""
    return _is_number(dt) and 0 < dt < math.inf


def _rk4_real_limit() -> float:
    """The largest float x with |R(-x)| <= 1 exactly, R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24."""
    lo, hi = 2.0, 3.0  # -24 (R(-x) - 1)/x = 24 - 12 x + 4 x^2 - x^3 falls through 0 once
    while (mid := (lo + hi) / 2) not in (lo, hi):
        x = Fraction(mid)
        lo, hi = (mid, hi) if 24 - 12 * x + 4 * x**2 - x**3 >= 0 else (lo, mid)
    return lo


_RK4_REAL_LIMIT = _rk4_real_limit()  # classical RK4 is stable for a real z = rate dt >= -limit


def _check_safety(safety) -> None:
    """Raise a ValueError naming `safety` unless it is a number in (0, 1], not a bool."""
    if not (_is_number(safety) and 0 < safety <= 1):
        raise ValueError(f"safety must be a number in (0, 1], got {safety!r}")


def _check_grid(theta: SpectralField, config: SimConfig) -> None:
    """Raise a ValueError naming both grids unless `theta` lies on `config.grid`."""
    if theta.grid != config.grid:
        raise ValueError(f"the state lies on {theta.grid}, but the config's grid is {config.grid}")


def _is_ints(x, n: int) -> bool:
    """x is a tuple of n integers."""
    return isinstance(x, tuple) and len(x) == n and all(
        _is_number(k, numbers.Integral) for k in x)


def _check_mode(name: str, mode, grid: Grid | None = None, mode_cap: int | None = None) -> None:
    """Raise a ValueError naming `name` unless the single mode is three integers
    with k1 or k2 nonzero and, given a grid, is kept by its 2/3 rule and by the
    Galerkin truncation `mode_cap`."""
    # a mode with k1 = k2 = 0 lies in the horizontal-mean sector, which is projected out
    if not (_is_ints(mode, 3) and mode[:2] != (0, 0)):
        raise ValueError(f"{name} must be a tuple of three integers (k1, k2, k3)"
                         f" with k1 or k2 nonzero, got {mode!r}")
    if grid is None:
        return
    rule, kept = (_kept(grid, cap).m for cap in (None, mode_cap))
    if any(abs(k) > m for k, m in zip(mode, rule)):
        raise ValueError(f"{name} {mode!r} is not resolved on the {grid.shape} grid:"
                         f" it needs |k_i| <= {rule}")
    if any(abs(k) > m for k, m in zip(mode, kept)):
        raise ValueError(f"{name} {mode!r} lies outside the Galerkin truncation"
                         f" mode_cap = {mode_cap}: it needs |k_i| <= {mode_cap}")


@dataclass(frozen=True)
class InitialSpec:
    """Initial temperature fluctuation.

    kind "analytic-single-mode": amplitude * sin(k . x) for mode = (k1,k2,k3).
    kind "random-band-limited": seeded random field supported on the max-norm
    band kmin <= max|k_i| <= kmax, normalized so its L^6 norm is `amplitude`.
    """

    kind: str = "random-band-limited"
    mode: tuple[int, int, int] = (1, 0, 0)
    amplitude: float = 0.1
    band: tuple[int, int] = (1, 6)
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("analytic-single-mode", "random-band-limited"):
            raise ValueError(f"unknown initial kind {self.kind!r}")
        _check_mode("initial mode", self.mode)
        if not (_is_ints(self.band, 2) and 0 <= self.band[0] <= self.band[1]):
            raise ValueError("initial band must be a tuple of two integers"
                             f" 0 <= kmin <= kmax, got {self.band!r}")
        if not (_is_number(self.amplitude) and self.amplitude != 0
                and math.isfinite(self.amplitude)):
            raise ValueError("initial amplitude must be a nonzero finite number,"
                             f" got {self.amplitude!r}")
        if not (_is_number(self.seed, numbers.Integral) and self.seed >= 0):
            raise ValueError(f"initial seed must be a nonnegative integer, got {self.seed!r}")


@dataclass(frozen=True)
class SimConfig:
    grid: Grid
    epsilon: float = 0.0
    dt: float | str = "auto"
    t_end: float = 1.0
    integrator: str = "if-rk4"
    initial: InitialSpec = field(default_factory=InitialSpec)
    diagnostics_every: int = 1
    safety: float = 0.5
    mode_cap: int | None = None  # Galerkin truncation |k_i| <= mode_cap
    dealias: ClassVar[bool] = True  # not a field: always on; acceptance criterion 3 reads it

    def __post_init__(self):
        if not (_is_number(self.epsilon) and 0 <= self.epsilon < math.inf):
            raise ValueError(f"epsilon must be a nonnegative finite number, got {self.epsilon!r}")
        if not (_is_number(self.t_end) and 0 <= self.t_end < math.inf):
            raise ValueError(f"t_end must be a nonnegative finite number, got {self.t_end!r}")
        if self.integrator not in ("rk4", "if-rk4"):
            raise ValueError(f"unknown integrator {self.integrator!r}")
        if not (_is_number(self.diagnostics_every, numbers.Integral)
                and self.diagnostics_every >= 1):
            raise ValueError("diagnostics_every must be a positive integer,"
                             f" got {self.diagnostics_every!r}")
        if self.dt != "auto" and not _is_time_step(self.dt):
            raise ValueError(f'dt must be "auto" or a positive finite number, got {self.dt!r}')
        _check_safety(self.safety)
        if self.mode_cap is None:
            return
        # every larger cap keeps the same modes as the bound, the largest the 2/3 rule keeps
        bound = max(_kept(self.grid, None).m)
        if not (_is_number(self.mode_cap, numbers.Integral) and 1 <= self.mode_cap <= bound):
            raise ValueError(f"mode_cap must be an integer in 1..{bound}, the largest |k_i| the"
                             f" 2/3 rule keeps on the {self.grid.shape} grid, or None,"
                             f" got {self.mode_cap!r}")


class _Stepper:
    """The buffers of one trajectory's steps, one block `spec` of 5
    half-spectrum fields and no real one, with the read-only tables of its
    grid and truncation read from their owners' caches (`grid._table`), so
    that a stepper allocates nothing but `spec`: the velocity symbols
    (`velocity_symbols`, whose rows mu and mv it reads as one pair) and mw on
    the half box (`half_box_w_symbol`), the stacked (i kx, i ky)
    (`grid._horizontal_gradient`), the kept modes and the mask of the others
    (`grid._kept`) and kh2 (`grid._lattice`).

    A tendency makes 10 pocketfft calls: one batched inverse transform of
    u, v, d_x theta' and d_y theta' in `spec[1:5]` (3 pruned c2c passes and
    1 c2r), one forward transform (1 r2c and 3 pruned c2c passes), and 2
    z-only passes on the half box of the kept modes (`grid.pack_half_box`),
    whose (theta', w) pair lives in `spec[3:5]`.  Every step of a trajectory
    runs in the buffers, and its RK sum in the new state's array, so stepping
    allocates no field but each new state; each real field lives in the
    buffer it was transformed from.  Each method keeps the operation order
    its docstring gives, so a step is the same to the bit whichever buffer
    holds what.  A stepper serves one thread.
    """

    def __init__(self, grid: Grid, mode_cap: int | None):
        self.m_h = velocity_symbols(grid)[:2]  # (mu, mv)
        self.grad_h = _horizontal_gradient(grid)  # (i kx, i ky)
        self.mw_h = half_box_w_symbol(grid, mode_cap)
        self.kh2 = _lattice(grid).kh2  # constant in kz: its (nx, ny, 1) base broadcasts
        self.kept = _kept(grid, mode_cap)  # `outside`: every mode the tendency and `step` zero
        self.spec = np.empty((5, *grid.spectral_shape), dtype=np.complex128)
        # the (theta', w) pair of the half box, the first 2 prod(half) entries of spec[3:5]
        self.pair = self.spec[3:].reshape(-1)[:2 * math.prod(self.kept.half)].reshape(
            2, *self.kept.half)

    def advective(self, c: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Spectral tendency of -u.grad_h theta' - w dtheta_bar/dz for a `c`
        zero outside the kept modes, written into `out`; `c` lies outside
        `spec[1:]`, and `out` is not `c` and lies outside `spec[2:]`.

        u, v, d_x theta' and d_y theta' are formed as one batch in
        `spec[1:5]`, by one product of `c` with the pair (mu, mv) and one
        with the pair (i kx, i ky), and inverse-transformed together, every
        (x, y) pass pruned to the box of the kept modes (`to_physical`).  The
        slot pairs are multiplied, and the product in slot 1 added to that in
        slot 2, so nl = v d_y theta' + u d_x theta'; -nl is transformed from
        slot 2 into `out` (`to_spectral`).  theta' and w stay spectral in x
        and y, as `c` and mw c on the half box, a pair in `spec[3:5]`: one
        inverse z-only pass of the pair (`half_box_z_profiles`) gives the
        flux by Parseval (`horizontal_mean`), and one forward z-only pass
        gives w dtheta_bar/dz, which is subtracted from `out` mode by mode
        (`subtract_half_box`).  10 pocketfft calls in all.
        """
        batch = self.spec[1:]
        np.multiply(self.m_h, c, out=batch[:2])
        np.multiply(self.grad_h, c, out=batch[2:])
        fields = to_physical(batch, self.kept)
        fields[:2] *= fields[2:]
        fields[1] += fields[0]
        to_spectral(fields[1], self.kept, -1.0, out)
        theta_h, w_h = half_box_z_profiles(c, self.kept, self.mw_h, self.pair)
        w_h *= mean_gradient(horizontal_mean(theta_h, w_h))
        subtract_half_box(w_h, self.kept, out)
        np.copyto(out, 0.0, where=self.kept.outside)  # zero every mode outside the kept ones
        return out

    def rhs(self, c: np.ndarray, eps: float, out: np.ndarray) -> np.ndarray:
        """Spectral tendency of -u.grad_h theta' - w dtheta_bar/dz + eps^2
        lap_h theta', written into `out`; `spec[2]` holds the diffusive term."""
        self.advective(c, out)
        if eps != 0.0:
            out += np.multiply(-eps**2 * self.kh2, c, out=self.spec[2])
        return out

    def rk4(self, c: np.ndarray, dt: float, eps: float) -> np.ndarray:
        """c + (dt/6) (k1 + 2 k2 + 2 k3 + k4), in that operation order, as a
        new array, in which the sum grows from k1 as each stage arrives, c
        added last; the stage inputs share one buffer."""
        x, k, acc = *self.spec[:2], np.empty_like(c)
        self.rhs(c, eps, acc)  # k1
        np.multiply(0.5 * dt, acc, out=x)
        x += c
        for h in (0.5 * dt, dt):  # k2, then k3, each giving the next stage input c + h k
            self.rhs(x, eps, k)
            np.multiply(h, k, out=x)
            x += c
            k *= 2.0
            acc += k
        acc += self.rhs(x, eps, k)  # k4
        acc *= dt / 6.0
        acc += c
        return acc

    def ifrk4(self, c: np.ndarray, dt: float, eps: float) -> np.ndarray:
        """Integrating factor for the diffusive term, RK4 on the advective
        remainder: e_full c + (dt/6) (((e_full n1 + 2 e_half n2) + 2 e_half n3)
        + n4), in that operation order, as a new array, in which the sum grows
        as each stage arrives, e_full c added last.  The stage inputs reuse
        n1's buffer and the later stages share `spec[1]`, so 2 e_half n2 joins
        the sum before n3 is formed."""
        x, n, acc = *self.spec[:2], np.empty_like(c)
        e_half = np.exp(-(0.5 * dt * eps**2) * self.kh2)  # one exp per horizontal mode
        e_full = e_half * e_half
        self.advective(c, x)  # n1
        np.multiply(e_full, x, out=acc)
        x *= 0.5 * dt
        x += c
        x *= e_half  # u2 = e_half (c + dt/2 n1)
        self.advective(x, n)  # n2
        np.multiply(e_half, c, out=x)
        x += np.multiply(0.5 * dt, n, out=self.spec[2])  # u3 = e_half c + dt/2 n2
        n *= 2.0 * e_half
        acc += n
        self.advective(x, n)  # n3
        np.multiply(dt * e_half, n, out=x)
        x += np.multiply(e_full, c, out=self.spec[2])  # u4 = dt e_half n3 + e_full c
        n *= 2.0 * e_half
        acc += n
        acc += self.advective(x, n)  # n4
        acc *= dt / 6.0
        acc += np.multiply(e_full, c, out=n)
        return acc


def tendency(theta: SpectralField, epsilon: float) -> SpectralField:
    """Full spectral tendency of the evolution equation, under the 2/3 rule:
    the tendency of theta's modes kept by the rule, which `step` advances."""
    if not theta.has_zero_horizontal_mean(tol=1e-10):
        raise ValueError("tendency requires a zero-horizontal-mean field")
    c = _keep(theta).coeffs
    out = _Stepper(theta.grid, None).rhs(c, epsilon, np.empty_like(c))
    return SpectralField._wrap(theta.grid, out)


def step(state: SimState, dt: float, config: SimConfig,
         stepper: _Stepper | None = None) -> SimState:
    """Advance one time step of the kept modes (the 2/3 rule within
    `config.mode_cap`) in the buffers of `stepper`, a `_Stepper` of the
    config's grid and truncation (default: a new one); the state must lie on
    that grid, zero outside the kept modes up to round-off, and the new state,
    zeroed on the mask `stepper.kept.outside`, is exactly zero there.  A new state
    that is not a finite real field is a blow-up."""
    if not _is_time_step(dt):
        raise ValueError(f"dt must be a positive finite number, got {dt!r}")
    _check_grid(state.theta, config)
    if stepper is None:
        stepper = _Stepper(config.grid, config.mode_cap)
    advance = stepper.rk4 if config.integrator == "rk4" else stepper.ifrk4
    out = advance(state.theta.coeffs, dt, config.epsilon)
    # the diffusive term steps what the tendency zeroes
    np.copyto(out, 0.0, where=stepper.kept.outside)
    try:
        theta = SpectralField._wrap(config.grid, out)
    except ValueError as err:
        raise BlowUpError(f"solution blew up at t = {state.t + dt:.6g}: {err}", state) from None
    return SimState(state.t + dt, theta)


def cfl_dt(state: SimState, safety: float, config: SimConfig) -> float:
    """`safety` times the least of 0.1, the advective CFL steps of `state` and, for
    rk4 with eps > 0, `_RK4_REAL_LIMIT` / (eps^2 kh2) at the largest kept kh2."""
    _check_safety(safety)
    _check_grid(state.theta, config)
    grid = config.grid
    caps = [0.1]  # the step of a state at rest
    if config.integrator == "rk4" and config.epsilon > 0:
        mx, my, _ = _kept(grid, config.mode_cap).m
        caps.append(_RK4_REAL_LIMIT / (config.epsilon**2 * (mx**2 + my**2)))
    mu, mv, _ = velocity_symbols(grid)
    speeds = ((lp_norm(inverse_transform(state.theta, mu), np.inf), grid.nx),
              (lp_norm(inverse_transform(state.theta, mv), np.inf), grid.ny))
    caps += [(TWO_PI / n) / speed for speed, n in speeds if speed > 0]
    return safety * min(caps)


def build_initial(grid: Grid, spec: InitialSpec, dealias_field: bool = True) -> SpectralField:
    """Construct the initial spectral state with zero horizontal mean under the 2/3 rule."""
    if dealias_field is not True:  # True only; it stays because acceptance criterion 3 passes it
        raise ValueError(f"the 2/3 rule is always on, got dealias_field={dealias_field!r}")
    if spec.kind == "analytic-single-mode":
        _check_mode("initial mode", spec.mode, grid)
        X, Y, Z = grid.meshgrid()
        k1, k2, k3 = spec.mode
        values = spec.amplitude * np.sin(k1 * X + k2 * Y + k3 * Z)
        F = forward_transform(PhysicalField(grid, values))
    else:
        rng = np.random.default_rng(spec.seed)
        F = forward_transform(PhysicalField(grid, rng.standard_normal(grid.shape)))
        kx, ky, kz = grid.wavenumbers()
        kmax_abs = np.maximum(np.maximum(np.abs(kx), np.abs(ky)), np.abs(kz))
        band = (kmax_abs >= spec.band[0]) & (kmax_abs <= spec.band[1])
        F = SpectralField(grid, np.where(band, F.coeffs, 0.0))
    F = _keep(F)
    if spec.kind == "random-band-limited":
        l6 = lp_norm(inverse_transform(F), 6.0)
        if l6 == 0:
            raise ValueError(f"initial band {spec.band!r} keeps no mode of the"
                             f" {grid.shape} grid outside the horizontal-mean sector")
        F = SpectralField(grid, F.coeffs * (spec.amplitude / l6))
    return F


@dataclass
class Trajectory:
    """Result of one run: the diagnostics of each sampled state, each holding
    its time `t`, and the final state."""

    reports: list  # InvariantReport, see invariants module
    final_state: SimState


def initial_state(config: SimConfig) -> SpectralField:
    """The configured initial state, restricted to the modes kept by `mode_cap`."""
    init = config.initial
    what = (f"initial band {init.band!r}" if init.kind == "random-band-limited"
            else f"initial mode {init.mode!r}")
    return _truncate(config, build_initial(config.grid, init), what)


def _truncate(config: SimConfig, theta: SpectralField, what: str) -> SpectralField:
    """`theta` restricted to the modes kept by `mode_cap`; a ValueError naming
    `what` if it keeps none of them."""
    if config.mode_cap is None:
        return theta
    capped = _keep(theta, config.mode_cap)
    # relative to the uncapped field: a capped single mode leaves round-off
    if np.max(np.abs(capped.coeffs)) <= 1e-12 * np.max(np.abs(theta.coeffs)):
        raise ValueError(f"mode_cap {config.mode_cap} removes every mode of the {what}")
    return capped


def _check_kept(theta: SpectralField, mode_cap: int | None, what: str) -> None:
    """Raise a ValueError naming `what` unless `theta` has zero horizontal mean
    and no content outside the modes kept under `mode_cap`, both to the
    tolerance of `has_zero_horizontal_mean`: the readers of the kept box (the
    inverse (x, y) passes of `step`, the half box) read the modes beyond it as zero."""
    if not theta.has_zero_horizontal_mean():
        raise ValueError(f"{what} must have zero horizontal mean")
    beyond = np.abs(theta.coeffs[_kept(theta.grid, mode_cap).outside])
    if np.max(beyond) > 1e-12 * max(np.max(np.abs(theta.coeffs)), 1.0):
        cap = "" if mode_cap is None else f" and mode_cap = {mode_cap}"
        raise ValueError(f"{what} has modes outside those kept by the 2/3 rule"
                         f" |k_i| <= n_i/3{cap}")


def samples(config: SimConfig, theta0: SpectralField | None = None) -> Iterator[SimState]:
    """Integrate from `theta0` (default: `initial_state(config)`) to t_end and
    yield the t = 0 state, every `diagnostics_every`-th state and the last one.

    `step` acts on the kept modes only (the 2/3 rule within `mode_cap`) and
    zeroes the others.  So `theta0` must lie on `config.grid`, with zero
    horizontal mean and no content outside the kept modes beyond round-off
    (`_check_kept`); otherwise a ValueError names the grids or the rule.
    The first step reads any such round-off on the k_y rows beyond m_y or the
    kz planes above m_z as zero; `initial_state` leaves none, as it applies `_keep`.

    The time step is `config.dt`, or under "auto" the CFL step of `theta0`,
    shortened so that a whole number of steps ends at t_end.  Every step runs
    in one `_Stepper`, built after the t = 0 state is yielded if there is a
    step, and dropped before the last state is.
    """
    if theta0 is None:
        theta0 = initial_state(config)
    _check_grid(theta0, config)
    _check_kept(theta0, config.mode_cap, "initial state")
    state = SimState(0.0, theta0)

    dt = cfl_dt(state, config.safety, config) if config.dt == "auto" else float(config.dt)
    n_steps = max(1, math.ceil(config.t_end / dt - 1e-12)) if config.t_end > 0 else 0
    dt = config.t_end / n_steps if n_steps else dt

    yield state
    stepper = _Stepper(config.grid, config.mode_cap) if n_steps else None
    for i in range(1, n_steps + 1):
        state = step(state, dt, config, stepper)
        if i == n_steps:
            del stepper  # the consumer of the last state may allocate: free the buffers first
        if i % config.diagnostics_every == 0 or i == n_steps:
            yield state


def run(config: SimConfig, theta0: SpectralField | None = None) -> Trajectory:
    """The invariant report of every state `samples(config, theta0)` yields.

    Each sample's report is computed on one report thread per call, the
    worker of a single-worker executor, while the calling thread steps to the
    next sample, on one CPU (`taskset -c 0`) as on many.  At most one report
    is in flight: its result is taken before the next sample is submitted, so
    the reports come in sample order.  The pending report's result is taken
    on the way out too, so its error is raised in place of any error of a
    later step, as in the serial order.
    """
    with ThreadPoolExecutor(1) as pool:
        futures = []
        try:
            for state in samples(config, theta0):
                if futures:
                    futures[-1].result()
                futures.append(pool.submit(compute_report, state, config.epsilon))
        finally:
            if futures:
                futures[-1].result()
    return Trajectory([f.result() for f in futures], state)
