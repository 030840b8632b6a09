"""Time evolution of the temperature fluctuation.

The tendency assembles -u.grad_h theta' - w dtheta_bar/dz (+ eps^2 lap_h theta')
with the velocity solved exactly per mode and the quadratic products formed in
physical space under the 2/3 rule.  Two integrators are provided: classical
RK4 on the full tendency, and an integrating-factor RK4 that treats the
horizontal diffusion term exactly per mode.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .grid import (
    TWO_PI,
    Grid,
    PhysicalField,
    SpectralField,
    _lattice,
    dealias as dealias_op,
    derivative_symbol,
    forward_transform,
    horizontal_laplacian_symbol,
    inverse_transform,
    inverse_transform_batch,
    lp_norm,
    project_zero_horizontal_mean,
    to_physical,
    to_spectral,
)
from .meanstate import mean_gradient
from .velocity import velocity_symbols


class BlowUpError(RuntimeError):
    """Raised when the state leaves the finite range; carries the last good state."""

    def __init__(self, message: str, last_state: "SimState"):
        super().__init__(message)
        self.last_state = last_state


def _is_number(x, kind=numbers.Real) -> bool:
    """x is an instance of `kind` and not a bool."""
    return isinstance(x, kind) and not isinstance(x, bool)


def _is_ints(x, n: int) -> bool:
    """x is a tuple of n integers."""
    return isinstance(x, tuple) and len(x) == n and all(
        _is_number(k, numbers.Integral) for k in x)


def _check_mode(name: str, mode, grid: Grid | None = None, dealias_field: bool = True) -> None:
    """Raise a ValueError naming `name` unless the single mode is three integers
    with k1 or k2 nonzero and, given a grid, is resolved on it."""
    # a mode with k1 = k2 = 0 lies in the horizontal-mean sector, which is projected out
    if not (_is_ints(mode, 3) and mode[:2] != (0, 0)):
        raise ValueError(f"{name} must be a tuple of three integers (k1, k2, k3)"
                         f" with k1 or k2 nonzero, got {mode!r}")
    if grid is None:
        return
    # |k_i| >= n_i/2 vanishes on the grid or aliases; the 2/3 rule removes |k_i| > n_i/3
    limits = [n // 3 if dealias_field else n // 2 - 1 for n in grid.shape]
    if any(abs(k) > lim for k, lim in zip(mode, limits)):
        raise ValueError(f"{name} {mode!r} is not resolved on the {grid.shape} grid:"
                         f" it needs |k_i| <= {tuple(limits)}")


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
    dealias: bool = True
    initial: InitialSpec = field(default_factory=InitialSpec)
    diagnostics_every: int = 1
    safety: float = 0.5
    mode_cap: int | None = None  # Galerkin truncation |k_i| <= mode_cap

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
        if self.dt != "auto" and not (_is_number(self.dt) and 0 < self.dt < math.inf):
            raise ValueError(f'dt must be "auto" or a positive finite number, got {self.dt!r}')
        if not (_is_number(self.safety) and 0 < self.safety <= 1):
            raise ValueError(f"safety must be a number in (0, 1], got {self.safety!r}")
        cap_max = max(self.grid.shape) // 2
        if self.mode_cap is not None and not (
            _is_number(self.mode_cap, numbers.Integral) and 1 <= self.mode_cap <= cap_max
        ):
            raise ValueError(f"mode_cap must be an integer in 1..{cap_max} (max(n_i)/2)"
                             f" or None, got {self.mode_cap!r}")


@dataclass(frozen=True)
class SimState:
    t: float
    theta: SpectralField


class _Workspace(NamedTuple):
    """The symbols and masks of one tendency, cached per grid and truncation."""

    mu: np.ndarray
    mv: np.ndarray
    mw: np.ndarray
    ikx: np.ndarray
    iky: np.ndarray
    mask: np.ndarray  # the modes kept by the 2/3 rule and `mode_cap`
    lap_h: np.ndarray  # -kh2 on its (nx, ny, 1) base: constant in kz, it broadcasts
    drop: np.ndarray  # the modes every tendency zeroes: outside the mask, and the mean sector


@lru_cache(maxsize=32)
def _workspace(grid: Grid, dealias: bool, mode_cap: int | None) -> _Workspace:
    lat = _lattice(grid.nx, grid.ny, grid.nz)
    mu, mv, mw, _, _ = velocity_symbols(grid)
    mask = np.broadcast_to(True, grid.spectral_shape)
    if dealias:
        mask = mask & lat.dealias
    if mode_cap is not None:
        kmax = np.maximum(np.maximum(np.abs(lat.kx), np.abs(lat.ky)), lat.kz)
        mask = mask & (kmax <= mode_cap)
    drop = ~mask
    drop[0, 0, :] = True
    return _Workspace(mu, mv, mw, derivative_symbol(grid, 0), derivative_symbol(grid, 1),
                      mask, horizontal_laplacian_symbol(grid)[:, :, :1], drop)


def _physical(sym: np.ndarray, c: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """The real field of sym * c, transformed in `buf`."""
    return to_physical(np.multiply(sym, c, out=buf))


def _advective_rhs(c: np.ndarray, ws: _Workspace) -> np.ndarray:
    """Spectral tendency of -u.grad_h theta' - w dtheta_bar/dz.

    The six factors are inverse-transformed one at a time through one spectral
    buffer and consumed as they arrive: the flux from theta' w, then
    nl = (u d_x theta' + v d_y theta') + w dtheta_bar/dz.  At most five fields
    are alive at once: the buffer, w, nl and the pair being multiplied.
    """
    buf = c.copy()
    theta_p = to_physical(buf)
    w_p = _physical(ws.mw, c, buf)
    flux = np.mean(np.multiply(theta_p, w_p, out=theta_p), axis=(0, 1))
    del theta_p
    dtz = mean_gradient(flux)
    nl = _physical(ws.mu, c, buf)
    nl *= _physical(ws.ikx, c, buf)
    v_p = _physical(ws.mv, c, buf)
    v_p *= _physical(ws.iky, c, buf)
    nl += v_p
    del v_p
    w_p *= dtz
    nl += w_p
    del w_p, buf
    out = to_spectral(nl)
    np.negative(out, out=out)
    np.copyto(out, 0.0, where=ws.drop)
    return out


def _rhs(c: np.ndarray, eps: float, ws: _Workspace) -> np.ndarray:
    """Spectral tendency of -u.grad_h theta' - w dtheta_bar/dz + eps^2 lap_h theta'."""
    out = _advective_rhs(c, ws)
    if eps != 0.0:
        out += eps**2 * ws.lap_h * c
    return out


def tendency(theta: SpectralField, epsilon: float) -> SpectralField:
    """Full spectral tendency of the evolution equation, under the 2/3 rule."""
    if not theta.has_zero_horizontal_mean(tol=1e-10):
        raise ValueError("tendency requires a zero-horizontal-mean field")
    return SpectralField._wrap(theta.grid, _rhs(theta.coeffs, epsilon,
                                                _workspace(theta.grid, True, None)))


def _rk4_step(c: np.ndarray, dt: float, eps: float, ws: _Workspace):
    """c + (dt/6) (k1 + 2 k2 + 2 k3 + k4), in that operation order.  The sum
    grows in k1's buffer as each stage arrives, and the stage inputs share one
    buffer."""
    acc = _rhs(c, eps, ws)  # k1
    x = np.multiply(0.5 * dt, acc)
    x += c
    for h in (0.5 * dt, dt):  # k2, then k3, each giving the next stage input c + h k
        k = _rhs(x, eps, ws)
        np.multiply(h, k, out=x)
        x += c
        k *= 2.0
        acc += k
        del k
    acc += _rhs(x, eps, ws)  # k4
    acc *= dt / 6.0
    acc += c
    return acc


def _ifrk4_step(c: np.ndarray, dt: float, eps: float, ws: _Workspace):
    """Integrating factor for the diffusive term, RK4 on the advective
    remainder: e_full c + (dt/6) (e_full n1 + 2 e_half (n2 + n3) + n4), in that
    operation order.  The stage inputs reuse n1's buffer, and the sum grows
    in its own buffer as each stage arrives."""
    e_half = np.exp(0.5 * dt * eps**2 * ws.lap_h)  # one exp per horizontal mode
    e_full = e_half * e_half
    x = _advective_rhs(c, ws)  # n1
    acc = e_full * x
    x *= 0.5 * dt
    x += c
    x *= e_half  # u2 = e_half (c + dt/2 n1)
    n2 = _advective_rhs(x, ws)
    np.multiply(e_half, c, out=x)
    x += 0.5 * dt * n2  # u3 = e_half c + dt/2 n2
    n3 = _advective_rhs(x, ws)
    np.multiply(dt * e_half, n3, out=x)
    n2 += n3
    np.multiply(e_full, c, out=n3)
    x += n3  # u4 = e_full c + dt e_half n3
    del n3
    n2 *= 2.0 * e_half
    acc += n2
    del n2
    acc += _advective_rhs(x, ws)  # n4
    acc *= dt / 6.0
    np.multiply(e_full, c, out=x)
    x += acc
    return x


def step(state: SimState, dt: float, config: SimConfig) -> SimState:
    """Advance one time step; a new state that is not a finite real field is a blow-up."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    ws = _workspace(config.grid, config.dealias, config.mode_cap)
    c = state.theta.coeffs
    if config.integrator == "rk4":
        out = _rk4_step(c, dt, config.epsilon, ws)
    else:
        out = _ifrk4_step(c, dt, config.epsilon, ws)
    out[0, 0, :] = 0.0
    try:
        theta = SpectralField._wrap(config.grid, out)
    except ValueError as err:
        raise BlowUpError(f"solution blew up at t = {state.t + dt:.6g}: {err}", state) from None
    return SimState(state.t + dt, theta)


def cfl_dt(state: SimState, safety: float, config: SimConfig) -> float:
    """Advective CFL time step with an explicit-diffusion cap for rk4."""
    if not (0.0 < safety <= 1.0):
        raise ValueError("safety must lie in (0, 1]")
    grid = config.grid
    default_cap = 0.1
    caps = [default_cap]
    if config.integrator == "rk4" and config.epsilon > 0:
        kh2_max = (grid.nx // 2) ** 2 + (grid.ny // 2) ** 2
        caps.append(2.8 / (config.epsilon**2 * kh2_max))
    mu, mv = velocity_symbols(grid)[:2]
    u, v = inverse_transform_batch(state.theta, [(mu,), (mv,)])
    for speed, n in ((lp_norm(u, np.inf), grid.nx), (lp_norm(v, np.inf), grid.ny)):
        if speed > 0:
            caps.append((TWO_PI / n) / speed)
    return safety * min(caps)


def build_initial(grid: Grid, spec: InitialSpec, dealias_field: bool = True) -> SpectralField:
    """Construct the initial spectral state with zero horizontal mean."""
    if spec.kind == "analytic-single-mode":
        _check_mode("initial mode", spec.mode, grid, dealias_field)
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
    F = project_zero_horizontal_mean(F)
    if dealias_field:
        F = dealias_op(F)
    if spec.kind == "random-band-limited":
        l6 = lp_norm(inverse_transform(F), 6.0)
        if l6 == 0:
            raise ValueError(f"initial band {spec.band!r} keeps no mode of the"
                             f" {grid.shape} grid outside the horizontal-mean sector")
        F = SpectralField(grid, F.coeffs * (spec.amplitude / l6))
    return F


@dataclass
class Trajectory:
    """Result of one run: the diagnostics of each sampled state and the final state."""

    times: list[float]
    reports: list  # InvariantReport, see invariants module
    final_state: SimState


def initial_state(config: SimConfig) -> SpectralField:
    """The configured initial state, restricted to the modes kept by `mode_cap`."""
    theta0 = build_initial(config.grid, config.initial, config.dealias)
    if config.mode_cap is not None:
        ws = _workspace(config.grid, config.dealias, config.mode_cap)
        capped = np.where(ws.mask, theta0.coeffs, 0.0)
        # relative to the uncapped field: a capped single mode leaves round-off
        if np.max(np.abs(capped)) <= 1e-12 * np.max(np.abs(theta0.coeffs)):
            init = config.initial
            what = (f"band {init.band!r}" if init.kind == "random-band-limited"
                    else f"mode {init.mode!r}")
            raise ValueError(f"mode_cap {config.mode_cap} removes every mode of the initial {what}")
        theta0 = SpectralField(config.grid, capped)
    return theta0


def samples(config: SimConfig, theta0: SpectralField | None = None) -> Iterator[SimState]:
    """Integrate from `theta0` (default: `initial_state(config)`) to t_end and
    yield the t = 0 state, every `diagnostics_every`-th state and the last one.

    The time step is `config.dt`, or under "auto" the CFL step of `theta0`,
    shortened so that a whole number of steps ends at t_end.
    """
    if theta0 is None:
        theta0 = initial_state(config)
    if not theta0.has_zero_horizontal_mean():
        raise ValueError("initial state must have zero horizontal mean")
    state = SimState(0.0, theta0)

    if config.dt == "auto":
        dt = cfl_dt(state, config.safety, config)
    else:
        dt = float(config.dt)
    n_steps = max(1, math.ceil(config.t_end / dt - 1e-12)) if config.t_end > 0 else 0
    if n_steps > 0:
        dt = config.t_end / n_steps

    yield state
    for i in range(1, n_steps + 1):
        state = step(state, dt, config)
        if i % config.diagnostics_every == 0 or i == n_steps:
            yield state


def run(config: SimConfig, theta0: SpectralField | None = None) -> Trajectory:
    """The invariant report of every state `samples(config, theta0)` yields."""
    from .invariants import compute_report

    times, reports = [], []
    for state in samples(config, theta0):
        times.append(state.t)
        reports.append(compute_report(state, config.epsilon))
    return Trajectory(times, reports, state)
