"""Runtime instantiation of the a priori estimates: norms, energy budget,
anisotropic embedding ratios, Gronwall envelopes and the weak dual norm."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import (
    TWO_PI,
    PhysicalField,
    SimState,
    SpectralField,
    _lattice,
    derivative_symbol,
    horizontal_power_symbol,
    inverse_transform,
    lp_norm,
    parseval_sum,
    spectral_l2,
)
from .meanstate import heat_flux, mean_gradient, profile_l2
from .velocity import velocity_symbols


def dual_norm(theta: SpectralField) -> float:
    """Weak norm || A^{-1/2} theta' ||_2, computed mode-wise."""
    if not theta.has_zero_horizontal_mean(tol=1e-10):
        raise ValueError("dual norm requires zero horizontal mean")
    inv_kh2 = horizontal_power_symbol(theta.grid, -1.0)
    return float(np.sqrt(parseval_sum(theta.grid, inv_kh2 * np.abs(theta.coeffs) ** 2)))


def _slice_lp(values: np.ndarray, p: float) -> np.ndarray:
    """L^p([0,2pi]^2) norm at every z level; values shape (nx, ny, nz)."""
    nx, ny = values.shape[:2]
    w2 = TWO_PI**2 / (nx * ny)
    powers = np.abs(values)
    powers **= p
    return (np.sum(powers, axis=(0, 1)) * w2) ** (1.0 / p)


def _theta_w_norms(theta: SpectralField):
    """||theta'||_3, ||theta'||_6, ||w||_6, max|w|, the level-wise maxima of
    ||w||_{L^3_h} and ||w||_{L^6_h}, and the mean gradient, from one pass
    whose fields this scope drops on return."""
    theta_p, w = inverse_transform(theta), inverse_transform(theta, velocity_symbols(theta.grid)[2])
    return (lp_norm(theta_p, 3.0), lp_norm(theta_p, 6.0), lp_norm(w, 6.0), lp_norm(w, np.inf),
            *(float(np.max(_slice_lp(w.values, p))) for p in (3.0, 6.0)),
            mean_gradient(heat_flux(theta_p, w)))


def _magnitude(theta: SpectralField, first, second) -> PhysicalField:
    """|(a, b)| of the fields a = `inverse_transform(theta, *first)` and b of
    `second`, a squared and dropped before b is formed."""
    square = inverse_transform(theta, *first).values ** 2
    square += inverse_transform(theta, *second).values ** 2
    return PhysicalField._wrap(theta.grid, np.sqrt(square, out=square))


@dataclass(frozen=True)
class InvariantReport:
    """Per-sample record of norms, budget terms and embedding ratios."""

    t: float
    l2: float
    l3: float
    l6: float
    grad_l3: float
    dual: float
    mean_grad_l2: float
    diss_h: float
    diss_z: float
    ratios: dict[str, float]


def compute_report(state, epsilon: float) -> InvariantReport:
    """Norms, budget terms and embedding ratios of one sampled state.

    The nine physical fields they need are inverse-transformed one at a
    time: (theta', w), (d_x theta', d_y theta'), (u, v), (d_x u, d_x v), then
    d_x w, and each group is reduced and dropped before the next one is
    formed.  Every physical-space norm is `lp_norm` of a field or of a pair's
    magnitude, or `_slice_lp` of w level by level.
    """
    theta = state.theta
    grid = theta.grid
    if not theta.has_zero_horizontal_mean():
        raise ValueError("diagnostic solve requires zero horizontal mean")
    mu, mv, mw = velocity_symbols(grid)
    dx = derivative_symbol(grid, 0)
    dy = derivative_symbol(grid, 1)
    l2 = spectral_l2(theta)

    l3, l6, l6_w, w_max, w3_max, w6_max, dtz = _theta_w_norms(theta)
    grad2 = parseval_sum(grid, _lattice(grid).kh2 * np.abs(theta.coeffs) ** 2)
    grad_l3 = lp_norm(_magnitude(theta, (dx,), (dy,)), 3.0)
    l6_uv = lp_norm(_magnitude(theta, (mu,), (mv,)), 6.0)
    dxuv_max = lp_norm(_magnitude(theta, (mu, dx), (mv, dx)), np.inf)
    dxw_max = lp_norm(inverse_transform(theta, mw, dx), np.inf)

    ratios = {}
    if l2 > 0:
        ratios = {
            "ratio_417": w3_max / l2,
            "ratio_426": w6_max / max(l3, 1e-300),
            "ratio_429u": l6_uv / max(l6, 1e-300),
            "ratio_429w": l6_w / max(l6, 1e-300),
            "ratio_56": dxuv_max / max(l6, 1e-300),
            "ratio_58": (dxw_max + w_max) / max(l6, 1e-300),
        }
    return InvariantReport(
        t=state.t,
        l2=l2,
        l3=l3,
        l6=l6,
        grad_l3=grad_l3,
        dual=dual_norm(theta),
        mean_grad_l2=profile_l2(dtz),
        diss_h=float(epsilon**2 * grad2),
        diss_z=float(TWO_PI**2 * np.sum(dtz**2) * TWO_PI / dtz.size),
        ratios=ratios,
    )


def embedding_ratios(theta: SpectralField) -> dict[str, float]:
    """Measured LHS/RHS of the named anisotropic embedding estimates."""
    if spectral_l2(theta) == 0.0:
        raise ValueError("embedding ratios are undefined for the zero field")
    return compute_report(SimState(0.0, theta), 0.0).ratios


def budget_residual_series(times: np.ndarray, l2_series: np.ndarray,
                           diss_total: np.ndarray) -> np.ndarray:
    """Centered-difference residual of d/dt (1/2)||theta'||_2^2 + dissipation.

    Regression-tracked; the fourth-order check uses the integrated residual
    from `integrated_budget_residual`.
    """
    times = np.asarray(times, dtype=np.float64)
    l2 = np.asarray(l2_series, dtype=np.float64)
    res = np.full_like(l2, np.nan)
    if l2.size >= 3:
        # E(t+dt) - E(t-dt) as a difference of squares: no rounded squares cancel
        de = 0.5 * (l2[2:] - l2[:-2]) * (l2[2:] + l2[:-2])
        res[1:-1] = de / (times[2:] - times[:-2]) + diss_total[1:-1]
    return res


def integrated_budget_residual(times, l2_series, diss_total) -> float:
    """|E(T) - E(0) + integral of dissipation|, Simpson-integrated.

    Both the integrator error and the quadrature error are fourth order in
    the step, so halving dt shrinks this residual by about 16x.
    """
    from scipy.integrate import simpson

    times = np.asarray(times, dtype=np.float64)
    l2_0, l2_T = float(l2_series[0]), float(l2_series[-1])
    # E(T) - E(0) as a difference of squares: no rounded squares cancel
    change = 0.5 * (l2_T - l2_0) * (l2_T + l2_0)
    integral = simpson(np.asarray(diss_total, dtype=np.float64), x=times)
    return float(abs(change + integral))


@dataclass(frozen=True)
class EnvelopeSeries:
    pass_l3: np.ndarray
    pass_l6: np.ndarray
    pass_grad: np.ndarray


def _cumtrapz(y: np.ndarray, t: np.ndarray) -> np.ndarray:
    out = np.zeros_like(y)
    out[1:] = np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(t))
    return out


def gronwall_envelopes(reports: list[InvariantReport], slack: float = 10.0) -> EnvelopeSeries:
    """Growth envelopes for the L3, L6 and gradient-L3 norms.

    Envelope form: norm0^q * (1 + slack * expm1(rate integral)); slack = 1
    recovers the plain exponential bound, slack = 0 pins the envelope at the
    initial value (negative control: any growth fails).  The rate constants
    are calibrated from the embedding ratios of the first sample.
    """
    if not reports:
        raise ValueError("empty report series")
    r0 = reports[0].ratios
    c_l3 = max(r0.get("ratio_417", 1.0), 1.0) ** 2
    c_l6 = max(r0.get("ratio_426", 1.0), 1.0) ** 2
    c_grad = max(r0.get("ratio_56", 1.0), 1.0) + max(r0.get("ratio_58", 1.0), 1.0) ** 2
    t = np.array([r.t for r in reports])
    l2 = np.array([r.l2 for r in reports])
    l3 = np.array([r.l3 for r in reports])
    l6 = np.array([r.l6 for r in reports])
    g3 = np.array([r.grad_l3 for r in reports])

    x3 = c_l3 * l2[0] ** 2 * t
    env3 = l3[0] ** 3 * (1.0 + slack * np.expm1(x3))
    x6 = c_l6 * _cumtrapz(l3**2, t)
    env6 = l6[0] ** 6 * (1.0 + slack * np.expm1(x6))
    xg = c_grad * _cumtrapz(l6**2 + 1.0, t)
    envg = g3[0] ** 3 * (1.0 + slack * np.expm1(xg))

    tol = 1e-12
    return EnvelopeSeries(
        pass_l3=l3**3 <= env3 * (1.0 + tol) + tol,
        pass_l6=l6**6 <= env6 * (1.0 + tol) + tol,
        pass_grad=g3**3 <= envg * (1.0 + tol) + tol,
    )
