"""Exact per-mode diagnostic solve: velocity, stream function and vertical
vorticity from the temperature fluctuation, plus the anisotropic multiplier
family that governs every velocity-from-temperature bound.

The diagnostic relations are linear and diagonal in Fourier space:

    u_hat = -k2 k3 / D * theta_hat,   v_hat = k1 k3 / D * theta_hat,
    w_hat = (k1^2+k2^2)^2 / D * theta_hat,   D = k3^2 + (k1^2+k2^2)^3,

with the horizontal-mean sector (k1 = k2 = 0) excluded throughout.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .grid import (
    Grid,
    PhysicalField,
    SpectralField,
    _is_number,
    _keep,
    _kept,
    _lattice,
    derivative_symbol,
    forward_transform,
    inverse_transform,
    lp_norm,
    pack_half_box,
    parseval_sum,
)

_TINY = 1e-300


@dataclass(frozen=True)
class VelocityDiagnostics:
    """The five diagnostic fields derived from one temperature fluctuation."""

    u: SpectralField
    v: SpectralField
    w: SpectralField
    psi: SpectralField
    omega: SpectralField


def _diagnostic_symbol(grid: Grid, numerator: np.ndarray) -> np.ndarray:
    """numerator / D, D = k3^2 + (k1^2+k2^2)^3, zero on the horizontal-mean sector and on
    the Nyquist planes, whose modes have no conjugate partner under the real transform."""
    lat = _lattice(grid)
    denom = lat.kz.astype(np.float64) ** 2 + lat.kh2**3
    return np.where(lat.retained, numerator / np.maximum(denom, _TINY), 0.0)


@lru_cache(maxsize=32)
def velocity_symbols(grid: Grid):
    """Per-mode multipliers (mu, mv, mw) of the velocity on the grid lattice."""
    lat = _lattice(grid)
    kxf, kyf, kzf = (k.astype(np.float64) for k in (lat.kx, lat.ky, lat.kz))
    symbols = tuple(_diagnostic_symbol(grid, m) for m in (-kyf * kzf, kxf * kzf, lat.kh2**2))
    for m in symbols:
        m.setflags(write=False)
    return symbols


@lru_cache(maxsize=32)
def half_box_w_symbol(grid: Grid, mode_cap: int | None) -> np.ndarray:
    """mw on the half box of `_kept(grid, mode_cap)` (`grid.pack_half_box`), packed as
    the tendency packs theta' (mw is real and even in k), read-only.  Complex128,
    so its product with a half-box spectrum needs no cast."""
    kept = _kept(grid, mode_cap)
    symbol = pack_half_box(velocity_symbols(grid)[2], kept, np.empty(kept.half, np.complex128))
    symbol.setflags(write=False)
    return symbol


def solve_velocity(theta: SpectralField) -> VelocityDiagnostics:
    """Solve the linear diagnostic equations exactly, mode by mode."""
    if not theta.has_zero_horizontal_mean():
        raise ValueError("diagnostic solve requires zero horizontal mean")
    g, c = theta.grid, theta.coeffs
    dz = derivative_symbol(g, 2)
    # only this solve reads psi and omega: their symbols are built per call, not cached;
    # -i k3 is conj(i k3), which keeps the signs of zero parts that -dz would flip
    mpsi, momega = (_diagnostic_symbol(g, m) for m in (dz.conj(), dz * _lattice(g).kh2))
    return VelocityDiagnostics(*(SpectralField(g, m * c)
                                 for m in (*velocity_symbols(g), mpsi, momega)))


def residual_check(
    theta: SpectralField, d: VelocityDiagnostics
) -> tuple[float, float]:
    """Relative spectral residuals of the two diagnostic equations.

    r1 checks psi_z = theta' + lap_h w, r2 checks -w_z = lap_h omega, both
    restricted to the retained modes (nonzero horizontal mean, non-Nyquist).
    """
    for f in (d.u, d.v, d.w, d.psi, d.omega):
        if f.grid != theta.grid:
            raise ValueError("grid mismatch between theta and diagnostics")
    grid = theta.grid
    lat = _lattice(grid)
    dz = derivative_symbol(grid, 2)
    res1 = dz * d.psi.coeffs - theta.coeffs + lat.kh2 * d.w.coeffs
    res2 = dz.conj() * d.w.coeffs + lat.kh2 * d.omega.coeffs
    n_theta, r1, r2 = (np.sqrt(parseval_sum(grid, np.where(lat.retained, np.abs(c) ** 2, 0.0)))
                       for c in (theta.coeffs, res1, res2))
    denom = max(n_theta, 1e-30)
    return float(r1 / denom), float(r2 / denom)


def spectral_divergence(d: VelocityDiagnostics) -> float:
    """Max per-mode horizontal divergence |k1 u_hat + k2 v_hat|."""
    kx, ky = d.u.grid.wavenumbers()[:2]
    div = kx * d.u.coeffs + ky * d.v.coeffs
    return float(np.max(np.abs(div)))


@dataclass(frozen=True)
class MultiplierSpec:
    """Member of the anisotropic family
    m(k) = (1+k3^2)^a (k1^2+k2^2)^b / ((k3^2)^c + (k1^2+k2^2)^d),
    zero on the horizontal-mean sector. Exponents are exact rationals so the
    boundedness hypothesis a/c + b/d <= 1 can be decided exactly.
    """

    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction

    @staticmethod
    def make(a, b, c, d) -> "MultiplierSpec":
        return MultiplierSpec(Fraction(a), Fraction(b), Fraction(c), Fraction(d))


def hypothesis_check(spec: MultiplierSpec) -> bool:
    """Exact rational check of the boundedness hypothesis a/c + b/d <= 1."""
    if spec.c <= 0 or spec.d <= 0:
        raise ValueError("hypothesis requires c > 0 and d > 0")
    return spec.a / spec.c + spec.b / spec.d <= 1


def _multiplier(spec: MultiplierSpec, kh2, kz2):
    """The family member at k1^2 + k2^2 = kh2 and k3^2 = kz2, zero where kh2 = 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        num = (1.0 + kz2) ** float(spec.a) * np.where(kh2 > 0, kh2, 1.0) ** float(spec.b)
        den = kz2 ** float(spec.c) + kh2 ** float(spec.d)
        return np.where(kh2 > 0, num / np.maximum(den, _TINY), 0.0)


def multiplier_value(spec: MultiplierSpec, k) -> float:
    """Closed-form evaluation at one integer wavenumber triple."""
    k1, k2, k3 = k
    return float(_multiplier(spec, float(k1) ** 2 + float(k2) ** 2, float(k3) ** 2))


def lattice_sup(spec: MultiplierSpec, K: int) -> float:
    """Brute-force max of the multiplier over all |k_i| <= K."""
    if K < 8:
        raise ValueError(f"K must be >= 8, got {K}")
    k = np.arange(0, K + 1, dtype=np.float64)
    kh2 = k.reshape(-1, 1) ** 2 + k.reshape(1, -1) ** 2
    # the multiplier depends only on |k1|, |k2|, k3^2: scan k3 >= 0
    return max(
        float(np.max(_multiplier(spec, kh2, float(k3) ** 2))) for k3 in range(K + 1)
    )


def empirical_lp_ratio(spec: MultiplierSpec, p: float, trials: int, seed: int) -> float:
    """Max of ||m f||_p / ||f||_p over seeded random band-limited fields on
    the 32^3 grid.

    A numerical lower bound for the multiplier's L^p operator norm; reported
    for regression tracking, nothing is asserted about tightness.
    """
    if not (_is_number(p) and 1.0 < p < np.inf):
        raise ValueError(f"p must lie in (1, inf), got {p!r}")
    if not (_is_number(trials, numbers.Integral) and trials >= 1):
        raise ValueError(f"trials must be a positive integer, got {trials!r}")
    grid = Grid(32, 32, 32)
    rng = np.random.default_rng(seed)
    lat = _lattice(grid)
    sym = _multiplier(spec, lat.kh2, lat.kz.astype(np.float64) ** 2)
    best = 0.0
    for _ in range(trials):
        f = rng.standard_normal(grid.shape)
        # the 2/3 rule, and no horizontal mean: the family is zero there
        F = _keep(forward_transform(PhysicalField(grid, f)))
        denom = lp_norm(inverse_transform(F), p)
        if denom > 0.0:
            best = max(best, lp_norm(inverse_transform(F, sym), p) / denom)
    return best


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    spec: MultiplierSpec
    source_anchor: str


# Named members of the family reused by the runtime diagnostics.  Exponents
# are the exact rationals of the corresponding velocity-from-temperature
# bounds; all entries satisfy the boundedness hypothesis.
CATALOG: tuple[CatalogEntry, ...] = (
    CatalogEntry(
        "w_velocity",
        MultiplierSpec.make(0, 2, 1, 3),
        "vertical velocity symbol w_hat / theta_hat",
    ),
    CatalogEntry(
        "w_supz_l3_sq",
        MultiplierSpec.make("5/9", "13/3", 2, 6),
        "squared symbol bounding the level-wise L3 norm of w by the L2 norm of theta",
    ),
    CatalogEntry(
        "w_l3",
        MultiplierSpec.make("1/4", "13/6", 1, 3),
        "symbol bounding the level-wise L6 norm of w by the L3 norm of theta",
    ),
    CatalogEntry(
        "u_l103",
        MultiplierSpec.make("3/5", "6/5", 1, 3),
        "majorant bounding the L10/3 norm of u by the weak dual norm of theta",
    ),
    CatalogEntry(
        "grad_u_l6",
        MultiplierSpec.make("6/5", "12/5", 2, 6),
        "squared majorant bounding the sup norm of horizontal velocity gradients by the L6 norm of theta",
    ),
    CatalogEntry(
        "dual_w",
        MultiplierSpec.make("1/3", 2, 1, 3),
        "symbol bounding the smoothed weak norm of w by the weak dual norm of theta",
    ),
)

