"""Real periodic scalar fields on [0, 2pi]^3 and their spectral representation.

Fields live on a uniform collocation grid.  Spectral coefficients are the
half spectrum (nx, ny, nz//2+1) of `scipy.fft.rfftn` with norm="forward":
kx, ky in FFT order, kz = 0..nz/2, coeff(0,0,0) = domain mean, so multiplier
formulas act coefficient-exactly on integer wavenumbers.  This module owns the
format: the lattice, the batched transforms and the Parseval weight (2 for a
stored mode and its implied partner at -k, 1 on the self-conjugate planes
kz = 0 and kz = nz/2).  Reality is checked once, in `SpectralField`:
those two planes must be Hermitian, which the inverse transform would
otherwise enforce silently.

The batched transforms of fields with at least `THREADED_MIN_POINTS` points
run on every CPU the process may use (`WORKERS`); pocketfft splits independent
1-D transforms across its threads, so results are bitwise independent of the
thread count.  `to_physical` consumes its input: it transforms the caller's
stack in place.

A thread that sets `_thread.workers` transforms with that many FFT workers
in place of `WORKERS` (`_workers`); `experiments._stream` sets it to 1 in each
thread that steps a trajectory beside others.
"""

from __future__ import annotations

import numbers
import os
import threading
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import NamedTuple

import numpy as np
from scipy import fft as sfft

TWO_PI = 2.0 * np.pi
DOMAIN_VOLUME = TWO_PI**3
# FFT threads: the CPUs this process may run on (`taskset` caps them), for
# fields of at least THREADED_MIN_POINTS points.  On smaller fields a second
# thread costs more than it saves: on a 2-vCPU machine an IF-RK4 step took
# 1.26x as long with two threads at 24^3 and 1.11x at 40^3, but 0.89x at 48^3
# and 0.77x at 64^3.
WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
           else os.cpu_count() or 1)
THREADED_MIN_POINTS = 2**16
# per-thread settings: `workers`, when set, is this thread's FFT worker count
_thread = threading.local()


@dataclass(frozen=True)
class Grid:
    """Collocation counts per axis on the cube [0, 2pi]^3."""

    nx: int
    ny: int
    nz: int

    def __post_init__(self):
        for name, n in (("nx", self.nx), ("ny", self.ny), ("nz", self.nz)):
            if (not isinstance(n, numbers.Integral) or isinstance(n, bool)
                    or n < 4 or n % 2 != 0):
                raise ValueError(f"{name} must be an even integer >= 4, got {n!r}")

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.nx, self.ny, self.nz)

    @property
    def spectral_shape(self) -> tuple[int, int, int]:
        """Shape of the stored half spectrum."""
        return (self.nx, self.ny, self.nz // 2 + 1)

    @property
    def size(self) -> int:
        return self.nx * self.ny * self.nz

    @property
    def cell_volume(self) -> float:
        return DOMAIN_VOLUME / self.size

    def axes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return tuple(
            np.arange(n) * (TWO_PI / n) for n in (self.nx, self.ny, self.nz)
        )

    def meshgrid(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        x, y, z = self.axes()
        return np.meshgrid(x, y, z, indexing="ij")

    def wavenumbers(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Integer wavenumbers of the half lattice, broadcastable to `spectral_shape`."""
        lat = _lattice(self.nx, self.ny, self.nz)
        return lat.kx, lat.ky, lat.kz


class _Lattice(NamedTuple):
    """The half lattice, each array broadcastable to `spectral_shape`."""

    kx: np.ndarray  # integer wavenumbers, kx and ky in FFT order, kz = 0..nz/2
    ky: np.ndarray
    kz: np.ndarray
    kh2: np.ndarray  # kx^2 + ky^2 as floats
    nyquist: np.ndarray  # any |k_i| = n_i/2
    dealias: np.ndarray  # kept by the 2/3 rule
    weight: np.ndarray  # Parseval weight


@lru_cache(maxsize=32)
def _lattice(nx: int, ny: int, nz: int) -> _Lattice:
    kx = np.rint(sfft.fftfreq(nx) * nx).astype(np.int64).reshape(nx, 1, 1)
    ky = np.rint(sfft.fftfreq(ny) * ny).astype(np.int64).reshape(1, ny, 1)
    kz = np.arange(nz // 2 + 1, dtype=np.int64).reshape(1, 1, -1)
    kh2 = (kx**2 + ky**2).astype(np.float64)
    # Nyquist planes: the unpaired mode |k| = n/2 of the real transform.
    nyquist = (np.abs(kx) == nx // 2) | (np.abs(ky) == ny // 2) | (kz == nz // 2)
    dealias = (
        (np.abs(kx) <= nx // 3) & (np.abs(ky) <= ny // 3) & (kz <= nz // 3)
    )
    weight = np.where((kz == 0) | (kz == nz // 2), 1.0, 2.0)
    return _Lattice(kx, ky, kz, kh2, nyquist, dealias, weight)


class _Frozen:
    """A field whose array `_freeze` checks, makes read-only and stores."""

    @classmethod
    def _wrap(cls, grid: Grid, array: np.ndarray):
        """The field of a fresh array that no one else holds, without the copy."""
        f = cls.__new__(cls)
        object.__setattr__(f, "grid", grid)
        f._freeze(array)
        return f


@dataclass(frozen=True)
class PhysicalField(_Frozen):
    """Real scalar samples at the collocation points of `grid`.

    The values are copied, so the caller's array stays its own and the field
    is immutable.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self._freeze(np.array(self.values, dtype=np.float64))

    def _freeze(self, v: np.ndarray):
        if v.shape != self.grid.shape:
            raise ValueError(f"values shape {v.shape} != grid shape {self.grid.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("physical field contains non-finite entries")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class SpectralField(_Frozen):
    """Half-spectrum Fourier coefficients of a real field, coeff(0) = field mean."""

    grid: Grid
    coeffs: np.ndarray

    def __post_init__(self):
        self._freeze(np.array(self.coeffs, dtype=np.complex128, order="C"))

    def _freeze(self, c: np.ndarray):
        if c.shape != self.grid.spectral_shape:
            raise ValueError(f"coeffs shape {c.shape} != spectral shape {self.grid.spectral_shape}")
        if not np.all(np.isfinite(c)):
            raise ValueError("spectral field contains non-finite entries")
        planes = c[:, :, [0, -1]]
        defect = planes - np.conj(np.roll(planes[::-1, ::-1], 1, axis=(0, 1)))
        if np.max(np.abs(defect)) > 1e-12 * max(np.max(np.abs(planes)), 1.0):
            raise ValueError("spectral coefficients break reality: the kz = 0 and kz = nz/2"
                             " planes need coeff(-kx, -ky) = conj(coeff(kx, ky))")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    def has_zero_horizontal_mean(self, tol: float = 1e-12) -> bool:
        scale = max(np.max(np.abs(self.coeffs)), 1.0)
        return float(np.max(np.abs(self.coeffs[0, 0, :]))) <= tol * scale


def _workers(nx: int, ny: int, nz: int) -> int:
    if nx * ny * nz < THREADED_MIN_POINTS:
        return 1
    return getattr(_thread, "workers", WORKERS)


def to_spectral(values: np.ndarray) -> np.ndarray:
    """Half spectra of a batch of real fields on the last three axes."""
    return sfft.rfftn(values, axes=(-3, -2, -1), norm="forward",
                      workers=_workers(*values.shape[-3:]))


def to_physical(coeffs: np.ndarray) -> np.ndarray:
    """Real fields of a batch of half spectra; overwrites `coeffs`.

    The same 1-D passes as `irfftn` (complex inverse over x and y, then the
    real inverse over z; nz is even, so it is twice the last index), but the
    complex pass runs in place on the caller's array, not on a private copy.
    """
    nx, ny, nz = coeffs.shape[-3], coeffs.shape[-2], 2 * (coeffs.shape[-1] - 1)
    workers = _workers(nx, ny, nz)
    mixed = sfft.ifftn(coeffs, axes=(-3, -2), norm="forward", overwrite_x=True,
                       workers=workers)
    return sfft.irfft(mixed, n=nz, axis=-1, norm="forward", workers=workers)


def forward_transform(f: PhysicalField) -> SpectralField:
    """DFT normalized so that coeff(0,0,0) is the domain average of f."""
    return SpectralField(f.grid, to_spectral(f.values))


def inverse_transform(F: SpectralField) -> PhysicalField:
    """Reconstruct the real field."""
    return inverse_transform_batch(F, [()])[0]


def inverse_transform_batch(F: SpectralField, chains) -> list[PhysicalField]:
    """Real fields of symbol chains applied to F, from one batched inverse DFT.

    Entry i is the field of s_m * (... * (s_1 * F)) for chains[i] = (s_1, ..., s_m);
    the empty chain gives F itself.  The products are not checked, so every
    symbol must satisfy sigma(-k) = conj(sigma(k)) on the kz = 0 and kz = nz/2 planes.
    """
    stack = np.stack([reduce(np.multiply, chain, F.coeffs) for chain in chains])
    return [PhysicalField._wrap(F.grid, v) for v in to_physical(stack)]


def apply_symbol(F: SpectralField, symbol: np.ndarray) -> SpectralField:
    """Multiply coefficients by a diagonal symbol sigma(k), an array
    broadcastable to the half lattice (build it from `Grid.wavenumbers`).  A
    product that breaks reality on the kz = 0 or kz = nz/2 plane is rejected.
    """
    return SpectralField(F.grid, np.asarray(symbol, dtype=np.complex128) * F.coeffs)


def derivative_symbol(grid: Grid, axis: int) -> np.ndarray:
    """Symbol of d/dx_axis with the Nyquist plane zeroed, broadcastable to the half lattice."""
    k = grid.wavenumbers()[axis]
    return np.where(np.abs(k) == grid.shape[axis] // 2, 0.0, 1j * k.astype(np.float64))


def horizontal_laplacian_symbol(grid: Grid) -> np.ndarray:
    kh2 = _lattice(grid.nx, grid.ny, grid.nz).kh2
    return np.broadcast_to(-kh2, grid.spectral_shape)


def horizontal_power_symbol(grid: Grid, s: float) -> np.ndarray:
    """Symbol of A^s = (-horizontal Laplacian)^s, zero on the horizontal-mean sector."""
    kh2 = _lattice(grid.nx, grid.ny, grid.nz).kh2
    with np.errstate(divide="ignore"):
        return np.broadcast_to(np.where(kh2 > 0, kh2 ** float(s), 0.0), grid.spectral_shape)


def dealias(F: SpectralField) -> SpectralField:
    """2/3-rule truncation: zero every mode with any |k_i| > n_i/3."""
    mask = _lattice(F.grid.nx, F.grid.ny, F.grid.nz).dealias
    return SpectralField(F.grid, np.where(mask, F.coeffs, 0.0))


def pad_to_grid(F: SpectralField, target: Grid) -> SpectralField:
    """Embed coefficients into a finer grid by spectral zero padding.

    The source Nyquist planes are dropped: they have no conjugate partner and
    cannot be placed symmetrically on the larger lattice.
    """
    if (target.nx < F.grid.nx or target.ny < F.grid.ny or target.nz < F.grid.nz):
        raise ValueError("target grid must be at least as fine in every axis")
    lat = _lattice(F.grid.nx, F.grid.ny, F.grid.nz)
    src = np.where(lat.nyquist, 0.0, F.coeffs)
    out = np.zeros(target.spectral_shape, dtype=np.complex128)
    ix = np.mod(lat.kx.ravel(), target.nx)
    iy = np.mod(lat.ky.ravel(), target.ny)
    out[np.ix_(ix, iy, lat.kz.ravel())] = src
    return SpectralField(target, out)


def project_zero_horizontal_mean(F: SpectralField) -> SpectralField:
    c = F.coeffs.copy()
    c[0, 0, :] = 0.0
    return SpectralField(F.grid, c)


def lp_norm(f: PhysicalField, p: float) -> float:
    """Collocation quadrature of the L^p norm over [0, 2pi]^3; p=inf is grid max."""
    if p == np.inf:
        return float(np.max(np.abs(f.values)))
    if p < 1:
        raise ValueError(f"p must be >= 1 or inf, got {p}")
    return float(
        (np.sum(np.abs(f.values) ** p) * f.grid.cell_volume) ** (1.0 / p)
    )


def parseval_sum(grid: Grid, density: np.ndarray) -> float:
    """(2pi)^3 times the full-lattice sum of a mode density even in k, given on
    the half lattice: the squared L^2 norm for |c|^2, the L^2 inner product of
    two real fields for Re(conj(a) b)."""
    weight = _lattice(grid.nx, grid.ny, grid.nz).weight
    return float(DOMAIN_VOLUME * np.sum(weight * density))


def spectral_l2(F: SpectralField) -> float:
    """L^2 norm via Parseval."""
    return float(np.sqrt(parseval_sum(F.grid, np.abs(F.coeffs) ** 2)))
