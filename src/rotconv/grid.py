"""Real periodic scalar fields on [0, 2pi]^3 and their spectral representation.

Fields live on a uniform collocation grid; spectral coefficients are stored
on the full complex FFT lattice with the convention coeff(0,0,0) = domain
mean, so multiplier formulas act coefficient-exactly on integer wavenumbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import fft as sfft

TWO_PI = 2.0 * np.pi
DOMAIN_VOLUME = TWO_PI**3


@dataclass(frozen=True)
class Grid:
    """Collocation counts per axis on the cube [0, 2pi]^3."""

    nx: int
    ny: int
    nz: int

    def __post_init__(self):
        for name, n in (("nx", self.nx), ("ny", self.ny), ("nz", self.nz)):
            if n < 4 or n % 2 != 0:
                raise ValueError(f"{name} must be an even integer >= 4, got {n}")

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.nx, self.ny, self.nz)

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
        """Integer wavenumbers in FFT order, broadcastable to the grid shape."""
        return _lattice(self.nx, self.ny, self.nz)[:3]


@lru_cache(maxsize=32)
def _lattice(nx: int, ny: int, nz: int):
    kx = np.rint(sfft.fftfreq(nx) * nx).astype(np.int64).reshape(nx, 1, 1)
    ky = np.rint(sfft.fftfreq(ny) * ny).astype(np.int64).reshape(1, ny, 1)
    kz = np.rint(sfft.fftfreq(nz) * nz).astype(np.int64).reshape(1, 1, nz)
    kh2 = (kx**2 + ky**2).astype(np.float64)
    # Nyquist planes: the unpaired mode k = -n/2 of the real transform.
    nyquist = (kx == -(nx // 2)) | (ky == -(ny // 2)) | (kz == -(nz // 2))
    dealias = (
        (np.abs(kx) <= nx // 3) & (np.abs(ky) <= ny // 3) & (np.abs(kz) <= nz // 3)
    )
    return kx, ky, kz, kh2, nyquist, dealias


@dataclass(frozen=True)
class PhysicalField:
    """Real scalar samples at the collocation points of `grid`."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != self.grid.shape:
            raise ValueError(f"values shape {v.shape} != grid shape {self.grid.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("physical field contains non-finite entries")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class SpectralField:
    """Complex Fourier coefficients, FFT-ordered, coeff(0) = field mean."""

    grid: Grid
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.complex128)
        if c.shape != self.grid.shape:
            raise ValueError(f"coeffs shape {c.shape} != grid shape {self.grid.shape}")
        if not np.all(np.isfinite(c)):
            raise ValueError("spectral field contains non-finite entries")
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    def symmetry_defect(self) -> float:
        """Max deviation from coeff(-k) = conj(coeff(k))."""
        return _symmetry_defect(self.coeffs)

    def has_zero_horizontal_mean(self, tol: float = 1e-12) -> bool:
        scale = max(np.max(np.abs(self.coeffs)), 1.0)
        return float(np.max(np.abs(self.coeffs[0, 0, :]))) <= tol * scale


def _reflect(c: np.ndarray) -> np.ndarray:
    """c indexed at -k (FFT ordering)."""
    out = c[::-1, ::-1, ::-1]
    return np.roll(out, shift=(1, 1, 1), axis=(0, 1, 2))


def _symmetry_defect(c: np.ndarray) -> float:
    return float(np.max(np.abs(c - np.conj(_reflect(c)))))


def forward_transform(f: PhysicalField) -> SpectralField:
    """DFT normalized so that coeff(0,0,0) is the domain average of f."""
    c = sfft.fftn(f.values) / f.grid.size
    return SpectralField(f.grid, c)


def inverse_transform(F: SpectralField, tol: float = 1e-12) -> PhysicalField:
    """Reconstruct the real field; rejects coefficients breaking reality."""
    return inverse_transform_batch(F, [()], tol)[0]


def inverse_transform_batch(
    F: SpectralField, chains, tol: float = 1e-12
) -> list[PhysicalField]:
    """Real fields of symbol chains applied to F, from one batched inverse DFT.

    Entry i is the field of s_m * (... * (s_1 * F)) for chains[i] = (s_1, ..., s_m);
    the empty chain gives F itself.  Conjugate symmetry is checked once, on F,
    so every symbol must satisfy sigma(-k) = conj(sigma(k)).
    """
    scale = max(np.max(np.abs(F.coeffs)), 1.0)
    if F.symmetry_defect() > tol * scale:
        raise ValueError("spectral coefficients violate conjugate symmetry")
    stack = np.empty((len(chains),) + F.grid.shape, dtype=np.complex128)
    for out, chain in zip(stack, chains):
        c = F.coeffs
        for sym in chain:
            c = sym * c
        out[...] = c
    stack *= F.grid.size
    values = sfft.ifftn(stack, axes=(1, 2, 3)).real
    return [PhysicalField(F.grid, v) for v in values]


def apply_symbol(F: SpectralField, symbol, tol: float = 1e-12) -> SpectralField:
    """Multiply coefficients by a diagonal symbol sigma(k).

    `symbol` is either an ndarray broadcastable to the coefficient lattice or
    a callable of the integer wavenumber arrays (kx, ky, kz).  The symbol must
    satisfy sigma(-k) = conj(sigma(k)) so real fields stay real.
    """
    if callable(symbol):
        kx, ky, kz = F.grid.wavenumbers()
        sig = np.asarray(symbol(kx, ky, kz), dtype=np.complex128)
    else:
        sig = np.asarray(symbol, dtype=np.complex128)
    sig = np.broadcast_to(sig, F.grid.shape)
    sscale = max(np.max(np.abs(sig)), 1.0)
    if _symmetry_defect(sig) > tol * sscale:
        raise ValueError("symbol breaks reality: sigma(-k) != conj(sigma(k))")
    return SpectralField(F.grid, sig * F.coeffs)


def derivative_symbol(grid: Grid, axis: int) -> np.ndarray:
    """Symbol of d/dx_axis with the Nyquist plane zeroed, broadcastable to the grid."""
    k = _lattice(grid.nx, grid.ny, grid.nz)[axis]
    return np.where(k == -(grid.shape[axis] // 2), 0.0, 1j * k.astype(np.float64))


def horizontal_laplacian_symbol(grid: Grid) -> np.ndarray:
    kh2 = _lattice(grid.nx, grid.ny, grid.nz)[3]
    return np.broadcast_to(-kh2, grid.shape)


def horizontal_power_symbol(grid: Grid, s: float) -> np.ndarray:
    """Symbol of A^s = (-horizontal Laplacian)^s, zero on the horizontal-mean sector."""
    kh2 = _lattice(grid.nx, grid.ny, grid.nz)[3]
    kh2b = np.broadcast_to(kh2, grid.shape)
    with np.errstate(divide="ignore"):
        out = np.where(kh2b > 0, kh2b ** float(s), 0.0)
    return out


def vertical_bessel_symbol(grid: Grid, s: float) -> np.ndarray:
    """Symbol of (I - d^2/dz^2)^s."""
    kz = _lattice(grid.nx, grid.ny, grid.nz)[2].astype(np.float64)
    return np.broadcast_to((1.0 + kz**2) ** float(s), grid.shape)


def dealias(F: SpectralField) -> SpectralField:
    """2/3-rule truncation: zero every mode with any |k_i| > n_i/3."""
    mask = _lattice(F.grid.nx, F.grid.ny, F.grid.nz)[5]
    return SpectralField(F.grid, np.where(mask, F.coeffs, 0.0))


def pad_to_grid(F: SpectralField, target: Grid) -> SpectralField:
    """Embed coefficients into a finer grid by spectral zero padding.

    The source Nyquist planes are dropped: they have no conjugate partner and
    cannot be placed symmetrically on the larger lattice.
    """
    if (target.nx < F.grid.nx or target.ny < F.grid.ny or target.nz < F.grid.nz):
        raise ValueError("target grid must be at least as fine in every axis")
    kx, ky, kz, _, nyquist, _ = _lattice(F.grid.nx, F.grid.ny, F.grid.nz)
    src = np.where(np.broadcast_to(nyquist, F.grid.shape), 0.0, F.coeffs)
    out = np.zeros(target.shape, dtype=np.complex128)
    ix = np.mod(kx.ravel(), target.nx)
    iy = np.mod(ky.ravel(), target.ny)
    iz = np.mod(kz.ravel(), target.nz)
    out[np.ix_(ix, iy, iz)] = src
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


def spectral_l2(F: SpectralField) -> float:
    """L^2 norm via Parseval: sqrt(8 pi^3 * sum |coeff|^2)."""
    return float(np.sqrt(DOMAIN_VOLUME * np.sum(np.abs(F.coeffs) ** 2)))


def aniso_norm(F: SpectralField, a: float, b: float, p: float) -> float:
    """|| (I - d_zz)^a A^b F ||_p, the anisotropic fractional norm."""
    if b != 0.0 and not F.has_zero_horizontal_mean(tol=1e-10):
        raise ValueError("A-power requires a zero-horizontal-mean field")
    out = F
    if a != 0.0:
        out = apply_symbol(out, vertical_bessel_symbol(F.grid, a))
    if b != 0.0:
        out = apply_symbol(out, horizontal_power_symbol(F.grid, b))
    return lp_norm(inverse_transform(out), p)
