"""Real periodic scalar fields on [0, 2pi]^3 and their spectral representation.

Fields live on a uniform collocation grid.  Spectral coefficients are the
half spectrum (nx, ny, nz//2+1) of `scipy.fft.rfftn` with norm="forward":
kx, ky in FFT order, kz = 0..nz/2, coeff(0,0,0) = domain mean, so multiplier
formulas act coefficient-exactly on integer wavenumbers.  This module owns the
format: the lattice (integer arithmetic, cached per `Grid`), every FFT call
of the package and the Parseval weight (2 for a stored mode and its implied
partner at -k, 1 on the self-conjugate planes kz = 0 and kz = nz/2).  Reality
is checked once, in `SpectralField`: those two planes must be Hermitian,
which the inverse transform would otherwise enforce silently.

The batched transforms make the 1-D passes of `irfftn` and `rfftn` bit for
bit: they call the binding `scipy.fft` ends in (`_pf`, private to scipy, so
the property tests compare them with `scipy.fft`) with its arguments, which
skips its Python dispatch and releases the GIL for the whole transform, on one
FFT thread: trajectories and reports transform side by side on the CPUs.  The
complex (x, y) passes run in place, and so does the inverse's real z pass:
`to_physical` returns the real fields in the first nx ny nz floats of each
batch entry.  Output line L (nz floats from offset L nz) overlaps only input
lines K <= L (nz + 2 floats from K (nz + 2)), which pocketfft has read, in
line order on one thread, before it writes line L.  The forward z pass would
overwrite input not yet read, so `to_spectral` writes into an `out` array.
Given the box of kept modes (`_kept`), both prune the complex passes to it,
x before y as pocketfft orders them: the inverse's x pass skips the k_y rows
and the kz planes outside the box, and its y pass those planes; the forward's
x pass skips those planes, and its y pass the k_x columns outside the box too.

Terms that act on z alone, such as the horizontal mean of a product, need
no (x, y) pass: `half_box_z_profiles` lays theta' and w out as a pair of full
z spectra on the half box of the kept modes (k_y >= 0, `pack_half_box`; the
other half is their conjugate) and runs one z-only c2c pass of the pair in
place, `horizontal_mean` reduces two such fields by Parseval in (x, y), and
`subtract_half_box` takes a field so stored back to the half spectrum.

Each call releases and retakes the GIL, so the stepper's tendency makes few
and large ones: the inverse passes of u, v, d_x theta' and d_y theta' run as
one batch of four, with (mu, mv) and (i kx, i ky) each stacked into one symbol
(`velocity.velocity_symbols`, `_horizontal_gradient`), and theta' and w as
one pair: 10 pocketfft calls per tendency, where one field at a time took 23.
"""

from __future__ import annotations

import math
import numbers
import threading
from dataclasses import dataclass
from functools import lru_cache, wraps
from typing import NamedTuple

import numpy as np
from scipy.fft._pocketfft import pypocketfft as _pf

TWO_PI = 2.0 * np.pi
DOMAIN_VOLUME = TWO_PI**3
_BUILDING = threading.RLock()  # held by every call of a `_table` function


def _is_number(x, kind=numbers.Real) -> bool:
    """x is an instance of `kind` and not a bool."""
    return isinstance(x, kind) and not isinstance(x, bool)


def _read_only(x):
    """`x`, with every ndarray in it, itself or an item of a tuple, made read-only."""
    for a in x if isinstance(x, tuple) else (x,):
        if isinstance(a, np.ndarray):
            a.setflags(write=False)
    return x


def _table(build):
    """`build` cached per key by `lru_cache(maxsize=32)` and `_read_only`, as each caller
    gets the cache's own arrays; every call holds one re-entrant lock, so threads that
    miss a key together build it once, and a build may read another table."""
    cached = lru_cache(maxsize=32)(lambda *key: _read_only(build(*key)))

    @wraps(build)
    def table(*key):
        with _BUILDING:
            return cached(*key)

    table.cache_info, table.cache_clear = cached.cache_info, cached.cache_clear
    return table


@dataclass(frozen=True)
class Grid:
    """Collocation counts per axis on the cube [0, 2pi]^3."""

    nx: int
    ny: int
    nz: int

    def __post_init__(self):
        for name, n in (("nx", self.nx), ("ny", self.ny), ("nz", self.nz)):
            if not _is_number(n, numbers.Integral) or n < 4 or n % 2 != 0:
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
        """Integer wavenumbers of the half lattice, broadcastable to `spectral_shape`, read-only."""
        return _lattice(self)[:3]


class _Lattice(NamedTuple):
    """The half lattice, each array broadcastable to `spectral_shape`."""

    kx: np.ndarray  # integer wavenumbers, kx and ky in FFT order, kz = 0..nz/2
    ky: np.ndarray
    kz: np.ndarray
    kh2: np.ndarray  # kx^2 + ky^2 as floats
    nyquist: np.ndarray  # any |k_i| = n_i/2
    retained: np.ndarray  # kh2 > 0 off the Nyquist planes: the modes of the diagnostic solve
    weight: np.ndarray  # Parseval weight


@_table
def _lattice(grid: Grid) -> _Lattice:
    nx, ny, nz = grid.shape
    kx = ((np.arange(nx) + nx // 2) % nx - nx // 2).reshape(nx, 1, 1)
    ky = ((np.arange(ny) + ny // 2) % ny - ny // 2).reshape(1, ny, 1)
    kz = np.arange(nz // 2 + 1, dtype=np.int64).reshape(1, 1, -1)
    kh2 = (kx**2 + ky**2).astype(np.float64)
    # Nyquist planes: the unpaired mode |k| = n/2 of the real transform.
    nyquist = (np.abs(kx) == nx // 2) | (np.abs(ky) == ny // 2) | (kz == nz // 2)
    weight = np.where((kz == 0) | (kz == nz // 2), 1.0, 2.0)
    return _Lattice(kx, ky, kz, kh2, nyquist, (kh2 > 0) & ~nyquist, weight)


class _Kept(NamedTuple):
    """The modes a step keeps on one grid under the Galerkin truncation
    `mode_cap`: every |k_i| <= m_i, outside the horizontal-mean sector.

    The blocks index a batch of half spectra on its last three axes."""

    m: tuple  # m_i = min(n_i // 3, mode_cap): the 2/3 rule within the cap
    boxes: tuple  # index tuples of boxes whose union is every other mode, the mean sector last
    planes: tuple  # the kz planes kz <= m_z
    rows: tuple  # the two blocks of the rows |k_y| <= m_y on those planes
    columns: tuple  # the two blocks of the columns |k_x| <= m_x on those planes
    half: tuple  # the half box's shape (2 m_x + 1, m_y + 1, nz), smaller than a half spectrum
    outside: np.ndarray  # the union of `boxes` as a mask of the half spectrum


@_table
def _kept(grid: Grid, mode_cap: int | None) -> _Kept:
    mx, my, mz = m = tuple(min(n // 3, mode_cap or n) for n in grid.shape)
    every, kz = slice(None), slice(mz + 1)
    boxes = ((slice(mx + 1, grid.nx - mx),), (every, slice(my + 1, grid.ny - my)),
             (every, every, slice(mz + 1, None)), (0, 0))
    outside = np.zeros(grid.spectral_shape, dtype=bool)
    for box in boxes:
        outside[box] = True
    return _Kept(m, boxes, (..., kz),
                 ((..., every, slice(my + 1), kz), (..., every, slice(grid.ny - my, None), kz)),
                 ((..., slice(mx + 1), every, kz), (..., slice(grid.nx - mx, None), every, kz)),
                 (2 * mx + 1, my + 1, grid.nz), outside)


class _Frozen:
    """A field whose array `_freeze` checks, makes read-only and stores; `==` compares values."""

    def __eq__(self, other):
        return type(other) is type(self) and self.grid == other.grid and np.array_equal(
            getattr(self, self._array), getattr(other, self._array))

    @classmethod
    def _wrap(cls, grid: Grid, array: np.ndarray):
        """The field of a fresh array that no one else holds, without the copy."""
        f = cls.__new__(cls)
        object.__setattr__(f, "grid", grid)
        f._freeze(array)
        return f


@dataclass(frozen=True, eq=False)
class PhysicalField(_Frozen):
    """Real scalar samples at the collocation points of `grid`.

    The values are copied, so the caller's array stays its own and the field
    is immutable.
    """

    grid: Grid
    values: np.ndarray
    _array = "values"

    def __post_init__(self):
        self._freeze(np.array(self.values, dtype=np.float64))

    def _freeze(self, v: np.ndarray):
        if v.shape != self.grid.shape:
            raise ValueError(f"values shape {v.shape} != grid shape {self.grid.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("physical field contains non-finite entries")
        object.__setattr__(self, "values", _read_only(v))


@dataclass(frozen=True, eq=False)
class SpectralField(_Frozen):
    """Half-spectrum Fourier coefficients of a real field, coeff(0) = field mean."""

    grid: Grid
    coeffs: np.ndarray
    _array = "coeffs"

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
        object.__setattr__(self, "coeffs", _read_only(c))

    def has_zero_horizontal_mean(self, tol: float = 1e-12) -> bool:
        scale = max(np.max(np.abs(self.coeffs)), 1.0)
        return float(np.max(np.abs(self.coeffs[0, 0, :]))) <= tol * scale


@dataclass(frozen=True)
class SimState:
    """The temperature fluctuation at time t."""

    t: float
    theta: SpectralField


def to_spectral(values: np.ndarray, kept: _Kept | None = None,
                scale: float = 1.0, out: np.ndarray | None = None) -> np.ndarray:
    """`scale` times the half spectra of a batch of real float64 fields on the
    last three axes, exact on the box of `kept` (default: everywhere),
    written into `out` (default: a new array; not `values`) and returned.

    The same 1-D passes as `rfftn` (the real transform over z, then the
    complex ones over x and y), with the 1/(nx ny nz) scaling, times `scale`,
    applied once between them, where `rfftn` applies it.  Given `kept`, the
    x pass runs in place on its kz planes and the y pass on its kx columns
    only: the modes outside them hold partial passes, and the caller must
    discard them.
    """
    # the binding's arguments: (a, axes, forward, inorm = 0 for no scaling, out, nthreads)
    out = _pf.r2c(values, (-1,), True, 0, out, 1)
    # pocketfft's own 1/N: the reciprocal in long double, rounded once to double
    out *= scale * float(1 / np.longdouble(math.prod(values.shape[-3:])))
    if kept is None:
        _pf.c2c(out, (-3, -2), True, 0, out, 1)
    else:
        for block, axis in ((kept.planes, -3), (kept.columns[0], -2), (kept.columns[1], -2)):
            view = out[block]
            _pf.c2c(view, (axis,), True, 0, view, 1)
    return out


def to_physical(coeffs: np.ndarray, kept: _Kept | None = None) -> np.ndarray:
    """Real fields of a batch of C-contiguous complex128 half spectra, zero
    outside the box of `kept` (default: no such zeros), in the memory of
    `coeffs`.

    The same 1-D passes as `irfftn` (complex inverses over x and then y, then
    the real inverse over z; nz is even, so it is twice the last index), all
    in the caller's array (module docstring).  Given `kept`, the x pass runs
    on its k_y rows and the y pass on its kz planes only: the passes map the
    zero lines outside them to themselves.
    """
    *batch, nx, ny, nz = *coeffs.shape[:-1], 2 * (coeffs.shape[-1] - 1)
    real = coeffs.view(np.float64).reshape(*batch, -1, copy=False)[..., :nx * ny * nz]
    if kept is None:
        _pf.c2c(coeffs, (-3, -2), False, 0, coeffs, 1)
    else:
        for block, axis in ((kept.rows[0], -3), (kept.rows[1], -3), (kept.planes, -2)):
            view = coeffs[block]
            _pf.c2c(view, (axis,), False, 0, view, 1)
    return _pf.c2r(coeffs, (-1,), nz, False, 0, real.reshape(*batch, nx, ny, nz), 1)


def pack_half_box(c: np.ndarray, kept: _Kept, out: np.ndarray) -> np.ndarray:
    """The half spectrum `c` as full z spectra on the half box of `kept`, in
    `out` (shape `kept.half`) and returned: rows k_x = 0..m_x, then -m_x..-1,
    columns k_y = 0..m_y, kz in FFT order, 0..m_z from `c`, -m_z..-1 from
    conj(c(-k_x, -k_y, |kz|)) and zero between, in block copies of basic slices."""
    (mx, my, mz), (nx, ny), nz = kept.m, c.shape[:2], out.shape[-1]
    out[:mx + 1, :, :mz + 1] = c[:mx + 1, :my + 1, :mz + 1]
    out[mx + 1:, :, :mz + 1] = c[nx - mx:, :my + 1, :mz + 1]
    out[..., mz + 1:nz - mz] = 0.0
    below = out[..., nz - mz:]  # kz = -m_z..-1, read at |kz| = m_z..1
    # the rows k_x = 0, 1..m_x, -m_x..-1 of `out` and the rows of -k_x in `c`
    x_blocks = ((slice(1), slice(1)), (slice(1, mx + 1), slice(nx - 1, nx - mx - 1, -1)),
                (slice(mx + 1, None), slice(mx, 0, -1)))
    y_blocks = ((slice(1), slice(1)), (slice(1, None), slice(ny - 1, ny - my - 1, -1)))
    for rows, minus_kx in x_blocks:
        for columns, minus_ky in y_blocks:
            np.conjugate(c[minus_kx, minus_ky, mz:0:-1], out=below[rows, columns])
    return out


def half_box_z_profiles(c: np.ndarray, kept: _Kept, mw_h: np.ndarray,
                        pair: np.ndarray) -> np.ndarray:
    """The horizontal modes of theta' = `c`, zero outside the box of `kept`,
    and of w at each level z, as the pair (theta', w) in `pair`, of shape
    (2, *kept.half), and returned: `c` packed into `pair[0]` (`pack_half_box`),
    times `mw_h`, mw packed so, into `pair[1]`, and one inverse c2c pass over
    z of the pair in place."""
    theta_h, w_h = pair
    pack_half_box(c, kept, theta_h)
    np.multiply(mw_h, theta_h, out=w_h)
    return _pf.c2c(pair, (-1,), False, 0, pair, 1)


def horizontal_mean(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The horizontal mean of the product of two real fields at each level z,
    exact by Parseval in (x, y) from their horizontal modes on a half box
    (`half_box_z_profiles`): the sum of Re(a conj(b)), weight 2 for k_y > 0,
    which counts the mode at -k too.  `a` then holds the products; `b` may be `a`."""
    products = a.view(np.float64)
    products *= b.view(np.float64)  # Re(a conj(b)) is the sum of each pair of floats
    by_column = products.sum(axis=0).reshape(a.shape[1], -1, 2).sum(axis=-1)
    return by_column[0] + 2.0 * by_column[1:].sum(axis=0)


def subtract_half_box(g: np.ndarray, kept: _Kept, out: np.ndarray) -> np.ndarray:
    """`out` less the spectrum of the real field whose horizontal modes at
    each level z are the half-box array `g`, on the kept box kz <= m_z, and
    returned; the modes outside it are left as they were.

    `g` is forward-transformed in place over z (a c2c pass with 1/nz), so its
    last axis holds kz in FFT order; the k_y < 0 half is read by conjugation,
    g(k_x, k_y, kz) = conj(g(-k_x, -k_y, -kz)), which leaves `g` conjugated
    where it is read so: k_y > 0 on the planes kz = 0 and -m_z..-1."""
    (mx, my, mz), (nx, ny), nz = kept.m, out.shape[:2], g.shape[-1]
    _pf.c2c(g, (-1,), True, 2, g, 1)  # inorm 2: 1/nz
    out[:mx + 1, :my + 1, :mz + 1] -= g[:mx + 1, :, :mz + 1]
    out[nx - mx:, :my + 1, :mz + 1] -= g[mx + 1:, :, :mz + 1]
    for minus_kz in (slice(1), slice(nz - mz, None)):  # the planes read below: -kz = 0, -m_z..-1
        upper = g[:, 1:, minus_kz]
        np.conjugate(upper, out=upper)
    below = out[:, ny - my:, :mz + 1]  # k_y = -m_y..-1, read at -k_y = m_y..1
    # the rows k_x = 0, 1..m_x, -m_x..-1 of `out` and the rows of -k_x in `g`
    x_blocks = ((slice(1), slice(1)), (slice(1, mx + 1), slice(2 * mx, mx, -1)),
                (slice(nx - mx, None), slice(mx, 0, -1)))
    z_blocks = ((slice(1), slice(1)), (slice(1, None), slice(nz - 1, nz - mz - 1, -1)))
    for rows, minus_kx in x_blocks:
        for planes, minus_kz in z_blocks:
            below[rows, :, planes] -= g[minus_kx, my:0:-1, minus_kz]
    return out


def forward_transform(f: PhysicalField) -> SpectralField:
    """DFT normalized so that coeff(0,0,0) is the domain average of f."""
    return SpectralField(f.grid, to_spectral(f.values))


def inverse_transform(F: SpectralField, *symbols) -> PhysicalField:
    """The real field of s_m * (... * (s_1 * F)) for symbols (s_1, ..., s_m),
    of F itself for none.  The products are not checked, so every symbol
    must satisfy sigma(-k) = conj(sigma(k)) on the kz = 0 and kz = nz/2 planes.
    """
    c = np.multiply(F.coeffs, symbols[0]) if symbols else F.coeffs.copy()
    for s in symbols[1:]:  # ((F * s_1) * s_2) ..., the operand order of a left fold
        c *= s
    return PhysicalField._wrap(F.grid, to_physical(c))


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


@_table
def _horizontal_gradient(grid: Grid) -> np.ndarray:
    """The symbols (i kx, i ky) of `derivative_symbol`, stacked to one
    (2, nx, ny, 1) array: their product with a half spectrum is d_x and d_y of it."""
    return np.stack(np.broadcast_arrays(derivative_symbol(grid, 0), derivative_symbol(grid, 1)))


def horizontal_power_symbol(grid: Grid, s: float) -> np.ndarray:
    """Symbol of A^s = (-horizontal Laplacian)^s, zero on the horizontal-mean sector."""
    kh2 = _lattice(grid).kh2
    with np.errstate(divide="ignore"):
        return np.broadcast_to(np.where(kh2 > 0, kh2 ** float(s), 0.0), grid.spectral_shape)


def dealias(F: SpectralField) -> SpectralField:
    """2/3-rule truncation: zero every mode with any |k_i| > n_i/3."""
    return _keep(F, mean=True)


def _keep(F: SpectralField, mode_cap: int | None = None, mean: bool = False) -> SpectralField:
    """F zeroed outside the modes a step keeps under `mode_cap` (`_kept`),
    on the horizontal-mean sector too unless `mean`."""
    c = F.coeffs.copy()
    for box in _kept(F.grid, mode_cap).boxes[:3 if mean else 4]:
        c[box] = 0.0
    return SpectralField._wrap(F.grid, c)


def pad_to_grid(F: SpectralField, target: Grid) -> SpectralField:
    """Embed coefficients into a finer grid by spectral zero padding.

    The source Nyquist planes are dropped: they have no conjugate partner and
    cannot be placed symmetrically on the larger lattice.
    """
    if (target.nx < F.grid.nx or target.ny < F.grid.ny or target.nz < F.grid.nz):
        raise ValueError("target grid must be at least as fine in every axis")
    lat = _lattice(F.grid)
    src = np.where(lat.nyquist, 0.0, F.coeffs)
    out = np.zeros(target.spectral_shape, dtype=np.complex128)
    ix = np.mod(lat.kx.ravel(), target.nx)
    iy = np.mod(lat.ky.ravel(), target.ny)
    out[np.ix_(ix, iy, lat.kz.ravel())] = src
    return SpectralField(target, out)


def _z_antiderivative(g: np.ndarray) -> np.ndarray:
    """`irfft(rfft(g) / (i k))`, mean zeroed: the zero-mean antiderivative of a z-profile."""
    ghat = _pf.r2c(g, (0,), True, 0, None, 1)
    ghat[0] = 0.0
    ghat[1:] /= 1j * np.arange(1, ghat.size)
    if g.size % 2 == 0:
        ghat[-1] = 0.0  # the Nyquist mode has no odd antiderivative
    return _pf.c2r(ghat, (0,), g.size, False, 2, None, 1)  # inorm 2: irfft's 1/n


def lp_norm(f: PhysicalField, p: float) -> float:
    """Collocation quadrature of the L^p norm over [0, 2pi]^3; p=inf is grid max."""
    if not (_is_number(p) and p >= 1):
        raise ValueError(f"p must be a real number >= 1 or inf, got {p!r}")
    if p == np.inf:
        return float(np.max(np.abs(f.values)))
    powers = np.abs(f.values)
    powers **= p
    return float((np.sum(powers) * f.grid.cell_volume) ** (1.0 / p))


def parseval_sum(grid: Grid, density: np.ndarray) -> float:
    """(2pi)^3 times the full-lattice sum of a mode density even in k, given on
    the half lattice: the squared L^2 norm for |c|^2, the L^2 inner product of
    two real fields for Re(conj(a) b)."""
    weight = _lattice(grid).weight
    return float(DOMAIN_VOLUME * np.sum(weight * density))


def spectral_l2(F: SpectralField) -> float:
    """L^2 norm via Parseval."""
    return float(np.sqrt(parseval_sum(F.grid, np.abs(F.coeffs) ** 2)))
