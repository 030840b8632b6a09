"""Correctness checks derived from properties the method must have.

Every check returns a list of failure messages; an empty list is a pass.
The `rotconv run` outputs are read with this file's own parsers and the
energy identity is recomputed with this file's own `numpy.fft` code, so a
fault in `rotconv.io` or in the program's spectral operators cannot hide
itself by being used to check its own output.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

TWO_PI = 2.0 * np.pi
RCS_MAGIC = b"RCS1"


# --- own readers ----------------------------------------------------------

def read_rcs1(path) -> tuple[str, np.ndarray]:
    """Parse an RCS1 snapshot: magic, three u32 dims, u32-prefixed name,
    row-major little-endian float64 samples.  Rejects any length mismatch."""
    data = Path(path).read_bytes()
    if data[:4] != RCS_MAGIC:
        raise ValueError(f"{path}: bad magic {data[:4]!r}")
    if len(data) < 20:
        raise ValueError(f"{path}: truncated header")
    nx, ny, nz, nlen = struct.unpack_from("<4I", data, 4)
    start = 20 + nlen
    expected = start + 8 * nx * ny * nz
    if len(data) != expected:
        raise ValueError(f"{path}: {len(data)} bytes, header implies {expected}")
    name = data[20:start].decode("utf-8")
    values = np.frombuffer(data, dtype="<f8", offset=start).reshape(nx, ny, nz)
    return name, values


def read_csv(path) -> tuple[list[str], np.ndarray]:
    """Parse a numeric CSV with one header line into (columns, rows x cols)."""
    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",")
    rows = [[float(x) for x in line.split(",")] for line in lines[1:] if line]
    table = np.array(rows, dtype=np.float64).reshape(len(rows), len(header))
    return header, table


def column(header: list[str], table: np.ndarray, name: str) -> np.ndarray:
    return table[:, header.index(name)]


# --- own spectral operators -----------------------------------------------

def _wavenumbers(n: int) -> np.ndarray:
    return np.rint(np.fft.fftfreq(n) * n).astype(np.int64)


def energy_identity_terms(theta: np.ndarray, eps: float):
    """(2pi)^3 Re<theta, T(theta)>, diss_h and diss_z for a real sample array.

    T is the semi-discrete tendency -u.grad_h theta - w dtheta_bar/dz
    + eps^2 lap_h theta with the velocity from the per-mode diagnostic
    relations u = -k2 k3/D, v = k1 k3/D, w = kh^4/D, D = k3^2 + kh^6, the
    mean gradient from the flux closure, and the 2/3 rule on the product.
    """
    nx, ny, nz = theta.shape
    size = theta.size
    kx = _wavenumbers(nx).reshape(nx, 1, 1)
    ky = _wavenumbers(ny).reshape(1, ny, 1)
    kz = _wavenumbers(nz).reshape(1, 1, nz)
    kh2 = (kx**2 + ky**2).astype(np.float64)
    nyq = (kx == -(nx // 2)) | (ky == -(ny // 2)) | (kz == -(nz // 2))
    keep = (kh2 > 0) & ~nyq
    denom = np.where(keep, kz.astype(np.float64) ** 2 + kh2**3, 1.0)
    mu = np.where(keep, -(ky * kz) / denom, 0.0)
    mv = np.where(keep, (kx * kz) / denom, 0.0)
    mw = np.where(keep, kh2**2 / denom, 0.0)
    dx = np.where(kx == -(nx // 2), 0.0, 1j * kx)
    dy = np.where(ky == -(ny // 2), 0.0, 1j * ky)

    c = np.fft.fftn(theta) / size

    def phys(sym):
        return np.fft.ifftn(sym * c).real * size

    u, v, w = phys(mu), phys(mv), phys(mw)
    tx, ty = phys(dx), phys(dy)
    flux = np.mean(theta * w, axis=(0, 1))
    dtz = flux - np.mean(flux)
    product = u * tx + v * ty + w * dtz[np.newaxis, np.newaxis, :]
    mask = (
        (np.abs(kx) <= nx // 3) & (np.abs(ky) <= ny // 3) & (np.abs(kz) <= nz // 3)
    )
    t_hat = np.where(mask, -np.fft.fftn(product) / size, 0.0)
    t_hat = t_hat - eps**2 * kh2 * c
    t_hat[0, 0, :] = 0.0
    inner = TWO_PI**3 * float(np.sum((np.conj(c) * t_hat).real))
    diss_h = eps**2 * TWO_PI**3 * float(np.sum(kh2 * np.abs(c) ** 2))
    diss_z = TWO_PI**2 * float(np.sum(dtz**2)) * TWO_PI / nz
    return inner, diss_h, diss_z


def simpson(y: np.ndarray, t: np.ndarray) -> float:
    """Composite Simpson rule on uniform samples with an even interval count."""
    n = y.size - 1
    if n < 2 or n % 2:
        raise ValueError("Simpson rule needs an even number of intervals")
    h = (t[-1] - t[0]) / n
    if not np.allclose(np.diff(t), h, rtol=1e-9, atol=0.0):
        raise ValueError("Simpson rule needs uniform samples")
    return float(h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum()))


# --- per-workload checks --------------------------------------------------

def check_sweep(params, err_l2, slope, max_vel_excess, max_mean_excess) -> list[str]:
    """Vanishing-diffusivity sweep: the regularized solution converges to
    the eps = 0 solution as eps decreases, at a rate of at least eps^0.9
    (acceptance criterion 7 asks for first order, less a margin for the
    least-squares fit), and the velocity and mean-profile error bounds are
    exact inequalities."""
    fails = []
    params = np.asarray(params, dtype=np.float64)
    err = np.asarray(err_l2, dtype=np.float64)
    if not np.all(np.isfinite(err)) or np.any(err <= 0):
        fails.append(f"sweep: errors must be finite and positive, got {err}")
        return fails
    order = np.argsort(-params)
    if np.any(np.diff(params[order]) >= 0) or np.any(np.diff(err[order]) >= 0):
        fails.append(f"sweep: err_l2 {err} does not decrease strictly with eps {params}")
    own = float(np.polyfit(np.log(params), np.log(err), 1)[0])
    if slope is None or abs(own - slope) > 1e-9 * max(1.0, abs(own)):
        fails.append(f"sweep: reported slope {slope} != least-squares slope {own}")
    if own < 0.9:
        fails.append(f"sweep: slope {own:.4f} < 0.9")
    for name, excess in (("velocity", max_vel_excess), ("mean-profile", max_mean_excess)):
        if not excess <= 1e-10:
            fails.append(f"sweep: {name} error bound exceeded by {excess:.3e}")
    return fails


def check_twin(times, err_l2, fitted_rate, response_ratio, delta_amp) -> list[str]:
    """Continuous dependence: the perturbation starts at its amplitude, grows
    no faster than a 10x-slack exponential envelope of the fitted rate, and
    responds linearly (half the perturbation, half the response).  The rate
    is refitted here, so a wrong reported rate cannot widen the envelope."""
    fails = []
    t = np.asarray(times, dtype=np.float64)
    err = np.asarray(err_l2, dtype=np.float64)
    if not np.all(np.isfinite(err)) or np.any(err <= 0):
        fails.append(f"twin: errors must be finite and positive, got {err}")
        return fails
    if abs(err[0] - delta_amp) > 1e-9 * delta_amp:
        fails.append(f"twin: err_l2[0] = {err[0]!r} != delta_amp {delta_amp!r}")
    own = float(np.polyfit(t, np.log(err), 1)[0])
    if fitted_rate is None or abs(own - fitted_rate) > 1e-9 * max(1.0, abs(own)):
        fails.append(f"twin: reported rate {fitted_rate} != least-squares rate {own}")
    envelope = 10.0 * err[0] * np.exp(own * t)
    if not np.all(err <= envelope):
        fails.append("twin: 10x-slack exponential envelope violated")
    if response_ratio is None or abs(response_ratio - 0.5) > 0.05:
        fails.append(f"twin: response ratio {response_ratio} not within 0.5 +/- 0.05")
    return fails


def check_run_outputs(out_dir, eps: float, t_end: float) -> list[str]:
    """Properties of a `rotconv run` output directory at eps > 0."""
    out = Path(out_dir)
    fails = []
    header, table = read_csv(out / "series.csv")
    t = column(header, table, "t")
    l2 = column(header, table, "l2")
    diss = column(header, table, "diss_h") + column(header, table, "diss_z")
    if abs(t[0]) > 0 or abs(t[-1] - t_end) > 1e-12 * t_end:
        fails.append(f"run: series spans [{t[0]}, {t[-1]}], expected [0, {t_end}]")

    # L2 is non-increasing: advection conserves it, diffusion and the mean
    # closure dissipate it; the tolerance admits the integrator's error.
    if np.any(l2[1:] > l2[:-1] + 1e-8 * l2[0]):
        fails.append("run: L2 norm increases between samples")

    # integrated energy law E(b) - E(a) + int_a^b (diss_h + diss_z) dt = 0,
    # up to the fourth-order time and quadrature errors (about 1e-8 of E(0)
    # at dt = 0.05), over the whole run and over every pair of steps
    energy = 0.5 * l2**2
    residual = abs(energy[-1] - energy[0] + simpson(diss, t)) / energy[0]
    if residual > 1e-6:
        fails.append(f"run: energy-budget residual {residual:.3e} of E(0) > 1e-6")
    panels = [simpson(diss[i:i + 3], t[i:i + 3]) for i in range(t.size - 2)]
    local = np.abs(energy[2:] - energy[:-2] + np.array(panels)) / energy[0]
    if np.any(local > 1e-6):
        i = int(np.argmax(local))
        fails.append(f"run: energy-budget residual {local[i]:.3e} of E(0) > 1e-6 "
                     f"on [t{i}, t{i + 2}]")

    snaps = sorted(out.glob("theta_*.rcs"))
    final = out / f"theta_{t_end:.6f}.rcs"
    if len(snaps) != 2 or final not in snaps:
        fails.append(f"run: expected initial and final snapshots, found {snaps}")
        return fails
    name, theta = read_rcs1(final)
    if name != "theta_prime":
        fails.append(f"run: snapshot field name {name!r}")
    cell = TWO_PI**3 / theta.size
    quad_l2 = float(np.sqrt(np.sum(theta**2) * cell))
    if abs(quad_l2 - l2[-1]) > 1e-12 * l2[-1]:
        fails.append(f"run: snapshot L2 {quad_l2!r} != series l2 {l2[-1]!r} (Parseval)")
    rms = quad_l2 / np.sqrt(TWO_PI**3)
    level_means = np.abs(np.mean(theta, axis=(0, 1)))
    if np.max(level_means) > 1e-12 * rms:
        fails.append(f"run: horizontal mean {np.max(level_means):.3e} at some z level")

    for profile in sorted(out.glob("profile_*.csv")):
        ph, ptab = read_csv(profile)
        dtz = column(ph, ptab, "dtheta_dz")
        if abs(np.sum(dtz)) > 1e-12 * max(np.sum(np.abs(dtz)), 1e-300):
            fails.append(f"run: dtheta_dz in {profile.name} sums to {np.sum(dtz):.3e}")

    inner, diss_h, diss_z = energy_identity_terms(theta, eps)
    total = diss_h + diss_z
    if abs(inner + total) > 1e-10 * total:
        fails.append(f"run: energy identity (2pi)^3<theta,T> = {inner!r} "
                     f"vs -(diss_h + diss_z) = {-total!r}")
    if abs(total - diss[-1]) > 1e-9 * total:
        fails.append(f"run: reported dissipation {diss[-1]!r} != recomputed {total!r}")
    return fails


def compare_trees(a, b) -> list[str]:
    """Byte comparison of two output directories."""
    a, b = Path(a), Path(b)
    names_a = sorted(p.name for p in a.iterdir())
    names_b = sorted(p.name for p in b.iterdir())
    if names_a != names_b:
        return [f"repeat: file sets differ {names_a} vs {names_b}"]
    return [f"repeat: {n} differs between invocations"
            for n in names_a if (a / n).read_bytes() != (b / n).read_bytes()]
