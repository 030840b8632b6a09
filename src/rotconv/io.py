"""Snapshot, CSV and JSON output.

Binary field snapshot layout: magic "RCS1", grid dims as three little-endian
u32, a u32 length-prefixed UTF-8 field name, then the samples as row-major
little-endian float64.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from . import __version__
from .grid import Grid, PhysicalField
from .invariants import budget_residual_series

MAGIC = b"RCS1"


def write_snapshot(path, name: str, field: PhysicalField) -> None:
    name_bytes = name.encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<3I", field.grid.nx, field.grid.ny, field.grid.nz))
        fh.write(struct.pack("<I", len(name_bytes)))
        fh.write(name_bytes)
        fh.write(np.ascontiguousarray(field.values, dtype="<f8").tobytes())


def _read_exactly(fh, n: int, part: str) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise ValueError(f"snapshot ends inside its {part}: {len(data)} of {n} bytes")
    return data


def read_snapshot(path) -> tuple[str, PhysicalField]:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != MAGIC:
            raise ValueError(f"bad snapshot magic {magic!r}")
        nx, ny, nz = struct.unpack("<3I", _read_exactly(fh, 12, "grid dims"))
        (nlen,) = struct.unpack("<I", _read_exactly(fh, 4, "name length"))
        name = _read_exactly(fh, nlen, "field name").decode("utf-8")
        payload = fh.read()
    if len(payload) != 8 * nx * ny * nz:
        raise ValueError(f"snapshot payload is {len(payload)} bytes, expected "
                         f"{8 * nx * ny * nz} for a {nx} x {ny} x {nz} grid")
    data = np.frombuffer(payload, dtype="<f8")
    grid = Grid(nx, ny, nz)
    return name, PhysicalField(grid, data.reshape(grid.shape))


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def csv_text(header: list[str], rows) -> str:
    """The CSV document of `header` and `rows`, one line each, every value as `_fmt` writes it."""
    return "".join(",".join(_fmt(v) for v in row) + "\n" for row in (header, *rows))


def write_csv(path, header: list[str], rows) -> None:
    Path(path).write_text(csv_text(header, rows))


def write_json(path, payload) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


SERIES_COLUMNS = [
    "t", "l2", "l3", "l6", "grad_l3", "dual", "mean_grad_l2",
    "diss_h", "diss_z", "budget_residual",
    "ratio_417", "ratio_426", "ratio_429u", "ratio_429w", "ratio_56",
    "ratio_58", "env3_pass", "env6_pass", "envg3_pass",
]


def write_series_csv(path, reports, envelopes) -> None:
    t = np.array([r.t for r in reports])
    l2 = np.array([r.l2 for r in reports])
    diss = np.array([r.diss_h + r.diss_z for r in reports])
    residual = budget_residual_series(t, l2, diss)
    rows = []
    for i, r in enumerate(reports):
        rows.append([
            r.t, r.l2, r.l3, r.l6, r.grad_l3, r.dual, r.mean_grad_l2,
            r.diss_h, r.diss_z,
            float(residual[i]),
            *(r.ratios.get(c, 0.0) for c in SERIES_COLUMNS if c.startswith("ratio_")),
            bool(envelopes.pass_l3[i]), bool(envelopes.pass_l6[i]),
            bool(envelopes.pass_grad[i]),
        ])
    write_csv(path, SERIES_COLUMNS, rows)


def write_profile_csv(path, profile) -> None:
    rows = zip(profile.grid_z, profile.flux, profile.dtheta_dz, profile.theta_bar)
    write_csv(path, ["z", "flux", "dtheta_dz", "theta_bar"], rows)


def write_sweep_outputs(out_dir, result, config_echo: dict, label: str) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = zip(result.parameters, result.err_l2, result.err_mean_h1,
               result.err_vel_h2)
    write_csv(out / "sweep.csv",
              [label, "err_l2", "err_mean_h1", "err_vel_h2"], rows)
    payload = {
        "slope": result.slope,
        "slope_ci": result.slope_ci,
        "config": config_echo,
        "tool_version": __version__,
    }
    write_json(out / "sweep.json", payload)

