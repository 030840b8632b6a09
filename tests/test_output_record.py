"""Every output of a fixed set of small CLI runs hashes as recorded, and
its values lie within a round-off tolerance of the recorded ones.

The set runs in process through `cli.main`: `run` at N = 16 (IF-RK4), on
a 24 x 20 x 18 grid (RK4, dt "auto", `mode_cap` 3) and at N = 16 with eps = 1
(RK4, dt "auto", where the diffusive step of `cfl_dt` binds), `twin`,
`sweep-epsilon` matched and scaled, `sweep-resolution` and `check-multipliers`.

Two records are kept in `output_record.json`:

- `sha256`, the hash of each output.  The bits depend on the Python, numpy
  and scipy builds and on the SIMD code paths numpy dispatches to, so the
  record holds the environment it was made in; on any other the hash test
  skips, naming each difference.
- `values`, the numbers of each output (`output_values`): every number of
  each CSV and JSON file, and for each `.rcs` snapshot its L2 norm, its max
  |value| and its inner products with two fixed seeded unit fields.  The value
  test has no environment skip.  It accepts |a - b| <= rtol |a| + atol scale
  per number, with the (rtol, atol) of the file or of the column
  (`TOLERANCE`) and the scale of its column, the largest finite |a| in it;
  strings and non-finite entries must match exactly.

A change that moves output bits on purpose rewrites the hash record in the
same commit:

    PYTHONPATH=src python tests/test_output_record.py

which prints each output it adds, removes or hashes otherwise, with its old
and new sha256 and the largest relative move |a - b| / |a| of its values
(a = b = 0 counts as no move).  It keeps the recorded values of every output
that still exists, records those of new outputs and names, on stderr, each
output whose values leave the tolerance.  A change that moves values beyond
round-off on purpose deletes those outputs' entries under `values` first.
"""

import contextlib
import csv
import hashlib
import io
import json
import math
import platform
import struct
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy

from rotconv.cli import main

RECORD = Path(__file__).with_name("output_record.json")
BASE = {"grid": {"nx": 16, "ny": 16, "nz": 16}, "epsilon": 0.0, "dt": 0.05, "t_end": 0.3,
        "integrator": "if-rk4", "diagnostics_every": 2,
        "initial": {"kind": "random-band-limited", "band": [1, 4], "amplitude": 0.5, "seed": 2}}
CONFIGS = {
    "n16": {**BASE, "epsilon": 0.1, "t_end": 0.2, "diagnostics_every": 1},
    "capped": {"grid": {"nx": 24, "ny": 20, "nz": 18}, "epsilon": 0.2, "dt": "auto",
               "t_end": 0.3, "integrator": "rk4", "mode_cap": 3,
               "initial": {"band": [1, 6], "amplitude": 0.5, "seed": 5}},
    "diffusive": {**BASE, "epsilon": 1.0, "dt": "auto", "integrator": "rk4"},
    "sweep": BASE,
}
COMMANDS = (
    ("run", "--config", "n16", "--out", "run16"),
    ("run", "--config", "capped", "--out", "run-capped"),
    ("run", "--config", "diffusive", "--out", "run-diffusive"),
    ("twin", "--config", "sweep", "--out", "twin"),
    ("sweep-epsilon", "--config", "sweep", "--eps", "0.5,0.25,0.125", "--out", "sweep-matched"),
    ("sweep-epsilon", "--config", "sweep", "--eps", "0.5,0.25,0.125", "--mode", "scaled",
     "--out", "sweep-scaled"),
    ("sweep-resolution", "--config", "sweep", "--modes", "2,3,4,5", "--out", "sweep-modes"),
    ("check-multipliers", "--K", "16", "--trials", "5", "--out", "multipliers.csv"),
)
# (rtol, atol) by "file name:column", else by file name, else DEFAULT_TOLERANCE.
# Calibrated on data: 100 times the largest move |a - b| / scale, rounded up
# to a power of ten, over six sets of outputs that differ from the record by
# round-off, those of a tendency that reorders its arithmetic and those of
# five initial states moved by one ulp on seeded modes.  The two columns
# named differ from the others: each is a difference of nearby numbers (the
# energy budget's residual; the twin's growth rate, ~3e-4, from errors of
# ~1e-6 that move by 1.2e-12 of themselves), and moved by up to 2.5e-10 and
# 1.2e-8; the twin's errors by 1.2e-12; every other number by 2.3e-15 at most.
TOLERANCE = {"twin.csv": (1e-9, 1e-9), "twin.json": (1e-9, 1e-9),
             "twin.json:fitted_rate": (1e-5, 1e-5), "series.csv:budget_residual": (1e-7, 1e-7)}
DEFAULT_TOLERANCE = (1e-12, 1e-12)
SEEDS = (1, 2)  # of the unit fields a snapshot's inner products are taken with


def environment() -> dict:
    """What the output bits depend on besides the program."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
        simd = [f for f in __cpu_dispatch__ if __cpu_features__.get(f)]
    except ImportError:
        simd = None
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "machine": platform.machine(), "simd": simd}


def run_outputs(work: Path) -> Path:
    """The directory of every output of the set, run in `work`."""
    configs = {name: work / f"{name}.json" for name in CONFIGS}
    for name, path in configs.items():
        path.write_text(json.dumps(CONFIGS[name]))
    out = work / "out"
    for command in COMMANDS:
        argv = [command[0]]
        for key, value in zip(command[1::2], command[2::2]):
            argv += [key, str(configs[value] if key == "--config"
                              else out / value if key == "--out" else value)]
        assert main(argv) == 0
    return out


def output_files(out: Path) -> dict:
    return {str(p.relative_to(out)): p for p in sorted(out.rglob("*")) if p.is_file()}


def output_hashes(out: Path) -> dict:
    """sha256 of every output file under `out`, by relative path."""
    return {name: hashlib.sha256(p.read_bytes()).hexdigest()
            for name, p in output_files(out).items()}


def _number(text: str):
    """A CSV cell as a float, or the string itself if it is none."""
    try:
        return float(text)
    except ValueError:
        return text


def _leaves(node, path: str = ""):
    """(dotted path, scalar) for every scalar of a JSON document."""
    if isinstance(node, dict):
        for key in sorted(node):
            yield from _leaves(node[key], f"{path}.{key}" if path else key)
    elif isinstance(node, list):
        for i, item in enumerate(node):
            yield from _leaves(item, f"{path}.{i}")
    else:
        yield path, node


def _snapshot_numbers(data: bytes) -> list:
    """L2 norm and max |value| of an RCS1 snapshot's samples, and their inner
    products with the unit-norm seeded fields of its shape: each at most the L2 norm."""
    nx, ny, nz = struct.unpack("<3I", data[4:16])
    (nlen,) = struct.unpack("<I", data[16:20])
    v = np.frombuffer(data[20 + nlen:], dtype="<f8")
    assert v.size == nx * ny * nz
    numbers = [float(np.sqrt(np.dot(v, v))), float(np.max(np.abs(v)))]
    for seed in SEEDS:
        r = np.random.default_rng(seed).standard_normal(v.size)
        numbers.append(float(np.dot(v, r / np.sqrt(np.dot(r, r)))))
    return numbers


def output_values(out: Path) -> dict:
    """The numbers of every output under `out`, by relative path, as columns:
    a CSV's by its header, a JSON document's by the dotted path of each
    scalar, and a snapshot's four numbers (`_snapshot_numbers`) as one."""
    values = {}
    for name, p in output_files(out).items():
        if p.suffix == ".csv":
            header, *rows = csv.reader(io.StringIO(p.read_text()))
            values[name] = {col: [_number(row[i]) for row in rows] for i, col in enumerate(header)}
        elif p.suffix == ".json":
            values[name] = {path: [leaf] for path, leaf in _leaves(json.loads(p.read_text()))}
        else:
            values[name] = {"norms": _snapshot_numbers(p.read_bytes())}
    return values


def _is_real(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def value_faults(recorded: list, found: list, rtol: float, atol: float) -> list[str]:
    """One line per entry of a column that `found` moves beyond the tolerance."""
    if len(recorded) != len(found):
        return [f"{len(found)} entries, recorded {len(recorded)}"]
    scale = max((abs(a) for a in recorded if _is_real(a) and math.isfinite(a)), default=0.0)
    faults = []
    for i, (a, b) in enumerate(zip(recorded, found)):
        if _is_real(a) and _is_real(b) and math.isfinite(a) and math.isfinite(b):
            ok = abs(a - b) <= rtol * abs(a) + atol * scale
        else:  # strings, flags, None, nan and inf match exactly
            ok = a == b or (_is_real(a) and _is_real(b) and math.isnan(a) and math.isnan(b))
        if not ok:
            faults.append(f"[{i}] {a!r} -> {b!r}")
    return faults


def output_faults(recorded: dict, found: dict) -> list[str]:
    """One line per output, column and entry whose value `found` moves beyond
    the tolerance of `recorded`, or per output or column either lacks."""
    faults = []
    for name in sorted(recorded.keys() | found.keys()):
        if name not in recorded or name not in found:
            faults.append(f"{name}: {'added' if name in found else 'removed'}")
            continue
        file_name = Path(name).name
        for col in sorted(recorded[name].keys() | found[name].keys()):
            if col not in recorded[name] or col not in found[name]:
                faults.append(f"{name} {col}: {'added' if col in found[name] else 'removed'}")
                continue
            tol = TOLERANCE.get(f"{file_name}:{col}", TOLERANCE.get(file_name, DEFAULT_TOLERANCE))
            faults += [f"{name} {col}{line}"
                       for line in value_faults(recorded[name][col], found[name][col], *tol)]
    return faults


def largest_move(recorded: dict, found: dict) -> float:
    """The largest |a - b| / |a| over the finite numbers of one output, a = b = 0 as 0."""
    move = 0.0
    for col in recorded.keys() & found.keys():
        for a, b in zip(recorded[col], found[col]):
            if _is_real(a) and _is_real(b) and math.isfinite(a) and math.isfinite(b) and a != b:
                move = max(move, abs(a - b) / abs(a) if a else math.inf)
    return move


def changes(old: dict, new: dict, old_values: dict, new_values: dict) -> list[str]:
    """One line per output that `new` adds, removes or hashes otherwise than
    `old`, with the largest relative move of its values when both record them."""
    lines = []
    for path in sorted(old.keys() | new.keys()):
        if old.get(path) == new.get(path):
            continue
        line = f"{path}: {old.get(path, 'added')} -> {new.get(path, 'removed')}"
        if path in old_values and path in new_values:
            move = largest_move(old_values[path], new_values[path])
            line += f", largest relative move {move:.2g}"
        lines.append(line)
    return lines


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return run_outputs(tmp_path_factory.mktemp("record"))


def test_outputs_hash_as_recorded(outputs):
    record = json.loads(RECORD.read_text())
    here = environment()
    differ = [f"{key} {record['environment'].get(key)!r} (here {value!r})"
              for key, value in here.items() if record["environment"].get(key) != value]
    if differ:
        pytest.skip("the output record was made on another environment: " + "; ".join(differ))
    moved = changes(record["sha256"], output_hashes(outputs), {}, {})
    assert not moved, "outputs that do not hash as recorded:\n" + "\n".join(moved)


def test_outputs_have_the_recorded_values(outputs):
    faults = output_faults(json.loads(RECORD.read_text())["values"], output_values(outputs))
    assert not faults, "outputs beyond round-off of the recorded values:\n" + "\n".join(faults)


if __name__ == "__main__":
    # the commands' own messages go to stderr, so stdout holds the changes alone
    with tempfile.TemporaryDirectory() as work, contextlib.redirect_stdout(sys.stderr):
        out = run_outputs(Path(work))
        hashes, values = output_hashes(out), output_values(out)
    old = json.loads(RECORD.read_text()) if RECORD.exists() else {}
    old_values = old.get("values", {})
    for line in changes(old.get("sha256", {}), hashes, old_values, values):
        print(line)
    kept = {name: old_values.get(name, values[name]) for name in values}
    for line in output_faults(kept, values):
        print("beyond the value tolerance:", line, file=sys.stderr)
    RECORD.write_text(json.dumps({"environment": environment(), "sha256": hashes,
                                  "values": kept}, indent=2) + "\n")
    print(f"{len(hashes)} output hashes written to {RECORD}", file=sys.stderr)
