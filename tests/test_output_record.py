"""Every output of a fixed set of small CLI runs hashes as recorded.

The set runs in process through `cli.main`: `run` at N = 16 (IF-RK4), on
a 24 x 20 x 18 grid (RK4, dt "auto", `mode_cap` 3) and at N = 16 with eps = 1
(RK4, dt "auto", where the diffusive step of `cfl_dt` binds), `twin`,
`sweep-epsilon` matched and scaled, `sweep-resolution` and `check-multipliers`.  The bits
depend on the Python, numpy and scipy builds and on the SIMD code paths numpy
dispatches to, so the record holds the environment it was made in; on any
other the test skips, naming each difference.  A change that moves outputs
on purpose rewrites the record in the same commit, and the rewrite prints
each output it adds, removes or changes, with its old and new sha256:

    PYTHONPATH=src python tests/test_output_record.py
"""

import contextlib
import hashlib
import json
import platform
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


def environment() -> dict:
    """What the output bits depend on besides the program."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
        simd = [f for f in __cpu_dispatch__ if __cpu_features__.get(f)]
    except ImportError:
        simd = None
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "machine": platform.machine(), "simd": simd}


def output_hashes(work: Path) -> dict:
    """sha256 of every output file of the set, run in `work`, by relative path."""
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
    return {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file()}


def changes(old: dict, new: dict) -> list[str]:
    """One line per output that `new` adds, removes or hashes otherwise than `old`."""
    return [f"{path}: {old.get(path, 'added')} -> {new.get(path, 'removed')}"
            for path in sorted(old.keys() | new.keys()) if old.get(path) != new.get(path)]


def test_outputs_hash_as_recorded(tmp_path, capsys):
    record = json.loads(RECORD.read_text())
    here = environment()
    differ = [f"{key} {record['environment'].get(key)!r} (here {value!r})"
              for key, value in here.items() if record["environment"].get(key) != value]
    if differ:
        pytest.skip("the output record was made on another environment: " + "; ".join(differ))
    moved = changes(record["sha256"], output_hashes(tmp_path))
    assert not moved, "outputs that do not hash as recorded:\n" + "\n".join(moved)


if __name__ == "__main__":
    # the commands' own messages go to stderr, so stdout holds the changes alone
    with tempfile.TemporaryDirectory() as work, contextlib.redirect_stdout(sys.stderr):
        hashes = output_hashes(Path(work))
    old = json.loads(RECORD.read_text())["sha256"] if RECORD.exists() else {}
    for line in changes(old, hashes):
        print(line)
    RECORD.write_text(json.dumps({"environment": environment(), "sha256": hashes},
                                 indent=2) + "\n")
    print(f"{len(hashes)} output hashes written to {RECORD}", file=sys.stderr)
