"""rotconv benchmark: one workload per invocation, each in fresh processes.

    python3 bench/run.py --workload sweep-eps-n64 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from `src/`.
With `--trace 0` the last stdout line is a JSON object whose metrics are the
end-to-end ones (wall_ref, cell_steps_per_ref, setup_s, peak_rss_mb); with
`--trace 1` they are the per-layer ones from one traced call.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from envrecord import THREAD_VARS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# fresh processes that only set up, started before and after the measuring
# one, which sets up too: set-up is sampled at both ends of the run
SETUP_PROBES = (3, 4)
# reference-kernel seconds on the reference machine at a quiet time; set-up
# times are reported at this speed of the kernel (see README.md)
REF_NOMINAL_S = 0.065
TIME_LIMIT = 170.0  # seconds for the whole invocation


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--small", action="store_true",
                   help="N = 16 grids, for the self-tests")
    return p.parse_args(argv)


class Failure(RuntimeError):
    pass


def spawn(args, run_dir: Path, deadline: float, probe: bool, trace_out=None):
    """Start worker.py; returns (set-up seconds, reference-kernel seconds
    right after set-up, its stdout lines)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--work-dir", str(run_dir)]
    if args.small:
        cmd.append("--small")
    if probe:
        cmd.append("--probe")
    if trace_out:
        cmd += ["--trace-out", str(trace_out)]
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise Failure("worker ran out of time") from None
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    lines = out.splitlines()
    if proc.returncode != 0:
        raise Failure(f"worker exited with code {proc.returncode}")
    ready = [float(x.split(" ", 1)[1]) for x in lines if x.startswith("READY ")]
    ref = [float(x.split(" ", 1)[1]) for x in lines if x.startswith("REF ")]
    if len(ready) != 1 or len(ref) != 1:
        raise Failure("worker never reported ready")
    return ready[0] - t0, ref[0], lines


def measure(args) -> dict:
    deadline = time.monotonic() + TIME_LIMIT
    work = ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    tag = f"{args.workload}-{os.getpid()}"
    before, after = (0, 0) if args.trace else SETUP_PROBES

    def probes(first, count):
        return [spawn(args, work / f"{tag}-probe{i}", deadline, True)[:2]
                for i in range(first, first + count)]

    setup = probes(0, before)
    trace_out = work / f"trace-{args.workload}-seed{args.seed}.json" if args.trace else None
    seconds, ref, lines = spawn(args, work / tag, deadline, False, trace_out)
    setup += [(seconds, ref)] + probes(before, after)

    result = None
    for line in lines:
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        elif not line.startswith(("READY ", "REF ")):
            print(line)
    if result is None or not result["ratios"]:
        raise Failure("worker completed no workload call")

    print(f"raw wall_s median {statistics.median(result['walls'])!r} "
          f"over {len(result['walls'])} calls")
    print(f"raw setup_s median {statistics.median(s for s, _ in setup)!r} "
          f"over {len(setup)} processes")
    if args.trace:
        metrics = result["layers"]
    else:
        wall = statistics.median(result["ratios"])
        metrics = {
            "wall_ref": {"value": wall, "unit": "ref"},
            "cell_steps_per_ref": {
                "value": result["cells"] * result["member_steps"] / wall,
                "unit": "cell-steps/ref"},
            "setup_s": {"value": statistics.median(s * REF_NOMINAL_S / r for s, r in setup),
                        "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_kb"] / 1024.0, "unit": "MB"},
        }
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "rotconv" / "__init__.py").is_file():
        print(f"rotconv sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    try:
        summary = measure(args)
    except Failure as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
