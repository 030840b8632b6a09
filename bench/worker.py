"""One workload in one fresh process.

Started by run.py.  It imports rotconv, builds the workload's inputs from the
seed and warms the caches, then prints `READY <monotonic clock>` so that the
parent can time set-up from interpreter start, then `REF <seconds>`, one
time of the reference kernel.  A probe exits there.
Otherwise it repeats the workload call, closed loop, until `--seconds` have
passed and at least two calls are done, checking every result; with
`--trace 1` one more call runs under the span tracer.  The last line is
`RESULT <json>`.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

# every program module is imported before READY, so set-up time includes it
import numpy as np  # noqa: E402
import scipy.fft  # noqa: E402,F401
import rotconv  # noqa: E402,F401
import rotconv.cli  # noqa: E402,F401
import rotconv.io  # noqa: E402,F401

import envrecord  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_CALLS = 2  # the repeat check compares two calls


class Reference:
    """A fixed kernel, independent of rotconv, timed next to every workload
    call.  The speed of the shared reference machine drifts by tens of
    percent over minutes; the ratio of a call's time to the reference time
    around it drifts far less, because both slow down together.  The kernel
    mixes what the program spends its time on: FFTs and element-wise
    arithmetic on a 64^3 complex array, and a pure-Python loop."""

    def __init__(self):
        self.x = np.random.default_rng(0).standard_normal((64, 64, 64)) + 0j

    def seconds(self) -> float:
        t0 = time.perf_counter()
        for _ in range(3):
            np.fft.ifftn(np.fft.fftn(self.x))
        y = self.x.copy()
        for _ in range(10):
            y *= 1.0000001
            y += self.x
        acc = 0
        for i in range(200_000):
            acc += i * i
        return time.perf_counter() - t0


def parse_args(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--small", action="store_true")
    p.add_argument("--probe", action="store_true")
    p.add_argument("--work-dir", required=True)
    p.add_argument("--trace-out", default=None)
    return p.parse_args(argv)


def call(workload, index, tracer=None):
    """One workload call with its stdout captured; returns (result, seconds)."""
    with contextlib.redirect_stdout(io.StringIO()):
        if tracer is not None:
            return tracer.root(workload.op, index)
        t0 = time.perf_counter()
        out = workload.op(index)
        return out, time.perf_counter() - t0


def check_call(workload, result, first=None) -> list[str]:
    """Check failures of one call's result and, given the first call's
    result, of the repeat.  A check that raises on a malformed output counts
    as a failed check, so the run still reports its counts."""
    try:
        fails = workload.check(result)
        if first is not None:
            fails += workload.same(first, result)
        return fails
    except Exception as exc:
        return [f"check raised {type(exc).__name__}: {exc}"]


def main(argv=None) -> int:
    args = parse_args(argv)
    work_dir = Path(args.work_dir)
    work_dir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, args.small, work_dir)
    workload.warm_up()
    print(f"READY {time.monotonic()!r}", flush=True)
    # the machine's speed right after set-up, by which run.py scales it
    reference = Reference()
    reference.seconds()  # the first call also pays for page faults and FFT plans
    print(f"REF {reference.seconds()!r}", flush=True)
    if args.probe:
        return 0

    print("ENV " + json.dumps(envrecord.environment(ROOT), sort_keys=True), flush=True)
    walls, ratios, failures = [], [], []
    attempted = failed = 0
    first = None

    def record(result):
        nonlocal first
        failures.extend(check_call(workload, result, first))
        if first is None:
            first = result

    start = time.perf_counter()
    ref_before = reference.seconds()
    while attempted < MIN_CALLS or time.perf_counter() - start < args.seconds:
        attempted += 1
        try:
            result, wall = call(workload, attempted)
        except Exception:
            failed += 1
            traceback.print_exc()
            ref_before = reference.seconds()
            continue
        ref_after = reference.seconds()
        walls.append(wall)
        ratios.append(wall / (0.5 * (ref_before + ref_after)))
        ref_before = ref_after
        record(result)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    layers = None
    if args.trace and ratios:
        tracer = spans.Tracer()
        tracer.install()
        attempted += 1
        try:
            result, _ = call(workload, attempted, tracer)
        finally:
            tracer.uninstall()
        ref_after = reference.seconds()
        record(result)
        # the untraced call's time at the machine speed of the traced call
        untraced = statistics.median(ratios) * 0.5 * (ref_before + ref_after)
        layers = spans.layer_metrics(tracer.spans, untraced)
        if args.trace_out:
            tracer.write(args.trace_out, {"workload": args.workload, "seed": args.seed,
                                          "metrics": layers})

    for message in failures:
        print("CHECK FAILED: " + message, file=sys.stderr)
    print("RESULT " + json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "walls": walls,
        "ratios": ratios,
        "cells": workload.cells,
        "member_steps": workload.member_steps,
        "peak_rss_kb": peak_rss_kb,
        "layers": layers,
    }), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
