"""Self-tests of the benchmark: every workload end to end at N = 16, the
traced run, and negative controls showing that each check fires.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS, CliRun, SweepEps, TwinRk4  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEEDS = (0, 7)  # run.py's default seed and a second one


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def last_json(done):
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_spec_lists_what_the_benchmark_measures():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == spans.PER_LAYER


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("seed", SEEDS)
def test_small_workload_passes_its_checks(workload, seed):
    res = last_json(bench("--workload", workload, "--seed", str(seed),
                          "--seconds", "1", "--trace", "0", "--small"))
    assert res["correct"] is True
    assert res["failed"] == 0 and res["attempted"] >= 2
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_small_traced_run(workload):
    res = last_json(bench("--workload", workload, "--seed", "3", "--seconds", "1",
                          "--trace", "1", "--small"))
    m = {k: v["value"] for k, v in res["metrics"].items()}
    assert res["correct"] is True
    assert [(k, v["unit"]) for k, v in res["metrics"].items()] == spans.PER_LAYER
    assert m["fft.calls"] > 0 and m["evolution.step.calls"] > 0
    assert 0.9 <= m["trace.self_coverage"] <= 1.0 + 1e-9
    if workload == "cli-run-n32":
        assert m["velocity.solve_velocity.calls_per_sample"] == 2.0
        assert m["io.bytes_written"] > 0 and m["invariants.compute_report.calls"] == 21
    else:
        assert m["io.bytes_written"] == 0 and m["cli.main.self_s"] == 0.0


def test_traced_counts_repeat():
    runs = [last_json(bench("--workload", "twin-n32-rk4", "--seed", str(s),
                            "--seconds", "1", "--trace", "1", "--small"))
            for s in (1, 2)]
    counts = [{k: v["value"] for k, v in r["metrics"].items()
               if v["unit"] in ("count", "bytes", "calls/sample")} for r in runs]
    assert counts[0] == counts[1]


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = bench("--workload", "cli-run-n32", "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()


def test_tracer_restores_bindings():
    import rotconv.experiments
    import scipy.fft

    before = (rotconv.experiments.solve_velocity, scipy.fft.ifftn)
    tracer = spans.Tracer()
    tracer.install()
    assert rotconv.experiments.solve_velocity is not before[0]
    tracer.uninstall()
    assert (rotconv.experiments.solve_velocity, scipy.fft.ifftn) == before


# --- negative controls ----------------------------------------------------

@pytest.fixture(scope="module")
def cli_out(tmp_path_factory):
    work = tmp_path_factory.mktemp("cli")
    wl = CliRun(5, True, work)
    out = wl.op(0)
    assert wl.check(out) == []
    return wl, out


def _copy(out: Path, dest: Path) -> Path:
    shutil.copytree(out, dest)
    return dest


def test_flipped_snapshot_byte_fires(cli_out, tmp_path):
    wl, out = cli_out
    bad = _copy(out, tmp_path / "bad")
    snap = bad / f"theta_{wl.t_end:.6f}.rcs"
    data = bytearray(snap.read_bytes())
    data[-3] ^= 0x40  # a high mantissa bit of the last sample
    snap.write_bytes(bytes(data))
    fails = wl.check(bad)
    assert any("Parseval" in f for f in fails), fails
    assert any("horizontal mean" in f for f in fails), fails
    assert any("energy identity" in f for f in fails), fails
    assert checks.compare_trees(out, bad)


def test_truncated_snapshot_is_rejected(cli_out, tmp_path):
    wl, out = cli_out
    bad = _copy(out, tmp_path / "bad")
    snap = bad / f"theta_{wl.t_end:.6f}.rcs"
    snap.write_bytes(snap.read_bytes()[:-8])
    with pytest.raises(ValueError, match="header implies"):
        checks.read_rcs1(snap)
    # the worker reports the raising check as a failure instead of dying
    fails = worker.check_call(wl, bad)
    assert len(fails) == 1 and "header implies" in fails[0], fails


@pytest.mark.parametrize("factor, message", [(1.001, "energy-budget"),
                                             (1.05, "L2 norm increases")])
def test_perturbed_series_row_fires(cli_out, tmp_path, factor, message):
    wl, out = cli_out
    bad = _copy(out, tmp_path / "bad")
    lines = (bad / "series.csv").read_text().splitlines()
    cols = lines[10].split(",")
    cols[1] = repr(float(cols[1]) * factor)  # l2 at one sample
    lines[10] = ",".join(cols)
    (bad / "series.csv").write_text("\n".join(lines) + "\n")
    fails = wl.check(bad)
    assert any(message in f for f in fails), fails


def test_profile_with_nonzero_mean_gradient_fires(cli_out, tmp_path):
    wl, out = cli_out
    bad = _copy(out, tmp_path / "bad")
    prof = sorted(bad.glob("profile_*.csv"))[-1]
    lines = prof.read_text().splitlines()
    cols = lines[1].split(",")
    cols[2] = repr(float(cols[2]) + 1e-6)
    lines[1] = ",".join(cols)
    prof.write_text("\n".join(lines) + "\n")
    assert any("dtheta_dz" in f for f in wl.check(bad))


@pytest.fixture(scope="module")
def sweep_result(tmp_path_factory):
    wl = SweepEps(5, True, tmp_path_factory.mktemp("sweep"))
    res = wl.op(0)
    assert wl.check(res) == []
    return res


def test_reordered_eps_list_fires(sweep_result):
    res = sweep_result
    fails = checks.check_sweep(res.parameters[::-1], res.err_l2, res.slope,
                               res.max_vel_excess, res.max_mean_excess)
    assert any("does not decrease strictly" in f for f in fails), fails


def test_sweep_bound_and_slope_fire(sweep_result):
    res = sweep_result
    assert checks.check_sweep(res.parameters, res.err_l2, res.slope, 1e-9,
                              res.max_mean_excess)
    flat = [res.err_l2[0]] * 2 + [res.err_l2[0] * 0.99]
    assert any("slope" in f for f in checks.check_sweep(
        res.parameters, flat, float(np.polyfit(np.log(res.parameters),
                                               np.log(flat), 1)[0]),
        res.max_vel_excess, res.max_mean_excess))


def test_twin_checks_fire(tmp_path):
    wl = TwinRk4(5, True, tmp_path)
    rep = wl.op(0)
    assert wl.check(rep) == []
    args = (rep.times, rep.err_l2, rep.fitted_rate)
    assert checks.check_twin(*args, 0.58, wl.delta_amp)
    assert checks.check_twin(*args, rep.response_ratio, 1.001 * wl.delta_amp)
    assert any("least-squares rate" in f for f in checks.check_twin(
        rep.times, rep.err_l2, rep.fitted_rate + 1.0, rep.response_ratio, wl.delta_amp))
    # one late error far above the trend, with the rate refitted to it
    grown = list(rep.err_l2)
    grown[-1] *= 1000.0
    rate = float(np.polyfit(rep.times, np.log(grown), 1)[0])
    fails = checks.check_twin(rep.times, grown, rate, rep.response_ratio, wl.delta_amp)
    assert fails == ["twin: 10x-slack exponential envelope violated"], fails
