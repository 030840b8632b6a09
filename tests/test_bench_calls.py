"""The benchmark's calls into the package, at N = 16: each workload of
`bench/workloads.py` warms up, makes one call and passes its own checks.

The benchmark calls the package through names and signatures of its own
(`cfl_dt(state, safety, config)` in the cli-run warm-up, for one), so a
change that breaks one of them fails here, not only in a benchmark run.
Nothing under `bench/` is edited.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
# the workloads the benchmark declares, which `bench/test_bench.py` matches to `WORKLOADS`
NAMES = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # `workloads` imports its sibling `checks`
    import workloads

    return workloads.WORKLOADS


@pytest.mark.parametrize("name", NAMES)
def test_workload_call_passes_its_checks(workloads, name, tmp_path):
    workload = workloads[name](0, True, tmp_path)
    workload.warm_up()
    assert workload.check(workload.op(0)) == []
