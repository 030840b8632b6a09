import json

import numpy as np
import pytest

from rotconv.evolution import InitialSpec, SimConfig, run
from rotconv.experiments import sweep_epsilon
from rotconv.grid import PhysicalField
from rotconv.invariants import gronwall_envelopes
from rotconv.io import (
    MAGIC,
    SERIES_COLUMNS,
    read_snapshot,
    write_csv,
    write_profile_csv,
    write_series_csv,
    write_snapshot,
    write_sweep_outputs,
)
from rotconv.meanstate import mean_profile


def small_run(grid):
    init = InitialSpec(kind="random-band-limited", band=(1, 4), amplitude=0.5, seed=2)
    config = SimConfig(grid=grid, epsilon=0.1, dt=0.05, t_end=0.2, initial=init)
    return run(config)


def test_snapshot_round_trip(tmp_path, grid16):
    rng = np.random.default_rng(1)
    field = PhysicalField(grid16, rng.standard_normal(grid16.shape))
    path = tmp_path / "state.rcs"
    write_snapshot(path, "theta_prime", field)
    name, back = read_snapshot(path)
    assert name == "theta_prime"
    assert back.grid == grid16
    assert np.array_equal(back.values, field.values)
    assert path.read_bytes()[:4] == MAGIC


def test_snapshot_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.rcs"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(ValueError):
        read_snapshot(path)


@pytest.mark.parametrize(
    "edit",
    [lambda b: b[:-8], lambda b: b[:-3], lambda b: b + b"\x00"],
    ids=["missing-value", "partial-value", "trailing-byte"],
)
def test_snapshot_rejects_wrong_payload_length(tmp_path, grid16, edit):
    path = tmp_path / "state.rcs"
    write_snapshot(path, "theta_prime", PhysicalField(grid16, np.ones(grid16.shape)))
    path.write_bytes(edit(path.read_bytes()))
    with pytest.raises(ValueError, match="payload"):
        read_snapshot(path)


@pytest.mark.parametrize("size, part", [
    (4 + 7, "grid dims"), (4 + 12 + 2, "name length"), (4 + 12 + 4 + 5, "field name"),
], ids=["inside-dims", "inside-name-length", "inside-name"])
def test_snapshot_rejects_truncated_header(tmp_path, grid16, size, part):
    path = tmp_path / "state.rcs"
    write_snapshot(path, "theta_prime", PhysicalField(grid16, np.ones(grid16.shape)))
    path.write_bytes(path.read_bytes()[:size])
    with pytest.raises(ValueError, match=f"snapshot ends inside its {part}"):
        read_snapshot(path)


def test_series_csv_columns_and_determinism(tmp_path, grid16):
    traj = small_run(grid16)
    env = gronwall_envelopes(traj.reports)
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    write_series_csv(p1, traj.reports, env)
    write_series_csv(p2, traj.reports, env)
    header = p1.read_text().splitlines()[0]
    assert header == ",".join(SERIES_COLUMNS)
    assert p1.read_bytes() == p2.read_bytes()
    assert len(p1.read_text().splitlines()) == len(traj.reports) + 1


def test_series_csv_budget_residual_undefined_at_ends(tmp_path, grid16):
    traj = small_run(grid16)
    path = tmp_path / "series.csv"
    write_series_csv(path, traj.reports, gronwall_envelopes(traj.reports))
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    col = SERIES_COLUMNS.index("budget_residual")
    residual = [float(row[col]) for row in rows]
    assert np.isnan(residual[0]) and np.isnan(residual[-1])
    assert np.all(np.isfinite(residual[1:-1]))


def test_profile_csv(tmp_path, grid16):
    from rotconv.grid import inverse_transform
    from rotconv.velocity import solve_velocity

    traj = small_run(grid16)
    state = traj.final_state
    theta_p = inverse_transform(state.theta)
    w_p = inverse_transform(solve_velocity(state.theta).w)
    path = tmp_path / "profile.csv"
    write_profile_csv(path, mean_profile(theta_p, w_p))
    lines = path.read_text().splitlines()
    assert lines[0] == "z,flux,dtheta_dz,theta_bar"
    assert len(lines) == grid16.nz + 1


def test_write_csv_float_round_trip(tmp_path):
    values = [np.pi, 1e-300, 2.0 / 3.0]
    path = tmp_path / "x.csv"
    write_csv(path, ["v"], [[v] for v in values])
    back = [float(line) for line in path.read_text().splitlines()[1:]]
    assert back == values


def test_sweep_outputs(tmp_path, grid16):
    init = InitialSpec(kind="random-band-limited", band=(1, 4), amplitude=0.5, seed=2)
    cfg = SimConfig(grid=grid16, epsilon=0.0, dt=0.05, t_end=0.2, initial=init)
    res = sweep_epsilon(cfg, [0.5, 0.25])
    write_sweep_outputs(tmp_path / "out", res, {"note": "test"}, "epsilon")
    csv_lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
    assert csv_lines[0] == "epsilon,err_l2,err_mean_h1,err_vel_h2"
    assert len(csv_lines) == 3
    payload = json.loads((tmp_path / "out" / "sweep.json").read_text())
    assert set(payload) == {"slope", "slope_ci", "config", "tool_version"}
