import json

import pytest

from rotconv.cli import load_config, main
from rotconv.evolution import SimConfig
from rotconv.grid import Grid


@pytest.fixture
def config_path(tmp_path):
    cfg = {
        "grid": {"nx": 16, "ny": 16, "nz": 16},
        "epsilon": 0.1,
        "dt": 0.05,
        "t_end": 0.2,
        "integrator": "if-rk4",
        "initial": {
            "kind": "random-band-limited",
            "band": [1, 4],
            "amplitude": 0.5,
            "seed": 2,
        },
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


def test_run_command(tmp_path, config_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == 0
    assert (out / "series.csv").exists()
    assert (out / "profile_0.000000.csv").exists()
    assert (out / "profile_0.200000.csv").exists()
    assert (out / "theta_0.000000.rcs").exists()
    assert (out / "theta_0.200000.rcs").exists()
    assert "run complete" in capsys.readouterr().out


def test_load_config_defaults_are_the_dataclass_defaults(tmp_path):
    path = tmp_path / "grid_only.json"
    path.write_text(json.dumps({"grid": {"nx": 16, "ny": 16, "nz": 16}}))
    assert load_config(path) == SimConfig(grid=Grid(16, 16, 16))


def test_load_config_converts_mode_and_band_to_tuples(tmp_path):
    path = tmp_path / "single_mode.json"
    path.write_text(json.dumps({"grid": {"nx": 16, "ny": 16, "nz": 16},
                                "initial": {"kind": "analytic-single-mode",
                                            "mode": [1, 2, 3], "band": [2, 5]}}))
    initial = load_config(path).initial
    assert initial.mode == (1, 2, 3) and initial.band == (2, 5)


# the last two set a whole section to 0.5, which is not a JSON object
@pytest.mark.parametrize("section, key", [(None, "epsion"), ("initial", "sed"), ("grid", "nw"),
                                          (None, "grid"), (None, "initial")])
def test_load_config_rejects_unknown_keys(tmp_path, config_path, section, key):
    cfg = json.loads(config_path.read_text())
    (cfg[section] if section else cfg)[key] = 0.5
    path = tmp_path / "typo.json"
    path.write_text(json.dumps(cfg))
    with pytest.raises(ValueError, match=key):
        load_config(path)


@pytest.mark.parametrize("section, key", [(None, "grid"), ("grid", "nz")])
def test_load_config_rejects_missing_keys(tmp_path, config_path, section, key):
    cfg = json.loads(config_path.read_text())
    del (cfg[section] if section else cfg)[key]
    path = tmp_path / "missing.json"
    path.write_text(json.dumps(cfg))
    with pytest.raises(ValueError, match=f"missing .* key.*: {key}"):
        load_config(path)


def test_run_command_deterministic(tmp_path, config_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    main(["run", "--config", str(config_path), "--out", str(out_a)])
    main(["run", "--config", str(config_path), "--out", str(out_b)])
    assert (out_a / "series.csv").read_bytes() == (out_b / "series.csv").read_bytes()
    assert (
        (out_a / "theta_0.200000.rcs").read_bytes()
        == (out_b / "theta_0.200000.rcs").read_bytes()
    )


def test_check_multipliers_command(tmp_path):
    out = tmp_path / "catalog.csv"
    code = main([
        "check-multipliers", "--K", "16", "--p", "3.0",
        "--seed", "42", "--trials", "2", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "entry,hypothesis,lattice_sup,empirical_ratio"
    assert len(lines) == 7  # six catalog entries
    for line in lines[1:]:
        assert line.split(",")[1] == "1"  # every hypothesis holds


def test_sweep_epsilon_command(tmp_path, config_path):
    out = tmp_path / "sweep"
    code = main([
        "sweep-epsilon", "--config", str(config_path),
        "--eps", "0.5,0.25", "--mode", "matched", "--out", str(out),
    ])
    assert code == 0
    assert (out / "sweep.csv").exists()
    payload = json.loads((out / "sweep.json").read_text())
    assert "slope" in payload and "config" in payload


def test_sweep_resolution_command(tmp_path, config_path):
    out = tmp_path / "res"
    code = main([
        "sweep-resolution", "--config", str(config_path),
        "--modes", "2,4", "--out", str(out),
    ])
    assert code == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0].startswith("modes,")
    assert len(lines) == 3


def test_twin_command(tmp_path, config_path):
    out = tmp_path / "twin"
    code = main([
        "twin", "--config", str(config_path),
        "--delta-amp", "1e-6", "--delta-mode", "1,1,1", "--out", str(out),
    ])
    assert code == 0
    payload = json.loads((out / "twin.json").read_text())
    assert payload["in_linear_regime"] is True
    assert (out / "twin.csv").read_text().splitlines()[0] == "t,err_l2,err_dual"


@pytest.mark.parametrize("option, value, message", [
    ("--delta-mode", "1,1", "delta_mode must be a tuple of three integers"),
    ("--delta-mode", "8,0,0", r"delta_mode \(8, 0, 0\) is not resolved"),
    ("--delta-amp", "nan", "delta_amp must be a finite number"),
])
def test_twin_command_rejects_bad_perturbations(tmp_path, config_path, option, value, message):
    out = tmp_path / "twin"
    with pytest.raises(ValueError, match=message):
        main(["twin", "--config", str(config_path), option, value, "--out", str(out)])
    assert not out.exists()


def test_load_config_rejects_non_auto_dt_string(tmp_path, config_path):
    cfg = json.loads(config_path.read_text())
    cfg["dt"] = "fast"
    path = tmp_path / "fast.json"
    path.write_text(json.dumps(cfg))
    with pytest.raises(ValueError, match="dt must be"):
        load_config(path)


@pytest.mark.parametrize("key, value", [("mode", 5), ("band", [6, 1]),
                                        ("amplitude", float("nan")), ("seed", -1)])
def test_load_config_rejects_bad_initial_values(tmp_path, config_path, key, value):
    cfg = json.loads(config_path.read_text())
    cfg["initial"][key] = value
    path = tmp_path / "bad_initial.json"
    path.write_text(json.dumps(cfg))
    with pytest.raises(ValueError, match=f"initial {key}"):
        load_config(path)


@pytest.mark.parametrize("text, message", [
    ("[1, 2]", "top-level config must be a JSON object"),
    ('"run"', "top-level config must be a JSON object"),
    ('{"grid": {"nx": "16", "ny": 16, "nz": 16}}', "nx must be an even integer"),
    ('{"grid": {"nx": 16, "ny": 16, "nz": true}}', "nz must be an even integer"),
])
def test_load_config_rejects_malformed_documents(tmp_path, text, message):
    path = tmp_path / "malformed.json"
    path.write_text(text)
    with pytest.raises(ValueError, match=message):
        load_config(path)
