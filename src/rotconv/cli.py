"""Command-line drivers.

Subcommands: run, check-multipliers, sweep-epsilon, sweep-resolution, twin.
Run configuration is a JSON document mirroring the SimConfig field names.
"""

from __future__ import annotations

import argparse
import json
from dataclasses import MISSING, asdict, fields
from pathlib import Path

from .evolution import InitialSpec, SimConfig, SimState, initial_state, run
from .experiments import sweep_epsilon, sweep_resolution, twin_run
from .grid import Grid, inverse_transform
from .invariants import gronwall_envelopes
from .io import (csv_text, write_csv, write_json, write_profile_csv, write_series_csv,
                 write_snapshot, write_sweep_outputs)
from .meanstate import mean_profile
from .velocity import CATALOG, empirical_lp_ratio, hypothesis_check, lattice_sup, velocity_symbols


def load_config(path) -> SimConfig:
    raw = json.loads(Path(path).read_text())
    if not isinstance(raw, dict):
        raise ValueError(f"top-level config must be a JSON object, got {raw!r}")
    init_raw, grid_raw = raw.get("initial", {}), raw.get("grid", {})
    for section, keys, cls in (("top-level", raw, SimConfig), ("initial", init_raw, InitialSpec),
                               ("grid", grid_raw, Grid)):
        if not isinstance(keys, dict):
            raise ValueError(f"{section} config must be a JSON object, got {keys!r}")
        known = fields(cls)
        if unknown := sorted(set(keys) - {f.name for f in known}):
            raise ValueError(f"unknown {section} config key(s): {', '.join(unknown)}")
        if missing := [f.name for f in known if f.name not in keys
                       and f.default is MISSING and f.default_factory is MISSING]:
            raise ValueError(f"missing {section} config key(s): {', '.join(missing)}")
    initial = InitialSpec(**{k: tuple(v) if k in ("mode", "band") and isinstance(v, list) else v
                             for k, v in init_raw.items()})
    return SimConfig(**{**raw, "grid": Grid(**grid_raw), "initial": initial})


def cmd_run(args) -> int:
    config = load_config(args.config)
    theta0 = initial_state(config)
    traj = run(config, theta0=theta0)
    states = {f"{s.t:.6f}": s for s in (SimState(0.0, theta0), traj.final_state)}
    if len(states) == 1 and traj.final_state.t != 0.0:
        raise ValueError(f"the initial time 0.0 and the final time {traj.final_state.t!r} would "
                         "both name their outputs 0.000000: t_end must print as nonzero to 6 "
                         "decimals")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    env = gronwall_envelopes(traj.reports)
    write_series_csv(out / "series.csv", traj.reports, env)
    for name, state in states.items():
        theta_p = inverse_transform(state.theta)
        w_p = inverse_transform(state.theta, velocity_symbols(state.theta.grid)[2])
        write_profile_csv(out / f"profile_{name}.csv", mean_profile(theta_p, w_p))
        write_snapshot(out / f"theta_{name}.rcs", "theta_prime", theta_p)
    print(f"run complete: t = {traj.final_state.t:.6g}, "
          f"{len(traj.reports)} samples -> {out}")
    return 0


def cmd_check_multipliers(args) -> int:
    rows = []
    for entry in CATALOG:
        rows.append([
            entry.name,
            hypothesis_check(entry.spec),
            lattice_sup(entry.spec, args.K),
            empirical_lp_ratio(entry.spec, args.p, args.trials, args.seed),
        ])
    header = ["entry", "hypothesis", "lattice_sup", "empirical_ratio"]
    if args.out:
        write_csv(args.out, header, rows)
    else:
        print(csv_text(header, rows), end="")
    return 0


def cmd_sweep_epsilon(args) -> int:
    config = load_config(args.config)
    eps = [float(s) for s in args.eps.split(",")]
    mode = {"matched": "matched", "scaled": "eps-scaled"}[args.mode]
    result = sweep_epsilon(config, eps, mode)
    write_sweep_outputs(args.out, result, asdict(config), "epsilon")
    print(f"epsilon sweep done, slope = {result.slope}")
    return 0


def cmd_sweep_resolution(args) -> int:
    config = load_config(args.config)
    modes = [int(s) for s in args.modes.split(",")]
    result = sweep_resolution(config, modes)
    write_sweep_outputs(args.out, result, asdict(config), "modes")
    print("resolution sweep done")
    return 0


def cmd_twin(args) -> int:
    config = load_config(args.config)
    mode = tuple(int(s) for s in args.delta_mode.split(","))
    report = twin_run(config, args.delta_amp, mode)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / "twin.csv", ["t", "err_l2", "err_dual"],
              zip(report.times, report.err_l2, report.err_dual))
    payload = {
        "fitted_rate": report.fitted_rate,
        "response_ratio": report.response_ratio,
        "in_linear_regime": report.in_linear_regime,
        "config": asdict(config),
    }
    write_json(out / "twin.json", payload)
    print(f"twin run done, fitted rate = {report.fitted_rate:.6g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="rotconv")
    sub = p.add_subparsers(dest="command", required=True)

    pr = sub.add_parser("run", help="integrate one configuration")
    pr.add_argument("--config", required=True)
    pr.add_argument("--out", required=True)
    pr.set_defaults(func=cmd_run)

    pm = sub.add_parser("check-multipliers", help="audit the multiplier catalog")
    pm.add_argument("--K", type=int, default=128)
    pm.add_argument("--p", type=float, default=3.0)
    pm.add_argument("--seed", type=int, default=42)
    pm.add_argument("--trials", type=int, default=20)
    pm.add_argument("--out", default=None)
    pm.set_defaults(func=cmd_check_multipliers)

    pe = sub.add_parser("sweep-epsilon", help="vanishing-diffusivity sweep")
    pe.add_argument("--config", required=True)
    pe.add_argument("--eps", required=True)
    pe.add_argument("--mode", choices=["matched", "scaled"], default="matched")
    pe.add_argument("--out", required=True)
    pe.set_defaults(func=cmd_sweep_epsilon)

    ps = sub.add_parser("sweep-resolution", help="Galerkin truncation sweep")
    ps.add_argument("--config", required=True)
    ps.add_argument("--modes", required=True)
    ps.add_argument("--out", required=True)
    ps.set_defaults(func=cmd_sweep_resolution)

    pt = sub.add_parser("twin", help="continuous-dependence twin run")
    pt.add_argument("--config", required=True)
    pt.add_argument("--delta-amp", type=float, default=1e-6)
    pt.add_argument("--delta-mode", default="1,1,1")
    pt.add_argument("--out", required=True)
    pt.set_defaults(func=cmd_twin)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
