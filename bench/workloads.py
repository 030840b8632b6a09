"""The benchmark's workloads.

Each workload makes its inputs from the seed, warms the program's caches
(lattice, symbols, workspace, FFT plans) for its grid, performs one closed-loop
workload call per `op`, counts the member-steps that call advances and checks
its result against properties the method must have.  `small=True` runs the
same workload at N = 16 for the self-tests.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import checks


def _spec(seed: int, amplitude: float):
    from rotconv.evolution import InitialSpec

    return InitialSpec(kind="random-band-limited", band=(1, 6),
                       amplitude=amplitude, seed=seed % 2**32)


class Workload:
    name: str
    cells: int
    member_steps: int | None

    def same(self, first, other) -> list[str]:
        """Failures if a repeated call did not reproduce the first one exactly."""
        if self.key(first) != self.key(other):
            return [f"repeat: {self.name} result differs between calls"]
        return []


class SweepEps(Workload):
    """Criterion-7 vanishing-diffusivity sweep at N = 64 (IF-RK4, dt = 0.025,
    matched initial data, diagnostics every 5 steps), shortened to 3 steps
    and three eps values; the errors are sampled at t = 0 and t = 0.075."""

    name = "sweep-eps-n64"
    eps = (0.25, 0.125, 0.0625)

    def __init__(self, seed: int, small: bool, work_dir: Path):
        from rotconv.evolution import SimConfig
        from rotconv.grid import Grid

        n = 16 if small else 64
        self.grid = Grid(n, n, n)
        self.cells = self.grid.size
        self.config = SimConfig(grid=self.grid, epsilon=0.0, dt=0.025, t_end=0.075,
                                integrator="if-rk4", initial=_spec(seed, 0.1),
                                diagnostics_every=5)
        self.member_steps = (1 + len(self.eps)) * 3

    def warm_up(self):
        from rotconv.evolution import SimState, build_initial, step
        from rotconv.experiments import mean_h1_error_and_bound

        state = SimState(0.0, build_initial(self.grid, self.config.initial))
        moved = step(state, self.config.dt, self.config)
        mean_h1_error_and_bound(moved, state)

    def op(self, index: int):
        from rotconv.experiments import sweep_epsilon

        return sweep_epsilon(self.config, list(self.eps), "matched")

    def check(self, res) -> list[str]:
        return checks.check_sweep(res.parameters, res.err_l2, res.slope,
                                  res.max_vel_excess, res.max_mean_excess)

    def key(self, res):
        return json.dumps([res.err_l2, res.err_mean_h1, res.err_vel_h2, res.slope,
                           res.per_time_l2, res.max_vel_excess, res.max_mean_excess])


class TwinRk4(Workload):
    """Criterion-8 continuous-dependence twin run at N = 32: classical RK4,
    eps = 0, dt = 0.02 to t = 1, one reference and two perturbed members
    (amplitudes 1e-6 and 5e-7 on mode (1,1,1)), L2 and dual norm every 5 steps."""

    name = "twin-n32-rk4"
    delta_amp = 1e-6

    def __init__(self, seed: int, small: bool, work_dir: Path):
        from rotconv.evolution import SimConfig
        from rotconv.grid import Grid

        n = 16 if small else 32
        self.grid = Grid(n, n, n)
        self.cells = self.grid.size
        self.config = SimConfig(grid=self.grid, epsilon=0.0, dt=0.02, t_end=1.0,
                                integrator="rk4", initial=_spec(seed, 0.3),
                                diagnostics_every=5)
        self.member_steps = 3 * 50

    def warm_up(self):
        from rotconv.evolution import SimState, build_initial, step
        from rotconv.invariants import dual_norm

        state = SimState(0.0, build_initial(self.grid, self.config.initial))
        dual_norm(step(state, self.config.dt, self.config).theta)

    def op(self, index: int):
        from rotconv.experiments import twin_run

        return twin_run(self.config, self.delta_amp, (1, 1, 1))

    def check(self, rep) -> list[str]:
        return checks.check_twin(rep.times, rep.err_l2, rep.fitted_rate,
                                 rep.response_ratio, self.delta_amp)

    def key(self, rep):
        return json.dumps([rep.times, rep.err_l2, rep.err_dual, rep.fitted_rate,
                           rep.response_ratio])


class CliRun(Workload):
    """`rotconv run` through `cli.main` at N = 32: IF-RK4, eps = 0.1,
    dt "auto" (the 0.1 advective cap binds, so dt = 0.05), t_end = 1,
    diagnostics every step; writes series.csv, two profile CSVs and two
    RCS1 snapshots."""

    name = "cli-run-n32"
    eps = 0.1
    t_end = 1.0

    def __init__(self, seed: int, small: bool, work_dir: Path):
        n = 16 if small else 32
        self.cells = n**3
        self.work_dir = work_dir
        self.cfg_path = work_dir / "cfg.json"
        self.cfg_path.write_text(json.dumps({
            "grid": {"nx": n, "ny": n, "nz": n},
            "epsilon": self.eps,
            "dt": "auto",
            "t_end": self.t_end,
            "integrator": "if-rk4",
            "diagnostics_every": 1,
            "initial": {"kind": "random-band-limited", "band": [1, 6],
                        "amplitude": 0.5, "seed": seed % 2**32},
        }))
        self.member_steps = None  # read from series.csv after the first op

    def warm_up(self):
        from rotconv.cli import load_config
        from rotconv.evolution import SimState, build_initial, cfl_dt, step
        from rotconv.invariants import compute_report

        config = load_config(self.cfg_path)
        state = SimState(0.0, build_initial(config.grid, config.initial))
        step(state, cfl_dt(state, config.safety, config), config)
        compute_report(state, config.epsilon)

    def op(self, index: int):
        from rotconv.cli import main

        out = self.work_dir / f"op{index}"
        code = main(["run", "--config", str(self.cfg_path), "--out", str(out)])
        if code != 0:
            raise RuntimeError(f"rotconv run exited with {code}")
        if self.member_steps is None:
            # one series row per step plus the header and the t = 0 row
            with open(out / "series.csv") as fh:
                self.member_steps = sum(1 for line in fh if line.strip()) - 2
        return out

    def check(self, out: Path) -> list[str]:
        return checks.check_run_outputs(out, self.eps, self.t_end)

    def same(self, first: Path, other: Path) -> list[str]:
        """Byte comparison with the first call's files; the repeat's own
        directory is removed afterwards, so a long run keeps two at most."""
        fails = checks.compare_trees(first, other)
        shutil.rmtree(other)
        return fails


WORKLOADS = {cls.name: cls for cls in (SweepEps, TwinRk4, CliRun)}
