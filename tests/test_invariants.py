import tracemalloc
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from rotconv.evolution import InitialSpec, SimConfig, SimState, run
from rotconv.grid import (
    DOMAIN_VOLUME,
    TWO_PI,
    PhysicalField,
    SpectralField,
    apply_symbol,
    derivative_symbol,
    forward_transform,
    inverse_transform,
    lp_norm,
    parseval_sum,
    spectral_l2,
)
from rotconv.meanstate import heat_flux, mean_gradient, profile_l2
from rotconv.velocity import solve_velocity, velocity_symbols
from rotconv.invariants import (
    InvariantReport,
    _magnitude,
    budget_residual_series,
    compute_report,
    dual_norm,
    embedding_ratios,
    gronwall_envelopes,
    integrated_budget_residual,
)

from conftest import random_band_limited


def test_dual_norm_single_modes(grid32):
    X, _, _ = grid32.meshgrid()
    F1 = forward_transform(PhysicalField(grid32, np.sin(X)))
    assert abs(dual_norm(F1) - spectral_l2(F1)) < 1e-12
    F2 = forward_transform(PhysicalField(grid32, np.sin(2 * X)))
    assert abs(dual_norm(F2) - spectral_l2(F2) / 2.0) < 1e-12


def test_dual_norm_zero_and_rejection(grid16):
    zero = SpectralField(grid16, np.zeros(grid16.spectral_shape, dtype=complex))
    assert dual_norm(zero) == 0.0
    _, _, Z = grid16.meshgrid()
    with pytest.raises(ValueError):
        dual_norm(forward_transform(PhysicalField(grid16, np.cos(Z))))


def test_dual_norm_below_l2(grid16):
    for seed in range(5):
        F = random_band_limited(grid16, seed)
        assert dual_norm(F) <= spectral_l2(F) * (1.0 + 1e-12)


def test_embedding_ratio_closed_forms(grid32):
    X, _, Z = grid32.meshgrid()
    Fxz = forward_transform(PhysicalField(grid32, np.sin(X) * np.cos(Z)))
    assert abs(embedding_ratios(Fxz)["ratio_429w"] - 0.5) < 1e-12
    Fx = forward_transform(PhysicalField(grid32, np.sin(X)))
    assert abs(embedding_ratios(Fx)["ratio_429w"] - 1.0) < 1e-12


def test_embedding_ratios_scale_invariant(grid16):
    F = random_band_limited(grid16, 6)
    r1 = embedding_ratios(F)
    r2 = embedding_ratios(SpectralField(grid16, 2.0 * F.coeffs))
    for key in r1:
        assert abs(r1[key] - r2[key]) < 1e-12 * max(r1[key], 1.0)


def test_embedding_ratios_reject_zero(grid16):
    with pytest.raises(ValueError):
        embedding_ratios(SpectralField(grid16, np.zeros(grid16.spectral_shape, dtype=complex)))


def test_report_finite_and_holder_sanity(grid32):
    vol16 = DOMAIN_VOLUME ** (1.0 / 6.0)
    for seed in range(5):
        theta = random_band_limited(grid32, seed)
        rep = compute_report(SimState(0.0, theta), 0.1)
        for value in (rep.l2, rep.l3, rep.l6, rep.grad_l3, rep.dual,
                      rep.mean_grad_l2, rep.diss_h, rep.diss_z):
            assert np.isfinite(value) and value >= 0.0
        assert rep.l3 <= vol16 * rep.l6 * (1.0 + 1e-12)
        assert rep.l2 <= vol16 * rep.l3 * (1.0 + 1e-12)


def _report_field_by_field(state, epsilon):
    """compute_report spelled out one public call per field."""
    theta = state.theta
    grid = theta.grid
    d = solve_velocity(theta)
    dx = derivative_symbol(grid, 0)
    dy = derivative_symbol(grid, 1)
    theta_p = inverse_transform(theta)
    u_p, v_p, w_p = (inverse_transform(f).values for f in (d.u, d.v, d.w))
    dxu, dxv, dxw, gx, gy = (
        inverse_transform(apply_symbol(f, sym)).values
        for f, sym in ((d.u, dx), (d.v, dx), (d.w, dx), (theta, dx), (theta, dy))
    )
    dtz = mean_gradient(heat_flux(theta_p, inverse_transform(d.w)))
    kx, ky, _ = grid.wavenumbers()
    grad2 = parseval_sum(grid, (kx**2 + ky**2).astype(float) * np.abs(theta.coeffs) ** 2)
    dV = grid.cell_volume
    l2 = spectral_l2(theta)
    l3 = lp_norm(theta_p, 3.0)
    l6 = lp_norm(theta_p, 6.0)

    def slice_max(f, p):
        w2 = TWO_PI**2 / (grid.nx * grid.ny)
        return float(np.max((np.sum(np.abs(f) ** p, axis=(0, 1)) * w2) ** (1.0 / p)))

    ratios = {
        "ratio_417": slice_max(w_p, 3.0) / l2,
        "ratio_426": slice_max(w_p, 6.0) / l3,
        "ratio_429u": float((np.sum(np.sqrt(u_p**2 + v_p**2) ** 6) * dV) ** (1 / 6)) / l6,
        "ratio_429w": float((np.sum(np.abs(w_p) ** 6) * dV) ** (1 / 6)) / l6,
        "ratio_56": float(np.max(np.sqrt(dxu**2 + dxv**2))) / l6,
        "ratio_58": (float(np.max(np.abs(dxw))) + float(np.max(np.abs(w_p)))) / l6,
    }
    return InvariantReport(
        t=state.t, l2=l2, l3=l3, l6=l6,
        grad_l3=float((np.sum(np.sqrt(gx**2 + gy**2) ** 3) * dV) ** (1.0 / 3.0)),
        dual=dual_norm(theta), mean_grad_l2=profile_l2(dtz),
        diss_h=float(epsilon**2 * grad2),
        diss_z=float(4.0 * np.pi**2 * np.sum(dtz**2) * TWO_PI / dtz.size),
        ratios=ratios,
    )


@pytest.mark.parametrize("n", [16, 32])
def test_report_equals_field_by_field_path(n):
    from rotconv.grid import Grid

    grid = Grid(n, n, n)
    for seed in range(3):
        state = SimState(0.25, random_band_limited(grid, seed))
        assert compute_report(state, 0.1) == _report_field_by_field(state, 0.1)
        assert embedding_ratios(state.theta) == _report_field_by_field(state, 0.1).ratios


def test_report_transforms_each_field_once(grid16, to_physical_calls):
    # theta', u, v, w, d_x (u, v, w, theta') and d_y theta', however batched
    state = SimState(0.0, random_band_limited(grid16, 4))
    to_physical_calls.clear()
    compute_report(state, 0.1)
    fields = [f for c in to_physical_calls for f in c.reshape(-1, *grid16.spectral_shape)]
    assert len(fields) == 9
    assert not any(np.array_equal(a, b) for a, b in combinations(fields, 2))


def test_report_memory_budget(grid32):
    # the nine fields are transformed one at a time and reduced in groups
    # of at most two; all nine at once took 17.6 half-spectrum fields.  Each
    # real field stays in the half spectrum it was transformed from.
    # `_magnitude` squares its first field and drops it before it forms the
    # second: the square, the second spectrum and its square, 2.88 fields
    # (3.88 with both fields alive under `sqrt(a**2 + b**2)`).  The report
    # peaks at theta' and w alive with one `lp_norm` power array: 2.96 (3.89
    # with two fields per transform call)
    state = SimState(0.0, random_band_limited(grid32, 4))
    mu, mv, _ = velocity_symbols(grid32)
    dx = derivative_symbol(grid32, 0)

    def peak(fn):
        fn()  # fills the caches and the FFT plans
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    field = state.theta.coeffs.nbytes
    assert peak(lambda: _magnitude(state.theta, (mu, dx), (mv, dx))) <= 2.95 * field
    assert peak(lambda: compute_report(state, 0.1)) <= 3.0 * field


def test_budget_series_steady_run(grid32):
    init = InitialSpec(kind="analytic-single-mode", mode=(1, 0, 0), amplitude=1.0)
    config = SimConfig(grid=grid32, epsilon=0.0, dt=0.02, t_end=0.2,
                       integrator="rk4", initial=init)
    traj = run(config)
    t = np.array([r.t for r in traj.reports])
    l2 = np.array([r.l2 for r in traj.reports])
    diss = np.array([r.diss_h + r.diss_z for r in traj.reports])
    res = budget_residual_series(t, l2, diss)
    assert np.nanmax(np.abs(res)) < 1e-12
    assert integrated_budget_residual(t, l2, diss) < 1e-12


def test_budget_series_is_exact_to_round_off():
    # l2 changes in its ninth digit: differencing the rounded squares
    # E = l2^2/2 would lose about 1e-7 of each energy change
    times = np.array([0.0, 0.1, 0.2, 0.30000000000000004, 0.4])
    l2 = 7.95 + np.array([0.0, 3e-9, 5e-9, 6e-9, 6.5e-9])
    diss = np.array([1e-8, 2e-8, 1.5e-8, 1e-8, 5e-9])
    res = budget_residual_series(times, l2, diss)
    assert np.isnan(res[0]) and np.isnan(res[-1])
    for i in range(1, 4):
        a, b = Fraction(l2[i + 1]), Fraction(l2[i - 1])
        dt = Fraction(times[i + 1]) - Fraction(times[i - 1])
        exact = (a * a - b * b) / 2 / dt + Fraction(diss[i])
        assert abs(Fraction(res[i]) - exact) <= 1e-14 * abs(exact)


def test_envelopes_steady_run_pass(grid32):
    init = InitialSpec(kind="analytic-single-mode", mode=(1, 0, 0), amplitude=1.0)
    config = SimConfig(grid=grid32, epsilon=0.0, dt=0.02, t_end=0.2,
                       integrator="rk4", initial=init)
    env = gronwall_envelopes(run(config).reports)
    assert np.all(env.pass_l3)
    assert np.all(env.pass_l6)
    assert np.all(env.pass_grad)


def test_envelopes_pure_diffusion_decay(grid32):
    init = InitialSpec(kind="analytic-single-mode", mode=(1, 0, 0), amplitude=1.0)
    config = SimConfig(grid=grid32, epsilon=0.5, dt=0.02, t_end=0.5,
                       integrator="if-rk4", initial=init)
    traj = run(config)
    l2 = [r.l2 for r in traj.reports]
    assert l2[-1] < l2[0]  # strict decay under diffusion
    env = gronwall_envelopes(traj.reports)
    assert np.all(env.pass_l3) and np.all(env.pass_l6) and np.all(env.pass_grad)


def _fake_report(t, l3):
    return InvariantReport(t=t, l2=1.0, l3=l3, l6=1.0, grad_l3=1.0, dual=1.0,
                           mean_grad_l2=0.0, diss_h=0.0, diss_z=0.0,
                           ratios={"ratio_417": 1.0, "ratio_426": 1.0,
                                   "ratio_56": 1.0, "ratio_58": 1.0})


def test_envelope_negative_control():
    reports = [_fake_report(0.0, 1.0), _fake_report(0.5, 1.1)]
    env = gronwall_envelopes(reports, slack=0.0)
    assert bool(env.pass_l3[0])
    assert not bool(env.pass_l3[1])  # any growth fails with zero slack
    with pytest.raises(ValueError):
        gronwall_envelopes([])
