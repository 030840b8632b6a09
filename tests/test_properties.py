"""Property tests of the half-spectrum core on random 2/3-truncated fields.

Each example is a seeded real random field on N = 16, dealiased by the 2/3
rule and with its horizontal-mean sector removed.  Parseval is also checked
on the raw field, whose kz = nz/2 plane is not empty, so a wrong Parseval
weight on either self-conjugate plane fails a test.
"""

import numpy as np
from hypothesis import given, strategies as st

from rotconv.evolution import SimState, tendency
from rotconv.grid import (
    Grid,
    PhysicalField,
    dealias,
    forward_transform,
    inverse_transform,
    lp_norm,
    parseval_sum,
    project_zero_horizontal_mean,
    spectral_l2,
)
from rotconv.invariants import compute_report

GRID = Grid(16, 16, 16)

seeds = st.integers(min_value=0, max_value=2**32 - 1)
# the dissipation scales as amplitude^4 and the round-off of the advective
# terms as amplitude^3, so the relative check needs amplitudes of order one
amplitudes = st.floats(min_value=0.1, max_value=10.0)


def random_field(seed, amplitude):
    rng = np.random.default_rng(seed)
    return forward_transform(PhysicalField(GRID, amplitude * rng.standard_normal(GRID.shape)))


def truncated_field(seed, amplitude):
    return project_zero_horizontal_mean(dealias(random_field(seed, amplitude)))


@given(seed=seeds, amplitude=amplitudes, eps=st.sampled_from([0.0, 0.2]))
def test_semi_discrete_energy_identity(seed, amplitude, eps):
    # (2pi)^3 Re<theta, T(theta)> = -(diss_h + diss_z): the advective term
    # conserves the L2 norm exactly, since the cubic products of 2/3-truncated
    # fields stay below the grid's aliasing limit
    theta = truncated_field(seed, amplitude)
    rate = parseval_sum(GRID, (np.conj(theta.coeffs) * tendency(theta, eps).coeffs).real)
    report = compute_report(SimState(0.0, theta), eps)
    dissipation = report.diss_h + report.diss_z
    assert abs(rate + dissipation) <= 1e-11 * dissipation


@given(seed=seeds, amplitude=amplitudes, truncate=st.booleans())
def test_weighted_parseval(seed, amplitude, truncate):
    theta = (truncated_field if truncate else random_field)(seed, amplitude)
    quadrature = lp_norm(inverse_transform(theta), 2.0) ** 2
    assert abs(spectral_l2(theta) ** 2 - quadrature) <= 1e-12 * quadrature


@given(seed=seeds, amplitude=amplitudes)
def test_transform_round_trip(seed, amplitude):
    theta = truncated_field(seed, amplitude)
    values = inverse_transform(theta)
    back = forward_transform(values).coeffs
    assert np.max(np.abs(back - theta.coeffs)) <= 1e-13 * np.max(np.abs(theta.coeffs))
    again = inverse_transform(forward_transform(values)).values
    assert np.max(np.abs(again - values.values)) <= 1e-13 * np.max(np.abs(values.values))
