"""Pseudo-spectral simulator and verification suite for the rapidly rotating
convection model without thermal diffusion and its diffusive regularization."""

__version__ = "0.1.0"

from .grid import (
    Grid,
    PhysicalField,
    SpectralField,
    apply_symbol,
    dealias,
    forward_transform,
    inverse_transform,
    lp_norm,
    pad_to_grid,
    spectral_l2,
)
from .velocity import (
    CATALOG,
    MultiplierSpec,
    VelocityDiagnostics,
    empirical_lp_ratio,
    hypothesis_check,
    lattice_sup,
    multiplier_value,
    residual_check,
    solve_velocity,
)
from .meanstate import MeanProfile, heat_flux, mean_gradient, mean_profile, reconstruct_mean
from .evolution import (
    BlowUpError,
    InitialSpec,
    SimConfig,
    SimState,
    build_initial,
    cfl_dt,
    run,
    step,
    tendency,
)
from .invariants import (
    InvariantReport,
    dual_norm,
    embedding_ratios,
    gronwall_envelopes,
)
from .experiments import SweepResult, sweep_epsilon, sweep_resolution, twin_run
