"""Horizontal-mean temperature closure.

The mean temperature gradient is slaved to the horizontally averaged vertical
heat flux: differentiating the closure and integrating once in z gives

    dtheta_bar/dz(z) = flux(z) - (1/2pi) * integral of flux over [0, 2pi],

where the subtracted constant enforces periodicity of theta_bar.  theta_bar
itself, reported only, is `grid`'s spectral z antiderivative (zero-mean gauge).
`heat_flux` forms the flux of physical fields (the report, the CLI profiles);
the tendency and the sweeps take it on the half box (`grid.horizontal_mean`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import TWO_PI, PhysicalField, _z_antiderivative


@dataclass(frozen=True)
class MeanProfile:
    """z-profiles of the heat flux, mean gradient and mean temperature."""

    grid_z: np.ndarray
    flux: np.ndarray
    dtheta_dz: np.ndarray
    theta_bar: np.ndarray


def heat_flux(theta: PhysicalField, w: PhysicalField) -> np.ndarray:
    """Horizontal average of theta' * w at each collocation level z."""
    if theta.grid != w.grid:
        raise ValueError("heat flux requires matching grids")
    return np.mean(theta.values * w.values, axis=(0, 1))


def mean_gradient(flux: np.ndarray) -> np.ndarray:
    """Mean temperature gradient: the flux with its z-average removed."""
    flux = np.asarray(flux, dtype=np.float64)
    return flux - np.mean(flux)


def reconstruct_mean(dtheta_dz: np.ndarray) -> np.ndarray:
    """Spectral antiderivative in z with zero-mean gauge."""
    g = np.asarray(dtheta_dz, dtype=np.float64)
    if abs(np.mean(g)) * TWO_PI > 1e-10 * max(np.max(np.abs(g)), 1.0):
        raise ValueError("mean gradient must integrate to zero over a period")
    return _z_antiderivative(g)


def mean_profile(theta: PhysicalField, w: PhysicalField) -> MeanProfile:
    """Full closure: flux, gradient and reconstructed mean temperature."""
    flux = heat_flux(theta, w)
    dtz = mean_gradient(flux)
    return MeanProfile(theta.grid.axes()[2], flux, dtz, reconstruct_mean(dtz))


def profile_l2(profile: np.ndarray) -> float:
    """L^2(0, 2pi) norm of a z-profile by collocation quadrature."""
    profile = np.asarray(profile, dtype=np.float64)
    return float(np.sqrt(np.sum(profile**2) * TWO_PI / profile.size))
