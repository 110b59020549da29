"""Estimate sample mean and SD from non-parametric study summaries."""

from .estimators import (
    CorrectionOrder,
    MomentEstimate,
    Scenario,
    StudySummary,
    delta_hat,
    epsilon_hat,
    estimate_columns,
    estimate_mean,
    estimate_moments,
    estimate_sd,
    eta_hat,
    required_sample_size,
    xi_hat,
)
from .tables import eta_table, xi_table

__all__ = [
    "CorrectionOrder",
    "MomentEstimate",
    "Scenario",
    "StudySummary",
    "delta_hat",
    "epsilon_hat",
    "estimate_columns",
    "estimate_mean",
    "estimate_moments",
    "estimate_sd",
    "eta_hat",
    "eta_table",
    "required_sample_size",
    "xi_hat",
    "xi_table",
]

__version__ = "0.1.0"
