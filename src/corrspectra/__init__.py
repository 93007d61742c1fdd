"""Rolling correlation-matrix spectra for multivariate return panels.

Workflow: load a weekly price panel, roll standardized return windows
through it, decompose each window's correlation matrix, and compare the
spectra and eigenvector diagnostics against Monte Carlo null baselines.
"""

from .analytics import (
    adjusted_component_correlations,
    analyze_window,
    coefficient_moments,
    correlation_matrix,
    eigendecompose,
    kaiser_guttman_count,
    mp_bounds,
    mp_density,
    participation,
    scree_exceedance_count,
    scree_significant_count,
    variance_fractions,
)
from .errors import (
    BaselineMismatchError,
    DegenerateWindowError,
    EigenComputationError,
    PanelFormatError,
    WorkerProcessError,
)
from .nulls import (
    NullConfig,
    NullEnsembleStats,
    cached_ensemble_stats,
    null_ensemble_stats,
    null_window,
    sim_rng,
)
from .panel import (
    ASSET_CLASSES,
    Panel,
    compute_log_returns,
    load_price_panel,
    standardize_window,
    subset_by_class,
    window_count,
)
from .pipeline import RunConfig, write_reports

__version__ = "0.1.0"

__all__ = [
    "ASSET_CLASSES",
    "BaselineMismatchError",
    "DegenerateWindowError",
    "EigenComputationError",
    "NullConfig",
    "NullEnsembleStats",
    "Panel",
    "PanelFormatError",
    "RunConfig",
    "WorkerProcessError",
    "adjusted_component_correlations",
    "analyze_window",
    "cached_ensemble_stats",
    "coefficient_moments",
    "compute_log_returns",
    "correlation_matrix",
    "eigendecompose",
    "kaiser_guttman_count",
    "load_price_panel",
    "mp_bounds",
    "mp_density",
    "null_ensemble_stats",
    "null_window",
    "participation",
    "scree_exceedance_count",
    "scree_significant_count",
    "sim_rng",
    "standardize_window",
    "subset_by_class",
    "variance_fractions",
    "window_count",
    "write_reports",
]
