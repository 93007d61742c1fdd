"""Rolling correlation-matrix spectra for multivariate return panels.

Workflow: load a weekly price panel, roll standardized return windows
through it, decompose each window's correlation matrix, and compare the
spectra and eigenvector diagnostics against Monte Carlo null baselines.
"""

from .analytics import (
    analyze_window,
    asset_component_correlations,
    kaiser_guttman_count,
    max_correlation_rank,
    participation,
    scree_exceedance_count,
    scree_significant_count,
    self_correlation_deltas,
    variance_fractions,
)
from .correlation import (
    CoefficientMoments,
    coefficient_moments,
    correlation_matrix,
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
    shuffle_panel,
    sim_rng,
)
from .panel import (
    ASSET_CLASSES,
    AssetMeta,
    PricePanel,
    ReturnPanel,
    WindowView,
    compute_log_returns,
    load_price_panel,
    roll_windows,
    standardize_window,
    subset_by_class,
)
from .pipeline import (
    RunConfig,
    WindowReport,
    run_analysis,
    write_reports,
)
from .spectral import (
    MPBounds,
    SpectralDecomposition,
    eigendecompose,
    eigenvector_zscores,
    mp_bounds,
    mp_density,
)

__version__ = "0.1.0"

__all__ = [
    "ASSET_CLASSES",
    "AssetMeta",
    "BaselineMismatchError",
    "CoefficientMoments",
    "DegenerateWindowError",
    "EigenComputationError",
    "MPBounds",
    "NullConfig",
    "NullEnsembleStats",
    "PanelFormatError",
    "PricePanel",
    "ReturnPanel",
    "RunConfig",
    "SpectralDecomposition",
    "WindowReport",
    "WindowView",
    "WorkerProcessError",
    "analyze_window",
    "asset_component_correlations",
    "cached_ensemble_stats",
    "coefficient_moments",
    "compute_log_returns",
    "correlation_matrix",
    "eigendecompose",
    "eigenvector_zscores",
    "kaiser_guttman_count",
    "load_price_panel",
    "max_correlation_rank",
    "mp_bounds",
    "mp_density",
    "null_ensemble_stats",
    "null_window",
    "participation",
    "roll_windows",
    "run_analysis",
    "scree_exceedance_count",
    "scree_significant_count",
    "self_correlation_deltas",
    "shuffle_panel",
    "sim_rng",
    "standardize_window",
    "subset_by_class",
    "variance_fractions",
    "write_reports",
]
