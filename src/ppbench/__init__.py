"""Plotting positions, probability-paper fitting, and benchmark indices."""

__version__ = "0.1.0"

from .distributions import (
    FAMILIES,
    GUMBEL,
    LOGNORMAL3,
    NORMAL,
    DegenerateSampleError,
    DistributionSpec,
    DomainError,
    canonical_family,
    cdf,
    paper_family,
    quantile,
    quantile_derivative,
    reduced,
    reduced_cdf,
    reduced_quantile,
    reduced_return_quantile,
    return_level,
    sample,
)
from .order_stats import (
    COV_MODES,
    DIAGONAL,
    EXACT,
    EXPANSION,
    IDENTITY,
    OrderStatMoments,
    QuadratureError,
    build_moments,
    ensure_spd,
    exact_cov,
    exact_mean,
    expansion_cov,
    expansion_mean,
)
from .positions import (
    ALL_IDS,
    CLASSICAL_IDS,
    EUPP_ID,
    PositionFormula,
    canonical_formula_id,
    classical_positions,
    make_formula,
    positions_for,
    proposed_positions,
)
from .estimation import (
    GLS,
    MLE,
    OLS,
    FitResult,
    NonConvergenceError,
    QuantileEstimate,
    exceedance_probability,
    fit_gls,
    fit_mle,
    fit_ols,
    mle_batch,
    ols_batch,
    predict_quantile,
)
from .benchmark import (
    DEFAULT_REPLICATES,
    DEFAULT_SEED,
    BenchmarkReport,
    BenchmarkRow,
    ExperimentConfig,
    default_f_grid,
    dse,
    replicate_key,
    run_suite,
)
from .gof import (
    CRITICAL_2_5PCT,
    CRITICAL_5PCT,
    FAIL,
    PASS_2_5PCT,
    PASS_5PCT,
    MadResult,
    mad_case3,
    mad_known_params,
)
from .casestudy import (
    CaseStudyReport,
    DataCorruptionError,
    MagnitudeRecord,
    MonthAnalysis,
    MonthReport,
    ThresholdError,
    analyze_month,
    load_dataset,
    month_plot_spec,
    run_case_study,
)
from .svgplot import PlotSpec, emit_probability_paper

__all__ = [name for name in dir() if not name.startswith("_")]
