"""Posterior-calibrated replicate weights and tiered interval inference."""

__version__ = "0.1.0"

from .calibration import (
    CalibratedWeights,
    GramMatrix,
    calibrate,
    compute_gram,
    ht_totals,
    replicate_direction,
)
from .errors import (
    ConfigError,
    DataError,
    LinkSelectionError,
    NumericalError,
    PostcalError,
    RankDeficiencyError,
)
from .frame import (
    CalibrationSpec,
    CellData,
    CellFilter,
    CellQuery,
    SampleSet,
    StratumSpec,
    TierLabel,
    block_sums,
    evaluate_cell,
)
from .hb import (
    BinaryHBInput,
    ConvergenceReport,
    GaussianFHInput,
    HBPrior,
    McmcConfig,
    PosteriorDraws,
    StratumDraws,
    compute_psi,
    draws_to_domain_totals,
    fit_binary_hb,
    fit_gaussian_fh,
    gelman_rubin,
)
from .replicate import (
    CredibleInterval,
    ReplicateTotals,
    classify_cell,
    empirical_quantile_ci,
    replicate_totals,
)
from .report import InferenceArtifacts, RunReport, analyze_cell, build_artifacts, build_run_report
from .variance import (
    CbiInterval,
    CellDiagnostics,
    RatioLink,
    VarianceComponents,
    cbi,
    cell_diagnostics,
    select_linking_variable,
    variance_components,
)
