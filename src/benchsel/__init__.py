"""Benchmark subset selection and Gaussian score imputation.

Selects small, maximally informative benchmark subsets from a
model-by-benchmark score matrix via greedy submodular maximization
(entropy / mutual information) under a multivariate Gaussian model,
imputes unobserved scores via Gaussian conditional expectations, and
provides cross-validation and normality diagnostics.
"""

from benchsel.errors import DataError, NumericalError
from benchsel.score_matrix import (
    ColumnStats,
    LogitParams,
    ScoreMatrix,
    column_stats,
    load_csv,
    logit_params,
    logit_transform,
    standardize,
    write_csv,
)
from benchsel.covariance import (
    EmConfig,
    FittedModel,
    GaussianModel,
    em_fit,
    estimate_full,
    fit_model,
    mean_missing,
    pairwise_cov,
    psd_project,
    to_correlation,
)
from benchsel.selection import (
    CostModel,
    SelectionResult,
    SpectrumReport,
    budgeted_entropy,
    entropy_value,
    greedy_entropy,
    greedy_mi,
    lazy_greedy_entropy,
    mi_value,
    path_metrics,
    random_select,
    residual_trace,
    spectrum,
)
from benchsel.imputation import (
    ImputationResult,
    clip_standardized,
    impute_prefixes,
    impute_row,
    impute_rows,
    r2_standardized,
)
from benchsel.evaluation import CvConfig, CvReport, run_cv
from benchsel.diagnostics import (
    NormalityReport,
    benjamini_hochberg,
    mardia,
    normality_report,
    shapiro_wilk,
)

__version__ = "0.1.0"
