"""Yield-spread recession forecasting with L1-path maturity-pair selection."""

from .data import (
    AlignedDataset,
    MaturityLabel,
    Month,
    RecessionSeries,
    SplitConfig,
    YieldPanel,
    align_dataset,
    discount_to_bond_equivalent,
    load_recession_series,
    load_yield_panel,
    monthly_average,
    split_views,
    write_yield_panel,
)
from .evaluation import (
    EvalReport,
    auc,
    avg_log_likelihood,
    ebf,
    exceeds_jeffreys,
    model_avg_weight,
    relative_mse,
    roc_curve,
)
from .experiment import (
    ExperimentConfig,
    ExperimentResult,
    emit_all,
    emit_tables,
    run_experiment,
)
from .logit import (
    ClassWeights,
    LogitFit,
    LogitProblem,
    Standardizer,
    destandardize,
    fit_l1,
    fit_mle,
    kkt_residual,
    nll_gradient,
    predict_proba,
    weighted_nll,
)
from .models import (
    FittedModel,
    ForecastSeries,
    ModelKind,
    ModelSpec,
    fit_spec,
    forecast_series,
)
from .selection import (
    CoefficientPath,
    LambdaGrid,
    SelectionResult,
    select_pair,
    sweep_path,
)

__version__ = "0.1.0"
