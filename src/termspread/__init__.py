"""Yield-spread recession forecasting with L1-path maturity-pair selection."""

from .data import (
    Month,
    SplitConfig,
    align_dataset,
    load_recession_series,
    load_yield_panel,
    split_views,
)
from .evaluation import auc, avg_log_likelihood, ebf
from .experiment import ExperimentConfig, ExperimentResult, emit_all, run_experiment
from .logit import ClassWeights
from .models import ModelSpec, fit_spec, forecast_series
from .selection import select_pair, sweep_path

__version__ = "0.1.0"
