"""Records: which compare by value and which by identity.

A record of plain values compares and hashes by its fields. A record that
holds arrays compares and hashes by identity, as any object does, so that
``==``, ``in``, ``list.index``, sets and dict keys work on it instead of
raising on an elementwise array comparison or an unhashable array.
"""

from __future__ import annotations

import dataclasses
import datetime as dt
import inspect
import pkgutil
import re
from importlib import import_module

import numpy as np
import pytest

import termspread
from termspread.data import (
    AlignedDataset,
    Month,
    RecessionSeries,
    SplitConfig,
    YieldPanel,
    align_dataset,
    load_yield_panel,
    monthly_average,
)
from termspread.errors import EmptyInput, MalformedRow, MissingSeries
from termspread.experiment import fits
from termspread.logit import ClassWeights, LogitFit, LogitProblem

VALUE_RECORDS = {
    "Month", "SplitConfig", "ModelSpec", "ClassWeights", "EvalReport", "ExperimentConfig",
}


def package_records() -> dict[str, type]:
    """Every dataclass defined in a ``termspread`` module, by name."""
    names = [m.name for m in pkgutil.iter_modules(termspread.__path__)]
    modules = [import_module(f"termspread.{name}") for name in names]
    return {
        name: cls
        for module in modules
        for name, cls in inspect.getmembers(module, dataclasses.is_dataclass)
        if inspect.isclass(cls) and cls.__module__ == module.__name__
    }


def test_array_records_compare_by_identity_and_value_records_by_value(market, seed42_runs):
    result = seed42_runs["weighted_lead"]
    art = result.artifacts[12]
    panel, recessions = market
    instances = {
        "YieldPanel": panel,
        "RecessionSeries": recessions,
        "AlignedDataset": art.dataset,
        "LogitProblem": art.path.problem,
        "LogitFit": art.selection.fit,
        "CoefficientPath": art.path,
        "SelectionResult": art.selection,
        "FittedModel": art.models["A"],
        "ForecastSeries": art.forecasts["A"],
        "HorizonArtifacts": art,
        "ExperimentResult": result,
        "Month": result.config.split.train_end,
        "SplitConfig": result.config.split,
        "ModelSpec": art.models["A"].spec,
        "ClassWeights": ClassWeights.from_targets(art.dataset.targets[: art.dataset.split_index]),
        "EvalReport": art.reports["A"],
        "ExperimentConfig": result.config,
    }
    records = package_records()
    assert set(records) == set(instances)
    for name, cls in records.items():
        x = instances[name]
        assert type(x) is cls
        y = dataclasses.replace(x)  # a second instance with equal fields
        assert y is not x
        if name in VALUE_RECORDS:
            assert x == y and hash(x) == hash(y), name
        else:
            assert x == x and x != y, name
            hash(x)
            assert [y, x].index(x) == 1, name
            assert len({x, y}) == 2, name


def test_panel_a_fit_is_walked_once_per_horizon(seed42_runs):
    for result in seed42_runs.values():
        walked = [f for _, _, _, f in fits(result)]
        for art in result.artifacts.values():
            assert walked.count(art.selection.fit) == 1
            assert (art.selection.fit in art.path.fits) == (not art.selection.trials)


DATES = tuple(Month(2000, 1) + i for i in range(3))
X3 = np.array([[1.0], [2.0], [4.0]])
Y3 = np.array([0.0, 1.0, 0.0])
SPLIT = SplitConfig(Month(2000, 2), Month(2000, 1), Month(2000, 3))
DAYS = [dt.date(2000, 1, 3), dt.date(2000, 1, 4)]


def panel(**columns):
    return YieldPanel(DATES, {"10y": np.ones(3), **columns})


REFUSALS = {  # a call that must be refused, its error class and its whole message
    "panel-series-shape": (lambda: panel(x=np.ones(2)), ValueError,
                           "series 'x' has shape (2,)"),
    "panel-non-finite": (lambda: panel(x=[1.0, np.nan, 2.0]), MalformedRow,
                         "series 'x' contains non-finite cells"),
    "panel-unknown-series": (lambda: panel().series("3m"), MissingSeries,
                             "no series named '3m' in panel"),
    "recession-length": (lambda: RecessionSeries(DATES, [0, 1]), ValueError,
                         "indicator length does not match dates"),
    "recession-not-binary": (lambda: RecessionSeries(DATES, [0, 2, 1]), MalformedRow,
                             "recession indicator must be 0 or 1"),
    "dataset-feature-shape": (lambda: AlignedDataset(DATES, X3[:2], Y3, 1, ("10y",)),
                              ValueError, "features shape (2, 1) inconsistent with dataset"),
    "dataset-not-binary": (lambda: AlignedDataset(DATES, X3, [0, 0.5, 1], 1, ("10y",)),
                           ValueError, "targets must be a binary vector, one entry per row"),
    "load-no-paths": (lambda: load_yield_panel([], ["3m"]), EmptyInput, "no input files"),
    "load-no-maturities": (lambda: load_yield_panel(["absent.csv"], []), MissingSeries,
                           "no maturities requested"),
    "align-horizon-0": (lambda: align_dataset(panel(), RecessionSeries(DATES, Y3), 0, SPLIT,
                                              ["10y"]),
                        ValueError, "horizon_months must be >= 1"),
    "problem-targets-length": (lambda: LogitProblem(X3, Y3[:2]), ValueError,
                               "targets length does not match features"),
    "problem-not-binary": (lambda: LogitProblem(X3, [0, 0.5, 1]), ValueError,
                           "targets must be binary"),
    "problem-mask-length": (lambda: LogitProblem(X3, Y3, penalty_mask=[True, False]),
                            ValueError, "penalty_mask length does not match feature count"),
    "problem-scale-length": (lambda: LogitProblem(X3, Y3, means=[0.0, 1.0]), ValueError,
                             "means and stds must hold one value per feature"),
    "problem-mean-nan": (lambda: LogitProblem(X3, Y3, means=[np.nan]), ValueError,
                         "means must be finite and stds strictly positive and finite"),
    "problem-std-zero": (lambda: LogitProblem(X3, Y3, stds=[0.0]), ValueError,
                         "means must be finite and stds strictly positive and finite"),
    "problem-std-inf": (lambda: LogitProblem(X3, Y3, stds=[np.inf]), ValueError,
                        "means must be finite and stds strictly positive and finite"),
    "original-coefficient-count": (
        lambda: LogitProblem(X3, Y3).original(LogitFit(0.0, np.zeros(2), 0.0, 0, 0, 0.0)),
        ValueError, "problem feature count does not match coefficients"),
    "average-length": (lambda: monthly_average(DAYS, [1.0]), ValueError,
                       "dates and values differ in length"),
    "average-non-finite": (lambda: monthly_average(DAYS, [1.0, np.inf]), MalformedRow,
                           "non-finite observation on 2000-01-04"),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_records_and_loaders_refuse_bad_input(case):
    call, error, message = REFUSALS[case]
    with pytest.raises(error, match=f"^{re.escape(message)}$") as caught:
        call()
    assert type(caught.value) is error
