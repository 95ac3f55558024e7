"""Records: which compare by value and which by identity.

A record of plain values compares and hashes by its fields. A record that
holds arrays compares and hashes by identity, as any object does, so that
``==``, ``in``, ``list.index``, sets and dict keys work on it instead of
raising on an elementwise array comparison or an unhashable array.
"""

from __future__ import annotations

import dataclasses
import inspect
import pkgutil
from importlib import import_module

import termspread
from termspread.experiment import fits
from termspread.logit import ClassWeights

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
        "Standardizer": art.path.standardizer,
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
