"""Shared fixtures: a synthetic yield market and its on-disk CSV form.

The synthetic market mimics the real data's shape: 710 months of nine
correlated maturities driven by level/slope/curvature factors, recessions
drawn from a logistic rule on a lagged long-short spread (so the data is
informative but never separable), and a leading-indicator control column.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from termspread.data import Month, RecessionSeries, SplitConfig, YieldPanel
from termspread.experiment import ExperimentConfig, ExperimentResult, run_experiment

MATURITY_CODES = ("3m", "6m", "1y", "2y", "3y", "5y", "7y", "10y", "20y")
TENOR_YEARS = np.array([3, 6, 12, 24, 36, 60, 84, 120, 240]) / 12.0


def make_market(
    seed: int = 42, n_months: int = 710, start: Month = Month(1961, 6)
) -> tuple[YieldPanel, RecessionSeries]:
    rng = np.random.default_rng(seed)
    level = 6.0 + np.cumsum(rng.normal(0.0, 0.25, n_months))
    slope = np.cumsum(rng.normal(0.0, 0.12, n_months))
    curve = np.cumsum(rng.normal(0.0, 0.05, n_months))
    loadings_s = -np.exp(-TENOR_YEARS / 2.0)
    loadings_c = TENOR_YEARS * np.exp(-TENOR_YEARS / 2.0)
    X = (
        level[:, None]
        + slope[:, None] * loadings_s
        + curve[:, None] * loadings_c
        + rng.normal(0.0, 0.03, (n_months, len(TENOR_YEARS)))
    )
    X = np.round(X - X.min() + 0.5, 6)  # positive yields, 6-decimal cells

    # recessions: logistic draw on the 7y-3m spread 12 months earlier
    spread = X[:, 6] - X[:, 0]
    z = 1.6 * (spread - np.quantile(spread, 0.15))
    p_rec = 1.0 / (1.0 + np.exp(2.2 * z + 1.2))
    lead = 12
    indicator = np.zeros(n_months + 24)
    draws = rng.random(n_months)
    for t in range(n_months):
        indicator[t + lead] = float(draws[t] < p_rec[t])

    # a noisy leading-indicator control, high when recession risk is low
    control = np.round(z + rng.normal(0.0, 0.8, n_months), 6)

    dates = tuple(start + i for i in range(n_months))
    panel = YieldPanel(
        dates=dates, columns={**dict(zip(MATURITY_CODES, X.T)), "lead_idx": control}
    )
    recessions = RecessionSeries(
        dates=tuple(start + i for i in range(n_months + 24)), indicator=indicator
    )
    return panel, recessions


@pytest.fixture(scope="session")
def market() -> tuple[YieldPanel, RecessionSeries]:
    return make_market()


@pytest.fixture(scope="session")
def split95() -> SplitConfig:
    return SplitConfig(
        train_end=Month(1995, 12),
        sample_start=Month(1961, 6),
        sample_end=Month(2020, 7),
    )


def _format_cell(v: float) -> str:
    # %.6f keeps <=6-fractional-digit decimals bit-exact through a round trip
    s = f"{v:.6f}".rstrip("0").rstrip(".")
    return s if s not in ("", "-0") else "0"


def write_yield_panel(panel: YieldPanel, path: str) -> None:
    """Write a panel back to the yield CSV schema, columns in stored order."""
    values = np.column_stack(list(panel.columns.values()))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(["date", *panel.columns]) + "\n")
        for d, row in zip(panel.dates, values):
            fh.write(",".join([str(d), *map(_format_cell, row)]) + "\n")


def write_market(
    root: str, panel: YieldPanel, recessions: RecessionSeries
) -> dict[str, str]:
    """The market as the two CSV inputs a configured run reads."""
    yields_path = os.path.join(root, "yields.csv")
    write_yield_panel(panel, yields_path)
    rec_path = os.path.join(root, "recessions.csv")
    with open(rec_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("date,recession\n")
        for d, v in zip(recessions.dates, recessions.indicator):
            fh.write(f"{d},{int(v)}\n")
    return {"yields": yields_path, "recessions": rec_path, "dir": str(root)}


@pytest.fixture(scope="session")
def data_files(tmp_path_factory, market) -> dict[str, str]:
    return write_market(str(tmp_path_factory.mktemp("market")), *market)


README_SPLIT = {"sample_start": "1961-06", "train_end": "1995-12", "sample_end": "2020-07"}
RUNS = {  # the README config plain, and with class weights and a penalty-exempt control
    "plain": {},
    "weighted_lead": {"weighting": True, "forced_controls": ["lead_idx"]},
}


def run_config(
    data_files: dict[str, str], run: str, train_end: str = README_SPLIT["train_end"]
) -> ExperimentConfig:
    """The config of one of ``RUNS`` on a market written by ``write_market``,
    with the README split or the same sample ending training at ``train_end``."""
    return ExperimentConfig.from_mapping({
        "yield_files": [data_files["yields"]],
        "recession_file": data_files["recessions"],
        "maturities": list(MATURITY_CODES),
        "split": {**README_SPLIT, "train_end": train_end},
        **RUNS[run],
    })


@pytest.fixture(scope="session")
def seed42_runs(data_files) -> dict[str, ExperimentResult]:
    """Both ``RUNS`` on ``make_market(42)``, by name."""
    return {run: run_experiment(run_config(data_files, run)) for run in RUNS}
