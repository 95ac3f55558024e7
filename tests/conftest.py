"""Shared fixtures, and the one definition of a pinned run.

The synthetic market mimics the real data's shape: 710 months of nine
correlated maturities driven by level/slope/curvature factors, recessions
drawn from a logistic rule on a lagged long-short spread (so the data is
informative but never separable), and a leading-indicator control column.

Every pinned run is the README's JSON config block with its data paths, its
``output_dir``, one of ``RUNS``, its ``train_end`` and a test's own keys
substituted (``readme_config``). An outcome summary (``outcome``) records
per horizon the selected pair and three flags, or the error and the horizon
it names. Under ``--rewrite-goldens`` every golden test writes what it got
to ``tests/golden/`` instead of comparing with it.
"""

from __future__ import annotations

import json
import os
import re

import numpy as np
import pytest

from termspread.data import Month, RecessionSeries, SplitConfig, YieldPanel
from termspread.errors import TermSpreadError
from termspread.experiment import ExperimentConfig, ExperimentResult, fits, run_experiment

from reference import exceeds_jeffreys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN_DIR = os.path.join(REPO_ROOT, "tests", "golden")
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


def readme_block(lang: str) -> str:
    """The README's first code block in ``lang``."""
    with open(os.path.join(REPO_ROOT, "README.md"), encoding="utf-8") as fh:
        return re.search(rf"```{lang}\n(.*?)```", fh.read(), re.S).group(1)


README_CONFIG = readme_block("json")
RUNS = {  # the README config plain, and with class weights and a penalty-exempt control
    "plain": {},
    "weighted_lead": {"weighting": True, "forced_controls": ["lead_idx"]},
}
ITERATE_ABS_TOL = 1e-5  # 100 x the KKT tolerance: two certified fits may differ by this


def readme_config(
    data_files: dict[str, str], run: str = "plain", train_end: str | None = None, **overrides
) -> dict:
    """The README config as a JSON object, reading ``data_files["yields"]`` and
    ``data_files["recessions"]`` and writing next to them, with the keys of
    ``RUNS[run]``, training ending at ``train_end`` if one is given, and then
    ``overrides``."""
    config = json.loads(README_CONFIG)
    config.update(
        yield_files=[data_files["yields"]],
        recession_file=data_files["recessions"],
        output_dir=os.path.join(os.path.dirname(data_files["yields"]), "out"),
        **RUNS[run],
    )
    if train_end is not None:
        config["split"]["train_end"] = train_end
    config.update(overrides)
    return config


def run_config(data_files: dict[str, str], run: str = "plain", **kwargs) -> ExperimentConfig:
    return ExperimentConfig.from_mapping(readme_config(data_files, run, **kwargs))


@pytest.fixture(scope="session")
def seed42_runs(data_files) -> dict[str, ExperimentResult]:
    """Both ``RUNS`` on ``make_market(42)``, by name."""
    return {run: run_experiment(run_config(data_files, run)) for run in RUNS}


def robustness_runs(data_files: dict[str, str]) -> dict[str, ExperimentResult]:
    """The paper's protocol on one (yields, recessions) pair: the plain run
    with training ending 1995-12, 2005-12 and 2015-12, and the 1995-12 run
    with class weights (oversampled recessions) and no control."""
    runs = {
        end: run_experiment(run_config(data_files, train_end=end))
        for end in ("1995-12", "2005-12", "2015-12")
    }
    runs["1995-12/weighted"] = run_experiment(
        run_config(data_files, train_end="1995-12", weighting=True)
    )
    return runs


def summary(result: ExperimentResult) -> dict:
    """Per horizon: the selected pair, whether panel A's log PPL beats panel
    D's, whether A's EBF is at least sqrt(10), and whether every fit of the
    horizon that ``experiment.fits`` walks is certified."""
    walked = list(fits(result))
    return {"horizons": {
        str(h): {
            "pair": "-".join(art.selection.pair),
            "a_beats_d": art.reports["A"].log_ppl_test > art.reports["D"].log_ppl_test,
            "ebf_at_least_sqrt10": exceeds_jeffreys(art.reports["A"].ebf),
            "certified": all(f.converged for at, _, _, f in walked if at == h),
        }
        for h, art in result.artifacts.items()
    }}


def outcome(config: ExperimentConfig) -> dict:
    """The error class and horizon of one run, or its ``summary``."""
    try:
        result = run_experiment(config)
    except TermSpreadError as exc:
        horizon = re.match(r"\[horizon=(\d+)", str(exc))
        return {"error": type(exc).__name__, "horizon": horizon and int(horizon.group(1))}
    return summary(result)


def compare_outcomes(name: str, got: dict) -> None:
    """Assert that ``got`` holds the outcomes of ``tests/golden/<name>.json``."""
    with open(os.path.join(GOLDEN_DIR, f"{name}.json"), encoding="utf-8") as fh:
        golden = json.load(fh)
    problems = [
        f"{key}: {got.get(key)} differs from golden {golden.get(key)}"
        for key in sorted(golden.keys() | got.keys())
        if got.get(key) != golden.get(key)
    ]
    assert not problems, "\n".join(problems)


def rewrite_outcomes(name: str, got: dict) -> None:
    path = os.path.join(GOLDEN_DIR, f"{name}.json")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(got, fh, indent=1, sort_keys=True)
        fh.write("\n")


def pytest_addoption(parser):
    parser.addoption(
        "--rewrite-goldens", action="store_true",
        help="write tests/golden/ from this run instead of comparing with it",
    )


@pytest.fixture
def rewrite_goldens(request) -> bool:
    return request.config.getoption("--rewrite-goldens")


@pytest.fixture
def pin_outcomes(rewrite_goldens):
    """``pin_outcomes(name, got)``: compare ``got`` with the golden ``name``,
    or write it there under ``--rewrite-goldens``."""
    return rewrite_outcomes if rewrite_goldens else compare_outcomes
