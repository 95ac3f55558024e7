"""Relations between runs: inputs that differ in ways the method must not see.

The goldens pin one market's numbers; these pin what must not move when the
yields are shifted or scaled, the maturities are listed in another order, or
the same yields arrive split over two files or beside an unused column, or
the run's BLAS uses another number of threads. Each relation runs
``make_market(42)`` (the ``market`` fixture) at horizons 3 and 12, plain
and, where it compares numbers, also with class weights and the
``lead_idx`` control.
"""

from __future__ import annotations

import filecmp
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from termspread.data import YieldPanel
from termspread.experiment import emit_all, run_experiment

from conftest import (
    MATURITY_CODES,
    REPO_ROOT,
    RUNS,
    readme_config,
    run_config,
    write_market,
    write_yield_panel,
)

HORIZONS = [3, 12]
METRIC_TOL = 1e-12  # absolute; the largest move measured is 2.1e-14


def run(files, run_name, **overrides):
    return run_experiment(run_config(files, run_name, horizons=HORIZONS, **overrides))


def transformed(tmp_path, market, change):
    """The market's files with ``change`` applied to every yield column."""
    panel, recessions = market
    columns = {
        name: change(values) if name in MATURITY_CODES else values
        for name, values in panel.columns.items()
    }
    return write_market(str(tmp_path), YieldPanel(panel.dates, columns), recessions)


def assert_same_selection_and_scores(got, want):
    assert list(got.artifacts) == list(want.artifacts) == HORIZONS
    for h, art in want.artifacts.items():
        other = got.artifacts[h]
        assert other.selection.pair == art.selection.pair, h
        assert other.selection.k_selected == art.selection.k_selected, h
        for letter, report in art.reports.items():
            moved = other.reports[letter]
            for name in ("log_l_train", "log_ppl_test", "auc_train", "auc_test", "rm"):
                a, b = getattr(moved, name), getattr(report, name)
                assert abs(a - b) <= METRIC_TOL, (h, letter, name, a, b)


@pytest.mark.parametrize("run_name", sorted(RUNS))
@pytest.mark.parametrize(
    "change", [lambda x: x + 1.0, lambda x: 2.0 * x], ids=["plus-one", "doubled"]
)
def test_shifted_or_scaled_yields_select_and_score_alike(
    tmp_path, market, data_files, run_name, change
):
    want = run(data_files, run_name)
    got = run(transformed(tmp_path, market, change), run_name)
    assert_same_selection_and_scores(got, want)


@pytest.mark.parametrize("run_name", sorted(RUNS))
def test_maturities_in_reverse_order_select_and_score_alike(data_files, run_name):
    want = run(data_files, run_name)
    got = run(data_files, run_name, maturities=list(reversed(MATURITY_CODES)))
    assert_same_selection_and_scores(got, want)


def assert_same_output_files(tmp_path, files, want_dir, **overrides):
    got_dir = str(tmp_path / "got")
    emit_all(run(files, "plain", **overrides), got_dir)
    names = sorted(os.listdir(want_dir))
    assert names == sorted(os.listdir(got_dir)) and len(names) == 5 + 6 * len(HORIZONS)
    match, mismatch, errors = filecmp.cmpfiles(want_dir, got_dir, names, shallow=False)
    assert mismatch == [] and errors == []


@pytest.fixture(scope="module")
def plain_outputs(tmp_path_factory, data_files):
    want_dir = str(tmp_path_factory.mktemp("plain") / "out")
    emit_all(run(data_files, "plain"), want_dir)
    return want_dir


def test_yields_split_over_two_files_write_the_same_files(
    tmp_path, market, data_files, plain_outputs
):
    panel, _ = market
    names = list(panel.columns)
    paths = []
    for part, cols in enumerate((names[:4], names[4:])):
        path = str(tmp_path / f"yields_{part}.csv")
        write_yield_panel(YieldPanel(panel.dates, {c: panel.columns[c] for c in cols}), path)
        paths.append(path)
    assert_same_output_files(tmp_path, data_files, plain_outputs, yield_files=paths)


@pytest.mark.parametrize("column", ["30y", "vix"], ids=["unused-maturity", "unused-control"])
def test_an_unused_column_writes_the_same_files(
    tmp_path, market, data_files, plain_outputs, column
):
    panel, recessions = market
    noise = np.round(np.random.default_rng(7).uniform(1.0, 9.0, len(panel.dates)), 6)
    files = write_market(
        str(tmp_path), YieldPanel(panel.dates, {**panel.columns, column: noise}), recessions
    )
    assert_same_output_files(tmp_path, files, plain_outputs)


def test_blas_thread_counts_write_the_same_files(tmp_path, data_files):
    # the CLI in fresh processes, so that each reads its BLAS thread count at start
    config = tmp_path / "config.json"
    config.write_text(json.dumps(readme_config(data_files, horizons=HORIZONS)), "utf-8")
    paths = [os.path.join(REPO_ROOT, "src"), os.environ.get("PYTHONPATH")]
    dirs = []
    for threads in ("1", "2", "4"):
        out = str(tmp_path / f"threads_{threads}")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths)),
               "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        subprocess.run(
            [sys.executable, "-m", "termspread.cli", "run", "--config", str(config),
             "--out", out],
            env=env, check=True, capture_output=True,
        )
        dirs.append(out)
    names = sorted(os.listdir(dirs[0]))
    assert len(names) == 5 + 6 * len(HORIZONS)
    for other in dirs[1:]:
        assert sorted(os.listdir(other)) == names
        match, mismatch, errors = filecmp.cmpfiles(dirs[0], other, names, shallow=False)
        assert mismatch == [] and errors == []
