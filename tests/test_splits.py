"""Splits golden: the outcome of the paper's robustness protocol.

The paper checks its selection against the sample period and the class
balance: besides the README split, whose training ends 1995-12, it ends
training at 2005-12 and at 2015-12, and it reruns 1995-12 with oversampled
recessions (``conftest.robustness_runs``). ``tests/golden/splits.json``
holds ``conftest.outcome`` (the selected pair and three flags per horizon,
or the error and its horizon) of the two later splits on ``make_market(42)``,
plain and with class weights and the penalty-exempt ``lead_idx`` control.
``tests/golden/assembled.json`` holds the protocol's four runs on
``scripts/assemble_dataset.py``'s output for the benchmark's raw downloads
of seed 42. Both hold pairs and flags, no digits, so they pin outcomes
rather than numbers. The daily reader is checked there too, on the full-size
zero-curve file of those downloads, against the line-by-line oracle.
"""

from __future__ import annotations

import os
import runpy
import subprocess
import sys

import pytest

from termspread.data import Month

from conftest import REPO_ROOT, RUNS, outcome, robustness_runs, run_config, summary
from reference import line_by_line_gsw_monthly

SCRIPT = os.path.join(REPO_ROOT, "scripts", "assemble_dataset.py")


def test_splits_match_golden(data_files, pin_outcomes):
    pin_outcomes("splits", {
        f"{train_end}/{run}": outcome(run_config(data_files, run, train_end=train_end))
        for train_end in ("2005-12", "2015-12")
        for run in RUNS
    })


@pytest.fixture(scope="session")
def raw_downloads(tmp_path_factory) -> str:
    """The directory ``perfbench/inputs.write_raw_downloads(42, ...)`` fills."""
    raw = str(tmp_path_factory.mktemp("raw"))
    inputs = runpy.run_path(os.path.join(REPO_ROOT, "perfbench", "inputs.py"))
    inputs["write_raw_downloads"](42, raw)
    return raw


@pytest.fixture(scope="session")
def assembled_files(raw_downloads, tmp_path_factory) -> dict[str, str]:
    """The two files ``scripts/assemble_dataset.py`` makes of the raw downloads."""
    root = tmp_path_factory.mktemp("assembled")
    done = subprocess.run(
        [sys.executable, SCRIPT, "--raw", raw_downloads, "--out", str(root)],
        capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    return {"yields": str(root / "yields_monthly.csv"), "recessions": str(root / "recessions.csv")}


def test_gsw_reader_on_the_full_size_daily_file_matches_oracle(raw_downloads):
    # the 10.3 MB, 99-column file: every line from 1976-06 on is skipped
    columns = ("SVENY02", "SVENY07")
    until = Month(1976, 6)
    path = os.path.join(raw_downloads, "feds200628.csv")
    got = runpy.run_path(SCRIPT)["read_gsw_monthly"](path, columns, until)
    want = line_by_line_gsw_monthly(path, columns)
    assert got == {c: {m: v for m, v in want[c].items() if m < until} for c in columns}
    assert min(got["SVENY02"]) == Month(1961, 6) and max(got["SVENY02"]) == Month(1976, 5)


def test_protocol_on_the_assembled_downloads_matches_golden(assembled_files, pin_outcomes):
    # the downloads have no USSLIND.csv, so no run here carries lead_idx
    runs = robustness_runs(assembled_files)
    pin_outcomes("assembled", {name: summary(result) for name, result in runs.items()})
