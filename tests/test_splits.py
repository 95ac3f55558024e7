"""Splits golden: the outcome of full runs that end training after 1995-12.

The paper checks its selection against the sample period: besides the
README split, whose training ends 1995-12, it ends training at 2005-12 and
at 2015-12. This test runs both of those splits on ``make_market(42)``,
plain and with class weights and the penalty-exempt ``lead_idx`` control,
and compares each run's ``test_reseeds.outcome`` (the selected pair and
three flags per horizon, or the error and its horizon) with the committed
summary.

To rewrite the summary after a change of outcomes that is intended and
explained:

    PYTHONPATH=src python tests/test_splits.py
"""

from __future__ import annotations

import json
import os
import tempfile

from conftest import RUNS, make_market, write_market
from test_reseeds import outcome

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "splits.json")
TRAIN_ENDS = ("2005-12", "2015-12")


def summarize(data_files: dict[str, str]) -> dict[str, dict]:
    return {
        f"{train_end}/{run}": outcome(data_files, run, train_end)
        for train_end in TRAIN_ENDS
        for run in RUNS
    }


def test_splits_match_golden(data_files):
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    assert len(golden) == len(TRAIN_ENDS) * len(RUNS)
    got = summarize(data_files)
    problems = [
        f"{key}: {got.get(key)} differs from golden {want}"
        for key, want in golden.items()
        if got.get(key) != want
    ]
    assert not problems, "\n".join(problems)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        summary = summarize(write_market(work, *make_market(42)))
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
        fh.write("\n")
    errors = sum("error" in s for s in summary.values())
    print(f"{GOLDEN}: {len(summary)} runs, {len(summary) - errors} complete, {errors} failed")
