"""Reseed golden: the outcome of every full run on ``make_market(1..20)``.

Each reseed runs all eight horizons with the README split twice: plain, and
with class weights and the penalty-exempt ``lead_idx`` control. A run that
fails records its error class and the horizon the error names. A run that
completes records per horizon the selected pair, whether panel A's log PPL
beats panel D's, whether A's EBF is at least sqrt(10), and whether every
fit of the horizon that ``experiment.fits`` walks (the null model's, the
path's, the bisection's and the three MLE fits) is certified. The summary
holds strings, counts and flags, no floats, so it pins outcomes rather
than digits. Failing reseeds stay in the set.

To rewrite the summary after a change of outcomes that is intended and
explained:

    PYTHONPATH=src python tests/test_reseeds.py
"""

from __future__ import annotations

import json
import os
import re
import tempfile

from termspread.errors import TermSpreadError
from termspread.experiment import fits, run_experiment

from conftest import README_SPLIT, RUNS, make_market, run_config, write_market
from reference import exceeds_jeffreys

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "reseeds.json")
SEEDS = range(1, 21)


def outcome(
    data_files: dict[str, str], run: str, train_end: str = README_SPLIT["train_end"]
) -> dict:
    """The error class and horizon of one run, or its per-horizon summary."""
    try:
        result = run_experiment(run_config(data_files, run, train_end))
    except TermSpreadError as exc:
        horizon = re.match(r"\[horizon=(\d+)", str(exc))
        return {"error": type(exc).__name__, "horizon": horizon and int(horizon.group(1))}
    horizons = {}
    walked = list(fits(result))
    for h, art in result.artifacts.items():
        a, d = art.reports["A"], art.reports["D"]
        horizons[str(h)] = {
            "pair": "-".join(art.selection.pair),
            "a_beats_d": a.log_ppl_test > d.log_ppl_test,
            "ebf_at_least_sqrt10": exceeds_jeffreys(a.ebf),
            "certified": all(f.converged for at, _, _, f in walked if at == h),
        }
    return {"horizons": horizons}


def summarize(work_dir: str) -> dict[str, dict]:
    summary = {}
    for seed in SEEDS:
        seed_dir = os.path.join(work_dir, f"seed{seed}")
        os.makedirs(seed_dir)
        data_files = write_market(seed_dir, *make_market(seed))
        for run in RUNS:
            summary[f"{seed}/{run}"] = outcome(data_files, run)
    return summary


def test_reseeds_match_golden(tmp_path):
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    assert len(golden) == 2 * len(SEEDS)
    got = summarize(str(tmp_path))
    problems = [
        f"{key}: {got.get(key)} differs from golden {want}"
        for key, want in golden.items()
        if got.get(key) != want
    ]
    assert not problems, "\n".join(problems)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        summary = summarize(work)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
        fh.write("\n")
    errors = sum("error" in s for s in summary.values())
    print(f"{GOLDEN}: {len(summary)} runs, {len(summary) - errors} complete, {errors} failed")
