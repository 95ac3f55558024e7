"""Reseed golden: the outcome of every full run on ``make_market(1..20)``.

Each reseed runs the README config twice: plain, and with class weights and
the penalty-exempt ``lead_idx`` control. ``conftest.outcome`` records the
error class and the horizon a failing run names, or per horizon the
selected pair and three flags: whether panel A's log PPL beats panel D's,
whether A's EBF is at least sqrt(10), and whether every fit of the horizon
is certified. ``tests/golden/reseeds.json`` holds strings and flags, no
digits, so it pins outcomes rather than numbers. Failing reseeds stay in
the set.
"""

from __future__ import annotations

import os

from conftest import RUNS, make_market, outcome, run_config, write_market

SEEDS = range(1, 21)


def test_reseeds_match_golden(tmp_path, pin_outcomes):
    got = {}
    for seed in SEEDS:
        seed_dir = os.path.join(tmp_path, f"seed{seed}")
        os.makedirs(seed_dir)
        data_files = write_market(seed_dir, *make_market(seed))
        for run in RUNS:
            got[f"{seed}/{run}"] = outcome(run_config(data_files, run))
    pin_outcomes("reseeds", got)
