"""Golden snapshot: the full output of two runs on the synthetic market.

Both runs are ``termspread run`` on ``conftest.make_market()`` (seed 42)
with the README split and all eight horizons: one plain, one with class
weights and the penalty-exempt ``lead_idx`` control. The snapshot holds all
53 output files of each run, with csv panels; the markdown panels of the
plain run are checked against its csv panels cell by cell. Numbers are
compared after parsing, never as bytes: each line is split into its
numeric tokens and the text between them. The text must match exactly
(so file names, headers, pairs and labels do), as must the row counts, and
each number must match to 1e-6 relative. ``coefficient_path_*`` and
``spread_series_*`` print solver iterates to 10 digits; their cells may
also pass within 1e-5 absolute (100 x the 1e-7 KKT tolerance), because a
correct solver may stop at another point inside its certificate. Under
``--rewrite-goldens`` the test writes the snapshot instead of comparing.
"""

from __future__ import annotations

import csv
import gzip
import json
import math
import os
import re

import pytest

from termspread.cli import main as cli_main

from conftest import GOLDEN_DIR, ITERATE_ABS_TOL, RUNS, readme_config

REL_TOL = 1e-6
ABS_TOL = 1e-12  # only lets signed zeros and denormal noise through
ITERATE_FILES = ("coefficient_path_", "spread_series_")
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def run_outputs(
    data_files: dict[str, str], work_dir: str, run: str, fmt: str = "csv"
) -> dict[str, list[str]]:
    """Run the CLI once and return {file name: lines} of its output directory."""
    cfg_path = os.path.join(work_dir, f"{run}.json")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump(readme_config(data_files, run), fh)
    out_dir = os.path.join(work_dir, f"{run}_{fmt}")
    assert cli_main(["run", "--config", cfg_path, "--out", out_dir, "--format", fmt]) == 0
    files = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
            files[name] = fh.read().splitlines()
    return files


def snapshot_path(run: str) -> str:
    return os.path.join(GOLDEN_DIR, f"{run}.json.gz")


def load_snapshot(run: str) -> dict[str, list[str]]:
    with gzip.open(snapshot_path(run), "rt", encoding="utf-8") as fh:
        return json.load(fh)


def _split(line: str) -> tuple[list[str], list[float]]:
    return _NUMBER.split(line), [float(t) for t in _NUMBER.findall(line)]


def compare(files: dict[str, list[str]], golden: dict[str, list[str]]) -> list[str]:
    """Every difference beyond the tolerances above, one message each."""
    if sorted(files) != sorted(golden):
        return [f"file names differ: extra {sorted(set(files) - set(golden))}, "
                f"missing {sorted(set(golden) - set(files))}"]
    problems = []
    for name in sorted(golden):
        got, want = files[name], golden[name]
        if len(got) != len(want):
            problems.append(f"{name}: {len(got)} rows, golden has {len(want)}")
            continue
        abs_tol = ITERATE_ABS_TOL if name.startswith(ITERATE_FILES) else ABS_TOL
        for lineno, (g, w) in enumerate(zip(got, want), start=1):
            g_text, g_nums = _split(g)
            w_text, w_nums = _split(w)
            if g_text != w_text or len(g_nums) != len(w_nums):
                problems.append(f"{name}:{lineno}: {g!r} differs from golden {w!r}")
            elif not all(
                math.isclose(a, b, rel_tol=REL_TOL, abs_tol=abs_tol)
                for a, b in zip(g_nums, w_nums)
            ):
                problems.append(f"{name}:{lineno}: {g!r} vs golden {w!r}")
    return problems


@pytest.mark.parametrize("run", sorted(RUNS))
def test_run_matches_golden_snapshot(data_files, tmp_path, run, rewrite_goldens):
    files = run_outputs(data_files, str(tmp_path), run)
    if rewrite_goldens:
        # mtime=0 keeps the archive byte-identical when regenerated
        with open(snapshot_path(run), "wb") as raw, gzip.GzipFile(
            fileobj=raw, mode="wb", mtime=0
        ) as gz:
            gz.write(json.dumps(files, indent=0, sort_keys=True).encode("utf-8"))
        return
    golden = load_snapshot(run)
    assert len(golden) == 53
    problems = compare(files, golden)
    assert not problems, "\n".join(problems[:10])


def test_markdown_panels_hold_the_csv_cells(data_files, tmp_path):
    as_csv = run_outputs(data_files, str(tmp_path), "plain")
    as_md = run_outputs(data_files, str(tmp_path), "plain", fmt="markdown")
    for letter in "ABCD":
        header, *rows = csv.reader(as_csv[f"panel_{letter}.csv"])
        md_header, rule, *md_rows = as_md[f"panel_{letter}.md"]
        assert md_header == "| " + " | ".join(header) + " |"
        assert rule == "|" + "---|" * len(header)
        assert md_rows == ["| " + " | ".join(row) + " |" for row in rows]
    # the other files do not depend on the panel format
    assert {k: v for k, v in as_md.items() if not k.endswith(".md")} == {
        k: v for k, v in as_csv.items() if not k.startswith("panel_")
    }


def test_golden_comparison_catches_changes():
    golden = load_snapshot("weighted_lead")
    assert compare(golden, golden) == []

    def changed(name: str, line: int, edit) -> list[str]:
        files = {k: list(v) for k, v in golden.items()}
        files[name][line] = edit(files[name][line])
        return compare(files, golden)

    def scale_first(line: str) -> str:
        return _NUMBER.sub(lambda m: repr(float(m.group()) * (1 + 2e-6)), line, 1)

    def shift_cells(delta: float):
        def edit(line: str) -> str:
            lam, *cells = line.split(",")
            return ",".join([lam] + [repr(float(c) + delta) for c in cells])
        return edit

    # a 2e-6 relative move in a table number fails; pairs are text
    assert changed("eval_reports.csv", 1, scale_first)
    assert changed("panel_A.csv", 1, lambda s: s.replace("(", "(x", 1))
    # an iterate file lets 1e-6 absolute through but not 2e-5
    assert not changed("coefficient_path_h12.csv", 1, shift_cells(1e-6))
    assert changed("coefficient_path_h12.csv", 1, shift_cells(2e-5))
    files = {k: v for k, v in golden.items() if k != "roc_h3_A.csv"}
    assert compare(files, golden)
    files = {k: list(v) for k, v in golden.items()}
    files["panel_D.csv"].pop()
    assert compare(files, golden)
