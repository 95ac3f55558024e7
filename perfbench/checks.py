"""Output checks that decide whether an operation counts as failed.

Every check returns a list of human-readable problems; an empty list passes.
Numbers are compared after parsing, never as bytes: a cell is split into
its numeric tokens and the text between them, the text must match exactly
(so pairs, file names and labels do) and each number to 1e-6 relative.
Files that print solver iterates to 10 digits also pass within an absolute
tolerance: a correct solver may stop at another point within KKT_TOL.
"""

from __future__ import annotations

import csv
import gzip
import hashlib
import json
import math
import os
import re

REL_TOL = 1e-6
ABS_TOL = 1e-12  # only lets signed zeros and denormal noise through
KKT_TOL = 1e-7
# Stopping at KKT 1e-10 instead of 1e-7 moved seed-42 coefficients by up to
# 1.9e-7 (2 x KKT_TOL) and spread-series values by up to 4.4e-8; 100 x KKT_TOL leaves
# room for solvers that stop on either side or by another rule.
ITERATE_ABS_TOL = 100 * KKT_TOL
ITERATE_FILES = ("coefficient_path_", "spread_series_")
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def read_tree(root: str) -> dict[str, list[str]]:
    files = {}
    for name in sorted(os.listdir(root)):
        with open(os.path.join(root, name), encoding="utf-8") as fh:
            files[name] = fh.read().splitlines()
    return files


def tree_digest(root: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(root)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(root, name), "rb") as fh:
            h.update(fh.read())
        h.update(b"\0")
    return h.hexdigest()


def _split(line: str) -> tuple[list[str], list[float]]:
    return _NUMBER.split(line), [float(t) for t in _NUMBER.findall(line)]


def compare_lines(name: str, got: list[str], want: list[str]) -> list[str]:
    if len(got) != len(want):
        return [f"{name}: {len(got)} rows, reference has {len(want)}"]
    abs_tol = ITERATE_ABS_TOL if name.startswith(ITERATE_FILES) else ABS_TOL
    for lineno, (g, w) in enumerate(zip(got, want), start=1):
        g_text, g_nums = _split(g)
        w_text, w_nums = _split(w)
        if g_text != w_text or len(g_nums) != len(w_nums):
            return [f"{name}:{lineno}: {g!r} differs from reference {w!r}"]
        for a, b in zip(g_nums, w_nums):
            if not math.isclose(a, b, rel_tol=REL_TOL, abs_tol=abs_tol):
                return [f"{name}:{lineno}: {a!r} vs reference {b!r} "
                        f"(beyond 1e-6 relative and {abs_tol:g} absolute)"]
    return []


def compare_tree(files: dict[str, list[str]], reference: dict[str, list[str]]) -> list[str]:
    if sorted(files) != sorted(reference):
        extra = sorted(set(files) - set(reference))
        missing = sorted(set(reference) - set(files))
        return [f"file names differ: extra {extra}, missing {missing}"]
    problems = []
    for name in sorted(reference):
        problems += compare_lines(name, files[name], reference[name])
    return problems


def load_reference(path: str) -> dict:
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        return json.load(fh)


def save_reference(path: str, reference: dict) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    # mtime=0 keeps the archive byte-identical when regenerated
    with open(path, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as gz:
        gz.write(json.dumps(reference, indent=0, sort_keys=True).encode("utf-8"))


def benchmark_ebf(files: dict[str, list[str]]) -> list[str]:
    """Panel D is the benchmark every EBF is taken against: its EBF is 1.000."""
    lines = files.get("panel_D.csv")
    if not lines:
        return ["panel_D.csv missing"]
    rows = list(csv.DictReader(lines))
    bad = [row for row in rows if row["ebf"] != "1.000"]
    if not rows or bad:
        return [f"panel D EBF is not 1.000 in {bad[:1] or 'an empty panel'}"]
    return []


def ingest_expectations(files: dict[str, list[str]], expected: dict) -> list[str]:
    """Assembled monthly files against the generator's own means and conversions.

    The script writes each value rounded to 6 decimals, so a cell may sit at
    most half a unit of the 6th decimal (plus float noise) from the value.
    """
    problems = []
    lines = files.get("yields_monthly.csv", [])
    header = lines[0].split(",") if lines else []
    months = expected["months"]
    if sorted(header[1:]) != sorted(expected["columns"]) or len(lines) - 1 != len(months):
        return [f"yields_monthly.csv: header {header} / {len(lines) - 1} rows do not match"]
    columns = header[1:]
    for line, month in zip(lines[1:], months):
        cells = line.split(",")
        if cells[0] != month:
            return [f"yields_monthly.csv: row {cells[0]} where {month} was expected"]
        for code, cell in zip(columns, cells[1:]):
            want = expected["columns"][code][month]
            if abs(float(cell) - want) > 5e-7 + 1e-12 * abs(want):
                problems.append(f"yields_monthly.csv {month} {code}: {cell} vs expected {want!r}")
                break
    rec = files.get("recessions.csv", [])
    want_rec = ["date,recession"] + [f"{m},{v}" for m, v in expected["recessions"].items()]
    if rec != want_rec:
        problems.append("recessions.csv does not match the generated USREC rows")
    return problems[:5]


def aligned_expectations(aligned: dict, horizons, sample_months: int, train_months: int) -> list[str]:
    """Row counts and split of every horizon, from the README split alone."""
    problems = []
    for h in horizons:
        got = aligned.get(str(h), {})
        rows, split = sample_months - h, train_months - h
        if got.get("rows") != rows or got.get("split_index") != split:
            problems.append(
                f"horizon {h}: {got.get('rows')} rows / split {got.get('split_index')}, "
                f"expected {rows} / {split}"
            )
    return problems
