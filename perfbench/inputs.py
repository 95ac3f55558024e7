"""Seeded input generators for the benchmark workloads.

Two kinds of input are made here, and nothing in ``src/`` or ``tests/`` is
imported to make them, so later edits to the program or its tests cannot
change what the benchmark feeds it:

* a synthetic yield market (the model of the tests' ``make_market``) written
  in the program's own CSV schemas, for the table workloads;
* raw downloads for ``scripts/assemble_dataset.py``: twelve FRED-layout
  monthly files and a full-size daily zero-curve file with its preamble.

How the seed enters the market: the level/slope/curvature factor paths and
the recession draws come from the reference stream (seed 42), and the seed
redraws the idiosyncratic yield noise and the control-series noise. The
solver's work on this model depends chaotically on the factor paths: over
full reseeds 1..11 one market took 22.8k L1 iterations and another 103.8k,
so ten runs could not resolve a 25% regression. Redrawing only the noise
keeps the work within a few percent (25.8k-27.0k iterations over seeds
1..10) while every cell of the input changes. Seed 42 reproduces the
reference market exactly.
"""

from __future__ import annotations

import datetime as dt
import json
import math
import os

import numpy as np

MATURITY_CODES = ("3m", "6m", "1y", "2y", "3y", "5y", "7y", "10y", "20y")
TENOR_YEARS = np.array([3, 6, 12, 24, 36, 60, 84, 120, 240]) / 12.0
HORIZONS = (3, 6, 9, 12, 15, 18, 21, 24)
REFERENCE_SEED = 42

# (year, month) pairs; the sample and split of the README baseline config
SAMPLE_START = (1961, 6)
TRAIN_END = (1995, 12)
SAMPLE_END = (2020, 7)
N_MONTHS = 710


class SeedRejected(Exception):
    """The seed gives an input the program must refuse; nothing is timed."""


def month_add(ym: tuple[int, int], k: int) -> tuple[int, int]:
    i = ym[0] * 12 + ym[1] - 1 + k
    return i // 12, i % 12 + 1


def month_str(ym: tuple[int, int]) -> str:
    return f"{ym[0]:04d}-{ym[1]:02d}"


def _cell(v: float) -> str:
    # the program's own yield-file format: 6 decimals, trailing zeros cut
    s = f"{v:.6f}".rstrip("0").rstrip(".")
    return s if s not in ("", "-0") else "0"


# --- table workloads ---------------------------------------------------------

def make_market(seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(yields[710, 9], control[710], recession indicator[734]).

    The model of ``tests/conftest.make_market``. Draws are made in that
    function's order from two streams kept in step: the reference stream
    supplies the factor paths and recession draws, the seed's stream the
    noise. With ``seed == 42`` both streams coincide.
    """
    ref = np.random.default_rng(REFERENCE_SEED)
    own = np.random.default_rng(seed)

    def factor(*shape_args):
        own.normal(*shape_args)
        return ref.normal(*shape_args)

    def noise(*shape_args):
        ref.normal(*shape_args)
        return own.normal(*shape_args)

    n = N_MONTHS
    level = 6.0 + np.cumsum(factor(0.0, 0.25, n))
    slope = np.cumsum(factor(0.0, 0.12, n))
    curve = np.cumsum(factor(0.0, 0.05, n))
    loadings_s = -np.exp(-TENOR_YEARS / 2.0)
    loadings_c = TENOR_YEARS * np.exp(-TENOR_YEARS / 2.0)
    X = (
        level[:, None]
        + slope[:, None] * loadings_s
        + curve[:, None] * loadings_c
        + noise(0.0, 0.03, (n, len(TENOR_YEARS)))
    )
    X = np.round(X - X.min() + 0.5, 6)

    spread = X[:, 6] - X[:, 0]
    z = 1.6 * (spread - np.quantile(spread, 0.15))
    p_rec = 1.0 / (1.0 + np.exp(2.2 * z + 1.2))
    indicator = np.zeros(n + 24)
    own.random(n)
    draws = ref.random(n)
    for t in range(n):
        indicator[t + 12] = float(draws[t] < p_rec[t])
    control = np.round(z + noise(0.0, 0.8, n), 6)
    return X, control, indicator


def _month_index(ym: tuple[int, int]) -> int:
    return (ym[0] - SAMPLE_START[0]) * 12 + ym[1] - SAMPLE_START[1]


def check_partitions(indicator: np.ndarray, horizons=HORIZONS) -> None:
    """Raise SeedRejected naming the first single-class partition.

    Mirrors the README split: predictor month i (counted from sample_start)
    is a row iff i + h <= sample_end, and a training row iff i + h <= train_end.
    """
    last, train_last = _month_index(SAMPLE_END), _month_index(TRAIN_END)
    for h in horizons:
        targets = indicator[h : last + 1]
        n_train = train_last - h + 1
        for name, part in (("train", targets[:n_train]), ("test", targets[n_train:])):
            if part.size == 0 or part.min() == part.max():
                raise SeedRejected(
                    f"horizon {h} {name} partition holds a single class ({part.size} rows)"
                )


def write_market(seed: int, root: str, weighted_lead: bool) -> str:
    """Write yields.csv, recessions.csv and config.json; return the config path."""
    X, control, indicator = make_market(seed)
    check_partitions(indicator)
    os.makedirs(root, exist_ok=True)
    with open(os.path.join(root, "yields.csv"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write("date," + ",".join(MATURITY_CODES) + ",lead_idx\n")
        for i in range(N_MONTHS):
            cells = [_cell(v) for v in X[i]] + [_cell(control[i])]
            fh.write(month_str(month_add(SAMPLE_START, i)) + "," + ",".join(cells) + "\n")
    with open(os.path.join(root, "recessions.csv"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write("date,recession\n")
        for i, v in enumerate(indicator):
            fh.write(f"{month_str(month_add(SAMPLE_START, i))},{int(v)}\n")
    config = {
        "yield_files": [os.path.join(root, "yields.csv")],
        "recession_file": os.path.join(root, "recessions.csv"),
        "maturities": list(MATURITY_CODES),
        "split": {
            "sample_start": month_str(SAMPLE_START),
            "train_end": month_str(TRAIN_END),
            "sample_end": month_str(SAMPLE_END),
        },
        "horizons": list(HORIZONS),
        "weighting": weighted_lead,
        "forced_controls": ["lead_idx"] if weighted_lead else [],
        "target_nonzero": 2,
        "output_dir": os.path.join(root, "out"),
    }
    path = os.path.join(root, "config.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=2)
    return path


# --- ingest workload ---------------------------------------------------------

BILLS_UNTIL = (1981, 8)
GS2_FROM = (1976, 6)
GS7_FROM = (1969, 7)
FRED_CODES = {  # FRED series -> the panel column it feeds
    "GS1": "1y", "GS3": "3y", "GS5": "5y", "GS10": "10y", "GS20": "20y",
}
DAILY_FIRST = dt.date(1961, 6, 14)
DAILY_LAST = dt.date(2020, 7, 31)
LONG_TENORS_FROM = dt.date(1971, 11, 15)  # longer zero-curve tenors are NA before


def _daily_header() -> list[str]:
    cols = ["BETA0", "BETA1", "BETA2", "BETA3", "SVEN1F01", "SVEN1F04", "SVEN1F09"]
    for prefix in ("SVENF", "SVENPY", "SVENY"):
        cols += [f"{prefix}{k:02d}" for k in range(1, 31)]
    return ["Date"] + cols + ["TAU1", "TAU2"]


def bond_equivalent(discount_pct: float, days: int) -> float:
    """100 * 365 d / (360 - d t), the README's conversion, computed here."""
    d = discount_pct / 100.0
    return 100.0 * (365.0 * d) / (360.0 - d * days)


def _monthly_walk(rng: np.random.Generator, n: int, start: float, step: float) -> np.ndarray:
    x = start + np.cumsum(rng.normal(0.0, step, n))
    return np.round(np.abs(x) + 0.25, 2)


def write_raw_downloads(seed: int, raw: str) -> dict:
    """Write the raw downloads; return the expected assembled columns.

    The returned mapping holds, per panel column, ``{"YYYY-MM": value}``
    before the script's 6-decimal formatting, plus the recession rows, so a
    check can compare the assembled files without the program's help.
    """
    rng = np.random.default_rng(seed)
    os.makedirs(raw, exist_ok=True)
    months = [month_add(SAMPLE_START, i) for i in range(N_MONTHS)]
    rec_months = [month_add(SAMPLE_START, i) for i in range(N_MONTHS + 24)]

    def fred(name: str, ms: list, values) -> dict:
        with open(os.path.join(raw, f"{name}.csv"), "w", encoding="utf-8", newline="\n") as fh:
            fh.write(f"observation_date,{name}\n")
            for m, v in zip(ms, values):
                fh.write(f"{m[0]:04d}-{m[1]:02d}-01,{v}\n")
        return {month_str(m): float(v) for m, v in zip(ms, values)}

    expected: dict[str, dict[str, float]] = {}
    bills_end = months.index(BILLS_UNTIL) + 1
    for code, days, bill, cmt in (("3m", 91, "TB3MS", "GS3M"), ("6m", 182, "TB6MS", "GS6M")):
        discount = fred(bill, months[:bills_end], _monthly_walk(rng, bills_end, 4.0, 0.3))
        late = fred(cmt, months[bills_end:], _monthly_walk(rng, N_MONTHS - bills_end, 9.0, 0.3))
        expected[code] = {m: bond_equivalent(v, days) for m, v in discount.items()}
        expected[code].update(late)
    for name, code in FRED_CODES.items():
        expected[code] = fred(name, months, _monthly_walk(rng, N_MONTHS, 6.0, 0.3))
    gs2_at = months.index(GS2_FROM)
    gs7_at = months.index(GS7_FROM)
    expected["2y"] = fred("GS2", months[gs2_at:], _monthly_walk(rng, N_MONTHS - gs2_at, 6.0, 0.3))
    expected["7y"] = fred("GS7", months[gs7_at:], _monthly_walk(rng, N_MONTHS - gs7_at, 6.0, 0.3))
    recession = rng.random(len(rec_months)) < 0.15
    fred("USREC", rec_months, [int(r) for r in recession])

    early = {"SVENY02": {}, "SVENY07": {}}  # month -> list of daily values
    _write_daily(rng, os.path.join(raw, "feds200628.csv"), early)
    for col, code, until in (("SVENY02", "2y", GS2_FROM), ("SVENY07", "7y", GS7_FROM)):
        for m, vals in early[col].items():
            if m < month_str(until):
                expected[code][m] = math.fsum(vals) / len(vals)

    return {
        "columns": expected,
        "months": [month_str(m) for m in months],
        "recessions": {month_str(m): int(r) for m, r in zip(rec_months, recession)},
    }


def _write_daily(rng: np.random.Generator, path: str, early: dict) -> None:
    """The daily zero-curve file: a text preamble, then one row per business day."""
    header = _daily_header()
    days = []
    d = DAILY_FIRST
    while d <= DAILY_LAST:
        if d.weekday() < 5:
            days.append(d)
        d += dt.timedelta(days=1)
    n, width = len(days), len(header) - 1
    level = 5.0 + np.cumsum(rng.normal(0.0, 0.04, n))
    cells = np.round(
        np.abs(level[:, None] + rng.normal(0.0, 0.5, width)[None, :]
               + rng.normal(0.0, 0.02, (n, width))) + 0.1,
        4,
    )
    cols = {name: j for j, name in enumerate(header[1:])}
    long_tenor = [
        j for j, name in enumerate(header[1:])
        if name.startswith(("SVENF", "SVENPY", "SVENY")) and int(name[-2:]) > 7
    ]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(
            "THE U.S. TREASURY YIELD CURVE: 1961 TO THE PRESENT\n"
            "Synthetic stand-in for the daily zero-coupon curve release\n"
            "Parameters and yields are in percent; NA marks a tenor not yet estimated\n"
            "\n"
            "Series,Compounding,Description\n"
            "SVENYXX,Continuously compounded,Zero-coupon yield XX years\n"
            "\n"
            "\n"
            "\n"
        )
        fh.write(",".join(header) + "\n")
        for i, day in enumerate(days):
            row = [f"{v:.4f}" for v in cells[i]]
            if day < LONG_TENORS_FROM:
                for j in long_tenor:
                    row[j] = "NA"
            fh.write(day.isoformat() + "," + ",".join(row) + "\n")
            m = f"{day.year:04d}-{day.month:02d}"
            for col in early:
                early[col].setdefault(m, []).append(float(row[cols[col]]))
