"""Dataset-assembly script: vendor-format parsing and splice rules."""

from __future__ import annotations

import datetime as dt
import importlib.util
import os
import subprocess
import sys

import numpy as np
import pytest

from termspread.data import Month, load_recession_series, load_yield_panel

from reference import line_by_line_gsw_monthly

SCRIPT = os.path.join(os.path.dirname(__file__), "..", "scripts", "assemble_dataset.py")
MATS = ["3m", "6m", "1y", "2y", "3y", "5y", "7y", "10y", "20y"]

START, END = Month(1961, 6), Month(1963, 5)  # two-year toy sample


def load_script():
    spec = importlib.util.spec_from_file_location("assemble_dataset", SCRIPT)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def month_range(a, b):
    return [a + i for i in range(b - a + 1)]


def fred_csv(dirpath, name, months, values):
    with open(os.path.join(dirpath, f"{name}.csv"), "w", encoding="utf-8") as fh:
        fh.write("observation_date,%s\n" % name)
        for m, v in zip(months, values):
            fh.write(f"{m.year:04d}-{m.month:02d}-01,{v}\n")


def gsw_csv(dirpath, rows):
    # mimics the published zero-curve file: preamble, then a Date header
    with open(os.path.join(dirpath, "feds200628.csv"), "w", encoding="utf-8") as fh:
        fh.write("Yield curve parameters and yields\nSource: research release\n\n")
        fh.write("Date,SVENY01,SVENY02,SVENY07\n")
        for date_str, y2, y7 in rows:
            fh.write(f"{date_str},9.99,{y2},{y7}\n")


@pytest.fixture()
def raw_dir(tmp_path):
    raw = tmp_path / "raw"
    raw.mkdir()
    months = month_range(START, END)
    rng = np.random.default_rng(0)

    # bills on a discount basis for the whole toy sample
    fred_csv(raw, "TB3MS", months, np.round(rng.uniform(2, 5, len(months)), 2))
    fred_csv(raw, "TB6MS", months, np.round(rng.uniform(2, 5, len(months)), 2))
    # CMT 3m/6m exist only later; splice rule must prefer bills here
    fred_csv(raw, "GS3M", months[-3:], [9.0, 9.0, 9.0])
    fred_csv(raw, "GS6M", months[-3:], [9.5, 9.5, 9.5])

    for name in ("GS1", "GS3", "GS5", "GS10", "GS20"):
        fred_csv(raw, name, months, np.round(rng.uniform(3, 7, len(months)), 2))
    # GS2/GS7 start late in the toy sample; GSW must fill the early part
    fred_csv(raw, "GS2", months[12:], np.full(len(months) - 12, 4.444))
    fred_csv(raw, "GS7", months[6:], np.full(len(months) - 6, 5.555))
    gsw_rows = []
    for m in months:
        for day in (3, 17):
            gsw_rows.append((f"{m.year:04d}-{m.month:02d}-{day:02d}", "4.0", "5.0"))
    gsw_csv(raw, gsw_rows)

    rec_months = month_range(START, END + 24)
    fred_csv(raw, "USREC", rec_months, [int(i % 7 == 0) for i in range(len(rec_months))])
    return raw


def run_script(raw, out, start=str(START), end=str(END)):
    return subprocess.run(
        [
            sys.executable, SCRIPT,
            "--raw", str(raw), "--out", str(out),
            "--start", start, "--end", end,
        ],
        capture_output=True,
        text=True,
    )


def test_assembles_core_panel(raw_dir, tmp_path):
    out = tmp_path / "data"
    proc = run_script(raw_dir, out)
    assert proc.returncode == 0, proc.stderr
    panel = load_yield_panel([str(out / "yields_monthly.csv")], MATS)
    assert panel.dates[0] == START and panel.dates[-1] == END
    series = load_recession_series(str(out / "recessions.csv"))
    assert series.dates[0] == START

    # bills converted to a bond-equivalent basis; the toy sample predates the
    # CMT switch (1981-09), so every 3m/6m cell derives from the bill files
    assert np.all(panel.series("3m") > 0)
    # the whole toy sample predates the 2y/7y CMT switches (1976-06/1969-07),
    # so those columns come from the monthly-averaged zero curve throughout
    assert np.all(panel.series("2y") == pytest.approx(4.0))
    assert np.all(panel.series("7y") == pytest.approx(5.0))


def test_zero_curve_skips_a_missing_cell_in_its_own_column_only(raw_dir, tmp_path):
    # each month: one day without SVENY07, one with both, one without SVENY02
    rows = []
    for m in month_range(START, END):
        stamp = f"{m.year:04d}-{m.month:02d}"
        rows += [(f"{stamp}-03", "4.0", "NA"), (f"{stamp}-17", "6.0", "5.0"),
                 (f"{stamp}-24", "", "7.0")]
    gsw_csv(raw_dir, rows)
    out = tmp_path / "data"
    proc = run_script(raw_dir, out)
    assert proc.returncode == 0, proc.stderr
    panel = load_yield_panel([str(out / "yields_monthly.csv")], MATS)
    # skipping a whole day would leave 6.0 and 5.0, the one day with both cells
    assert np.all(panel.series("2y") == pytest.approx(5.0))
    assert np.all(panel.series("7y") == pytest.approx(6.0))


def test_splice_switch_rule():
    mod = load_script()
    early = {Month(1975, 1) + i: 1.0 for i in range(36)}
    late = {Month(1975, 1) + i: 2.0 for i in range(36)}
    merged = mod.splice(early, late, Month(1976, 6))
    assert merged[Month(1976, 5)] == 1.0
    assert merged[Month(1976, 6)] == 2.0
    # bond-equivalent conversion dominates the raw discount rate
    assert mod.discount_to_bond_equivalent(4.5, 91) > 4.5


def test_gap_detected_and_fill_applied(raw_dir, tmp_path):
    # knock three months out of GS20, as in the real publication gap, and one
    # out of GS3
    months = month_range(START, END)
    for name, gap in (("GS20", slice(5, 8)), ("GS3", slice(8, 9))):
        path = raw_dir / f"{name}.csv"
        lines = path.read_text().splitlines()
        del lines[gap]
        path.write_text("\n".join(lines) + "\n")

    proc = run_script(raw_dir, tmp_path / "d1")
    assert proc.returncode == 1
    assert proc.stderr == (
        "error: column 3y misses 1 months, first 1962-01\n"
        "error: column 20y misses 3 months, first 1961-10, 1961-11, 1961-12\n"
        "hint: the 20y CMT was not published 1987-01..1993-09; provide "
        "GS20_FILL.csv (e.g. monthly-averaged GSW SVENY20) to bridge it\n"
    )
    assert not (tmp_path / "d1").exists()

    # a fill file bridges the gap; note the real gap is 1987-01..1993-09 so
    # the script only consults the fill inside that window; here we patch the
    # generic missing-month path by restoring the rows instead
    fred_csv(raw_dir, "GS20", months, [6.0] * len(months))
    fred_csv(raw_dir, "GS3", months, [5.0] * len(months))
    proc = run_script(raw_dir, tmp_path / "d2")
    assert proc.returncode == 0, proc.stderr


def test_extended_file_with_optional_columns(raw_dir, tmp_path):
    months = month_range(START, END)
    fred_csv(raw_dir, "GS30", months[4:], np.full(len(months) - 4, 7.77))
    fred_csv(raw_dir, "USSLIND", months[4:], np.full(len(months) - 4, 1.23))
    out = tmp_path / "data"
    proc = run_script(raw_dir, out)
    assert proc.returncode == 0, proc.stderr
    core = load_yield_panel([str(out / "yields_monthly.csv")], MATS)
    assert core.dates[0] == START  # full core range kept
    ext = load_yield_panel([str(out / "yields_monthly_extended.csv")], MATS + ["30y"])
    assert ext.dates[0] == START + 4
    assert "lead_idx" in ext.columns


# --- the daily zero-curve reader against the line-by-line oracle ---------------

WIDE_HEADER = (
    ["Date", "BETA0", "BETA1", "BETA2", "BETA3", "SVEN1F01", "SVEN1F04", "SVEN1F09"]
    + [f"{prefix}{k:02d}" for prefix in ("SVENF", "SVENPY", "SVENY") for k in range(1, 31)]
    + ["TAU1", "TAU2"]
)
USED = ("SVENY02", "SVENY07")


def wide_gsw(path, rows, newline="\n"):
    """A 99-column daily file: a preamble, the header, then ``rows`` given as
    {column: cell} overrides of a day's generated cells."""
    rng = np.random.default_rng(1)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        # a "Date" line without the used columns is still preamble
        preamble = ["THE U.S. TREASURY YIELD CURVE", "Series,Description", "Date,Note", ""]
        fh.write(newline.join(preamble))
        fh.write(newline + ",".join(WIDE_HEADER) + newline)
        for cells in rows:
            line = [f"{v:.4f}" for v in rng.uniform(0.5, 9.0, len(WIDE_HEADER))]
            for name, cell in cells.items():
                line[WIDE_HEADER.index(name)] = cell
            fh.write(",".join(line) + newline)


def business_days(first, n):
    days, day = [], first
    while len(days) < n:
        if day.weekday() < 5:
            days.append(day)
        day += dt.timedelta(days=1)
    return days


def generated_rows(n=400, seed=0):
    rng = np.random.default_rng(seed)
    rows = []
    for day in business_days(dt.date(1961, 6, 14), n):
        cells = {"Date": day.isoformat()}
        for name in USED:
            draw = rng.random()
            cells[name] = "NA" if draw < 0.1 else "" if draw < 0.15 else f"{rng.uniform(1, 9):.4f}"
        rows.append(cells)
    return rows


def assert_reader_matches_oracle(path):
    got = load_script().read_gsw_monthly(str(path), USED)
    want = line_by_line_gsw_monthly(str(path), USED)
    assert got == want
    assert all(len(want[c]) > 0 for c in USED)
    return got


def test_gsw_reader_matches_oracle_on_a_wide_file(tmp_path):
    wide_gsw(tmp_path / "f.csv", generated_rows())
    assert_reader_matches_oracle(tmp_path / "f.csv")


def test_gsw_reader_matches_oracle_on_crlf_lines(tmp_path):
    wide_gsw(tmp_path / "f.csv", generated_rows(), newline="\r\n")
    assert_reader_matches_oracle(tmp_path / "f.csv")


def test_gsw_reader_strips_quotes_and_spaces_of_used_cells(tmp_path):
    wide_gsw(tmp_path / "f.csv", [
        {"Date": "1961-06-14", "SVENY02": '"4.25"', "SVENY07": "  5.5 "},
        {"Date": '"1961-06-15"', "SVENY02": ' " 4.75" ', "SVENY07": '"NA"'},
        {"Date": " 1961-07-03 ", "SVENY02": "3.0", "SVENY07": '"6.0"'},
    ])
    assert assert_reader_matches_oracle(tmp_path / "f.csv") == {
        "SVENY02": {Month(1961, 6): 4.5, Month(1961, 7): 3.0},
        "SVENY07": {Month(1961, 6): 5.5, Month(1961, 7): 6.0},
    }


def test_gsw_reader_drops_a_row_too_short_to_reach_a_used_column(tmp_path):
    path = tmp_path / "f.csv"
    wide_gsw(path, generated_rows(60))
    lines = path.read_text().splitlines(keepends=True)
    # the first data line ends before SVENY07, the second before SVENY02 too
    lines[5] = ",".join(lines[5].split(",")[: WIDE_HEADER.index("SVENY07")]) + "\n"
    lines[6] = ",".join(lines[6].split(",")[:3]) + "\n"
    path.write_text("".join(lines))
    assert_reader_matches_oracle(path)


def test_gsw_reader_never_parses_unused_cells(tmp_path):
    rows = generated_rows(60)
    for cells in rows:
        cells.update(BETA0="garbage", SVENY05="1961-13-40", TAU2="inf", SVENY30='"x,')
    wide_gsw(tmp_path / "f.csv", rows)
    assert_reader_matches_oracle(tmp_path / "f.csv")


# --- malformed raw downloads -----------------------------------------------------

def _replace_line(path, lineno, text):
    lines = path.read_text().splitlines()
    lines[lineno - 1] = text
    path.write_text("\n".join(lines) + "\n")


def _delete_line(path, lineno):
    lines = path.read_text().splitlines()
    del lines[lineno - 1]
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize(
    "file, lineno, text, what",
    [
        ("GS1.csv", 3, "1961-07-01", "expected a date and a value, got '1961-07-01'"),
        ("GS3.csv", 4, "1961-13-40,4.5", "bad date '1961-13-40': month must be in 1..12"),
        ("USREC.csv", 2, "1961-06-01,yes", "cannot parse USREC='yes'"),
        ("feds200628.csv", 6, "1961-13-40,9.99,4.0,5.0",
         "bad date '1961-13-40': month must be in 1..12"),
        ("feds200628.csv", 7, "1961-06-20,9.99,4.0,x5", "cannot parse SVENY07='x5'"),
        ("feds200628.csv", 8, "1961-06-21,9.99,inf,5.0", "non-finite SVENY02='inf'"),
        ("GS1.csv", 3, "1961-06-15,3.1", "second value for 1961-06"),
    ],
    ids=["fred-one-cell", "fred-bad-date", "fred-bad-value",
         "daily-bad-date", "daily-bad-value", "daily-non-finite", "fred-two-in-one-month"],
)
def test_malformed_raw_file_is_an_error_line(raw_dir, tmp_path, file, lineno, text, what):
    path = raw_dir / file
    _replace_line(path, lineno, text)
    out = tmp_path / "data"
    proc = run_script(raw_dir, out)
    assert proc.returncode == 1
    assert proc.stderr == f"error: {path}:{lineno}: {what}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "file, damage, named",
    [
        ("GS1.csv", lambda path: path.unlink(), None),
        ("GS5.csv", lambda path: _replace_line(path, 1, "observation_date"),
         "not a two-column FRED csv"),
        ("feds200628.csv", lambda path: _replace_line(path, 4, "Date,SVENY01,SVENY02"),
         "no header row carrying ['SVENY02', 'SVENY07']"),
        ("feds200628.csv", lambda path: gsw_csv(path.parent, [
            (f"{m.year:04d}-{m.month:02d}-03", "NA", "5.0") for m in month_range(START, END)
        ]), "no daily observations of SVENY02"),
        ("TB3MS.csv", lambda path: _replace_line(path, 3, "1961-07-01,-0.5"),
         "discount rate out of range: -0.5"),
        ("USREC.csv", lambda path: _delete_line(path, 7), "no value for 1961-11"),
        ("USREC.csv", lambda path: path.write_text("observation_date,USREC\n"),
         "no value for 1961-06"),
        ("USREC.csv", lambda path: _replace_line(path, 2, "1961-06-01,0.5"),
         "1961-06 reads 0.5, not 0 or 1"),
        ("GS1.csv", lambda path: path.write_bytes(b"\xff\xfe" + path.read_bytes()),
         "input file is not UTF-8 text: invalid start byte"),
        ("feds200628.csv", lambda path: path.write_bytes(path.read_bytes() + b"2020-07-31,\xff\n"),
         "input file is not UTF-8 text: invalid start byte"),
    ],
    ids=["missing-file", "fred-header", "daily-header", "daily-column-empty",
         "bill-rate-negative", "usrec-month-missing", "usrec-empty", "usrec-not-binary",
         "fred-not-utf8", "daily-not-utf8"],
)
def test_bad_download_is_one_error_line_before_any_write(raw_dir, tmp_path, file, damage, named):
    path = raw_dir / file
    damage(path)
    out = tmp_path / "data"
    proc = run_script(raw_dir, out)
    assert proc.returncode == 1
    [line] = proc.stderr.splitlines()
    assert line.startswith("error: ") and str(path) in line
    assert named is None or line.endswith(named)
    assert not out.exists()


@pytest.mark.parametrize(
    "months, shown",
    [
        ({"start": "1961-6"}, "1961-6"),
        ({"end": "1961-6"}, "1961-6"),
        ({"start": "1963-05", "end": "1961-06"}, "--start 1963-05 is after --end 1961-06"),
    ],
    ids=["--start", "--end", "start-after-end"],
)
def test_bad_month_argument_is_a_usage_error(raw_dir, tmp_path, months, shown):
    out = tmp_path / "data"
    proc = run_script(raw_dir, out, **months)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr and shown in proc.stderr
    assert not out.exists()
