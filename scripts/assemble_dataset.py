#!/usr/bin/env python3
"""Assemble the public yield/recession dataset from locally downloaded files.

The experiment CLI consumes two CSVs (see README): ``yields_monthly.csv``
with monthly-averaged constant-maturity yields for nine (optionally ten)
maturities over June 1961 - July 2020, and ``recessions.csv`` with the
monthly NBER indicator. The component series are public but scattered
across sources and vintages; this script merges local downloads into the
two files. It never touches the network.

Expected inputs (CSV downloads placed in one directory, FRED's two-column
"fredgraph" layout, header then ``YYYY-MM-DD,value`` rows, ``.`` for
missing):

  TB3MS.csv  TB6MS.csv   3/6-month secondary-market bill rates (discount
                         basis; converted to bond-equivalent here)
  GS3M.csv   GS6M.csv    3/6-month constant-maturity yields (from 1982)
  GS1.csv GS2.csv GS3.csv GS5.csv GS7.csv GS10.csv GS20.csv [GS30.csv]
  USREC.csv              NBER recession indicator
  [USSLIND.csv]          leading index, optional control column
  [feds200628.csv]       the Fed research zero-coupon yield file (daily);
                         supplies 2y before 1976-06, 7y before 1969-07
  [GS20_FILL.csv]        monthly 20y values covering the 1987-01..1993-09
                         publication gap (e.g. monthly-averaged SVENY20)

Splice rules: bill rates (converted off the discount basis) are used
through 1981-08 and constant-maturity series afterwards; the 2y and 7y
columns start on the zero-coupon curve and switch to CMT at 1976-06 and
1969-07. Day counts for the bond-equivalent conversion are 91 and 182.

Of the daily zero-curve file, only the lines dated before 1976-06 are
parsed, and of those only the date and the SVENY02 and SVENY07 cells. A
line that starts with a bare ``YYYY-MM-DD,`` date on or after 1976-06-01 is
read and decoded but neither split nor checked; a line whose date is quoted
or padded is parsed in full, and a day on or after 1976-06-01 is dropped.

Every download is read and checked before anything is written; only then
is ``--out`` made, at its resolved path (``new/../data`` makes no ``new``),
and are the files written, by the writer of ``termspread run``. A missing
or unreadable download, one that is not UTF-8 text, a malformed row, a
second row in one month of a FRED file, a daily column with no observation
before 1976-06, a bill rate outside [0, 100), a gap in a core column (one
line per column), or a USREC month that is missing (from ``--start`` on) or
reads other than 0 or 1 stops the script with ``error: ...`` and exit code
1; an ``--out`` that cannot be made or written, with the CLI's line and
exit code 2. A bad ``--start`` or ``--end``, or a ``--start`` after
``--end``, is a usage error, exit code 2.

Usage:
    python scripts/assemble_dataset.py --raw ~/Downloads/fred --out data
"""

from __future__ import annotations

import argparse
import datetime as dt
import math
import os
import re
import sys
from collections.abc import Iterator

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from termspread.data import (  # noqa: E402
    Month, discount_to_bond_equivalent, monthly_average, open_input,
)
from termspread.errors import (  # noqa: E402
    CoverageError, DomainError, EmptyInput, GapInDates, MalformedRow, TermSpreadError,
)
from termspread.experiment import write_files  # noqa: E402

SAMPLE_START = Month(1961, 6)
SAMPLE_END = Month(2020, 7)
BILLS_UNTIL = Month(1981, 8)
GS2_FROM = Month(1976, 6)
GS7_FROM = Month(1969, 7)
GS20_GAP = (Month(1987, 1), Month(1993, 9))
MISSING = ("", "NA", ".")  # cells that mark a value as not available
_ISO_DAY_CELL = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2},")  # a bare date as a line's first cell
CORE = ("3m", "6m", "1y", "2y", "3y", "5y", "7y", "10y", "20y")


def _day(path: str, lineno: int, token: str) -> dt.date:
    try:
        return dt.date.fromisoformat(token)
    except ValueError as exc:
        raise MalformedRow(f"{path}:{lineno}: bad date {token!r}: {exc}") from None


def _value(path: str, lineno: int, name: str, token: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise MalformedRow(f"{path}:{lineno}: cannot parse {name}={token!r}") from None
    if not math.isfinite(value):
        raise MalformedRow(f"{path}:{lineno}: non-finite {name}={token!r}")
    return value


def read_fred_monthly(path: str) -> dict[Month, float]:
    """FRED two-column CSV -> {month: value}; missing markers dropped.

    A month holds one value: a second row in it (a daily or weekly file, or
    a doubled row) is a MalformedRow naming its line."""
    out: dict[Month, float] = {}
    with open_input(path) as fh:
        header = fh.readline()
        if "," not in header:
            raise MalformedRow(f"{path}:1: not a two-column FRED csv")
        name = header.split(",")[1].strip().strip('"')
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            if len(cells) < 2:
                raise MalformedRow(f"{path}:{lineno}: expected a date and a value, got {line!r}")
            value_str = cells[1].strip().strip('"')
            if value_str in MISSING:
                continue
            day = _day(path, lineno, cells[0].strip().strip('"'))
            month = Month(day.year, day.month)
            if month in out:
                raise MalformedRow(f"{path}:{lineno}: second value for {month}")
            out[month] = _value(path, lineno, name, value_str)
    return out


def read_gsw_monthly(
    path: str, columns: tuple[str, ...], until: Month
) -> dict[str, dict[Month, float]]:
    """Monthly averages of some columns of the daily GSW zero-curve file
    before month ``until``, read in one pass; a missing cell drops that day
    from its own column only.

    A data line that starts with an ASCII ``DDDD-DD-DD,`` date whose text is
    on or after the first day of ``until`` is skipped unsplit and unparsed.
    Any other data line is split only up to the last column used, and only
    its date and used cells are parsed; a day on or after ``until`` found
    there is dropped, so the means do not depend on the order of the lines."""
    first_dropped = dt.date(until.year, until.month, 1)
    skip_from = first_dropped.isoformat()
    daily: dict[str, tuple[list[dt.date], list[float]]] = {c: ([], []) for c in columns}
    with open_input(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            cells = [c.strip().strip('"') for c in line.strip().split(",")]
            if cells[0].lower() == "date" and set(columns) <= set(cells):
                break
        else:
            raise MalformedRow(f"{path}: no header row carrying {list(columns)!r}")
        used = [(cells.index(c), c, *daily[c]) for c in columns]
        width = max(j for j, *_ in used) + 1
        for lineno, line in enumerate(fh, start=lineno + 1):
            if line >= skip_from and _ISO_DAY_CELL.match(line):
                continue
            cells = line.split(",", width)
            date = cells[0].strip().strip('"')
            if not date:
                continue
            day = None
            for j, name, dates, values in used:
                raw = cells[j].strip().strip('"') if j < len(cells) else ""
                if raw in MISSING:
                    continue
                day = day or _day(path, lineno, date)
                value = _value(path, lineno, name, raw)
                if day < first_dropped:
                    dates.append(day)
                    values.append(value)
    for c, (dates, _) in daily.items():
        if not dates:
            raise EmptyInput(f"{path}: no daily observations of {c} before {until}")
    return {c: dict(zip(*monthly_average(dates, values))) for c, (dates, values) in daily.items()}


def splice(
    early: dict[Month, float], late: dict[Month, float], switch: Month
) -> dict[Month, float]:
    """early series strictly before ``switch``, late from it onwards."""
    out = {m: v for m, v in early.items() if m < switch}
    out.update({m: v for m, v in late.items() if m >= switch})
    return out


def month_range(a: Month, b: Month) -> list[Month]:
    return [a + i for i in range(b - a + 1)]


def build_columns(raw: str) -> dict[str, dict[Month, float]]:
    def fred(name: str) -> dict[Month, float]:
        return read_fred_monthly(os.path.join(raw, f"{name}.csv"))

    def optional(name: str) -> dict[Month, float] | None:
        path = os.path.join(raw, f"{name}.csv")
        return read_fred_monthly(path) if os.path.exists(path) else None

    columns: dict[str, dict[Month, float]] = {}

    for code, days, bill, cmt in (("3m", 91, "TB3MS", "GS3M"), ("6m", 182, "TB6MS", "GS6M")):
        try:
            converted = {m: discount_to_bond_equivalent(v, days) for m, v in fred(bill).items()}
        except DomainError as exc:
            raise DomainError(f"{os.path.join(raw, f'{bill}.csv')}: {exc}") from None
        columns[code] = splice(converted, fred(cmt), BILLS_UNTIL + 1)

    gsw_path = os.path.join(raw, "feds200628.csv")
    gsw = (
        read_gsw_monthly(gsw_path, ("SVENY02", "SVENY07"), max(GS2_FROM, GS7_FROM))
        if os.path.exists(gsw_path) else {}
    )
    columns["2y"] = splice(gsw.get("SVENY02", {}), fred("GS2"), GS2_FROM)
    columns["7y"] = splice(gsw.get("SVENY07", {}), fred("GS7"), GS7_FROM)

    for code, name in (("1y", "GS1"), ("3y", "GS3"), ("5y", "GS5"), ("10y", "GS10")):
        columns[code] = fred(name)

    gs20 = fred("GS20")
    fill = optional("GS20_FILL")
    if fill:
        for m in month_range(*GS20_GAP):
            if m in fill:
                gs20.setdefault(m, fill[m])
    columns["20y"] = gs20

    for code, name in (("30y", "GS30"), ("lead_idx", "USSLIND")):
        series = optional(name)
        if series:
            columns[code] = series
    return columns


def read_and_check(raw: str, start: Month, end: Month) -> list[tuple[str, Iterator[str]]]:
    """Read every download and make every check, raising on the first
    failure; return each output file's name and its lazily formatted lines,
    each ending in a newline, as ``write_files`` takes them."""
    columns = build_columns(raw)
    rec_path = os.path.join(raw, "USREC.csv")
    rec = read_fred_monthly(rec_path)

    months = month_range(start, end)
    gaps = {code: [m for m in months if m not in columns[code]] for code in CORE}
    report = [f"column {code} misses {len(g)} months, first {', '.join(map(str, g[:6]))}"
              for code, g in gaps.items() if g]
    if report:  # one error line per column, then the hint
        hint = (
            "\nhint: the 20y CMT was not published 1987-01..1993-09; provide "
            "GS20_FILL.csv (e.g. monthly-averaged GSW SVENY20) to bridge it"
        ) if gaps["20y"] else ""
        raise GapInDates("\nerror: ".join(report) + hint)

    # an empty USREC file, or one that ends before start, misses start
    rec_months = month_range(start, min(max([start, *rec]), end + 24))
    for m in rec_months:
        if m not in rec:
            raise CoverageError(f"{rec_path}: no value for {m}")
        if rec[m] not in (0.0, 1.0):
            raise MalformedRow(f"{rec_path}: {m} reads {rec[m]:g}, not 0 or 1")

    def table(codes: tuple[str, ...], months: list[Month]) -> Iterator[str]:
        yield ",".join(("date", *codes)) + "\n"
        for m in months:
            cells = [f"{columns[c][m]:.6f}".rstrip("0").rstrip(".") for c in codes]
            yield ",".join([str(m), *cells]) + "\n"

    def recessions() -> Iterator[str]:
        yield "date,recession\n"
        for m in rec_months:
            yield f"{m},{int(rec[m])}\n"

    files = [("yields_monthly.csv", table(CORE, months))]
    # a second file for runs that force the 30y yield / leading indicator:
    # it starts where every optional column exists
    optional_cols = sorted(c for c in columns if c not in CORE)
    if optional_cols:
        wide = CORE + tuple(optional_cols)
        common = [m for m in months if all(m in columns[c] for c in wide)]
        if common and common == month_range(common[0], common[-1]):
            files.append(("yields_monthly_extended.csv", table(wide, common)))
        else:
            print(
                "warning: optional columns have internal gaps in the sample "
                "(the 30y CMT stopped 2002-03..2006-01); no extended file written",
                file=sys.stderr,
            )
    return files + [("recessions.csv", recessions())]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--raw", required=True, help="directory of downloaded CSVs")
    parser.add_argument("--out", default="data", help="output directory")
    parser.add_argument("--start", type=Month.parse, default=SAMPLE_START)
    parser.add_argument("--end", type=Month.parse, default=SAMPLE_END)
    args = parser.parse_args()
    if args.start > args.end:
        parser.error(f"--start {args.start} is after --end {args.end}")

    try:
        written = write_files(args.out, read_and_check(args.raw, args.start, args.end))
    except TermSpreadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    for path in written:
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
