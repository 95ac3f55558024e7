"""Yield and recession data: ingestion, basis conversion, horizon alignment.

The unit of observation is the calendar month. Input files follow two CSV
schemas (UTF-8, LF, dot decimals, no thousands separators):

* yields:     ``date,<name1>,<name2>,...`` where names are maturity codes
  (``3m`` ... ``30y``) or named control series; rows ``YYYY-MM,<decimal>,...``
  where a decimal is an optional ``-``, digits, then optionally ``.digits``
* recessions: ``date,recession`` with rows ``YYYY-MM,0|1``

Rows hold one month each, in ascending order, with no gaps: a skipped month
is a GapInDates and a repeated or earlier month a MalformedRow, both naming
the file line.

All types are immutable after construction; operations are pure functions.
``Month`` and ``SplitConfig`` compare and hash by value. Records that hold
arrays, here and in every module, compare and hash by identity, as objects
do, so ``==``, ``in``, ``list.index``, sets and dict keys work on them.
"""

from __future__ import annotations

import datetime as _dt
import math
import operator
import re
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence, TextIO

import numpy as np

from .errors import (
    CoverageError,
    DomainError,
    EmptyInput,
    GapInDates,
    HorizonTooLong,
    MalformedRow,
    MissingSeries,
    UnreadableInput,
)

_MONTH_RE = re.compile(r"([0-9]{4})-([0-9]{2})")
_DECIMAL_RE = re.compile(r"-?[0-9]+(?:\.[0-9]+)?")

MATURITY_CODES = ("3m", "6m", "1y", "2y", "3y", "5y", "7y", "10y", "20y", "30y")


@dataclass(frozen=True, order=True)
class Month:
    """A calendar year-month, ordered chronologically."""

    year: int
    month: int

    def __post_init__(self) -> None:
        operator.index(self.year)  # an int or a NumPy integer, never a float
        if not 1 <= operator.index(self.month) <= 12:
            raise ValueError(f"month out of range: {self.month}")

    @classmethod
    def parse(cls, token: str) -> "Month":
        """The month of a ``YYYY-MM`` string: ASCII digits, no padding."""
        m = _MONTH_RE.fullmatch(token) if isinstance(token, str) else None
        if m is None:
            raise ValueError(f"not a YYYY-MM token: {token!r}")
        return cls(int(m.group(1)), int(m.group(2)))

    @property
    def index(self) -> int:
        return self.year * 12 + (self.month - 1)

    def __add__(self, months: int) -> "Month":
        i = self.index + operator.index(months)
        return Month(i // 12, i % 12 + 1)

    def __sub__(self, other: "Month") -> int:
        return self.index - other.index

    def __str__(self) -> str:
        return f"{self.year:04d}-{self.month:02d}"


def _check_contiguous(dates: Sequence[Month], origin: str, lines: Sequence[int] = ()) -> None:
    """Raise unless each month follows the one before: GapInDates for a skip,
    MalformedRow for a repeat or step back, at file line ``lines[i]`` if given."""
    for i, (prev, cur) in enumerate(zip(dates, dates[1:]), start=1):
        if cur - prev != 1:
            where = f"{origin}:{lines[i]}" if lines else origin
            error = GapInDates if cur > prev else MalformedRow
            raise error(f"{where}: month {cur} follows {prev}, expected {prev + 1}")


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class YieldPanel:
    """Monthly series by name: maturity yields (percent p.a.) and controls.

    ``columns[name][i]`` is the series' value in month ``dates[i]``. The
    mapping is read-only and every series is finite, one entry per date.
    """

    dates: tuple[Month, ...]
    columns: Mapping[str, np.ndarray]

    def __post_init__(self) -> None:
        object.__setattr__(self, "dates", tuple(self.dates))
        _check_contiguous(self.dates, "yield panel")
        columns = {}
        for name, series in dict(self.columns).items():
            s = _readonly(np.asarray(series))
            if s.shape != (len(self.dates),):
                raise ValueError(f"series {name!r} has shape {s.shape}")
            if not np.all(np.isfinite(s)):
                raise MalformedRow(f"series {name!r} contains non-finite cells")
            columns[name] = s
        object.__setattr__(self, "columns", MappingProxyType(columns))

    def series(self, name: str) -> np.ndarray:
        """Column by maturity code or control name."""
        try:
            return self.columns[name]
        except KeyError:
            raise MissingSeries(f"no series named {name!r} in panel") from None


@dataclass(frozen=True, eq=False)
class RecessionSeries:
    """Monthly binary recession indicator (1 = recession month)."""

    dates: tuple[Month, ...]
    indicator: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "dates", tuple(self.dates))
        _check_contiguous(self.dates, "recession series")
        ind = _readonly(np.asarray(self.indicator))
        if ind.shape != (len(self.dates),):
            raise ValueError("indicator length does not match dates")
        if not np.all(np.isin(ind, (0.0, 1.0))):
            raise MalformedRow("recession indicator must be 0 or 1")
        object.__setattr__(self, "indicator", ind)

    def span(self, first: Month, n: int) -> np.ndarray:
        """The indicators of the ``n`` months from ``first`` on, as one slice.

        Raises CoverageError naming the first of those months the series
        does not cover.
        """
        i = first - self.dates[0] if self.dates else -1
        if i < 0 or i + n > len(self.dates):
            missing = first if i < 0 or i >= len(self.dates) else self.dates[-1] + 1
            raise CoverageError(f"recession series does not cover {missing}")
        return self.indicator[i : i + n]


@dataclass(frozen=True)
class SplitConfig:
    """Sample span and train/test split, all in target-date convention."""

    train_end: Month
    sample_start: Month
    sample_end: Month

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if not isinstance(value, Month):
                raise TypeError(f"{name} must be a Month, got {value!r}")
        if not (self.sample_start < self.train_end < self.sample_end):
            raise ValueError(
                f"need sample_start < train_end < sample_end, got "
                f"{self.sample_start} / {self.train_end} / {self.sample_end}"
            )


@dataclass(frozen=True, eq=False)
class AlignedDataset:
    """(predictor, target) rows for one forecasting horizon.

    Row ``i`` pairs the feature vector observed at ``predictor_dates[i]``
    with the recession indicator one horizon later. Rows are ordered
    chronologically; the first ``split_index`` rows have target dates inside
    the training period.
    """

    predictor_dates: tuple[Month, ...]
    features: np.ndarray
    targets: np.ndarray
    split_index: int
    feature_names: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "predictor_dates", tuple(self.predictor_dates))
        object.__setattr__(self, "feature_names", tuple(self.feature_names))
        feats = _readonly(np.atleast_2d(self.features))
        targs = _readonly(np.asarray(self.targets))
        n = len(self.predictor_dates)
        if feats.shape != (n, len(self.feature_names)):
            raise ValueError(f"features shape {feats.shape} inconsistent with dataset")
        if targs.shape != (n,) or not np.all(np.isin(targs, (0.0, 1.0))):
            raise ValueError("targets must be a binary vector, one entry per row")
        if not 0 < self.split_index < n:
            raise ValueError(
                f"split_index {self.split_index} leaves an empty partition (n={n})"
            )
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "targets", targs)

    @property
    def n_rows(self) -> int:
        return len(self.predictor_dates)


@contextmanager
def open_input(path: str) -> Iterator[TextIO]:
    """``path`` opened for reading as UTF-8 text past a byte-order mark, in
    Python's default newline mode, which reads CR LF and a lone CR as LF. An
    OSError while it is opened or read becomes UnreadableInput naming the
    file and the reason, and so does a byte that is not UTF-8."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            yield fh
    except OSError as exc:
        raise UnreadableInput(f"{path}: cannot read input file: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise UnreadableInput(f"{path}: input file is not UTF-8 text: {exc.reason}") from None


def _parse_csv(path: str) -> tuple[list[str], list[Month], np.ndarray]:
    """Parse one schema CSV into (column names, months, values).

    Each row holds one month, the month after the row above; ``values[i, j]``
    is column ``j`` in month ``months[i]``.
    """
    with open_input(path) as fh:
        lines = [(n, ln.rstrip("\n")) for n, ln in enumerate(fh, start=1) if ln.strip()]
    if not lines:
        raise MalformedRow(f"{path}: empty file")
    header = [h.strip() for h in lines[0][1].split(",")]
    if not header or header[0] != "date":
        raise MalformedRow(f"{path}: header must start with 'date', got {lines[0][1]!r}")
    cols = header[1:]
    if "" in cols:
        raise MalformedRow(f"{path}: header column {cols.index('') + 1} has no name")
    twice = next((c for i, c in enumerate(cols) if c in cols[:i]), None)
    if twice is not None:
        raise MalformedRow(f"{path}: header names the column {twice!r} twice")
    months: list[Month] = []
    rows: list[list[float]] = []
    for lineno, ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != len(header):
            raise MalformedRow(f"{path}:{lineno}: expected {len(header)} cells, got {len(parts)}")
        try:
            month = Month.parse(parts[0])
        except ValueError as exc:
            raise MalformedRow(f"{path}:{lineno}: {exc}") from None
        vals = []
        for name, cell in zip(cols, parts[1:]):
            if not _DECIMAL_RE.fullmatch(cell):
                raise MalformedRow(f"{path}:{lineno}: cannot parse {name}={cell!r}")
            v = float(cell)
            if not math.isfinite(v):
                raise MalformedRow(f"{path}:{lineno}: non-finite {name}={cell!r}")
            vals.append(v)
        months.append(month)
        rows.append(vals)
    if not months:
        raise MalformedRow(f"{path}: no data rows")
    _check_contiguous(months, path, [lineno for lineno, _ in lines[1:]])
    return cols, months, np.array(rows, dtype=float).reshape(len(rows), len(cols))


def load_yield_panel(paths: Sequence[str], maturities: Sequence[str]) -> YieldPanel:
    """Load and merge yield CSV files into a panel of the requested maturities.

    The panel holds the requested maturities, in the order asked for, then
    every column whose name is not a maturity code (the control series);
    unrequested maturities are dropped. When several files are given, the
    panel covers the intersection of their date ranges and a column appearing
    in more than one file takes its values from the last file listed.
    """
    if not paths:
        raise EmptyInput("no input files")
    if not maturities:
        raise MissingSeries("no maturities requested")
    for code in maturities:
        if code not in MATURITY_CODES:
            raise ValueError(f"unknown maturity code: {code!r}")

    files = [_parse_csv(path) for path in paths]
    starts, ends = [months[0] for _, months, _ in files], [months[-1] for _, months, _ in files]
    lo, hi = max(starts), min(ends)
    if hi < lo:
        late, early = paths[starts.index(lo)], paths[ends.index(hi)]
        raise CoverageError(f"{late}: starts {lo}, after {early} ends {hi}")

    found: dict[str, np.ndarray] = {}
    for cols, months, values in files:
        span = values[lo - months[0] : hi - months[0] + 1]
        found.update(zip(cols, span.T))
    for code in maturities:
        if code not in found:
            raise MissingSeries(f"maturity {code!r} not found in {list(paths)}")
    columns = {code: found[code] for code in maturities}
    columns.update((name, s) for name, s in found.items() if name not in MATURITY_CODES)
    return YieldPanel(dates=tuple(lo + i for i in range(hi - lo + 1)), columns=columns)


def load_recession_series(path: str) -> RecessionSeries:
    """Load a ``date,recession`` CSV into a RecessionSeries."""
    cols, months, values = _parse_csv(path)
    if cols != ["recession"]:
        raise MalformedRow(f"{path}: expected header 'date,recession', got columns {cols}")
    for month, v in zip(months, values[:, 0]):
        if v not in (0.0, 1.0):
            raise MalformedRow(f"{path}: {month} reads {v:g}, not 0 or 1")
    return RecessionSeries(dates=tuple(months), indicator=values[:, 0])


def monthly_average(
    daily_dates: Sequence[_dt.date],
    daily_values: Sequence[float],
) -> tuple[tuple[Month, ...], np.ndarray]:
    """Collapse daily observations to one arithmetic mean per calendar month."""
    if len(daily_dates) != len(daily_values):
        raise ValueError("dates and values differ in length")
    if len(daily_dates) == 0:
        raise EmptyInput("no daily observations")
    buckets: defaultdict[tuple[int, int], list[float]] = defaultdict(list)
    for day, value in zip(daily_dates, daily_values):
        v = float(value)
        if not math.isfinite(v):
            raise MalformedRow(f"non-finite observation on {day}")
        buckets[day.year, day.month].append(v)
    keys = sorted(buckets)
    # fsum makes the mean exactly invariant to the order of observations
    means = np.array([math.fsum(buckets[k]) / len(buckets[k]) for k in keys])
    return tuple(Month(y, m) for y, m in keys), means


def discount_to_bond_equivalent(discount_rate_pct: float, days_to_maturity: int) -> float:
    """Convert a discount-basis bill rate (percent) to bond-equivalent basis.

    Uses the money-market conversion 365*d / (360 - d*t) with d the decimal
    discount rate and t the days to maturity (91 for 3m bills, 182 for 6m).
    """
    if days_to_maturity not in (91, 182):
        raise DomainError(f"days_to_maturity must be 91 or 182, got {days_to_maturity}")
    if not 0.0 <= discount_rate_pct < 100.0:
        raise DomainError(f"discount rate out of range: {discount_rate_pct}")
    d = discount_rate_pct / 100.0
    return 100.0 * (365.0 * d) / (360.0 - d * days_to_maturity)


def align_dataset(
    panel: YieldPanel,
    recessions: RecessionSeries,
    horizon_months: int,
    split: SplitConfig,
    feature_names: Iterable[str],
) -> AlignedDataset:
    """Pair month-t features with the recession indicator at t + horizon.

    ``feature_names`` name the panel series of the feature columns, in order.
    A predictor month t is included iff t >= sample_start and
    t + horizon <= sample_end; the train partition holds the rows whose
    target date is <= train_end (so its predictor dates end ``horizon``
    months earlier). Raises HorizonTooLong if no rows or an empty partition
    remain, and CoverageError, naming the first target month it lacks, if
    the recession series misses a target month of those rows; months it
    lacks past the last target month, up to sample_end, are not needed.
    """
    if horizon_months < 1:
        raise ValueError("horizon_months must be >= 1")
    names = tuple(feature_names)
    cols = [panel.series(name) for name in names]

    # the panel's months are contiguous, so the usable rows are one range
    first = panel.dates[0] if panel.dates else split.sample_start
    lo = max(split.sample_start - first, 0)
    hi = min(split.sample_end - first - horizon_months + 1, len(panel.dates))
    if hi <= lo:
        raise HorizonTooLong(
            f"horizon of {horizon_months} months leaves no usable rows in the sample"
        )

    dates = panel.dates[lo:hi]
    features = np.column_stack([c[lo:hi] for c in cols]) if cols else np.empty((hi - lo, 0))
    targets = recessions.span(dates[0] + horizon_months, len(dates))
    split_index = min(max(split.train_end - dates[0] - horizon_months + 1, 0), len(dates))
    if not 0 < split_index < len(dates):
        raise HorizonTooLong(
            f"horizon of {horizon_months} months leaves an empty partition: "
            f"{split_index} training rows and {len(dates) - split_index} test rows"
        )
    return AlignedDataset(
        predictor_dates=dates,
        features=features,
        targets=targets,
        split_index=split_index,
        feature_names=names,
    )
