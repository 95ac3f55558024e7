"""Yield and recession data: ingestion, basis conversion, horizon alignment.

The unit of observation is the calendar month. Input files follow two CSV
schemas (UTF-8, LF, dot decimals, no thousands separators):

* yields:     ``date,<code1>,<code2>,...`` where codes are maturity labels
  (``3m`` ... ``30y``) or named control series; rows ``YYYY-MM,<decimal>,...``
* recessions: ``date,recession`` with rows ``YYYY-MM,0|1``

All types are immutable after construction; operations are pure functions.
"""

from __future__ import annotations

import datetime as _dt
import math
import re
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    CoverageError,
    DomainError,
    EmptyInput,
    GapInDates,
    HorizonTooLong,
    MalformedRow,
    MissingSeries,
)

_MONTH_RE = re.compile(r"^(\d{4})-(\d{2})$")

# code <-> month-count mapping is bijective by construction
CODE_TO_MONTHS = {
    "3m": 3, "6m": 6, "1y": 12, "2y": 24, "3y": 36,
    "5y": 60, "7y": 84, "10y": 120, "20y": 240, "30y": 360,
}
MONTHS_TO_CODE = {m: c for c, m in CODE_TO_MONTHS.items()}


@dataclass(frozen=True, order=True)
class Month:
    """A calendar year-month, ordered chronologically."""

    year: int
    month: int

    def __post_init__(self) -> None:
        if not 1 <= self.month <= 12:
            raise ValueError(f"month out of range: {self.month}")

    @classmethod
    def parse(cls, token: str) -> "Month":
        m = _MONTH_RE.match(token.strip())
        if m is None:
            raise ValueError(f"not a YYYY-MM token: {token!r}")
        return cls(int(m.group(1)), int(m.group(2)))

    @property
    def index(self) -> int:
        return self.year * 12 + (self.month - 1)

    def __add__(self, months: int) -> "Month":
        i = self.index + int(months)
        return Month(i // 12, i % 12 + 1)

    def __sub__(self, other: "Month") -> int:
        return self.index - other.index

    def __str__(self) -> str:
        return f"{self.year:04d}-{self.month:02d}"


@dataclass(frozen=True, order=True)
class MaturityLabel:
    """A Treasury maturity, identified by its code (``7y``) and month count."""

    months: int
    code: str

    def __post_init__(self) -> None:
        if CODE_TO_MONTHS.get(self.code) != self.months:
            raise ValueError(f"unknown maturity: code={self.code!r} months={self.months}")

    @classmethod
    def from_code(cls, code: str) -> "MaturityLabel":
        try:
            return cls(CODE_TO_MONTHS[code], code)
        except KeyError:
            raise ValueError(f"unknown maturity code: {code!r}") from None

    def __str__(self) -> str:
        return self.code


def _as_label(m: "MaturityLabel | str") -> MaturityLabel:
    return m if isinstance(m, MaturityLabel) else MaturityLabel.from_code(m)


def _check_contiguous(dates: Sequence[Month], origin: str) -> None:
    for prev, cur in zip(dates, dates[1:]):
        if cur - prev != 1:
            missing = prev + 1
            raise GapInDates(f"{origin}: missing month {missing} (between {prev} and {cur})")


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class YieldPanel:
    """Monthly per-maturity yield matrix (percent p.a.), plus control series.

    ``values[i, j]`` is the yield of ``maturities[j]`` in month ``dates[i]``.
    ``extras`` holds named control series aligned row-for-row with ``dates``.
    """

    dates: tuple[Month, ...]
    maturities: tuple[MaturityLabel, ...]
    values: np.ndarray
    extras: Mapping[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "dates", tuple(self.dates))
        object.__setattr__(self, "maturities", tuple(self.maturities))
        _check_contiguous(self.dates, "yield panel")
        vals = _readonly(np.atleast_2d(self.values))
        if vals.shape != (len(self.dates), len(self.maturities)):
            raise ValueError(
                f"values shape {vals.shape} != ({len(self.dates)}, {len(self.maturities)})"
            )
        if not np.all(np.isfinite(vals)):
            raise MalformedRow("yield panel contains non-finite cells")
        object.__setattr__(self, "values", vals)
        extras = {}
        for name, series in dict(self.extras).items():
            s = _readonly(np.asarray(series))
            if s.shape != (len(self.dates),):
                raise ValueError(f"extra series {name!r} has shape {s.shape}")
            if not np.all(np.isfinite(s)):
                raise MalformedRow(f"extra series {name!r} contains non-finite cells")
            extras[name] = s
        object.__setattr__(self, "extras", extras)

    @property
    def codes(self) -> tuple[str, ...]:
        return tuple(m.code for m in self.maturities)

    def series(self, name: str) -> np.ndarray:
        """Column by maturity code or control name."""
        if name in self.codes:
            return self.values[:, self.codes.index(name)]
        if name in self.extras:
            return self.extras[name]
        raise MissingSeries(f"no series named {name!r} in panel")


@dataclass(frozen=True)
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

    def at(self, month: Month) -> float:
        if not self.dates or not (self.dates[0] <= month <= self.dates[-1]):
            raise CoverageError(f"recession series does not cover {month}")
        return float(self.indicator[month - self.dates[0]])


@dataclass(frozen=True)
class SplitConfig:
    """Sample span and train/test split, all in target-date convention."""

    train_end: Month
    sample_start: Month
    sample_end: Month

    def __post_init__(self) -> None:
        if not (self.sample_start < self.train_end < self.sample_end):
            raise ValueError(
                f"need sample_start < train_end < sample_end, got "
                f"{self.sample_start} / {self.train_end} / {self.sample_end}"
            )


@dataclass(frozen=True)
class AlignedDataset:
    """(predictor, target) rows for one forecasting horizon.

    Row ``i`` pairs the feature vector observed at ``predictor_dates[i]``
    with the recession indicator ``horizon_months`` later. Rows are ordered
    chronologically; the first ``split_index`` rows have target dates inside
    the training period.
    """

    horizon_months: int
    predictor_dates: tuple[Month, ...]
    features: np.ndarray
    targets: np.ndarray
    split_index: int
    feature_names: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.horizon_months < 1:
            raise ValueError("horizon_months must be >= 1")
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


@dataclass(frozen=True)
class SplitView:
    """One side of a train/test partition; shares the parent's invariants."""

    predictor_dates: tuple[Month, ...]
    features: np.ndarray
    targets: np.ndarray
    feature_names: tuple[str, ...]


def _parse_csv(path: str) -> tuple[list[str], list[Month], list[list[float]]]:
    """Parse one schema CSV; returns (column names, months, row values)."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        lines = [ln.rstrip("\n").rstrip("\r") for ln in fh]
    lines = [ln for ln in lines if ln.strip()]
    if not lines:
        raise MalformedRow(f"{path}: empty file")
    header = [h.strip() for h in lines[0].split(",")]
    if not header or header[0] != "date":
        raise MalformedRow(f"{path}: header must start with 'date', got {lines[0]!r}")
    cols = header[1:]
    if len(set(cols)) != len(cols):
        raise MalformedRow(f"{path}: duplicate column names in header")
    months: list[Month] = []
    rows: list[list[float]] = []
    for lineno, ln in enumerate(lines[1:], start=2):
        parts = ln.split(",")
        if len(parts) != len(header):
            raise MalformedRow(f"{path}:{lineno}: expected {len(header)} cells, got {len(parts)}")
        try:
            month = Month.parse(parts[0])
        except ValueError as exc:
            raise MalformedRow(f"{path}:{lineno}: {exc}") from None
        vals = []
        for name, cell in zip(cols, parts[1:]):
            try:
                v = float(cell)
            except ValueError:
                raise MalformedRow(f"{path}:{lineno}: cannot parse {name}={cell!r}") from None
            if not np.isfinite(v):
                raise MalformedRow(f"{path}:{lineno}: non-finite {name}={cell!r}")
            vals.append(v)
        months.append(month)
        rows.append(vals)
    if not months:
        raise MalformedRow(f"{path}: no data rows")
    order = sorted(range(len(months)), key=lambda i: months[i])
    months = [months[i] for i in order]
    rows = [rows[i] for i in order]
    if len(set(months)) != len(months):
        raise MalformedRow(f"{path}: duplicate month rows")
    _check_contiguous(months, path)
    return cols, months, rows


def load_yield_panel(
    paths: Sequence[str],
    maturities: Sequence["MaturityLabel | str"],
) -> YieldPanel:
    """Load and merge yield CSV files into a panel of the requested maturities.

    Columns whose names are maturity codes supply the panel matrix; any other
    columns become named control series. When several files are given, the
    panel covers the intersection of their date ranges and a column appearing
    in more than one file takes its values from the last file listed.
    """
    if not paths:
        raise EmptyInput("no input files")
    labels = tuple(_as_label(m) for m in maturities)
    if not labels:
        raise MissingSeries("no maturities requested")

    columns: dict[str, dict[Month, float]] = {}
    starts, ends = [], []
    for path in paths:
        cols, months, rows = _parse_csv(path)
        starts.append(months[0])
        ends.append(months[-1])
        for j, name in enumerate(cols):
            columns[name] = {m: row[j] for m, row in zip(months, rows)}

    lo, hi = max(starts), min(ends)
    if hi < lo:
        raise CoverageError("input files have no overlapping months")
    dates = tuple(lo + i for i in range(hi - lo + 1))

    for lab in labels:
        if lab.code not in columns:
            raise MissingSeries(f"maturity {lab.code!r} not found in {list(paths)}")
    values = np.array([[columns[lab.code][d] for lab in labels] for d in dates])

    extras = {
        name: np.array([col[d] for d in dates])
        for name, col in columns.items()
        if name not in CODE_TO_MONTHS
    }
    return YieldPanel(dates=dates, maturities=labels, values=values, extras=extras)


def load_recession_series(path: str) -> RecessionSeries:
    """Load a ``date,recession`` CSV into a RecessionSeries."""
    cols, months, rows = _parse_csv(path)
    if cols != ["recession"]:
        raise MalformedRow(f"{path}: expected header 'date,recession', got columns {cols}")
    ind = np.array([r[0] for r in rows])
    if not np.all(np.isin(ind, (0.0, 1.0))):
        raise MalformedRow(f"{path}: recession values must be 0 or 1")
    return RecessionSeries(dates=tuple(months), indicator=ind)


def _format_cell(v: float) -> str:
    # %.6f keeps <=6-fractional-digit decimals bit-exact through a round trip
    s = f"{v:.6f}".rstrip("0").rstrip(".")
    return s if s not in ("", "-0") else "0"


def write_yield_panel(panel: YieldPanel, path: str) -> None:
    """Write a panel back to the yield CSV schema (maturities, then extras)."""
    extra_names = sorted(panel.extras)
    header = ["date", *panel.codes, *extra_names]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for i, d in enumerate(panel.dates):
            cells = [str(d)]
            cells += [_format_cell(v) for v in panel.values[i]]
            cells += [_format_cell(panel.extras[name][i]) for name in extra_names]
            fh.write(",".join(cells) + "\n")


def monthly_average(
    daily_dates: Sequence[_dt.date],
    daily_values: Sequence[float],
) -> tuple[tuple[Month, ...], np.ndarray]:
    """Collapse daily observations to one arithmetic mean per calendar month."""
    if len(daily_dates) != len(daily_values):
        raise ValueError("dates and values differ in length")
    if len(daily_dates) == 0:
        raise EmptyInput("no daily observations")
    buckets: dict[Month, list[float]] = {}
    for day, value in zip(daily_dates, daily_values):
        v = float(value)
        if not np.isfinite(v):
            raise MalformedRow(f"non-finite observation on {day}")
        buckets.setdefault(Month(day.year, day.month), []).append(v)
    months = tuple(sorted(buckets))
    # fsum makes the mean exactly invariant to the order of observations
    means = np.array([math.fsum(buckets[m]) / len(buckets[m]) for m in months])
    return months, means


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
    denom = 360.0 - d * days_to_maturity
    if denom <= 0.0:
        raise DomainError("conversion denominator is non-positive")
    return 100.0 * (365.0 * d) / denom


def align_dataset(
    panel: YieldPanel,
    recessions: RecessionSeries,
    horizon_months: int,
    split: SplitConfig,
    feature_names: Iterable[str] | None = None,
) -> AlignedDataset:
    """Pair month-t features with the recession indicator at t + horizon.

    A predictor month t is included iff t >= sample_start and
    t + horizon <= sample_end; the train partition holds the rows whose
    target date is <= train_end (so its predictor dates end ``horizon``
    months earlier). Raises HorizonTooLong if no rows or an empty partition
    remain.
    """
    if horizon_months < 1:
        raise ValueError("horizon_months must be >= 1")
    names = tuple(feature_names) if feature_names is not None else panel.codes
    cols = [panel.series(name) for name in names]

    if recessions.dates[-1] < split.sample_end:
        raise CoverageError(
            f"recession series ends {recessions.dates[-1]}, before sample_end {split.sample_end}"
        )

    rows: list[int] = []
    for i, t in enumerate(panel.dates):
        target_date = t + horizon_months
        if t >= split.sample_start and target_date <= split.sample_end:
            rows.append(i)
    if not rows:
        raise HorizonTooLong(
            f"horizon of {horizon_months} months leaves no usable rows in the sample"
        )

    dates = tuple(panel.dates[i] for i in rows)
    features = np.column_stack([c[rows] for c in cols]) if cols else np.empty((len(rows), 0))
    targets = np.array([recessions.at(t + horizon_months) for t in dates])
    split_index = sum(1 for t in dates if t + horizon_months <= split.train_end)
    if not 0 < split_index < len(dates):
        raise HorizonTooLong(
            f"horizon of {horizon_months} months leaves an empty partition: "
            f"{split_index} training rows and {len(dates) - split_index} test rows"
        )
    return AlignedDataset(
        horizon_months=horizon_months,
        predictor_dates=dates,
        features=features,
        targets=targets,
        split_index=split_index,
        feature_names=names,
    )


def split_views(ds: AlignedDataset) -> tuple[SplitView, SplitView]:
    """Disjoint, exhaustive (train, test) row partitions at ``split_index``."""
    k = ds.split_index
    train = SplitView(ds.predictor_dates[:k], ds.features[:k], ds.targets[:k], ds.feature_names)
    test = SplitView(ds.predictor_dates[k:], ds.features[k:], ds.targets[k:], ds.feature_names)
    return train, test
