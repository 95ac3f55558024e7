"""Data layer: parsing, conversion, alignment, and their invariants."""

from __future__ import annotations

import dataclasses
import datetime as dt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from termspread.data import (
    MATURITY_CODES,
    AlignedDataset,
    Month,
    RecessionSeries,
    SplitConfig,
    YieldPanel,
    align_dataset,
    discount_to_bond_equivalent,
    load_recession_series,
    load_yield_panel,
    monthly_average,
)
from termspread.errors import (
    CoverageError,
    DomainError,
    EmptyInput,
    GapInDates,
    HorizonTooLong,
    MalformedRow,
    MissingSeries,
)

from conftest import MATURITY_CODES as MATS
from conftest import write_yield_panel


# --- Month / maturity codes ---------------------------------------------------

def test_month_arithmetic_and_order():
    m = Month.parse("1994-12")
    assert m + 12 == Month(1995, 12)
    assert Month(1995, 12) - m == 12
    assert Month(1961, 6) < Month(1961, 7) < Month(1962, 1)
    assert str(Month(2020, 7)) == "2020-07"


def test_month_adds_integers_only():
    assert Month(2001, 1) + np.int64(13) == Month(2002, 2)
    for months in (1.7, np.float64(1.0)):
        with pytest.raises(TypeError):
            Month(2001, 1) + months


def test_month_fields_are_integers():
    # a float field would construct, and str() of it raise ValueError
    assert str(Month(np.int64(2001), np.int32(3))) == "2001-03"
    for year, month in ((2001, 1.5), (2001.0, 1), (2001, np.float64(1.0))):
        with pytest.raises(TypeError):
            Month(year, month)


def test_split_config_takes_months_only():
    # as text, "1961-06" < "1995-12" < "2020-07" would pass the order check
    with pytest.raises(TypeError, match="train_end must be a Month, got '1995-12'"):
        SplitConfig("1995-12", "1961-06", "2020-07")
    with pytest.raises(TypeError, match="sample_end must be a Month, got '2020-07'"):
        SplitConfig(Month(1995, 12), Month(1961, 6), "2020-07")


def test_month_rejects_bad_tokens():
    with pytest.raises(ValueError):
        Month.parse("1994/12")
    with pytest.raises(ValueError):
        Month(2000, 13)


def test_load_rejects_unknown_maturity_codes(tmp_path):
    assert MATURITY_CODES == ("3m", "6m", "1y", "2y", "3y", "5y", "7y", "10y", "20y", "30y")
    path = write(tmp_path, "codes.csv", "date,10y,4y,lead_idx\n2001-01,5.0,4.0,1.0\n")
    for name in ("4y", "lead_idx"):
        with pytest.raises(ValueError, match=f"unknown maturity code: '{name}'"):
            load_yield_panel([path], ["10y", name])


# --- loading -----------------------------------------------------------------

def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def test_load_single_maturity_identity(tmp_path):
    path = write(tmp_path, "one.csv", "date,10y\n2001-01,5.25\n2001-02,5.5\n2001-03,5\n")
    panel = load_yield_panel([path], ["10y"])
    assert list(panel.columns) == ["10y"]
    assert panel.series("10y").tolist() == [5.25, 5.5, 5.0]
    assert [str(d) for d in panel.dates] == ["2001-01", "2001-02", "2001-03"]


def test_load_full_width(tmp_path, market, data_files):
    panel, _ = market
    loaded = load_yield_panel([data_files["yields"]], MATS)
    assert list(loaded.columns) == [*MATS, "lead_idx"]
    assert all(s.shape == (710,) for s in loaded.columns.values())
    assert loaded.dates[0] == Month(1961, 6)
    assert loaded.dates[-1] == Month(2020, 7)


def test_load_missing_month_names_the_gap(tmp_path):
    path = write(
        tmp_path, "gap.csv", "date,10y\n1975-01,5.0\n1975-02,5.1\n1975-04,5.2\n"
    )
    with pytest.raises(GapInDates, match="1975-03"):
        load_yield_panel([path], ["10y"])


def test_load_missing_series(tmp_path):
    path = write(tmp_path, "m.csv", "date,10y\n2001-01,5.0\n")
    with pytest.raises(MissingSeries):
        load_yield_panel([path], ["10y", "3m"])


def test_load_malformed_cell(tmp_path):
    path = write(tmp_path, "bad.csv", "date,10y\n2001-01,5.0\n2001-02,oops\n")
    with pytest.raises(MalformedRow, match="2001-02|bad.csv:3"):
        load_yield_panel([path], ["10y"])


@pytest.mark.parametrize(
    "cell, lineno",
    [
        *(pytest.param(cell, 3, id=cell) for cell in
          ["1_000", " 4.5", "4.5 ", "1e0", "+4.5", "4.", ".5", "", "inf", "nan", "0x1p0", "\u0663"]),
        # below two blank lines, which keep their file line numbers
        pytest.param("x", 5, id="x-below-blank-lines"),
    ],
)
def test_load_rejects_cells_outside_the_decimal_grammar(tmp_path, cell, lineno):
    blank = "\n" * (lineno - 3)
    path = write(tmp_path, "cells.csv", f"date,10y\n2001-01,-0.25\n{blank}2001-02,{cell}\n")
    with pytest.raises(MalformedRow) as info:
        load_yield_panel([path], ["10y"])
    assert f"cells.csv:{lineno}: cannot parse 10y={cell!r}" in str(info.value)


@pytest.mark.parametrize(
    "text, message",
    [
        ("date,recession\n1961-06,0,1\n", ":2: expected 2 cells, got 3"),
        ("date,recession\n\n1961-06,0,1\n", ":3: expected 2 cells, got 3"),
        ("date,recession\n1961-06,0\n\n\n1961-07\n", ":5: expected 2 cells, got 1"),
    ],
    ids=["no-blank-line", "below-a-blank-line", "below-two-blank-lines"],
)
def test_load_rejects_a_row_with_the_wrong_cell_count(tmp_path, text, message):
    path = write(tmp_path, "r.csv", text)
    with pytest.raises(MalformedRow) as info:
        load_recession_series(path)
    assert str(info.value) == path + message


@pytest.mark.parametrize(
    "date", [" 2001-02", "2001-02 ", "\u0662\u0660\u0660\u0661-02", "2001-\u0660\u0662"]
)
def test_load_rejects_date_cells_outside_the_month_grammar(tmp_path, date):
    # as strict as value cells: ASCII digits only, no padding
    path = write(tmp_path, "dates.csv", f"date,10y\n2001-01,-0.25\n{date},4.5\n")
    with pytest.raises(MalformedRow) as info:
        load_yield_panel([path], ["10y"])
    assert f"dates.csv:3: not a YYYY-MM token: {date!r}" in str(info.value)


def _yields(paths):
    return load_yield_panel(paths, ["10y"])


def _recessions(paths):
    (path,) = paths
    return load_recession_series(path)


@pytest.mark.parametrize(
    "load, texts, error, where, message",
    [
        pytest.param(_yields, [""], MalformedRow, "", "empty file", id="empty-file"),
        pytest.param(_yields, ["month,10y\n2001-01,5\n"], MalformedRow, "",
                     "header must start with 'date', got 'month,10y'", id="header-not-date"),
        pytest.param(_yields, ["date,10y,3m,10y\n2001-01,5,3,5\n"], MalformedRow, "",
                     "header names the column '10y' twice", id="repeated-column"),
        pytest.param(_yields, ["date,10y,,3m\n2001-01,5,4,3\n"], MalformedRow, "",
                     "header column 2 has no name", id="unnamed-column"),
        pytest.param(_yields, ["date,10y\n\n"], MalformedRow, "", "no data rows",
                     id="header-only"),
        pytest.param(_yields, ["date,10y\n2001-01," + "9" * 400 + "\n"], MalformedRow, ":2",
                     f"non-finite 10y='{'9' * 400}'", id="overflows-to-inf"),
        pytest.param(_yields, ["date,10y\n2001-01,5\n2001-02,5\n", "date,3m\n2001-03,3\n"],
                     CoverageError, "", "starts 2001-03, after {0} ends 2001-02",
                     id="no-common-month"),
        pytest.param(_recessions, ["date,recession\n1961-06,0\n1961-07,1\n1961-06,1\n"],
                     MalformedRow, ":4", "month 1961-06 follows 1961-07, expected 1961-08",
                     id="repeated-month"),
        pytest.param(_recessions, ["date,rec\n1961-06,0\n"], MalformedRow, "",
                     "expected header 'date,recession', got columns ['rec']",
                     id="recession-header"),
        pytest.param(_yields, ["date,10y\n2001-01,5\n2001-02,5\n2000-12,5\n"], MalformedRow,
                     ":4", "month 2000-12 follows 2001-02, expected 2001-03", id="month-goes-back"),
        pytest.param(_yields, ["date,10y\n2001-01,5\n\n2001-03,5\n"], GapInDates, ":4",
                     "month 2001-03 follows 2001-01, expected 2001-02", id="skipped-month"),
    ],
)
def test_load_rejects_bad_input_at_its_path_and_line(
    tmp_path, load, texts, error, where, message
):
    paths = [write(tmp_path, f"in{i}.csv", text) for i, text in enumerate(texts)]
    with pytest.raises(error) as info:
        load(paths)
    assert str(info.value) == f"{paths[-1]}{where}: " + message.format(*paths)


def test_load_merges_files_on_date_intersection(tmp_path):
    a = write(tmp_path, "a.csv", "date,10y\n2001-01,5.0\n2001-02,5.1\n2001-03,5.2\n")
    b = write(tmp_path, "b.csv", "date,3m\n2001-02,3.0\n2001-03,3.1\n2001-04,3.2\n")
    panel = load_yield_panel([a, b], ["10y", "3m"])
    assert [str(d) for d in panel.dates] == ["2001-02", "2001-03"]
    assert {k: v.tolist() for k, v in panel.columns.items()} == {
        "10y": [5.1, 5.2], "3m": [3.0, 3.1],
    }


def test_panel_round_trip_is_bit_exact(tmp_path, market):
    panel, _ = market
    out = tmp_path / "rt.csv"
    write_yield_panel(panel, str(out))
    reloaded = load_yield_panel([str(out)], MATS)
    assert list(reloaded.columns) == list(panel.columns)
    for name, series in panel.columns.items():
        assert np.array_equal(reloaded.series(name), series)
    assert reloaded.dates == panel.dates


def test_recession_loader_validates_values(tmp_path):
    ok = write(tmp_path, "r.csv", "date,recession\n2001-01,0\n2001-02,1\n")
    series = load_recession_series(ok)
    assert series.indicator.tolist() == [0.0, 1.0]
    bad = write(tmp_path, "rb.csv", "date,recession\n1961-06,0\n1961-07,2\n1961-08,3\n")
    with pytest.raises(MalformedRow) as info:
        load_recession_series(bad)
    assert str(info.value) == f"{bad}: 1961-07 reads 2, not 0 or 1"


# --- monthly averaging --------------------------------------------------------

def test_monthly_average_two_point_mean():
    months, vals = monthly_average(
        [dt.date(2001, 1, 2), dt.date(2001, 1, 15)], [4.0, 6.0]
    )
    assert months == (Month(2001, 1),)
    assert vals.tolist() == [5.0]


def test_monthly_average_single_day_identity():
    months, vals = monthly_average([dt.date(2001, 3, 9)], [3.7])
    assert months == (Month(2001, 3),) and vals.tolist() == [3.7]


def test_monthly_average_constant_series():
    days = [dt.date(2001, 7, d) for d in range(2, 23)]
    months, vals = monthly_average(days, [3.25] * 21)
    assert months == (Month(2001, 7),) and vals.tolist() == [3.25]


def test_monthly_average_empty_input():
    with pytest.raises(EmptyInput):
        monthly_average([], [])


def test_monthly_average_permutation_invariant():
    rng = np.random.default_rng(0)
    days = [dt.date(2001, 5, 1 + int(i)) for i in rng.integers(0, 28, 40)]
    values = rng.normal(5.0, 2.0, 40)
    base = monthly_average(days, values)[1]
    for perm_seed in range(5):
        order = np.random.default_rng(perm_seed).permutation(40)
        permuted = monthly_average([days[i] for i in order], values[order])[1]
        assert np.array_equal(base, permuted)


# --- discount -> bond-equivalent ----------------------------------------------

def test_bond_equivalent_known_values():
    assert discount_to_bond_equivalent(0.0, 91) == 0.0
    # direct evaluation of 100 * 365d / (360 - d*t)
    assert discount_to_bond_equivalent(5.0, 91) == pytest.approx(5.1343, abs=5e-5)
    assert discount_to_bond_equivalent(5.0, 182) == pytest.approx(5.2009, abs=5e-5)


def test_bond_equivalent_domain_checks():
    with pytest.raises(DomainError):
        discount_to_bond_equivalent(5.0, 120)
    with pytest.raises(DomainError):
        discount_to_bond_equivalent(-0.1, 91)
    with pytest.raises(DomainError):
        discount_to_bond_equivalent(100.0, 91)


def test_bond_equivalent_monotone_and_dominating():
    for days in (91, 182):
        rates = np.linspace(0.01, 30.0, 200)
        outs = [discount_to_bond_equivalent(r, days) for r in rates]
        assert all(b > a for a, b in zip(outs, outs[1:]))
        assert all(out >= r for out, r in zip(outs, rates))


# --- alignment -----------------------------------------------------------------

def test_align_paper_style_split(market, split95):
    panel, recessions = market
    ds = align_dataset(panel, recessions, 12, split95, MATS)
    # train targets end 1995-12, so train predictors end 1994-12
    assert str(ds.predictor_dates[ds.split_index - 1]) == "1994-12"
    assert str(ds.predictor_dates[ds.split_index]) == "1995-01"
    # rows: predictors 1961-06 .. 2019-07 (targets through 2020-07)
    assert ds.n_rows == 698
    assert ds.split_index == 403


def test_align_rows_match_brute_force(market, split95):
    panel, recessions = market
    ds = align_dataset(panel, recessions, 12, split95, MATS)
    start = panel.dates[0]
    for i in range(0, ds.n_rows, 37):
        t = ds.predictor_dates[i]
        assert ds.features[i].tolist() == [panel.series(m)[t - start] for m in MATS]
        assert ds.targets[i] == recessions.indicator[t + 12 - recessions.dates[0]]
    for t, date in enumerate(ds.predictor_dates):
        assert (date + 12 <= split95.train_end) == (t < ds.split_index)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    horizon=st.integers(1, 60),
    # month offsets from the panel's first month of sample_start < train_end <
    # sample_end; the recession series runs 24 months past the panel
    offsets=st.sets(st.integers(0, 733), min_size=3, max_size=3).map(sorted),
    names=st.lists(st.sampled_from([*MATS, "lead_idx"]), min_size=1, max_size=4, unique=True),
)
def test_align_split_boundary_property(market, horizon, offsets, names):
    panel, recessions = market
    start = panel.dates[0]
    split = SplitConfig(*(start + k for k in (offsets[1], offsets[0], offsets[2])))
    usable = [
        t for t in panel.dates if t >= split.sample_start and t + horizon <= split.sample_end
    ]
    n_train = sum(1 for t in usable if t + horizon <= split.train_end)
    if not 0 < n_train < len(usable):
        with pytest.raises(HorizonTooLong):
            align_dataset(panel, recessions, horizon, split, names)
        return
    ds = align_dataset(panel, recessions, horizon, split, names)
    assert ds.predictor_dates == tuple(usable)
    assert ds.split_index == n_train
    for i, t in enumerate(ds.predictor_dates):
        assert (i < ds.split_index) == (t + horizon <= split.train_end)
        assert ds.features[i].tolist() == [panel.series(name)[t - start] for name in names]
        assert ds.targets[i] == recessions.indicator[t + horizon - recessions.dates[0]]


def test_align_one_month_horizon_minimal():
    dates = (Month(2001, 1), Month(2001, 2), Month(2001, 3))
    panel = YieldPanel(dates=dates, columns={"10y": np.array([5.0, 5.1, 5.2])})
    recs = RecessionSeries(dates=dates, indicator=np.array([0.0, 1.0, 0.0]))
    split = SplitConfig(
        train_end=Month(2001, 2), sample_start=Month(2001, 1), sample_end=Month(2001, 3)
    )
    ds = align_dataset(panel, recs, 1, split, ["10y"])
    assert ds.n_rows == 2  # Jan->Feb, Feb->Mar
    assert ds.targets.tolist() == [1.0, 0.0]
    assert ds.split_index == 1


def test_align_horizon_too_long(market, split95):
    panel, recessions = market
    with pytest.raises(HorizonTooLong):
        align_dataset(panel, recessions, 2000, split95, MATS)


def test_align_coverage_error(market, split95):
    panel, recessions = market
    short = RecessionSeries(
        dates=recessions.dates[:200], indicator=recessions.indicator[:200]
    )
    # h=12: the series ends 1978-01, so the first target month it lacks is 1978-02
    with pytest.raises(CoverageError, match="does not cover 1978-02$"):
        align_dataset(panel, short, 12, split95, MATS)
    # h=12 from 1961-06: the first target month is 1962-06
    late = RecessionSeries(dates=recessions.dates[20:], indicator=recessions.indicator[20:])
    with pytest.raises(CoverageError, match="does not cover 1962-06$"):
        align_dataset(panel, late, 12, split95, MATS)
    # a series that starts at the first target month covers every row
    on_time = RecessionSeries(dates=recessions.dates[12:], indicator=recessions.indicator[12:])
    ds = align_dataset(panel, on_time, 12, split95, MATS)
    full = align_dataset(panel, recessions, 12, split95, MATS)
    assert ds.targets.tobytes() == full.targets.tobytes()


def test_align_needs_only_the_target_months_the_rows_use(market, split95):
    # yields end 2019-12, so with h=3 the last target month is 2020-03; a
    # recession series that ends 2020-06, before sample_end, covers every row
    panel, recessions = market
    n = Month(2019, 12) - panel.dates[0] + 1
    short = YieldPanel(panel.dates[:n], {name: v[:n] for name, v in panel.columns.items()})
    m = Month(2020, 6) - recessions.dates[0] + 1
    recs = RecessionSeries(recessions.dates[:m], recessions.indicator[:m])
    ds = align_dataset(short, recs, 3, split95, MATS)
    early = dataclasses.replace(split95, sample_end=Month(2020, 3))
    same = align_dataset(short, recs, 3, early, MATS)
    assert ds.predictor_dates == same.predictor_dates and ds.predictor_dates[-1] == Month(2019, 12)
    assert ds.split_index == same.split_index
    assert ds.features.tobytes() == same.features.tobytes()
    assert ds.targets.tobytes() == same.targets.tobytes()


def test_align_with_an_empty_recession_series_is_a_coverage_error(market, split95):
    panel, _ = market
    # h=12 from 1961-06: the first target month is 1962-06
    with pytest.raises(CoverageError, match="does not cover 1962-06$"):
        align_dataset(panel, RecessionSeries((), np.array([])), 12, split95, MATS)


def test_recession_span_names_the_first_uncovered_month(market):
    _, recessions = market
    first, last = recessions.dates[0], recessions.dates[-1]
    assert recessions.span(first + 3, 4).tolist() == recessions.indicator[3:7].tolist()
    with pytest.raises(CoverageError, match=f"does not cover {first + -1}$"):
        recessions.span(first + -1, 2)
    with pytest.raises(CoverageError, match=f"does not cover {last + 1}$"):
        recessions.span(last + -1, 3)
    with pytest.raises(CoverageError, match=f"does not cover {last + 5}$"):
        recessions.span(last + 5, 1)


def test_split_index_partition(market, split95):
    panel, recessions = market
    ds = align_dataset(panel, recessions, 12, split95, MATS)
    k = ds.split_index
    train_y, test_y = ds.targets[:k], ds.targets[k:]
    assert len(train_y) == ds.split_index
    assert len(train_y) + len(test_y) == ds.n_rows
    assert np.array_equal(np.vstack([ds.features[:k], ds.features[k:]]), ds.features)
    assert np.array_equal(np.concatenate([train_y, test_y]), ds.targets)


def test_split_index_arithmetic_matches_stated_counts():
    # 710 rows split at 414 -> 414 train, 296 test
    dates = tuple(Month(1961, 6) + i for i in range(710))
    values = np.linspace(1.0, 2.0, 710)[:, None]
    ds = AlignedDataset(
        predictor_dates=dates,
        features=values,
        targets=np.array([1.0] + [0.0] * 709),
        split_index=414,
        feature_names=("10y",),
    )
    k = ds.split_index
    assert len(ds.targets[:k]) == ds.features[:k].shape[0] == 414
    assert len(ds.targets[k:]) == ds.features[k:].shape[0] == 296


def test_split_index_single_row_test_boundary():
    dates = tuple(Month(2000, 1) + i for i in range(5))
    ds = AlignedDataset(
        predictor_dates=dates,
        features=np.arange(5.0)[:, None],
        targets=np.array([0.0, 1.0, 0.0, 0.0, 1.0]),
        split_index=4,
        feature_names=("10y",),
    )
    assert len(ds.targets[ds.split_index:]) == 1


def test_dataset_rejects_empty_partitions():
    dates = tuple(Month(2000, 1) + i for i in range(3))
    with pytest.raises(ValueError):
        AlignedDataset(
            predictor_dates=dates,
            features=np.zeros((3, 1)),
            targets=np.array([0.0, 1.0, 0.0]),
            split_index=3,
            feature_names=("10y",),
        )
