"""Experiment runner, emitters, CLI surface."""

from __future__ import annotations

import ast
import csv
import dataclasses
import errno
import filecmp
import importlib
import importlib.util
import json
import os
import re
import runpy
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from termspread import cli, errors, experiment, logit, selection
from termspread.cli import main as cli_main
from termspread.data import YieldPanel
from termspread.errors import ConfigError, IoError, UnreadableInput
from termspread.evaluation import EvalReport, avg_log_likelihood
from termspread.experiment import (
    DEFAULT_HORIZONS,
    PANELS,
    ExperimentConfig,
    emit_all,
    run_experiment,
)
from termspread.logit import ClassWeights

from conftest import MATURITY_CODES as MATS
from conftest import REPO_ROOT, make_market, readme_block, readme_config, write_market
from reference import per_cell_outputs


def base_config_dict(data_files, **overrides):
    """The README config on ``data_files``, horizons 3 and 12 unless overridden."""
    return readme_config(data_files, **{"horizons": [3, 12], **overrides})


def write_config(tmp_path, data_files, **overrides):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(base_config_dict(data_files, **overrides)), "utf-8")
    return str(path)


# --- config parsing --------------------------------------------------------------

def test_config_defaults(tmp_path, data_files):
    # the README's config less the keys it states at their defaults
    explicit = base_config_dict(data_files)
    raw = {k: v for k, v in explicit.items()
           if k not in ("horizons", "weighting", "forced_controls", "target_nonzero")}
    cfg = ExperimentConfig.from_mapping(raw)
    assert cfg.horizons == DEFAULT_HORIZONS
    assert cfg.weighting is False
    assert cfg.forced_controls == ()
    # the README's horizons and "target_nonzero": 2 parse and change nothing
    explicit["horizons"] = list(DEFAULT_HORIZONS)
    path = tmp_path / "explicit.json"
    path.write_text(json.dumps(explicit), "utf-8")
    assert ExperimentConfig.from_json(str(path)) == cfg
    assert not hasattr(cfg, "target_nonzero")


def test_config_rejects_unknown_keys(tmp_path, data_files):
    path = tmp_path / "bad.json"
    raw = base_config_dict(data_files)
    raw["extra_knob"] = 1
    path.write_text(json.dumps(raw), "utf-8")
    with pytest.raises(ConfigError, match="extra_knob"):
        ExperimentConfig.from_json(str(path))


def test_config_rejects_missing_and_malformed(tmp_path, data_files, capsys):
    path = tmp_path / "m.json"
    raw = base_config_dict(data_files)
    del raw["split"]
    path.write_text(json.dumps(raw), "utf-8")
    with pytest.raises(ConfigError, match="split"):
        ExperimentConfig.from_json(str(path))
    path.write_text("{not json", "utf-8")
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json(str(path))
    path.write_text(json.dumps([raw]), "utf-8")
    with pytest.raises(ConfigError, match="config root must be a JSON object"):
        ExperimentConfig.from_json(str(path))
    # a config that cannot be opened is reported as an input file would be
    out = tmp_path / "o"
    for absent, reason in [(tmp_path / "absent.json", errno.ENOENT), (tmp_path, errno.EISDIR)]:
        message = f"{absent}: cannot read input file: {os.strerror(reason)}"
        with pytest.raises(UnreadableInput, match=re.escape(message)):
            ExperimentConfig.from_json(str(absent))
        assert cli_main(["run", "--config", str(absent), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()
    # a key named twice, at the top or in split, is refused before any input is read
    missing = str(tmp_path / "absent.csv")
    text = json.dumps(base_config_dict({"yields": missing, "recessions": missing}, horizons=[3]))
    out = tmp_path / "o"
    for twice, key in [
        (text[:-1] + ', "horizons": [6]}', "horizons"),
        (text.replace('"split": {', '"split": {"train_end": "1990-12", '), "train_end"),
    ]:
        path.write_text(twice, "utf-8")
        message = f"config names the key '{key}' twice"
        with pytest.raises(ConfigError, match=message):
            ExperimentConfig.from_json(str(path))
        assert cli_main(["run", "--config", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {path}: {message}\n"
        assert not out.exists()


@pytest.mark.parametrize(
    "text, message",
    [
        ("{not json", "config is not valid JSON: Expecting property name enclosed in double "
                      "quotes: line 1 column 2 (char 1)"),
        ("[]", "config root must be a JSON object"),
        ('{"yield_files": []}', "missing config keys: "
                                "['maturities', 'recession_file', 'split']"),
        (None, "horizons must not be empty"),
    ],
    ids=["not-json", "not-an-object", "missing-keys", "post-init"],
)
def test_config_refusals_name_the_config_file(tmp_path, data_files, capsys, text, message):
    path = tmp_path / "c.json"
    raw = base_config_dict(data_files, horizons=[])
    path.write_text(json.dumps(raw) if text is None else text, "utf-8")
    with pytest.raises(ConfigError) as caught:
        ExperimentConfig.from_json(str(path))
    assert str(caught.value) == f"{path}: {message}"
    assert cli_main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == f"error: {path}: {message}\n"
    # a mapping has no file to name
    if text is None:
        with pytest.raises(ConfigError) as caught:
            ExperimentConfig.from_mapping(raw)
        assert str(caught.value) == message


def test_config_validates_horizons(tmp_path, data_files):
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json(
            write_config(tmp_path, data_files, horizons=[12, 3])
        )
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json(write_config(tmp_path, data_files, horizons=[0]))
    with pytest.raises(ConfigError, match="each listed once"):
        ExperimentConfig.from_json(write_config(tmp_path, data_files, horizons=[3, 3]))


@pytest.mark.parametrize(
    "key, value",
    [
        ("yield_files", "ab"),  # would have been split into ('a', 'b')
        ("weighting", "false"),  # would have been truthy
        ("target_nonzero", 2.9),  # would have been truncated to 2
        ("horizons", [3.7]),  # would have been truncated to (3,)
        ("recession_file", 3),
        ("split", "1995-12"),  # not the object of three months
    ],
)
def test_config_rejects_coercible_types(tmp_path, data_files, capsys, key, value):
    cfg_path = write_config(tmp_path, data_files, **{key: value})
    with pytest.raises(ConfigError, match=key):
        ExperimentConfig.from_json(cfg_path)
    assert cli_main(["run", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 1
    assert key in capsys.readouterr().err


def test_config_target_nonzero_checked_before_any_input_is_read(tmp_path, capsys):
    missing = str(tmp_path / "absent.csv")
    raw = base_config_dict({"yields": missing, "recessions": missing}, target_nonzero=3)
    path = tmp_path / "three.json"
    path.write_text(json.dumps(raw), "utf-8")
    assert cli_main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "target_nonzero must be 2" in err and "absent.csv" not in err


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"maturities": [*MATS, "4y"]}, "unknown maturity code '4y' in maturities"),
        ({"maturities": [*MATS, "lead_idx"]}, "unknown maturity code 'lead_idx' in maturities"),
        ({"maturities": ["3m", "3m", "10y", "5y"]}, "maturities names a series twice"),
        ({"forced_controls": ["lead_idx", "lead_idx"]}, "forced_controls names a series twice"),
        ({"forced_controls": ["10y"]}, "forced control '10y' is a maturity code"),
        ({"maturities": ["3m", "5y", "20y"]}, "must include '10y' and '3m'"),
        ({"maturities": ["1y", "10y"]}, "must include '10y' and '3m'"),
        ({"yield_files": []}, "yield_files must not be empty"),
        ({"horizons": []}, "horizons must not be empty"),
        ({"split": {"train_end": "1995-12"}},
         "split must have exactly the keys ['sample_end', 'sample_start', 'train_end']"),
    ],
    ids=["unknown-code", "control-as-maturity", "duplicate-maturity", "duplicate-control",
         "maturity-as-control", "no-10y", "no-3m", "no-yield-files", "no-horizons",
         "split-keys"],
)
def test_cli_rejects_series_names_before_any_input_is_read(
    tmp_path, data_files, capsys, overrides, message
):
    # the config alone decides: ConfigError comes from parsing, which reads no input
    with pytest.raises(ConfigError, match=re.escape(message)):
        ExperimentConfig.from_mapping(base_config_dict(data_files, **overrides))
    cfg_path = write_config(tmp_path, data_files, **overrides)
    out = tmp_path / "o"
    assert cli_main(["run", "--config", cfg_path, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists()


def test_config_validates_split_ordering(tmp_path, data_files):
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json(
            write_config(
                tmp_path,
                data_files,
                split={
                    "sample_start": "1996-01",
                    "train_end": "1995-12",
                    "sample_end": "2020-07",
                },
            )
        )


@pytest.mark.parametrize("train_end", [" 1995-12", "1995-12 ", 199512])
def test_config_rejects_split_dates_that_are_not_month_strings(tmp_path, data_files, train_end):
    split = {"sample_start": "1961-06", "train_end": train_end, "sample_end": "2020-07"}
    with pytest.raises(ConfigError, match=re.escape(f"not a YYYY-MM token: {train_end!r}")):
        ExperimentConfig.from_json(write_config(tmp_path, data_files, split=split))


def test_config_constructed_directly_rejects_a_split_that_is_not_a_split_config(data_files):
    # from_mapping builds the SplitConfig; a direct caller must pass one
    raw = base_config_dict(data_files, split={"train_end": "1995-12"})
    del raw["target_nonzero"]  # a config key, not a field
    message = "split must be a SplitConfig, got {'train_end': '1995-12'}"
    with pytest.raises(ConfigError, match=re.escape(message)):
        ExperimentConfig(**raw)


# --- running ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_run(data_files):
    cfg = ExperimentConfig.from_mapping(base_config_dict(data_files))
    return run_experiment(cfg)


def test_run_produces_four_panels_per_horizon(small_run):
    assert list(small_run.artifacts) == [3, 12]
    for art in small_run.artifacts.values():
        assert list(art.models) == list(art.forecasts) == list(art.reports) == list("ABCD")
    # a report holds metrics only: its horizon and panel are the keys above
    assert [f.name for f in dataclasses.fields(EvalReport)] == [
        "log_l_train", "log_ppl_test", "ebf", "auc_train", "auc_test", "rm", "avg_weight",
    ]


def test_benchmark_ebf_exactly_one(small_run):
    assert all(art.reports["D"].ebf == 1.0 for art in small_run.artifacts.values())


def test_panel_b_reuses_selected_pair(small_run):
    for art in small_run.artifacts.values():
        assert art.models["A"].spec.pair == art.models["B"].spec.pair == art.selection.pair


def test_panels_cd_use_conventional_pair(small_run):
    for art in small_run.artifacts.values():
        for letter in ("C", "D"):
            assert art.models[letter].spec.pair == ("10y", "3m")


def test_simple_panels_constrain_coefficients(small_run):
    for art in small_run.artifacts.values():
        for letter in ("B", "D"):
            b_long, b_short = art.models[letter].display_coefficients
            assert b_long == -b_short


def test_panel_b_equals_d_when_pair_is_conventional(small_run):
    for art in small_run.artifacts.values():
        b, d = art.models["B"], art.models["D"]
        if b.spec.pair == d.spec.pair:
            assert b.display_coefficients == d.display_coefficients
            assert art.reports["B"].log_ppl_test == art.reports["D"].log_ppl_test


def test_reports_carry_rm_and_weight(small_run):
    assert PANELS["D"] == "simple_conventional"
    for art in small_run.artifacts.values():
        bench = art.reports["D"]
        for r in art.reports.values():
            assert r.rm > 0
            assert 0.0 <= r.avg_weight <= 1.0
            assert abs(r.avg_weight - r.ebf / (1 + r.ebf)) < 1e-12
            assert r.ebf == pytest.approx(np.exp(r.log_ppl_test - bench.log_ppl_test), rel=1e-12)


def test_weighted_run_differs_and_uses_training_ratio(data_files):
    cfg = ExperimentConfig.from_mapping(
        base_config_dict(data_files, horizons=[12], weighting=True)
    )
    weighted = run_experiment(cfg).artifacts[12]
    assert weighted.reports["D"].ebf == 1.0
    plain = run_experiment(
        ExperimentConfig.from_mapping(base_config_dict(data_files, horizons=[12]))
    ).artifacts[12]
    assert weighted.reports["D"].log_l_train != plain.reports["D"].log_l_train
    # the fits and the scores share one set of weights, from the training ratio
    train_y = weighted.dataset.targets[: weighted.dataset.split_index]
    w = ClassWeights.from_targets(train_y).per_row(train_y)
    assert weighted.reports["D"].log_l_train == avg_log_likelihood(
        train_y, weighted.forecasts["D"].probabilities[: len(train_y)], w
    )


def test_forced_control_run(data_files):
    cfg = ExperimentConfig.from_mapping(
        base_config_dict(data_files, horizons=[12], forced_controls=["lead_idx"])
    )
    result = run_experiment(cfg)
    art = result.artifacts[12]
    for letter in ("A", "B", "C", "D"):
        model = art.models[letter]
        assert model.control_coefs == {"lead_idx": model.coefs[-1]}
    # the control is exempt from the penalty, so it survives selection
    j = art.path.feature_names.index("lead_idx")
    assert not art.path.problem.penalty_mask[j]
    fit = art.selection.fit
    coefs = art.path.problem.original(fit)[1]
    assert art.models["A"].control_coefs["lead_idx"] == coefs[j] != 0.0


# --- emitters ----------------------------------------------------------------------

def test_emit_all_csv_panel_layout(small_run, tmp_path):
    out = tmp_path / "tables"
    paths = emit_all(small_run, str(out))
    # panels, the reports, then per horizon the path, the series and four ROCs
    expected = ["panel_A.csv", "panel_B.csv", "panel_C.csv", "panel_D.csv", "eval_reports.csv"]
    for h in (3, 12):
        expected += [f"coefficient_path_h{h}.csv", f"spread_series_h{h}.csv"]
        expected += [f"roc_h{h}_{letter}.csv" for letter in "ABCD"]
    assert [os.path.basename(p) for p in paths] == expected
    assert paths[0] == os.path.join(str(out), "panel_A.csv")
    with open(out / "panel_A.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [
        "horizon", "pair", "beta", "lambda",
        "auc_train", "auc_test", "log_l", "log_ppl", "ebf",
    ]
    assert rows[1][0] == "3"
    assert rows[1][1].startswith("(") and "," in rows[1][1]
    # three-decimal formatting throughout the numeric columns
    for cell in rows[1][3:]:
        assert len(cell.split(".")[-1]) == 3
    # panel D has no lambda column
    with open(out / "panel_D.csv", newline="") as fh:
        d_rows = list(csv.reader(fh))
    assert "lambda" not in d_rows[0]
    assert d_rows[1][-1] == "1.000"


def test_emit_all_markdown_panels(small_run, tmp_path):
    out = tmp_path / "md"
    paths = emit_all(small_run, str(out), fmt="markdown")
    assert [os.path.basename(p) for p in paths[:5]] == [
        "panel_A.md", "panel_B.md", "panel_C.md", "panel_D.md", "eval_reports.csv",
    ]
    with open(os.path.join(str(out), "panel_A.md")) as fh:
        text = fh.read()
    lines = text.splitlines()
    assert lines[0].startswith("| horizon | pair | beta |")
    assert set(lines[1].replace("|", "")) <= {"-"}
    assert lines[2].startswith("| 3 | (")


def test_emit_all_rejects_empty_result(small_run, tmp_path):
    broken = dataclasses.replace(small_run, artifacts={})
    out = tmp_path / "broken"
    with pytest.raises(IoError):
        emit_all(broken, str(out))
    assert not out.exists()  # nothing partially written


def test_emit_all_rejects_unknown_format(small_run, tmp_path):
    out = tmp_path / "html"
    with pytest.raises(ConfigError):
        emit_all(small_run, str(out), fmt="html")
    assert not out.exists()


def test_emit_all_plot_data(small_run, tmp_path):
    out = tmp_path / "full"
    emit_all(small_run, str(out))
    # coefficient path: lambda + one column per maturity; selection row present
    with open(out / "coefficient_path_h12.csv") as fh:
        header = fh.readline().strip().split(",")
        assert header == ["lambda", *MATS]
        matrix = [line.strip().split(",") for line in fh]
    lambdas = [float(r[0]) for r in matrix]
    assert lambdas == sorted(lambdas)
    sel_lambda = small_run.artifacts[12].selection.lambda_selected
    at_sel = min(matrix, key=lambda r: abs(float(r[0]) - sel_lambda))
    nonzero = sum(1 for cell in at_sel[1:] if float(cell) != 0.0)
    assert nonzero == 2

    # spread series: is_test flips exactly at the split (12 months before
    # the target-date split, i.e. first test predictor month is 1995-01)
    with open(out / "spread_series_h12.csv") as fh:
        rows = list(csv.DictReader(fh))
    flips = [r["date"] for i, r in enumerate(rows) if r["is_test"] == "1"]
    assert flips[0] == "1995-01"
    assert rows[0]["date"] == "1961-06"
    assert {r["is_recession"] for r in rows} == {"0", "1"}

    # roc files: endpoints and auc metadata
    with open(out / "roc_h12_A.csv") as fh:
        meta = fh.readline()
        assert meta.startswith("# horizon=12 panel=A auc=0.")
        assert fh.readline().strip() == "fpr,tpr"
        pts = [tuple(map(float, line.split(","))) for line in fh]
    assert pts[0] == (0.0, 0.0) and pts[-1] == (1.0, 1.0)


@pytest.mark.parametrize("fmt", ["csv", "markdown"])
@pytest.mark.parametrize("run", ["plain", "weighted_lead"])
def test_emit_all_writes_the_bytes_of_the_per_cell_writer(seed42_runs, tmp_path, run, fmt):
    # both renderings format one in-process result, so this holds on any BLAS
    result = seed42_runs[run]
    paths = emit_all(result, str(tmp_path / "out"), fmt=fmt)
    want = per_cell_outputs(result, markdown=fmt == "markdown")
    assert len(paths) == 53
    assert [os.path.basename(p) for p in paths] == list(want)
    for path in paths:
        with open(path, "rb") as fh:
            assert fh.read() == want[os.path.basename(path)].encode("utf-8"), path


@given(st.floats())
@example(-0.0)
@example(5e-324)  # the smallest subnormal
@example(2.2250738585072009e-308)  # the largest subnormal
@example(1e16)
@example(2.0**60)
@example(-123456789012345678.0)
@example(1e22)
@example(float("nan"))
@example(float("-inf"))
def test_row_format_matches_per_cell_format(x):
    assert "%.10g" % x == format(x, ".10g")


# --- CLI ---------------------------------------------------------------------------

def test_cli_run_success(tmp_path, data_files, capsys):
    cfg_path = write_config(tmp_path, data_files, horizons=[3])
    out = tmp_path / "cli_out"
    code = cli_main(["run", "--config", cfg_path, "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out.splitlines()
    assert str(out / "panel_A.csv") in printed
    assert (out / "eval_reports.csv").exists()


def test_cli_validation_error_exit_1(tmp_path, data_files, capsys):
    bad = tmp_path / "bad.json"
    raw = base_config_dict(data_files)
    raw["mystery"] = True
    bad.write_text(json.dumps(raw), "utf-8")
    assert cli_main(["run", "--config", str(bad)]) == 1
    assert "mystery" in capsys.readouterr().err


def test_cli_config_that_is_not_utf8_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    out = tmp_path / "never_made"
    assert cli_main(["run", "--config", str(bad), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {bad}: input file is not UTF-8 text: invalid start byte\n"
    assert not out.exists()


def test_cli_missing_data_exit_1(tmp_path, data_files, capsys):
    cfg_path = write_config(
        tmp_path, data_files, maturities=[*MATS, "30y"], horizons=[3]
    )
    assert cli_main(["run", "--config", cfg_path, "--out", str(tmp_path / "x")]) == 1
    assert "30y" in capsys.readouterr().err
    cfg_path = write_config(tmp_path, data_files, forced_controls=["vix"], horizons=[3])
    assert cli_main(["run", "--config", cfg_path, "--out", str(tmp_path / "x")]) == 1
    assert capsys.readouterr().err == "error: forced control 'vix' not present in the data\n"
    assert not (tmp_path / "x").exists()


def test_cli_computation_error_exit_2(tmp_path, data_files, capsys, monkeypatch):
    # a solver capped at one iteration cannot certify the first grid point
    monkeypatch.setattr(logit, "MAX_ITER_L1", 1)
    cfg_path = write_config(tmp_path, data_files, horizons=[3])
    assert cli_main(["run", "--config", cfg_path, "--out", str(tmp_path / "y")]) == 2
    err = capsys.readouterr().err
    assert "horizon=3" in err and "did not converge" in err and "1 iterations" in err


def test_cli_unconverged_mle_exit_2(tmp_path, data_files, capsys, monkeypatch):
    # one Newton step cannot certify the first MLE fit, the null model's
    monkeypatch.setattr(logit, "MAX_ITER_MLE", 1)
    cfg_path = write_config(tmp_path, data_files, horizons=[3])
    assert cli_main(["run", "--config", cfg_path, "--out", str(tmp_path / "m")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("computation failed: [horizon=3 ")
    assert "MLE did not converge after 1 iterations; largest gradient entry" in err
    assert not (tmp_path / "m").exists()


SEPARABLE = "data appears linearly separable"


@pytest.mark.parametrize(
    "seed, horizon, message",
    [
        (8, 24, f"[horizon=24 panel B] fit saturated to a perfect classification; {SEPARABLE}"),
        (13, 9, f"[horizon=9 panel C] coefficient norm exceeded 1e4; {SEPARABLE}"),
        # the null-model bound's MLE on lead_idx, before any L1 fit
        (10, 9, f"[horizon=9 panel A selection] fit saturated to a perfect classification; "
                f"{SEPARABLE}"),
    ],
    ids=["saturated-panel-B", "norm-panel-C", "saturated-null-model"],
)
def test_cli_separation_exit_2(tmp_path, capsys, seed, horizon, message):
    # weighted reseeds with the lead_idx control that separate at one horizon
    files = write_market(str(tmp_path), *make_market(seed))
    cfg_path = write_config(
        tmp_path, files, horizons=[horizon], weighting=True, forced_controls=["lead_idx"]
    )
    out = tmp_path / "s"
    assert cli_main(["run", "--config", cfg_path, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"computation failed: {message}\n"
    assert not out.exists()


def test_cli_single_survivor_target_rejected(tmp_path, data_files, capsys):
    cfg_path = write_config(tmp_path, data_files, horizons=[3], target_nonzero=1)
    assert cli_main(["run", "--config", cfg_path, "--out", str(tmp_path / "z")]) == 1
    assert "two-maturity" in capsys.readouterr().err


def test_cli_markdown_format(tmp_path, data_files):
    cfg_path = write_config(tmp_path, data_files, horizons=[3])
    out = tmp_path / "cli_md"
    assert cli_main(
        ["run", "--config", cfg_path, "--out", str(out), "--format", "markdown"]
    ) == 0
    assert (out / "panel_A.md").exists()


def test_cli_empty_training_partition_exit_1(tmp_path, data_files, capsys):
    # a 3-month horizon puts every target date after a 1961-07 train_end
    split = {"sample_start": "1961-06", "train_end": "1961-07", "sample_end": "2020-07"}
    cfg_path = write_config(tmp_path, data_files, horizons=[3], split=split)
    assert cli_main(["run", "--config", cfg_path, "--out", str(tmp_path / "e")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: [horizon=3] horizon of 3 months leaves an empty partition: ")
    assert "horizon of 3 months" in err and "0 training rows and 707 test rows" in err


def test_cli_scoring_error_names_the_horizon(tmp_path, data_files, capsys, monkeypatch):
    def zero_benchmark(*args):
        raise errors.ZeroBenchmark("benchmark forecast has zero mean squared error")

    monkeypatch.setattr(experiment, "relative_mse", zero_benchmark)
    cfg_path = write_config(tmp_path, data_files, horizons=[3])
    out = tmp_path / "r"
    assert cli_main(["run", "--config", cfg_path, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "computation failed: [horizon=3] benchmark forecast has zero mean squared error\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "train_end, weighting, partition, rows",
    [
        ("1962-06", True, "training", 10),  # no recession among the first targets
        ("2020-05", False, "test", 2),  # two test months, both of one class
    ],
)
def test_cli_single_class_partition_exit_1(
    tmp_path, data_files, capsys, train_end, weighting, partition, rows
):
    split = {"sample_start": "1961-06", "train_end": train_end, "sample_end": "2020-07"}
    cfg_path = write_config(
        tmp_path, data_files, horizons=[3], split=split, weighting=weighting
    )
    assert cli_main(["run", "--config", cfg_path, "--out", str(tmp_path / "s")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: [horizon=3] ")
    assert f"the {partition} partition's {rows} rows" in err
    assert not (tmp_path / "s").exists()


def test_cli_constant_training_feature_exit_1(tmp_path, market, capsys):
    # a control that never varies cannot be standardized for the L1 sweep
    panel, recessions = market
    flat = YieldPanel(panel.dates, {**panel.columns, "lead_idx": np.full(len(panel.dates), 1.5)})
    files = write_market(str(tmp_path), flat, recessions)
    cfg_path = write_config(tmp_path, files, horizons=[3], forced_controls=["lead_idx"])
    out = tmp_path / "c"
    assert cli_main(["run", "--config", cfg_path, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: [horizon=3] the training partition's ")
    assert "rows all have lead_idx=1.5; every feature must vary" in err
    assert err.count("\n") == 1
    assert not out.exists()


def test_cli_constant_panel_spread_exit_1(tmp_path, market, capsys):
    # 7y sits 0.5 above 10y in every month, so the sweep may select the pair
    # while its spread, panel B's one yield column, never varies; 10y is on a
    # 1/64 grid so that every difference is exactly 0.5
    panel, recessions = market
    ten = np.round(panel.columns["10y"] * 64.0) / 64.0
    shifted = YieldPanel(panel.dates, {**panel.columns, "10y": ten, "7y": ten + 0.5})
    files = write_market(str(tmp_path), shifted, recessions)
    cfg_path = write_config(tmp_path, files, horizons=[3], maturities=["3m", "10y", "7y"])
    out = tmp_path / "c"
    assert cli_main(["run", "--config", cfg_path, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: [horizon=3 panel B] the training partition's ")
    assert "rows all have 7y-10y=0.5; every feature must vary" in err
    assert err.count("\n") == 1
    assert not out.exists()


def test_cli_recession_file_missing_the_first_predictor_months_fails_before_any_fit(
    tmp_path, data_files, capsys, monkeypatch
):
    # it covers every 3-month target from 1961-09 on, but the spread series
    # flags each predictor month from 1961-06 on
    with open(data_files["recessions"], encoding="utf-8") as fh:
        lines = fh.readlines()
    late = tmp_path / "late.csv"
    late.write_text(lines[0] + "".join(lines[4:]), "utf-8")
    fits = []
    monkeypatch.setattr(selection, "fit_l1", lambda *args: fits.append(args))
    cfg_path = write_config(tmp_path, data_files, horizons=[3], recession_file=str(late))
    out = tmp_path / "late"
    assert cli_main(["run", "--config", cfg_path, "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: [horizon=3] {late}: recession series does not cover 1961-06\n"
    )
    assert fits == []
    assert not out.exists()


def test_cli_inputs_saved_with_a_utf8_bom_run_as_without(tmp_path, data_files):
    bom_files = {}
    for key in ("yields", "recessions"):
        path = tmp_path / f"bom_{key}.csv"
        with open(data_files[key], "rb") as fh:
            path.write_bytes(b"\xef\xbb\xbf" + fh.read())
        bom_files[key] = str(path)
    bom_cfg = tmp_path / "bom_config.json"
    bom_cfg.write_bytes(
        b"\xef\xbb\xbf" + json.dumps(base_config_dict(bom_files, horizons=[3])).encode()
    )
    plain_cfg = write_config(tmp_path, data_files, horizons=[3])
    plain, bom = tmp_path / "plain", tmp_path / "bom"
    assert cli_main(["run", "--config", plain_cfg, "--out", str(plain)]) == 0
    assert cli_main(["run", "--config", str(bom_cfg), "--out", str(bom)]) == 0
    names = sorted(os.listdir(plain))
    assert names == sorted(os.listdir(bom))
    match, mismatch, errors = filecmp.cmpfiles(plain, bom, names, shallow=False)
    assert mismatch == [] and errors == []


@pytest.mark.parametrize("key", ["yield_files", "recession_file"])
@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_cli_unreadable_input_exit_1(tmp_path, data_files, capsys, key, kind):
    bad = str(tmp_path / "absent.csv") if kind == "missing" else str(tmp_path)
    cfg_path = write_config(
        tmp_path, data_files, **{key: [bad] if key == "yield_files" else bad}
    )
    out = tmp_path / "u"
    assert cli_main(["run", "--config", cfg_path, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: cannot read input file: ")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("existing, interrupt", [
    pytest.param("", False, id=""), pytest.param("kept", False, id="kept"),
    pytest.param("", True, id="interrupt"), pytest.param("kept", True, id="kept-interrupt"),
])
def test_cli_failed_or_interrupted_run_makes_no_directory(
    tmp_path, data_files, capsys, monkeypatch, existing, interrupt
):
    # the directory is made only after the run succeeds, so a run that fails
    # on its input or is interrupted makes none
    monkeypatch.chdir(tmp_path)
    if existing:
        os.mkdir(existing)
    out = os.path.join(existing, "nest", "a", "b")
    if interrupt:
        cfg_path = write_config(tmp_path, data_files, horizons=[3])

        def interrupted(config):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "run_experiment", interrupted)
        with pytest.raises(KeyboardInterrupt):
            cli_main(["run", "--config", cfg_path, "--out", out])
    else:
        cfg_path = write_config(tmp_path, data_files, recession_file=str(tmp_path / "absent.csv"))
        assert cli_main(["run", "--config", cfg_path, "--out", out]) == 1
        assert "cannot read input file" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == sorted({"config.json", existing} - {""})
    if existing:
        assert os.listdir(existing) == []


def test_cli_run_resolves_dot_dot_in_out(tmp_path, data_files, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    os.mkdir("x")
    cfg_path = write_config(tmp_path, data_files, horizons=list(DEFAULT_HORIZONS))
    out = os.path.join("new", "..", "x", "y")
    assert cli_main(["run", "--config", cfg_path, "--out", out]) == 0
    printed = capsys.readouterr().out.splitlines()
    names = sorted(os.listdir(os.path.join("x", "y")))
    assert len(names) == len(printed) == 53
    assert sorted(printed) == [os.path.join("x", "y", name) for name in names]
    for path in printed:
        with open(path, encoding="utf-8") as fh:
            assert fh.read()
    assert sorted(os.listdir(tmp_path)) == ["config.json", "x"]
    assert os.listdir("x") == ["y"]


@pytest.mark.parametrize("out, shown", [
    ("./out", "out"), ("out/", "out"), ("link", "target"), ("link/../out", "out"),
])
def test_written_paths_name_the_directory_made(tmp_path, monkeypatch, out, shown):
    monkeypatch.chdir(tmp_path)
    os.mkdir("target")
    os.symlink("target", "link")
    written = experiment.write_files(out, [("a.csv", ["x\n"])])
    assert written == [os.path.join(shown, "a.csv")]
    absolute = experiment.write_files(str(tmp_path / out), [("b.csv", ["y\n"])])
    assert absolute == [os.path.join(os.path.realpath(tmp_path), shown, "b.csv")]
    for path in written + absolute:
        with open(path, encoding="utf-8") as fh:
            assert fh.read() in ("x\n", "y\n")


@pytest.mark.parametrize("kind", ["existing-file", "below-a-file", "empty"])
def test_cli_output_directory_that_cannot_be_made_exit_2(
    tmp_path, data_files, capsys, monkeypatch, kind
):
    taken = tmp_path / "taken"
    taken.write_text("a file, not a directory", "utf-8")
    out = {"existing-file": str(taken), "below-a-file": str(taken / "sub"), "empty": ""}[kind]
    cfg_path = write_config(tmp_path, data_files, horizons=[3])
    before = sorted(os.listdir(tmp_path))
    runs = []

    def run_experiment_counted(config):
        runs.append(config)
        return run_experiment(config)

    monkeypatch.setattr(cli, "run_experiment", run_experiment_counted)
    assert cli_main(["run", "--config", cfg_path, "--out", out]) == 2
    # the run computes first; only then is the directory refused
    assert len(runs) == 1
    err = capsys.readouterr().err
    # the computation succeeded, so the message is not a computation failure
    assert err.startswith(f"error: cannot create output directory {out!r}: ")
    assert err.count("\n") == 1
    assert sorted(os.listdir(tmp_path)) == before
    assert taken.read_text("utf-8") == "a file, not a directory"


def test_cli_weighted_reseed_13_has_no_uncaught_error(tmp_path, capsys):
    # make_market(13) has one training recession month at h=3, so w_pos is
    # about 210 and some test log PPLs reach -1,355: the EBF underflows to 0
    files = write_market(str(tmp_path), *make_market(13))
    cfg_path = write_config(tmp_path, files, weighting=True, horizons=list(DEFAULT_HORIZONS))
    code = cli_main(["run", "--config", cfg_path, "--out", str(tmp_path / "r")])
    err = capsys.readouterr().err
    assert code == 0 or (code == 1 and err.startswith("error: [horizon="))
    if code == 0:
        with open(tmp_path / "r" / "eval_reports.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert any(r["ebf"] == "0.000" for r in rows)
        assert all(0.0 <= float(r["avg_weight"]) <= 1.0 for r in rows)


INPUT_ERRORS = {
    "ConfigError", "CoverageError", "DomainError", "EmptyInput", "GapInDates",
    "HorizonTooLong", "InputError", "MalformedRow", "MissingSeries", "UnreadableInput",
}
ERROR_CLASSES = sorted(
    (c for c in vars(errors).values()
     if isinstance(c, type) and issubclass(c, errors.TermSpreadError)
     and c is not errors.TermSpreadError),
    key=lambda c: c.__name__,
)


@pytest.mark.parametrize("error", ERROR_CLASSES, ids=lambda c: c.__name__)
def test_cli_exit_code_and_prefix_follow_the_error_class(
    tmp_path, data_files, capsys, monkeypatch, error
):
    def fail(config):
        raise error("boom")

    monkeypatch.setattr(cli, "run_experiment", fail)
    cfg_path = write_config(tmp_path, data_files)
    code = cli_main(["run", "--config", cfg_path, "--out", str(tmp_path / "x")])
    if error.__name__ in INPUT_ERRORS:
        assert code == error.exit_code == 1
        assert capsys.readouterr().err == "error: boom\n"
    elif error is IoError:
        assert code == error.exit_code == 2
        assert capsys.readouterr().err == "error: boom\n"
    else:
        assert code == error.exit_code == 2
        assert capsys.readouterr().err == "computation failed: boom\n"
    assert not (tmp_path / "x").exists()


# --- public surface ----------------------------------------------------------------


def test_benchmark_trace_targets_resolve():
    # perfbench's --trace 1 wraps these names and crashes on a missing one
    operation = runpy.run_path(os.path.join(REPO_ROOT, "perfbench", "operation.py"))
    spans, counts = operation["_targets"]()
    spec = importlib.util.spec_from_file_location("assemble_dataset", operation["ASSEMBLE_SCRIPT"])
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    targets = [*spans, *counts]
    assert len(targets) > 20
    assert {attr for modname, attr in targets if modname == "assemble_dataset"} == {
        "read_gsw_monthly", "read_fred_monthly",
    }
    for modname, attr in targets:
        module = script if modname == "assemble_dataset" else importlib.import_module(modname)
        assert callable(getattr(module, attr)), (modname, attr)


def test_files_are_opened_in_one_reader_and_one_writer():
    # every input, the config included, goes through data.open_input and
    # every output through experiment.write_files
    callers = set()
    for folder in (os.path.join("src", "termspread"), "scripts"):
        for name in sorted(os.listdir(os.path.join(REPO_ROOT, folder))):
            if not name.endswith(".py"):
                continue
            with open(os.path.join(REPO_ROOT, folder, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            owner = {}  # node -> its innermost function; ast.walk visits outer ones first
            for func in ast.walk(tree):
                if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    owner.update((node, func.name) for node in ast.walk(func))
            callers.update(
                (name, owner.get(node, "<module>")) for node in ast.walk(tree)
                if isinstance(node, ast.Call)
                and getattr(node.func, "id", getattr(node.func, "attr", None)) == "open"
            )
    assert callers == {("data.py", "open_input"), ("experiment.py", "write_files")}


def test_a_run_does_not_import_numpy_ma(tmp_path, data_files):
    # numpy 2 imports numpy.ma, 1.25 MB and 10-14 ms, on the first
    # np.unique without return_* arguments; numpy 1 imports it with numpy.
    # The run calls np.unique nowhere; this guards against a new call
    cfg_path = write_config(tmp_path, data_files)
    script = (
        "import sys\n"
        "from termspread.experiment import ExperimentConfig, emit_all, run_experiment\n"
        "before = 'numpy.ma' in sys.modules\n"
        f"emit_all(run_experiment(ExperimentConfig.from_json({cfg_path!r})), "
        f"{str(tmp_path / 'out')!r})\n"
        "print(before, 'numpy.ma' in sys.modules)\n"
    )
    paths = [os.path.join(REPO_ROOT, "src"), os.environ.get("PYTHONPATH")]
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))},
    )
    before, after = done.stdout.split()
    assert after == before


def test_readme_library_sketch_runs(data_files):
    sketch = readme_block("python")
    for path, key in (("data/yields_monthly.csv", "yields"), ("data/recessions.csv", "recessions")):
        assert sketch.count(f'"{path}"') == 1
        sketch = sketch.replace(f'"{path}"', repr(data_files[key]))
    namespace: dict = {}
    exec(sketch, namespace)
    selection = namespace["selection"]
    assert selection.pair == ("7y", "3m")
    assert namespace["b0"] == selection.model.intercept
    assert namespace["probs"].shape == (namespace["ds"].n_rows,) == (698,)
