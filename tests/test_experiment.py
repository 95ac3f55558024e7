"""Experiment runner, emitters, CLI surface."""

from __future__ import annotations

import csv
import dataclasses
import filecmp
import functools
import json
import os

import numpy as np
import pytest

from termspread import cli, errors, logit, selection
from termspread.cli import main as cli_main
from termspread.errors import ConfigError, IoError
from termspread.evaluation import avg_log_likelihood
from termspread.experiment import (
    DEFAULT_HORIZONS,
    ExperimentConfig,
    emit_all,
    emit_tables,
    run_experiment,
)
from termspread.logit import ClassWeights

MATS = ["3m", "6m", "1y", "2y", "3y", "5y", "7y", "10y", "20y"]


def base_config_dict(data_files, **overrides):
    cfg = {
        "yield_files": [data_files["yields"]],
        "recession_file": data_files["recessions"],
        "maturities": MATS,
        "split": {
            "sample_start": "1961-06",
            "train_end": "1995-12",
            "sample_end": "2020-07",
        },
        "horizons": [3, 12],
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, data_files, **overrides):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(base_config_dict(data_files, **overrides)), "utf-8")
    return str(path)


# --- config parsing --------------------------------------------------------------

def test_config_defaults(tmp_path, data_files):
    cfg = ExperimentConfig.from_json(
        write_config(tmp_path, data_files, horizons=list(DEFAULT_HORIZONS))
    )
    assert cfg.horizons == DEFAULT_HORIZONS
    assert cfg.weighting is False
    assert cfg.forced_controls == ()
    # the README's "target_nonzero": 2 parses and changes nothing
    explicit = write_config(
        tmp_path, data_files, horizons=list(DEFAULT_HORIZONS), target_nonzero=2
    )
    assert ExperimentConfig.from_json(explicit) == cfg
    assert not hasattr(cfg, "target_nonzero")


def test_config_rejects_unknown_keys(tmp_path, data_files):
    path = tmp_path / "bad.json"
    raw = base_config_dict(data_files)
    raw["extra_knob"] = 1
    path.write_text(json.dumps(raw), "utf-8")
    with pytest.raises(ConfigError, match="extra_knob"):
        ExperimentConfig.from_json(str(path))


def test_config_rejects_missing_and_malformed(tmp_path, data_files):
    path = tmp_path / "m.json"
    raw = base_config_dict(data_files)
    del raw["split"]
    path.write_text(json.dumps(raw), "utf-8")
    with pytest.raises(ConfigError, match="split"):
        ExperimentConfig.from_json(str(path))
    path.write_text("{not json", "utf-8")
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json(str(path))


def test_config_validates_horizons(tmp_path, data_files):
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json(
            write_config(tmp_path, data_files, horizons=[12, 3])
        )
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json(write_config(tmp_path, data_files, horizons=[0]))


@pytest.mark.parametrize(
    "key, value",
    [
        ("yield_files", "ab"),  # would have been split into ('a', 'b')
        ("weighting", "false"),  # would have been truthy
        ("target_nonzero", 2.9),  # would have been truncated to 2
        ("horizons", [3.7]),  # would have been truncated to (3,)
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


# --- running ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_run(data_files):
    cfg = ExperimentConfig.from_mapping(base_config_dict(data_files))
    return run_experiment(cfg)


def test_run_produces_four_panels_per_horizon(small_run):
    assert list(small_run.artifacts) == [3, 12]
    for art in small_run.artifacts.values():
        assert list(art.models) == list(art.forecasts) == list(art.reports) == list("ABCD")
    assert [r.horizon_months for r in small_run.reports] == [3] * 4 + [12] * 4


def test_benchmark_ebf_exactly_one(small_run):
    assert all(art.reports["D"].ebf == 1.0 for art in small_run.artifacts.values())


def test_panel_b_reuses_selected_pair(small_run):
    for art in small_run.artifacts.values():
        assert art.models["A"].spec.pair == art.models["B"].spec.pair == art.selection.pair


def test_panels_cd_use_conventional_pair(small_run):
    for art in small_run.artifacts.values():
        for letter in ("C", "D"):
            long, short = art.models[letter].spec.pair
            assert (long.code, short.code) == ("10y", "3m")


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
    for r in small_run.reports:
        assert r.rm > 0
        assert 0.0 <= r.avg_weight <= 1.0
        assert abs(r.avg_weight - r.ebf / (1 + r.ebf)) < 1e-12
        bench = small_run.artifacts[r.horizon_months].reports["D"]
        assert bench.kind == "simple_conventional"
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
        assert "lead_idx" in art.models[letter].control_coefs
    # the control is exempt from the penalty, so it survives selection
    j = art.selection.feature_names.index("lead_idx")
    assert not art.path.problem.penalty_mask[j]


# --- emitters ----------------------------------------------------------------------

def test_emit_tables_csv_layout(small_run, tmp_path):
    out = tmp_path / "tables"
    paths = emit_tables(small_run, "csv", str(out))
    assert sorted(os.path.basename(p) for p in paths) == [
        "panel_A.csv", "panel_B.csv", "panel_C.csv", "panel_D.csv",
    ]
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


def test_emit_tables_markdown(small_run, tmp_path):
    out = tmp_path / "md"
    paths = emit_tables(small_run, "markdown", str(out))
    text = open(os.path.join(str(out), "panel_A.md")).read()
    lines = text.splitlines()
    assert lines[0].startswith("| horizon | pair | beta |")
    assert set(lines[1].replace("|", "")) <= {"-"}
    assert lines[2].startswith("| 3 | (")


def test_emit_tables_rejects_empty_panel(small_run, tmp_path):
    broken = dataclasses.replace(small_run, artifacts={})
    out = tmp_path / "broken"
    with pytest.raises(IoError):
        emit_tables(broken, "csv", str(out))
    assert not out.exists()  # nothing partially written


def test_emit_tables_rejects_unknown_format(small_run, tmp_path):
    with pytest.raises(ConfigError):
        emit_tables(small_run, "html", str(tmp_path))


def test_emit_all_plot_data(small_run, tmp_path):
    out = tmp_path / "full"
    emit_all(small_run, str(out))
    # coefficient path: lambda + one column per maturity; selection row present
    with open(out / "coefficient_path_h12.csv") as fh:
        header = fh.readline().strip().split(",")
        assert header == ["lambda"] + MATS
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


def test_rerun_is_byte_identical(data_files, tmp_path):
    cfg = ExperimentConfig.from_mapping(base_config_dict(data_files, horizons=[3]))
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    emit_all(run_experiment(cfg), str(out1))
    emit_all(run_experiment(cfg), str(out2))
    names = sorted(os.listdir(out1))
    assert names == sorted(os.listdir(out2))
    match, mismatch, errors = filecmp.cmpfiles(out1, out2, names, shallow=False)
    assert mismatch == [] and errors == []


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


def test_cli_missing_data_exit_1(tmp_path, data_files, capsys):
    cfg_path = write_config(
        tmp_path, data_files, maturities=MATS + ["30y"], horizons=[3]
    )
    assert cli_main(["run", "--config", cfg_path, "--out", str(tmp_path / "x")]) == 1
    assert "30y" in capsys.readouterr().err


def test_cli_computation_error_exit_2(tmp_path, data_files, capsys, monkeypatch):
    # a solver capped at one iteration cannot certify the first grid point
    monkeypatch.setattr(selection, "fit_l1", functools.partial(logit.fit_l1, max_iter=1))
    cfg_path = write_config(tmp_path, data_files, horizons=[3])
    assert cli_main(["run", "--config", cfg_path, "--out", str(tmp_path / "y")]) == 2
    err = capsys.readouterr().err
    assert "horizon=3" in err and "did not converge" in err and "1 iterations" in err


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
    assert err.startswith("error: ")
    assert "horizon of 3 months" in err and "0 training rows and 707 test rows" in err


INPUT_ERRORS = {
    "ConfigError", "CoverageError", "DomainError", "EmptyInput", "GapInDates",
    "HorizonTooLong", "MalformedRow", "MissingSeries",
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
    else:
        assert code == error.exit_code == 2
        assert capsys.readouterr().err == "computation failed: boom\n"
