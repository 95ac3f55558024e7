"""Experiment runner, emitters, CLI surface."""

from __future__ import annotations

import csv
import filecmp
import functools
import json
import os

import numpy as np
import pytest

from termspread import logit, selection
from termspread.cli import main as cli_main
from termspread.errors import ConfigError, IoError
from termspread.experiment import (
    DEFAULT_HORIZONS,
    ExperimentConfig,
    emit_all,
    emit_tables,
    run_experiment,
)

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
    assert cfg.target_nonzero == 2
    assert cfg.forced_controls == ()


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
    assert set(small_run.panels) == {"A", "B", "C", "D"}
    for rows in small_run.panels.values():
        assert [r.horizon for r in rows] == [3, 12]
    assert len(small_run.reports) == 8


def test_benchmark_ebf_exactly_one(small_run):
    assert all(r.ebf == 1.0 for r in small_run.panels["D"])


def test_panel_b_reuses_selected_pair(small_run):
    for a_row, b_row in zip(small_run.panels["A"], small_run.panels["B"]):
        assert a_row.pair == b_row.pair


def test_panels_cd_use_conventional_pair(small_run):
    for letter in ("C", "D"):
        assert all(r.pair == ("10y", "3m") for r in small_run.panels[letter])


def test_simple_panels_constrain_coefficients(small_run):
    for letter in ("B", "D"):
        for row in small_run.panels[letter]:
            b_long, b_short = row.coefficients
            assert b_long == -b_short


def test_panel_b_equals_d_when_pair_is_conventional(small_run):
    for b_row, d_row in zip(small_run.panels["B"], small_run.panels["D"]):
        if b_row.pair == ("10y", "3m"):
            assert b_row.coefficients == d_row.coefficients
            assert b_row.log_ppl == d_row.log_ppl


def test_reports_carry_rm_and_weight(small_run):
    for r in small_run.reports:
        assert r.rm > 0
        assert 0.0 <= r.avg_weight <= 1.0
        assert abs(r.avg_weight - r.ebf / (1 + r.ebf)) < 1e-12
        assert r.ebf == pytest.approx(
            np.exp(r.log_ppl_test - _bench_ppl(small_run, r.horizon_months)), rel=1e-12
        )


def _bench_ppl(result, horizon):
    for r in result.reports:
        if r.horizon_months == horizon and r.kind == "simple_conventional":
            return r.log_ppl_test
    raise AssertionError("missing benchmark report")


def test_weighted_run_differs_and_uses_training_ratio(data_files):
    cfg = ExperimentConfig.from_mapping(
        base_config_dict(data_files, horizons=[12], weighting=True)
    )
    weighted = run_experiment(cfg)
    row = weighted.panels["D"][0]
    assert row.ebf == 1.0
    plain = run_experiment(
        ExperimentConfig.from_mapping(base_config_dict(data_files, horizons=[12]))
    )
    assert weighted.panels["D"][0].log_l != plain.panels["D"][0].log_l


def test_forced_control_run(data_files):
    cfg = ExperimentConfig.from_mapping(
        base_config_dict(data_files, horizons=[12], forced_controls=["lead_idx"])
    )
    result = run_experiment(cfg)
    for letter in ("A", "B", "C", "D"):
        row = result.panels[letter][0]
        assert "lead_idx" in row.control_coefs
    art = result.artifacts[12]
    assert "lead_idx" in art.models["A"].control_coefs
    # the control is exempt from the penalty, so it survives selection
    j = art.selection.feature_names.index("lead_idx")
    assert not art.path.problem.penalty_mask[j]


# --- emitters ----------------------------------------------------------------------

def test_emit_tables_csv_layout(small_run, tmp_path):
    out = tmp_path / "tables"
    paths = emit_tables(small_run.panels, "csv", str(out))
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
    paths = emit_tables(small_run.panels, "markdown", str(out))
    text = open(os.path.join(str(out), "panel_A.md")).read()
    lines = text.splitlines()
    assert lines[0].startswith("| horizon | pair | beta |")
    assert set(lines[1].replace("|", "")) <= {"-"}
    assert lines[2].startswith("| 3 | (")


def test_emit_tables_rejects_empty_panel(small_run, tmp_path):
    broken = dict(small_run.panels)
    broken["C"] = ()
    out = tmp_path / "broken"
    with pytest.raises(IoError):
        emit_tables(broken, "csv", str(out))
    assert not (out / "panel_A.csv").exists()  # nothing partially written


def test_emit_tables_rejects_unknown_format(small_run, tmp_path):
    with pytest.raises(ConfigError):
        emit_tables(small_run.panels, "html", str(tmp_path))


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
