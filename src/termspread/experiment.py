"""Config-driven experiment runner and table/plot-data emitters.

One run reproduces a full four-panel results table: for every horizon it
sweeps the L1 path, selects the maturity pair, fits the three nested
unregularized models, and scores everything out of sample against the
simple conventional-spread benchmark (Panel D). Runs are fully
deterministic: the same configuration always produces byte-identical
output files.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .data import (
    AlignedDataset,
    Month,
    RecessionSeries,
    SplitConfig,
    YieldPanel,
    align_dataset,
    load_recession_series,
    load_yield_panel,
    split_views,
)
from .errors import ConfigError, IoError, MissingSeries, TermSpreadError
from .evaluation import (
    EvalReport,
    auc,
    avg_log_likelihood,
    ebf,
    model_avg_weight,
    relative_mse,
    roc_curve,
)
from .logit import class_weights
from .models import (
    FittedModel,
    ForecastSeries,
    ModelKind,
    ModelSpec,
    fit_spec,
    fitted_model_from_selection,
    forecast_series,
)
from .selection import CoefficientPath, SelectionResult, select_pair, sweep_path

PANELS = ("A", "B", "C", "D")
PANEL_KINDS = {
    "A": ModelKind.GENERALIZED_ML,
    "B": ModelKind.SIMPLE_ML,
    "C": ModelKind.GENERALIZED_CONVENTIONAL,
    "D": ModelKind.SIMPLE_CONVENTIONAL,
}
DEFAULT_HORIZONS = (3, 6, 9, 12, 15, 18, 21, 24)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one table-style run needs, loadable from strict JSON."""

    yield_files: tuple[str, ...]
    recession_file: str
    maturities: tuple[str, ...]
    split: SplitConfig
    horizons: tuple[int, ...] = DEFAULT_HORIZONS
    weighting: bool = False
    forced_controls: tuple[str, ...] = ()
    target_nonzero: int = 2
    output_dir: str = "out"

    def __post_init__(self) -> None:
        for name in ("yield_files", "maturities", "forced_controls"):
            object.__setattr__(self, name, _string_tuple(name, getattr(self, name)))
        for name in ("recession_file", "output_dir"):
            if not isinstance(getattr(self, name), str):
                raise ConfigError(f"{name} must be a string, got {getattr(self, name)!r}")
        if not isinstance(self.horizons, (list, tuple)) or any(
            type(h) is not int for h in self.horizons
        ):
            raise ConfigError(f"horizons must be an array of integers, got {self.horizons!r}")
        object.__setattr__(self, "horizons", tuple(self.horizons))
        if type(self.weighting) is not bool:
            raise ConfigError(f"weighting must be true or false, got {self.weighting!r}")
        if not self.yield_files:
            raise ConfigError("yield_files must not be empty")
        if not self.maturities:
            raise ConfigError("maturity universe must not be empty")
        if not self.horizons:
            raise ConfigError("horizons must not be empty")
        if any(h < 1 for h in self.horizons):
            raise ConfigError("horizons must be positive month counts")
        if list(self.horizons) != sorted(self.horizons):
            raise ConfigError("horizons must be sorted ascending")
        if type(self.target_nonzero) is not int or self.target_nonzero != 2:
            raise ConfigError(
                "panel construction needs a two-maturity selection: "
                f"target_nonzero must be 2, got {self.target_nonzero!r}"
            )

    @classmethod
    def from_json(cls, path: str) -> "ExperimentConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from None
        return cls.from_mapping(raw)

    @classmethod
    def from_mapping(cls, raw: Mapping) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        known = {
            "yield_files", "recession_file", "maturities", "split", "horizons",
            "weighting", "forced_controls", "target_nonzero", "output_dir",
        }
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        missing = {"yield_files", "recession_file", "maturities", "split"} - set(raw)
        if missing:
            raise ConfigError(f"missing config keys: {sorted(missing)}")
        split_raw = raw["split"]
        if not isinstance(split_raw, dict):
            raise ConfigError("split must be an object")
        split_keys = {"train_end", "sample_start", "sample_end"}
        if set(split_raw) != split_keys:
            raise ConfigError(f"split must have exactly the keys {sorted(split_keys)}")
        try:
            split = SplitConfig(
                train_end=Month.parse(split_raw["train_end"]),
                sample_start=Month.parse(split_raw["sample_start"]),
                sample_end=Month.parse(split_raw["sample_end"]),
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        return cls(
            yield_files=raw["yield_files"],
            recession_file=raw["recession_file"],
            maturities=raw["maturities"],
            split=split,
            horizons=raw.get("horizons", DEFAULT_HORIZONS),
            weighting=raw.get("weighting", False),
            forced_controls=raw.get("forced_controls", ()),
            target_nonzero=raw.get("target_nonzero", 2),
            output_dir=raw.get("output_dir", "out"),
        )


def _string_tuple(name: str, value: object) -> tuple[str, ...]:
    """An array of strings as a tuple; a bare string is refused, not split."""
    if not isinstance(value, (list, tuple)) or not all(isinstance(v, str) for v in value):
        raise ConfigError(f"{name} must be an array of strings, got {value!r}")
    return tuple(value)


@dataclass(frozen=True)
class TableRow:
    """One published-table row: a model at one horizon."""

    panel: str
    horizon: int
    pair: tuple[str, str]
    coefficients: tuple[float, float]
    control_coefs: Mapping[str, float] = field(default_factory=dict)
    lambda_selected: float | None = None
    auc_train: float = float("nan")
    auc_test: float = float("nan")
    log_l: float = float("nan")
    log_ppl: float = float("nan")
    ebf: float = float("nan")


@dataclass(frozen=True)
class HorizonArtifacts:
    """Everything computed for one horizon, kept for plotting/inspection."""

    dataset: AlignedDataset
    path: CoefficientPath
    selection: SelectionResult
    models: Mapping[str, FittedModel]
    forecasts: Mapping[str, ForecastSeries]


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    panels: Mapping[str, tuple[TableRow, ...]]
    reports: tuple[EvalReport, ...]
    artifacts: Mapping[int, HorizonArtifacts]
    recessions: RecessionSeries


def _annotate(exc: TermSpreadError, horizon: int, where: str) -> TermSpreadError:
    note = f"[horizon={horizon} {where}] "
    exc.args = (note + str(exc),) + exc.args[1:]
    return exc


def run_horizon(
    panel: YieldPanel,
    recessions: RecessionSeries,
    horizon: int,
    config: ExperimentConfig,
) -> HorizonArtifacts:
    """Selection plus the three nested fits for one forecasting horizon."""
    feature_names = config.maturities + config.forced_controls
    ds = align_dataset(panel, recessions, horizon, config.split, feature_names)
    train, _ = split_views(ds)
    weights = (
        class_weights(train.targets).per_row(train.targets) if config.weighting else None
    )
    penalty_mask = np.array([name in config.maturities for name in feature_names])

    try:
        path = sweep_path(
            train.features,
            train.targets,
            weights=weights,
            penalty_mask=penalty_mask,
            feature_names=feature_names,
            horizon_months=horizon,
        )
        selection = select_pair(path, config.target_nonzero)
    except TermSpreadError as exc:
        raise _annotate(exc, horizon, "panel A selection")

    models: dict[str, FittedModel] = {}
    models["A"] = fitted_model_from_selection(selection, ds, config.forced_controls)
    for letter in ("B", "C", "D"):
        spec = ModelSpec(
            kind=PANEL_KINDS[letter],
            ml_pair=selection.pair if PANEL_KINDS[letter].is_ml else None,
            controls=config.forced_controls,
        )
        try:
            models[letter] = fit_spec(ds, spec, weighting=config.weighting)
        except TermSpreadError as exc:
            raise _annotate(exc, horizon, f"panel {letter}")

    forecasts = {letter: forecast_series(models[letter], ds) for letter in PANELS}
    return HorizonArtifacts(
        dataset=ds, path=path, selection=selection, models=models, forecasts=forecasts
    )


def _score_horizon(
    art: HorizonArtifacts, config: ExperimentConfig
) -> tuple[list[TableRow], list[EvalReport]]:
    ds = art.dataset
    train, test = split_views(ds)
    if config.weighting:
        cw = class_weights(train.targets)
        w_train = cw.per_row(train.targets)
        w_test = cw.per_row(test.targets)  # same training r on the test period
    else:
        w_train = w_test = None

    split = ds.split_index
    probs = {p: art.forecasts[p].probabilities for p in PANELS}
    log_ppl = {
        p: avg_log_likelihood(test.targets, probs[p][split:], w_test) for p in PANELS
    }
    bench_test_probs = probs["D"][split:]

    rows: list[TableRow] = []
    reports: list[EvalReport] = []
    for letter in PANELS:
        model = art.models[letter]
        e = ebf(log_ppl[letter], log_ppl["D"])
        report = EvalReport(
            horizon_months=ds.horizon_months,
            kind=model.spec.kind.value,
            log_l_train=avg_log_likelihood(train.targets, probs[letter][:split], w_train),
            log_ppl_test=log_ppl[letter],
            ebf=e,
            auc_train=auc(train.targets, probs[letter][:split]),
            auc_test=auc(test.targets, probs[letter][split:]),
            rm=relative_mse(test.targets, probs[letter][split:], bench_test_probs),
            avg_weight=model_avg_weight(e),
        )
        reports.append(report)
        long, short = model.spec.pair
        rows.append(
            TableRow(
                panel=letter,
                horizon=ds.horizon_months,
                pair=(long.code, short.code),
                coefficients=model.display_coefficients,
                control_coefs=dict(model.control_coefs),
                lambda_selected=art.selection.lambda_selected if letter == "A" else None,
                auc_train=report.auc_train,
                auc_test=report.auc_test,
                log_l=report.log_l_train,
                log_ppl=report.log_ppl_test,
                ebf=report.ebf,
            )
        )
    return rows, reports


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run every horizon of a configured experiment.

    Per horizon: (A) L1 sweep, pair selection, and the generalized fit at
    the selected lambda; (B) MLE on the simple spread of the selected pair;
    (C) MLE on the generalized conventional pair; (D) MLE on the simple
    conventional spread, the benchmark all EBFs are taken against.
    """
    panel = load_yield_panel(config.yield_files, config.maturities)
    for name in config.forced_controls:
        if name not in panel.extras:
            raise MissingSeries(f"forced control {name!r} not present in the data")
    recessions = load_recession_series(config.recession_file)

    artifacts: dict[int, HorizonArtifacts] = {}
    panel_rows: dict[str, list[TableRow]] = {p: [] for p in PANELS}
    reports: list[EvalReport] = []
    for horizon in config.horizons:
        art = run_horizon(panel, recessions, horizon, config)
        artifacts[horizon] = art
        rows, horizon_reports = _score_horizon(art, config)
        for row in rows:
            panel_rows[row.panel].append(row)
        reports.extend(horizon_reports)

    return ExperimentResult(
        config=config,
        panels={p: tuple(panel_rows[p]) for p in PANELS},
        reports=tuple(reports),
        artifacts=artifacts,
        recessions=recessions,
    )


# --- emitters ---------------------------------------------------------------

def _fmt3(v: float) -> str:
    return f"{v:.3f}"


def _fmt_pair(pair: tuple[str, str]) -> str:
    return f"({pair[0]}, {pair[1]})"


def _fmt_beta(coefs: tuple[float, float]) -> str:
    return f"({coefs[0]:.3f}, {coefs[1]:.3f})"


def _table_header(controls: Sequence[str], with_lambda: bool) -> list[str]:
    head = ["horizon", "pair", "beta"]
    head += [f"beta_{name}" for name in controls]
    if with_lambda:
        head.append("lambda")
    head += ["auc_train", "auc_test", "log_l", "log_ppl", "ebf"]
    return head


def _table_cells(row: TableRow, controls: Sequence[str], with_lambda: bool) -> list[str]:
    cells = [str(row.horizon), _fmt_pair(row.pair), _fmt_beta(row.coefficients)]
    cells += [_fmt3(row.control_coefs[name]) for name in controls]
    if with_lambda:
        cells.append("" if row.lambda_selected is None else _fmt3(row.lambda_selected))
    cells += [
        _fmt3(row.auc_train),
        _fmt3(row.auc_test),
        _fmt3(row.log_l),
        _fmt3(row.log_ppl),
        _fmt3(row.ebf),
    ]
    return cells


def emit_tables(
    panels: Mapping[str, Sequence[TableRow]],
    fmt: str,
    out_dir: str,
    controls: Sequence[str] = (),
) -> list[str]:
    """Write one table file per panel; numeric columns use 3 decimals.

    Returns the written paths. Validates everything before touching the
    filesystem so a bad panel never leaves a partial file behind.
    """
    if fmt not in ("csv", "markdown"):
        raise ConfigError(f"unknown table format: {fmt!r}")
    for letter, rows in panels.items():
        if not rows:
            raise IoError(f"panel {letter} is empty; refusing to write")
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for letter in sorted(panels):
        rows = panels[letter]
        with_lambda = letter == "A"
        header = _table_header(controls, with_lambda)
        ext = "csv" if fmt == "csv" else "md"
        path = os.path.join(out_dir, f"panel_{letter}.{ext}")
        try:
            with open(path, "w", encoding="utf-8", newline="") as fh:
                if fmt == "csv":
                    writer = csv.writer(fh, lineterminator="\n")
                    writer.writerow(header)
                    for row in rows:
                        writer.writerow(_table_cells(row, controls, with_lambda))
                else:
                    fh.write("| " + " | ".join(header) + " |\n")
                    fh.write("|" + "|".join("---" for _ in header) + "|\n")
                    for row in rows:
                        fh.write(
                            "| " + " | ".join(_table_cells(row, controls, with_lambda)) + " |\n"
                        )
        except OSError as exc:
            raise IoError(f"cannot write {path}: {exc}") from None
        written.append(path)
    return written


def _fmt_g(v: float) -> str:
    return f"{v:.10g}"


def emit_coefficient_path(path_obj: CoefficientPath, out_path: str) -> None:
    """CSV of the original-scale coefficient path: lambda, one column per maturity."""
    names = path_obj.problem.feature_names
    keep = [j for j, n in enumerate(names) if path_obj.problem.penalty_mask[j]]
    try:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("lambda," + ",".join(names[j] for j in keep) + "\n")
            for lam, coefs in zip(path_obj.lambdas, path_obj.coef_matrix):
                fh.write(
                    _fmt_g(lam) + "," + ",".join(_fmt_g(coefs[j]) for j in keep) + "\n"
                )
    except OSError as exc:
        raise IoError(f"cannot write {out_path}: {exc}") from None


def emit_spread_series(
    forecast: ForecastSeries, recessions: RecessionSeries, out_path: str
) -> None:
    """CSV of date, spread, probability, is_recession, is_test per row.

    ``is_recession`` flags the recession indicator at the row's own date
    (for shading); ``is_test`` marks rows past the train/test split, which
    sits ``horizon`` months before the target-date split.
    """
    try:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("date,spread,probability,is_recession,is_test\n")
            for i, date in enumerate(forecast.dates):
                rec = int(recessions.at(date))
                fh.write(
                    f"{date},{_fmt_g(forecast.spread[i])},"
                    f"{_fmt_g(forecast.probabilities[i])},{rec},"
                    f"{int(i >= forecast.split_index)}\n"
                )
    except OSError as exc:
        raise IoError(f"cannot write {out_path}: {exc}") from None


def emit_roc(
    targets: np.ndarray,
    scores: np.ndarray,
    out_path: str,
    label: str = "",
) -> None:
    """CSV of (fpr, tpr) pairs with the AUC on a leading metadata line."""
    points = roc_curve(targets, scores)
    area = auc(targets, scores)
    try:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(f"# {label + ' ' if label else ''}auc={area:.6f}\n")
            fh.write("fpr,tpr\n")
            for fpr, tpr in points:
                fh.write(f"{_fmt_g(fpr)},{_fmt_g(tpr)}\n")
    except OSError as exc:
        raise IoError(f"cannot write {out_path}: {exc}") from None


def emit_eval_reports(reports: Sequence[EvalReport], out_path: str) -> None:
    """CSV of every EvalReport (includes RM and the model-averaging weight)."""
    try:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(
                ["horizon", "kind", "log_l_train", "log_ppl_test", "ebf",
                 "auc_train", "auc_test", "rm", "avg_weight"]
            )
            for r in reports:
                writer.writerow(
                    [r.horizon_months, r.kind, _fmt3(r.log_l_train),
                     _fmt3(r.log_ppl_test), _fmt3(r.ebf), _fmt3(r.auc_train),
                     _fmt3(r.auc_test), _fmt3(r.rm), _fmt3(r.avg_weight)]
                )
    except OSError as exc:
        raise IoError(f"cannot write {out_path}: {exc}") from None


def emit_all(result: ExperimentResult, out_dir: str, fmt: str = "csv") -> list[str]:
    """Write tables, eval reports, and plot data for a finished run."""
    written = emit_tables(
        result.panels, fmt, out_dir, controls=result.config.forced_controls
    )
    os.makedirs(out_dir, exist_ok=True)
    reports_path = os.path.join(out_dir, "eval_reports.csv")
    emit_eval_reports(result.reports, reports_path)
    written.append(reports_path)
    for horizon in result.config.horizons:
        art = result.artifacts[horizon]
        path_file = os.path.join(out_dir, f"coefficient_path_h{horizon}.csv")
        emit_coefficient_path(art.path, path_file)
        written.append(path_file)
        spread_file = os.path.join(out_dir, f"spread_series_h{horizon}.csv")
        emit_spread_series(art.forecasts["A"], result.recessions, spread_file)
        written.append(spread_file)
        _, test = split_views(art.dataset)
        split = art.dataset.split_index
        for letter in PANELS:
            roc_file = os.path.join(out_dir, f"roc_h{horizon}_{letter}.csv")
            emit_roc(
                test.targets,
                art.forecasts[letter].probabilities[split:],
                roc_file,
                label=f"horizon={horizon} panel={letter}",
            )
            written.append(roc_file)
    return written
