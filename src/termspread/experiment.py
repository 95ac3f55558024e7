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
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Mapping, Sequence

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
from .logit import ClassWeights
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
        # accepted for the README's config, but the panels need a pair
        target = raw.get("target_nonzero", 2)
        if type(target) is not int or target != 2:
            raise ConfigError(
                "panel construction needs a two-maturity selection: "
                f"target_nonzero must be 2, got {target!r}"
            )
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
            output_dir=raw.get("output_dir", "out"),
        )


def _string_tuple(name: str, value: object) -> tuple[str, ...]:
    """An array of strings as a tuple; a bare string is refused, not split."""
    if not isinstance(value, (list, tuple)) or not all(isinstance(v, str) for v in value):
        raise ConfigError(f"{name} must be an array of strings, got {value!r}")
    return tuple(value)


@dataclass(frozen=True)
class HorizonArtifacts:
    """Everything computed for one horizon; per-model maps are keyed by panel letter."""

    dataset: AlignedDataset
    path: CoefficientPath
    selection: SelectionResult
    models: Mapping[str, FittedModel]
    forecasts: Mapping[str, ForecastSeries]
    reports: Mapping[str, EvalReport]


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    artifacts: Mapping[int, HorizonArtifacts]
    recessions: RecessionSeries

    @property
    def reports(self) -> tuple[EvalReport, ...]:
        """Every model's report, by horizon, then panel."""
        return tuple(art.reports[p] for art in self.artifacts.values() for p in PANELS)


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
    """Selection, the three nested fits, and every model's scores for one horizon.

    The train/test split and the class weights are derived once here and
    shared by the sweep, the fits and the scoring. Class weights use the
    training recession ratio on the test rows too.
    """
    feature_names = config.maturities + config.forced_controls
    ds = align_dataset(panel, recessions, horizon, config.split, feature_names)
    train, test = split_views(ds)
    if config.weighting:
        cw = ClassWeights.from_targets(train.targets)
        w_train, w_test = cw.per_row(train.targets), cw.per_row(test.targets)
    else:
        w_train = w_test = None
    penalty_mask = np.array([name in config.maturities for name in feature_names])

    try:
        path = sweep_path(
            train.features,
            train.targets,
            weights=w_train,
            penalty_mask=penalty_mask,
            feature_names=feature_names,
        )
        selection = select_pair(path)
    except TermSpreadError as exc:
        raise _annotate(exc, horizon, "panel A selection")

    models = {"A": fitted_model_from_selection(selection, config.forced_controls)}
    for letter in ("B", "C", "D"):
        spec = ModelSpec(
            kind=PANEL_KINDS[letter],
            ml_pair=selection.pair if PANEL_KINDS[letter].is_ml else None,
            controls=config.forced_controls,
        )
        try:
            models[letter] = fit_spec(ds, spec, weights=w_train)
        except TermSpreadError as exc:
            raise _annotate(exc, horizon, f"panel {letter}")

    forecasts = {letter: forecast_series(models[letter], ds) for letter in PANELS}
    split = ds.split_index
    probs = {p: forecasts[p].probabilities for p in PANELS}
    log_ppl = {
        p: avg_log_likelihood(test.targets, probs[p][split:], w_test) for p in PANELS
    }
    reports: dict[str, EvalReport] = {}
    for letter in PANELS:
        e = ebf(log_ppl[letter], log_ppl["D"])
        reports[letter] = EvalReport(
            horizon_months=horizon,
            kind=models[letter].spec.kind.value,
            log_l_train=avg_log_likelihood(train.targets, probs[letter][:split], w_train),
            log_ppl_test=log_ppl[letter],
            ebf=e,
            auc_train=auc(train.targets, probs[letter][:split]),
            auc_test=auc(test.targets, probs[letter][split:]),
            rm=relative_mse(test.targets, probs[letter][split:], probs["D"][split:]),
            avg_weight=model_avg_weight(e),
        )
    return HorizonArtifacts(
        dataset=ds,
        path=path,
        selection=selection,
        models=models,
        forecasts=forecasts,
        reports=reports,
    )


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
    artifacts = {h: run_horizon(panel, recessions, h, config) for h in config.horizons}
    return ExperimentResult(config=config, artifacts=artifacts, recessions=recessions)


# --- emitters ---------------------------------------------------------------

def _fmt3(v: float) -> str:
    return f"{v:.3f}"


def _fmt_g(v: float) -> str:
    return f"{v:.10g}"


def _write_rows(
    path: str, rows: Iterable[Sequence[str]], preamble: str = "", fmt: str = "csv"
) -> str:
    """Write ``preamble`` verbatim, then the rows: a header row, then data.

    ``fmt`` is "csv" or "markdown" (a pipe table). Returns the path; any
    OSError becomes IoError naming the file.
    """
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(preamble)
            if fmt == "csv":
                csv.writer(fh, lineterminator="\n").writerows(rows)
            else:
                rows = iter(rows)
                header = next(rows)
                fh.write("| " + " | ".join(header) + " |\n")
                fh.write("|" + "|".join("---" for _ in header) + "|\n")
                for row in rows:
                    fh.write("| " + " | ".join(row) + " |\n")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from None
    return path


def _table_header(controls: Sequence[str], with_lambda: bool) -> list[str]:
    head = ["horizon", "pair", "beta"]
    head += [f"beta_{name}" for name in controls]
    if with_lambda:
        head.append("lambda")
    head += ["auc_train", "auc_test", "log_l", "log_ppl", "ebf"]
    return head


def _table_cells(art: HorizonArtifacts, letter: str, controls: Sequence[str]) -> list[str]:
    model, report = art.models[letter], art.reports[letter]
    long, short = model.spec.pair
    b_long, b_short = model.display_coefficients
    cells = [str(report.horizon_months), f"({long.code}, {short.code})"]
    cells.append(f"({b_long:.3f}, {b_short:.3f})")
    cells += [_fmt3(model.control_coefs[name]) for name in controls]
    if letter == "A":
        cells.append(_fmt3(art.selection.lambda_selected))
    cells += [
        _fmt3(report.auc_train),
        _fmt3(report.auc_test),
        _fmt3(report.log_l_train),
        _fmt3(report.log_ppl_test),
        _fmt3(report.ebf),
    ]
    return cells


def emit_tables(result: ExperimentResult, fmt: str, out_dir: str) -> list[str]:
    """Write one table file per panel, one row per horizon; 3 decimals.

    Returns the written paths. The format and the horizons are checked
    before the filesystem is touched, so a bad call leaves no file behind.
    """
    if fmt not in ("csv", "markdown"):
        raise ConfigError(f"unknown table format: {fmt!r}")
    if not result.artifacts:
        raise IoError("the result holds no horizons; refusing to write empty panels")
    os.makedirs(out_dir, exist_ok=True)
    controls = result.config.forced_controls
    ext = "csv" if fmt == "csv" else "md"
    return [
        _write_rows(
            os.path.join(out_dir, f"panel_{letter}.{ext}"),
            [_table_header(controls, letter == "A")]
            + [_table_cells(art, letter, controls) for art in result.artifacts.values()],
            fmt=fmt,
        )
        for letter in PANELS
    ]


def emit_coefficient_path(path_obj: CoefficientPath, out_path: str) -> str:
    """CSV of the original-scale coefficient path: lambda, one column per maturity."""
    names = path_obj.problem.feature_names
    keep = [j for j, n in enumerate(names) if path_obj.problem.penalty_mask[j]]
    header = ["lambda"] + [names[j] for j in keep]
    rows = (
        [_fmt_g(lam)] + [_fmt_g(coefs[j]) for j in keep]
        for lam, coefs in zip(path_obj.lambdas, path_obj.coef_matrix)
    )
    return _write_rows(out_path, chain([header], rows))


def emit_spread_series(
    forecast: ForecastSeries, recessions: RecessionSeries, out_path: str
) -> str:
    """CSV of date, spread, probability, is_recession, is_test per row.

    ``is_recession`` flags the recession indicator at the row's own date
    (for shading); ``is_test`` marks rows past the train/test split, which
    sits ``horizon`` months before the target-date split.
    """
    header = ["date", "spread", "probability", "is_recession", "is_test"]
    rows = (
        [
            str(date),
            _fmt_g(forecast.spread[i]),
            _fmt_g(forecast.probabilities[i]),
            str(int(recessions.at(date))),
            str(int(i >= forecast.split_index)),
        ]
        for i, date in enumerate(forecast.dates)
    )
    return _write_rows(out_path, chain([header], rows))


def emit_roc(
    targets: np.ndarray,
    scores: np.ndarray,
    out_path: str,
    label: str = "",
) -> str:
    """CSV of (fpr, tpr) pairs with the AUC on a leading metadata line."""
    points = roc_curve(targets, scores)
    area = auc(targets, scores)
    preamble = f"# {label + ' ' if label else ''}auc={area:.6f}\n"
    rows = [["fpr", "tpr"]] + [[_fmt_g(fpr), _fmt_g(tpr)] for fpr, tpr in points]
    return _write_rows(out_path, rows, preamble=preamble)


def emit_eval_reports(reports: Sequence[EvalReport], out_path: str) -> str:
    """CSV of every EvalReport (includes RM and the model-averaging weight)."""
    rows = [["horizon", "kind", "log_l_train", "log_ppl_test", "ebf",
             "auc_train", "auc_test", "rm", "avg_weight"]]
    rows += [
        [str(r.horizon_months), r.kind, _fmt3(r.log_l_train), _fmt3(r.log_ppl_test),
         _fmt3(r.ebf), _fmt3(r.auc_train), _fmt3(r.auc_test), _fmt3(r.rm),
         _fmt3(r.avg_weight)]
        for r in reports
    ]
    return _write_rows(out_path, rows)


def emit_all(result: ExperimentResult, out_dir: str, fmt: str = "csv") -> list[str]:
    """Write tables, eval reports, and plot data for a finished run."""
    def out(name: str) -> str:
        return os.path.join(out_dir, name)

    written = emit_tables(result, fmt, out_dir)
    written.append(emit_eval_reports(result.reports, out("eval_reports.csv")))
    for horizon, art in result.artifacts.items():
        written.append(emit_coefficient_path(art.path, out(f"coefficient_path_h{horizon}.csv")))
        written.append(
            emit_spread_series(
                art.forecasts["A"], result.recessions, out(f"spread_series_h{horizon}.csv")
            )
        )
        split = art.dataset.split_index
        for letter in PANELS:
            written.append(
                emit_roc(
                    art.dataset.targets[split:],
                    art.forecasts[letter].probabilities[split:],
                    out(f"roc_h{horizon}_{letter}.csv"),
                    label=f"horizon={horizon} panel={letter}",
                )
            )
    return written
