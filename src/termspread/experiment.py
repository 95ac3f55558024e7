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
from dataclasses import MISSING, astuple, dataclass, fields
from itertools import chain
from typing import Iterator, Mapping

import numpy as np

from .data import (
    MATURITY_CODES,
    AlignedDataset,
    Month,
    RecessionSeries,
    SplitConfig,
    YieldPanel,
    align_dataset,
    load_recession_series,
    load_yield_panel,
)
from .errors import ConfigError, CoverageError, IoError, MissingSeries, TermSpreadError
from .evaluation import (
    EvalReport,
    auc,
    avg_log_likelihood,
    ebf,
    posterior_weight,
    relative_mse,
    roc_curve,
)
from .logit import ClassWeights
from .models import (
    CONVENTIONAL_PAIR,
    FittedModel,
    ForecastSeries,
    ModelSpec,
    fit_spec,
    fitted_model_from_selection,
    forecast_series,
)
from .selection import (
    TARGET_NONZERO,
    CoefficientPath,
    SelectionResult,
    select_pair,
    sweep_path,
)

# panel letter -> the model's kind in eval_reports.csv, in table order
PANELS = {
    "A": "generalized_ml",
    "B": "simple_ml",
    "C": "generalized_conventional",
    "D": "simple_conventional",
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
        for m in self.maturities:
            if m not in MATURITY_CODES:
                raise ConfigError(f"unknown maturity code {m!r} in maturities")
        for name in ("maturities", "forced_controls"):
            names = getattr(self, name)
            if len(set(names)) != len(names):
                raise ConfigError(f"{name} names a series twice: {list(names)}")
        for c in self.forced_controls:
            if c in MATURITY_CODES:
                raise ConfigError(f"forced control {c!r} is a maturity code, not a control series")
        long, short = CONVENTIONAL_PAIR
        if long not in self.maturities or short not in self.maturities:
            raise ConfigError(
                f"maturities must include {long!r} and {short!r}, the conventional pair "
                "of panels C and D"
            )
        if not self.horizons:
            raise ConfigError("horizons must not be empty")
        if any(h < 1 for h in self.horizons):
            raise ConfigError("horizons must be positive month counts")
        if list(self.horizons) != sorted(set(self.horizons)):
            raise ConfigError("horizons must be sorted ascending, each listed once")

    @classmethod
    def from_json(cls, path: str) -> "ExperimentConfig":
        try:
            with open(path, "r", encoding="utf-8-sig") as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from None
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config is not UTF-8 text: {exc.reason}") from None
        return cls.from_mapping(raw)

    @classmethod
    def from_mapping(cls, raw: Mapping) -> "ExperimentConfig":
        """The config from a JSON object whose keys are the fields, those
        without a default required, plus an optional ``target_nonzero``."""
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        values = dict(raw)
        # accepted for the README's config, but the panels need a pair
        target = values.pop("target_nonzero", TARGET_NONZERO)
        unknown = set(values) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        missing = {f.name for f in fields(cls) if f.default is MISSING} - set(values)
        if missing:
            raise ConfigError(f"missing config keys: {sorted(missing)}")
        if type(target) is not int or target != TARGET_NONZERO:
            raise ConfigError(
                "panel construction needs a two-maturity selection: "
                f"target_nonzero must be {TARGET_NONZERO}, got {target!r}"
            )
        split_raw = values["split"]
        if not isinstance(split_raw, dict):
            raise ConfigError("split must be an object")
        split_keys = [f.name for f in fields(SplitConfig)]
        if set(split_raw) != set(split_keys):
            raise ConfigError(f"split must have exactly the keys {sorted(split_keys)}")
        try:
            values["split"] = SplitConfig(**{k: Month.parse(split_raw[k]) for k in split_keys})
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        return cls(**values)


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

    The dataset's ``split_index`` is the one train/test split: the checks,
    the class weights, the sweep and the scores all slice the dataset's rows
    and the forecasts at it. Class weights use the training recession ratio
    on the test rows too. A partition holding one class only, or a feature
    that is constant over the training rows, is a CoverageError naming the
    horizon, the partition and its row count.
    """
    feature_names = config.maturities + config.forced_controls
    ds = align_dataset(panel, recessions, horizon, config.split, feature_names)
    split = ds.split_index
    X_train, y_train, y_test = ds.features[:split], ds.targets[:split], ds.targets[split:]
    for name, part in (("training", y_train), ("test", y_test)):
        if np.count_nonzero(part) in (0, len(part)):
            raise CoverageError(
                f"[horizon={horizon}] the {name} partition's {len(part)} rows "
                f"all have recession={int(part[0])}; both classes are needed"
            )
    constant = np.flatnonzero((X_train == X_train[0]).all(axis=0))
    if constant.size:
        j = int(constant[0])
        raise CoverageError(
            f"[horizon={horizon}] the training partition's {split} rows "
            f"all have {feature_names[j]}={X_train[0, j]:g}; every feature must vary"
        )
    if config.weighting:
        cw = ClassWeights.from_targets(y_train)
        w_train, w_test = cw.per_row(y_train), cw.per_row(y_test)
    else:
        w_train = w_test = None

    try:
        path = sweep_path(X_train, y_train, feature_names, weights=w_train)
        selection = select_pair(path)
    except TermSpreadError as exc:
        raise _annotate(exc, horizon, "panel A selection")

    models = {"A": fitted_model_from_selection(path, selection)}
    for letter in ("B", "C", "D"):
        spec = ModelSpec(
            selection.pair if letter == "B" else CONVENTIONAL_PAIR,
            simple=letter != "C",
            controls=config.forced_controls,
        )
        try:
            models[letter] = fit_spec(ds, spec, weights=w_train)
        except TermSpreadError as exc:
            raise _annotate(exc, horizon, f"panel {letter}")

    forecasts = {letter: forecast_series(models[letter], ds) for letter in PANELS}
    probs = {p: forecasts[p].probabilities for p in PANELS}
    log_ppl = {p: avg_log_likelihood(y_test, probs[p][split:], w_test) for p in PANELS}
    reports: dict[str, EvalReport] = {}
    for letter in PANELS:
        reports[letter] = EvalReport(
            log_l_train=avg_log_likelihood(y_train, probs[letter][:split], w_train),
            log_ppl_test=log_ppl[letter],
            ebf=ebf(log_ppl[letter], log_ppl["D"]),
            auc_train=auc(y_train, probs[letter][:split]),
            auc_test=auc(y_test, probs[letter][split:]),
            rm=relative_mse(y_test, probs[letter][split:], probs["D"][split:]),
            avg_weight=posterior_weight(log_ppl[letter] - log_ppl["D"]),
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
        if name not in panel.columns:
            raise MissingSeries(f"forced control {name!r} not present in the data")
    recessions = load_recession_series(config.recession_file)
    artifacts = {h: run_horizon(panel, recessions, h, config) for h in config.horizons}
    return ExperimentResult(config=config, artifacts=artifacts, recessions=recessions)


# --- emitters ---------------------------------------------------------------

def _fmt3(v: float) -> str:
    return f"{v:.3f}"


def make_output_dir(out_dir: str) -> list[str]:
    """Make ``out_dir`` and its missing parents, unless it is a directory
    already. Returns the directories this call made, innermost first. The
    path is resolved first, so ``new/../x`` makes no ``new``. A path that
    cannot be made is an IoError."""
    if os.path.isdir(out_dir):
        return []
    target = os.path.realpath(out_dir) if out_dir else out_dir
    made, path = [], target
    while path and not os.path.isdir(path):
        made.append(path)
        path = os.path.dirname(path)
    try:
        os.makedirs(target)
    except OSError as exc:
        reason = exc.strerror or exc
        raise IoError(f"cannot create output directory {out_dir!r}: {reason}") from None
    return made


def _panel_rows(result: ExperimentResult, letter: str) -> Iterator[list[str]]:
    """One table panel: a header, then one row per horizon; 3 decimals."""
    controls, with_lambda = result.config.forced_controls, letter == "A"
    yield ["horizon", "pair", "beta", *(f"beta_{name}" for name in controls),
           *(["lambda"] if with_lambda else []),
           "auc_train", "auc_test", "log_l", "log_ppl", "ebf"]
    for h, art in result.artifacts.items():
        model, report = art.models[letter], art.reports[letter]
        numbers = [*(model.control_coefs[name] for name in controls),
                   *([art.selection.lambda_selected] if with_lambda else []),
                   report.auc_train, report.auc_test, report.log_l_train,
                   report.log_ppl_test, report.ebf]
        yield [str(h), "({}, {})".format(*model.spec.pair),
               "({:.3f}, {:.3f})".format(*model.display_coefficients), *map(_fmt3, numbers)]


class _Echo:
    """A file whose ``write`` returns the text: ``csv.writer(_Echo()).writerow``
    returns the row as one line."""

    def write(self, text: str) -> str:
        return text


def _table_lines(rows: Iterator[list[str]], markdown: bool) -> Iterator[str]:
    """A table of string cells as text lines: a pipe table, or csv with the
    cells quoted where they need it (a pair holds a comma)."""
    if not markdown:
        yield from map(csv.writer(_Echo(), lineterminator="\n").writerow, rows)
        return
    header = next(rows)
    yield f"| {' | '.join(header)} |\n" + "|---" * len(header) + "|\n"
    yield from (f"| {' | '.join(row)} |\n" for row in rows)


def _number_lines(header: list[str], cell_formats: list[str], columns: list[list]) -> Iterator[str]:
    """A csv header, then one line per row of ``columns`` (equal-length
    lists), each made by one %-format of the row's cells."""
    yield ",".join(header) + "\n"
    yield from map((",".join(cell_formats) + "\n").__mod__, zip(*columns))


def _outputs(result: ExperimentResult, ext: str) -> Iterator[tuple[str, Iterator[str]]]:
    """Every output file in order as (name, text lines). The lines are
    generated as the file is written."""
    for letter in PANELS:
        rows = _panel_rows(result, letter)
        yield f"panel_{letter}.{ext}", _table_lines(rows, markdown=ext == "md")
    # every EvalReport by horizon, then panel, one column per metric
    yield "eval_reports.csv", _table_lines(chain(
        [["horizon", "kind", *(f.name for f in fields(EvalReport))]],
        ([str(h), kind, *map(_fmt3, astuple(art.reports[letter]))]
         for h, art in result.artifacts.items() for letter, kind in PANELS.items()),
    ), markdown=False)
    for h, art in result.artifacts.items():
        # the original-scale path: lambda, then one column per maturity
        path, ds = art.path, art.dataset
        keep = np.flatnonzero(path.problem.penalty_mask)
        yield f"coefficient_path_h{h}.csv", _number_lines(
            ["lambda", *(path.feature_names[j] for j in keep)],
            ["%.10g"] * (1 + len(keep)),
            [path.lambdas.tolist(), *path.coef_matrix[:, keep].T.tolist()],
        )
        # panel A's spread and probability per row; is_recession flags the
        # row's own date (for shading), is_test the rows past the split
        forecast = art.forecasts["A"]
        is_recession = result.recessions.span(ds.predictor_dates[0], ds.n_rows)
        is_test = np.arange(ds.n_rows) >= ds.split_index
        yield f"spread_series_h{h}.csv", _number_lines(
            ["date", "spread", "probability", "is_recession", "is_test"],
            ["%s", "%.10g", "%.10g", "%d", "%d"],
            [list(map(str, ds.predictor_dates)), forecast.spread.tolist(),
             forecast.probabilities.tolist(), is_recession.astype(int).tolist(),
             is_test.astype(int).tolist()],
        )
        # test-period ROC points, the AUC on a metadata line
        for letter in PANELS:
            points = roc_curve(ds.targets[ds.split_index:],
                               art.forecasts[letter].probabilities[ds.split_index:])
            yield f"roc_h{h}_{letter}.csv", chain(
                [f"# horizon={h} panel={letter} auc={art.reports[letter].auc_test:.6f}\n"],
                _number_lines(["fpr", "tpr"], ["%.10g"] * 2, points.T.tolist()),
            )


def emit_all(result: ExperimentResult, out_dir: str, fmt: str = "csv") -> list[str]:
    """Write the four panels (``fmt`` "csv" or "markdown", a pipe table),
    eval_reports.csv, and per horizon the coefficient path, the spread
    series and the four ROC curves; returns the written paths in that order.

    The format and the horizons are checked before the filesystem is
    touched, so a bad call leaves no file behind. Any OSError becomes an
    IoError naming the file.
    """
    if fmt not in ("csv", "markdown"):
        raise ConfigError(f"unknown table format: {fmt!r}")
    if not result.artifacts:
        raise IoError("the result holds no horizons; refusing to write empty panels")
    make_output_dir(out_dir)
    written = []
    for name, lines in _outputs(result, "csv" if fmt == "csv" else "md"):
        path = os.path.join(out_dir, name)
        try:
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.writelines(lines)
        except OSError as exc:
            raise IoError(f"cannot write {path}: {exc}") from None
        written.append(path)
    return written
