"""Reference computations the tests check the library against.

Written apart from the library, so that a test compares two independent
routes to the same number.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import math
from dataclasses import astuple, fields

import numpy as np

from termspread.data import Month
from termspread.evaluation import EvalReport, roc_curve

JEFFREYS_THRESHOLD = math.sqrt(10.0)


def exceeds_jeffreys(ebf_value: float) -> bool:
    """True when the EBF clears sqrt(10), Jeffreys' substantial-evidence bar."""
    return ebf_value >= JEFFREYS_THRESHOLD


def trapezoid_auc(points: np.ndarray) -> float:
    """Trapezoidal area under an ordered ROC curve (cross-check for auc)."""
    pts = np.asarray(points, dtype=float)
    x, y = pts[:, 0], pts[:, 1]
    return float(np.sum(0.5 * (y[1:] + y[:-1]) * np.diff(x)))


def intercept_only_lambda_bound(
    features: np.ndarray, targets: np.ndarray, weights: np.ndarray
) -> float:
    """The null-model lambda bound when every feature is penalized, in closed
    form: the intercept-only MLE fits every row the weighted positive
    fraction p, so the bound is max_j |sum_i x_ij w_i (y_i - p)|."""
    p = float(np.sum(weights * targets) / np.sum(weights))
    return float(np.max(np.abs(features.T @ (weights * (targets - p)))))


def loop_auc(targets: np.ndarray, scores: np.ndarray) -> float:
    """Mann-Whitney AUC from average 1-based ranks, assigned by a loop over
    the sorted scores, one tie group at a time."""
    y = np.asarray(targets, dtype=float)
    s = np.asarray(scores, dtype=float)
    order = np.argsort(s, kind="stable")
    sorted_s = s[order]
    ranks = np.empty(len(s))
    i = 0
    while i < len(s):
        j = i
        while j + 1 < len(s) and sorted_s[j + 1] == sorted_s[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    n_pos = int(np.sum(y == 1.0))
    n_neg = int(np.sum(y == 0.0))
    u = float(np.sum(ranks[y == 1.0])) - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def array_pseudo_gradient(
    g: np.ndarray, beta: np.ndarray, pen: np.ndarray, lam: float
) -> np.ndarray:
    """Minimum-norm subgradient of the L1 objective over (intercept, coefs),
    in whole-array NumPy operations: for penalized j, g_j + lambda*sign(b_j)
    when b_j != 0, else g_j shrunk toward zero by lambda; for the intercept
    and unpenalized features, g_j."""
    pg = np.abs(g)
    pg -= lam
    np.maximum(pg, 0.0, out=pg)
    pg *= np.sign(g)
    moved = np.sign(beta)
    moved *= lam
    moved += g
    np.copyto(pg, moved, where=beta != 0.0)
    np.copyto(pg, g, where=~pen)
    return pg


def loop_roc(targets: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """ROC points (fpr, tpr) from (0, 0), one per distinct score in
    decreasing order, built by a loop over the thresholds."""
    y = np.asarray(targets, dtype=float)
    s = np.asarray(scores, dtype=float)
    n_pos = int(np.sum(y == 1.0))
    n_neg = int(np.sum(y == 0.0))
    points = [(0.0, 0.0)]
    for threshold in sorted(set(s.tolist()), reverse=True):
        hit = s >= threshold
        false_pos = float(np.sum(hit & (y == 0.0)))
        true_pos = float(np.sum(hit & (y == 1.0)))
        points.append((false_pos / n_neg, true_pos / n_pos))
    return np.array(points)


def line_by_line_gsw_monthly(path: str, columns: tuple[str, ...]) -> dict[str, dict[Month, float]]:
    """Monthly means of some columns of the daily zero-curve file, every
    cell of every line stripped, and each month's mean taken by fsum over
    its days; a missing cell drops that day from its own column only."""
    daily: dict[str, tuple[list[dt.date], list[float]]] = {c: ([], []) for c in columns}
    with open(path, encoding="utf-8") as fh:
        col_idx = None
        for line in fh:
            cells = [c.strip().strip('"') for c in line.strip().split(",")]
            if col_idx is None:
                if cells and cells[0].lower() == "date" and set(columns) <= set(cells):
                    col_idx = [cells.index(c) for c in columns]
                continue
            if not cells or not cells[0]:
                continue
            day = None
            for (dates, values), j in zip(daily.values(), col_idx):
                raw = cells[j] if j < len(cells) else ""
                if raw in ("", "NA", "."):
                    continue
                day = day or dt.date.fromisoformat(cells[0])
                dates.append(day)
                values.append(float(raw))
    out: dict[str, dict[Month, float]] = {}
    for c, (dates, values) in daily.items():
        buckets: dict[Month, list[float]] = {}
        for day, v in zip(dates, values):
            buckets.setdefault(Month(day.year, day.month), []).append(v)
        out[c] = {m: math.fsum(vs) / len(vs) for m, vs in sorted(buckets.items())}
    return out


_PANELS = {"A": "generalized_ml", "B": "simple_ml",
           "C": "generalized_conventional", "D": "simple_conventional"}


def per_cell_outputs(result, markdown: bool) -> dict[str, str]:
    """The text of every output file of a run, by file name: each number
    cell formatted on its own (``format(v, ".10g")``, three decimals in the
    tables) and every csv row passed through ``csv.writer``."""
    def g(v):
        return format(v, ".10g")

    def f3(v):
        return f"{v:.3f}"

    def panel(letter):
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
                   "({:.3f}, {:.3f})".format(*model.display_coefficients), *map(f3, numbers)]

    def as_csv(rows, preamble=""):
        buf = io.StringIO()
        buf.write(preamble)
        csv.writer(buf, lineterminator="\n").writerows(rows)
        return buf.getvalue()

    files = {}
    for letter in _PANELS:
        rows = list(panel(letter))
        if markdown:
            files[f"panel_{letter}.md"] = (
                f"| {' | '.join(rows[0])} |\n" + "|---" * len(rows[0]) + "|\n"
                + "".join(f"| {' | '.join(row)} |\n" for row in rows[1:])
            )
        else:
            files[f"panel_{letter}.csv"] = as_csv(rows)
    files["eval_reports.csv"] = as_csv(
        [["horizon", "kind", *(f.name for f in fields(EvalReport))]]
        + [[str(h), kind, *map(f3, astuple(art.reports[letter]))]
           for h, art in result.artifacts.items() for letter, kind in _PANELS.items()]
    )
    for h, art in result.artifacts.items():
        path, ds = art.path, art.dataset
        keep = np.flatnonzero(path.problem.penalty_mask)
        files[f"coefficient_path_h{h}.csv"] = as_csv(
            [["lambda", *(path.feature_names[j] for j in keep)]]
            + [[g(lam), *map(g, coefs)]
               for lam, coefs in zip(path.lambdas, path.coef_matrix[:, keep])]
        )
        forecast = art.forecasts["A"]
        is_recession = result.recessions.span(ds.predictor_dates[0], ds.n_rows)
        files[f"spread_series_h{h}.csv"] = as_csv(
            [["date", "spread", "probability", "is_recession", "is_test"]]
            + [[str(date), g(spread), g(prob), str(int(rec)), str(int(i >= ds.split_index))]
               for i, (date, spread, prob, rec) in enumerate(zip(
                   ds.predictor_dates, forecast.spread, forecast.probabilities, is_recession))]
        )
        for letter in _PANELS:
            points = roc_curve(ds.targets[ds.split_index:],
                               art.forecasts[letter].probabilities[ds.split_index:])
            files[f"roc_h{h}_{letter}.csv"] = as_csv(
                [["fpr", "tpr"]] + [[g(fpr), g(tpr)] for fpr, tpr in points],
                f"# horizon={h} panel={letter} auc={art.reports[letter].auc_test:.6f}\n",
            )
    return files
