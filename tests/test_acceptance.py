"""Acceptance gate: one test per criterion, tolerances pinned.

Criteria 5 and 6 reproduce the published tables and therefore need the
assembled public dataset (monthly yields June 1961 - July 2020 plus the
NBER indicator). Point TERMSPREAD_DATA_DIR at a directory containing
``yields_monthly.csv`` and ``recessions.csv`` (see README); without it
those two tests skip and every other criterion still runs.
"""

from __future__ import annotations

import filecmp
import json
import os
import time

import numpy as np
import pytest
import scipy.optimize

from termspread.cli import main as cli_main
from termspread.data import Month, SplitConfig, align_dataset
from termspread.errors import Separation, Singular
from termspread.evaluation import auc, ebf, posterior_weight, roc_curve
from termspread.experiment import ExperimentConfig, run_experiment
from termspread.logit import (
    ClassWeights,
    LogitProblem,
    PathStart,
    Standardizer,
    fit_l1,
    fit_mle,
    kkt_residual,
)
from termspread.models import CONVENTIONAL_PAIR, ModelSpec, fit_spec, forecast_series
from termspread.selection import select_pair, sweep_path

from reference import exceeds_jeffreys, trapezoid_auc

MATS = ("3m", "6m", "1y", "2y", "3y", "5y", "7y", "10y", "20y")


# --- shared helpers ---------------------------------------------------------------

def draw_instance(rng, n_max=40, p_max=4):
    """Random non-separated instance (redrawn until the MLE is finite)."""
    while True:
        n = int(rng.integers(12, n_max + 1))
        p = int(rng.integers(1, p_max + 1))
        X = rng.normal(size=(n, p))
        beta = rng.normal(scale=0.8, size=p)
        z = X @ beta + rng.normal(scale=0.3)
        y = (rng.random(n) < 1.0 / (1.0 + np.exp(z))).astype(float)
        if y.min() == y.max():
            continue
        try:
            fit = fit_mle(LogitProblem(features=X, targets=y))
        except (Separation, Singular):
            continue
        return X, y, fit


def reference_minimize(X, y):
    """Independent oracle: dense grid start + Nelder-Mead polish.

    Reimplements the objective from scratch (negated-argument logistic
    likelihood) and never touches the package's solvers.
    """
    X = np.asarray(X, float)
    y = np.asarray(y, float)

    def nll(theta):
        z = theta[0] + X @ theta[1:]
        p = 1.0 / (1.0 + np.exp(np.clip(z, -700, 700)))  # phi(-z)
        p = np.clip(p, 1e-300, 1 - 1e-16)
        return -np.sum(y * np.log(p) + (1 - y) * np.log1p(-p))

    k = X.shape[1] + 1
    grids = np.meshgrid(*([np.array([-1.0, 0.0, 1.0])] * k), indexing="ij")
    candidates = np.stack([g.ravel() for g in grids], axis=1)
    start = candidates[int(np.argmin([nll(c) for c in candidates]))]
    res = scipy.optimize.minimize(
        nll,
        start,
        method="Nelder-Mead",
        options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 40000, "maxfev": 40000},
    )
    return res.x


# --- criterion 1: solver oracle equivalence ----------------------------------------

def test_acceptance_1_solver_oracle_equivalence():
    start_time = time.time()
    rng = np.random.default_rng(101)
    worst_mle, worst_l1 = 0.0, 0.0
    for _ in range(100):
        X, y, fit = draw_instance(rng)
        ref = reference_minimize(X, y)
        ours = np.concatenate([[fit.intercept_std], fit.coefs_std])
        worst_mle = max(worst_mle, float(np.max(np.abs(ours - ref))))
        assert np.max(np.abs(ours - ref)) <= 1e-4

        st = Standardizer.fit(X)
        prob = LogitProblem(features=st.transform(X), targets=y)
        l1 = fit_l1(PathStart(prob), 0.0)
        mle = fit_mle(prob)
        diff = max(
            abs(l1.intercept_std - mle.intercept_std),
            float(np.max(np.abs(l1.coefs_std - mle.coefs_std))),
        )
        worst_l1 = max(worst_l1, diff)
        assert diff <= 1e-6
    elapsed = time.time() - start_time
    assert elapsed < 60.0
    print(
        f"\nACCEPTANCE 1 (solver oracle equivalence): PASS "
        f"[max |mle-oracle|={worst_mle:.2e}, max |l1(0)-mle|={worst_l1:.2e}, "
        f"{elapsed:.1f}s]"
    )


# --- criterion 2: KKT certification --------------------------------------------------

def test_acceptance_2_kkt_certification():
    start_time = time.time()
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(60):
        n = int(rng.integers(20, 120))
        p = int(rng.integers(1, 8))
        X = rng.normal(size=(n, p))
        # inject correlated columns to stress the solver
        if p >= 2 and rng.random() < 0.5:
            X[:, 1] = X[:, 0] + rng.normal(scale=0.05, size=n)
        beta = rng.normal(scale=0.8, size=p)
        y = (rng.random(n) < 1.0 / (1.0 + np.exp(X @ beta))).astype(float)
        if y.min() == y.max():
            y[0], y[1] = 0.0, 1.0
        mask = rng.random(p) < 0.85
        if not mask.any():
            mask[0] = True
        st = Standardizer.fit(X)
        lam = float(2.0 ** rng.uniform(-10, 6))
        prob = LogitProblem(features=st.transform(X), targets=y, penalty_mask=mask)
        fit = fit_l1(PathStart(prob), lam)
        assert fit.converged
        res = kkt_residual(prob, lam, fit.intercept_std, fit.coefs_std)
        worst = max(worst, res)
        assert res <= 1e-7
    elapsed = time.time() - start_time
    assert elapsed < 60.0
    print(
        f"\nACCEPTANCE 2 (KKT certification): PASS "
        f"[60 randomized fits, worst residual={worst:.2e}, {elapsed:.1f}s]"
    )


# --- criterion 3: metric identities ---------------------------------------------------

def test_acceptance_3_metric_identities():
    assert ebf(-0.459, -0.367) == pytest.approx(0.912, abs=5e-4)
    assert posterior_weight(np.log(1.114)) == pytest.approx(0.527, abs=1e-3)

    rng = np.random.default_rng(303)
    for i in range(200):
        n = int(rng.integers(4, 51))
        y = (rng.random(n) < rng.uniform(0.2, 0.8)).astype(float)
        if y.min() == y.max():
            y[0] = 1.0 - y[0]
        s = np.round(rng.random(n), 1) if i % 2 else rng.random(n)
        pos, neg = s[y == 1.0], s[y == 0.0]
        brute = (
            sum(1.0 for a in pos for b in neg if a > b)
            + 0.5 * sum(1.0 for a in pos for b in neg if a == b)
        ) / (len(pos) * len(neg))
        assert auc(y, s) == pytest.approx(brute, abs=1e-12)
        assert auc(y, s) == pytest.approx(trapezoid_auc(roc_curve(y, s)), abs=1e-12)
    print("\nACCEPTANCE 3 (metric identities): PASS [EBF 0.912, weight 0.527, 200 AUC checks]")


# --- criterion 4: balanced-weight identity ---------------------------------------------

def test_acceptance_4_balanced_weight_identity(market, data_files, tmp_path):
    panel, _ = market
    n = len(panel.dates)
    # alternating indicator + 13-month horizon: training ratio exactly 1/2
    rec_path = tmp_path / "balanced_recessions.csv"
    with open(rec_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("date,recession\n")
        for i in range(n + 24):
            fh.write(f"{Month(1961, 6) + i},{i % 2}\n")

    base = {
        "yield_files": [data_files["yields"]],
        "recession_file": str(rec_path),
        "maturities": list(MATS),
        "split": {
            "sample_start": "1961-06",
            "train_end": "1995-12",
            "sample_end": "2020-07",
        },
        "horizons": [13],
    }
    plain = run_experiment(ExperimentConfig.from_mapping(base))
    weighted = run_experiment(
        ExperimentConfig.from_mapping({**base, "weighting": True})
    )
    p_art, w_art = plain.artifacts[13], weighted.artifacts[13]
    assert p_art.dataset.targets[: p_art.dataset.split_index].mean() == 0.5
    for letter in ("A", "B", "C", "D"):
        assert p_art.models[letter].spec.pair == w_art.models[letter].spec.pair
        coefs = p_art.models[letter].display_coefficients
        assert coefs == w_art.models[letter].display_coefficients  # exact
        # every score, exactly: log L, log PPL, EBF, both AUCs, RM, weight
        assert p_art.reports[letter] == w_art.reports[letter]
    assert p_art.selection.lambda_selected == w_art.selection.lambda_selected
    print("\nACCEPTANCE 4 (balanced-weight identity): PASS [r=1/2 pipelines exactly equal]")


# --- criteria 5 and 6: published-results reproduction -----------------------------------

PAIRS_1995 = {
    3: ("10y", "6m"), 6: ("10y", "6m"), 9: ("10y", "3m"), 12: ("7y", "3m"),
    15: ("7y", "3m"), 18: ("20y", "3m"), 21: ("20y", "6m"), 24: ("20y", "1y"),
}
PUBLISHED_1995 = {
    # per panel: horizon -> (beta_long, beta_short, log_ppl) as published
    "A": {
        3: (0.453, -0.790, -0.459), 6: (0.773, -1.069, -0.413),
        9: (0.926, -1.191, -0.334), 12: (1.039, -1.231, -0.277),
        15: (0.893, -1.010, -0.258), 18: (0.428, -0.538, -0.271),
        21: (0.402, -0.464, -0.276), 24: (0.383, -0.409, -0.283),
    },
    "B": {
        3: (0.956, -0.956, -0.380), 6: (1.274, -1.274, -0.353),
        9: (1.396, -1.396, -0.289), 12: (1.342, -1.342, -0.250),
        15: (1.119, -1.119, -0.247), 18: (0.759, -0.759, -0.252),
        21: (0.599, -0.599, -0.265), 24: (0.518, -0.518, -0.273),
    },
    "C": {
        3: (0.407, -0.769, -0.458), 6: (0.762, -1.094, -0.416),
        9: (1.031, -1.295, -0.338), 12: (0.983, -1.162, -0.284),
        15: (0.841, -0.951, -0.260), 18: (0.646, -0.738, -0.263),
        21: (0.438, -0.510, -0.277), 24: (0.245, -0.292, -0.297),
    },
    "D": {
        3: (0.823, -0.823, -0.367), 6: (1.158, -1.158, -0.342),
        9: (1.396, -1.396, -0.289), 12: (1.258, -1.258, -0.258),
        15: (1.018, -1.018, -0.248), 18: (0.786, -0.786, -0.256),
        21: (0.541, -0.541, -0.276), 24: (0.305, -0.305, -0.299),
    },
}
PAIRS_2005 = {
    3: ("10y", "6m"), 6: ("10y", "3m"), 9: ("10y", "3m"), 12: ("20y", "3m"),
    15: ("20y", "3m"), 18: ("20y", "6m"), 21: ("20y", "1y"), 24: ("20y", "1y"),
}
PAIRS_2015 = {
    3: ("3y", "6m"), 6: ("10y", "3m"), 9: ("7y", "3m"), 12: ("7y", "3m"),
    15: ("20y", "3m"), 18: ("20y", "3m"), 21: ("20y", "6m"), 24: ("20y", "1y"),
}
COEF_TOL = 0.05
PPL_TOL = 0.005


def golden_dir():
    return os.environ.get(
        "TERMSPREAD_DATA_DIR",
        os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "data"),
    )


def golden_config(train_end, weighting=False):
    root = golden_dir()
    yields = os.path.join(root, "yields_monthly.csv")
    recessions = os.path.join(root, "recessions.csv")
    if not (os.path.exists(yields) and os.path.exists(recessions)):
        pytest.skip(
            "assembled public dataset not present; place yields_monthly.csv and "
            f"recessions.csv under {root} or set TERMSPREAD_DATA_DIR (see README)"
        )
    return ExperimentConfig(
        yield_files=(yields,),
        recession_file=recessions,
        maturities=MATS,
        split=SplitConfig(
            train_end=Month.parse(train_end),
            sample_start=Month(1961, 6),
            sample_end=Month(2020, 7),
        ),
        weighting=weighting,
    )


def check_pairs(result, published, label):
    mismatches = []
    for horizon, art in result.artifacts.items():
        got, want = art.models["A"].spec.pair, published[horizon]
        if got != want:
            mismatches.append((horizon, got, want))
    for h, got, want in mismatches:
        print(f"  DEVIATION {label} h={h}: selected {got}, published {want}")
    assert len(mismatches) <= 2, f"{label}: pair matches {8-len(mismatches)}/8 < 6/8"
    return mismatches


def test_acceptance_5_published_baseline_reproduction():
    start_time = time.time()
    config = golden_config("1995-12")
    result = run_experiment(config)

    mismatches = check_pairs(result, PAIRS_1995, "split-1995")
    mismatched_horizons = {h for h, _, _ in mismatches}

    assert result.artifacts[12].models["A"].spec.pair == ("7y", "3m")
    # lambda within one grid step of 0.354 = 2^(-15/10)
    k12 = result.artifacts[12].selection.k_selected
    assert abs(k12 - (-15.0)) <= 1.0

    for letter in ("A", "B", "C", "D"):
        for horizon, art in result.artifacts.items():
            skip_coefs = letter in ("A", "B") and horizon in mismatched_horizons
            want = PUBLISHED_1995[letter][horizon]
            if not skip_coefs:
                b_long, b_short = art.models[letter].display_coefficients
                log_ppl = art.reports[letter].log_ppl_test
                d_long = abs(b_long - want[0])
                d_short = abs(b_short - want[1])
                d_ppl = abs(log_ppl - want[2])
                if max(d_long, d_short) > COEF_TOL or d_ppl > PPL_TOL:
                    print(
                        f"  DEVIATION split-1995 {letter} h={horizon}: "
                        f"beta=({b_long:.3f},{b_short:.3f}) "
                        f"vs ({want[0]:.3f},{want[1]:.3f}), "
                        f"log_ppl={log_ppl:.3f} vs {want[2]:.3f}"
                    )
                assert d_long <= COEF_TOL and d_short <= COEF_TOL
                assert d_ppl <= PPL_TOL
    assert all(art.reports["D"].ebf == 1.0 for art in result.artifacts.values())
    # no alternative model clears Jeffreys' substantial-evidence bar
    assert not any(
        exceeds_jeffreys(r.ebf) for art in result.artifacts.values() for r in art.reports.values()
    )
    elapsed = time.time() - start_time
    assert elapsed < 300.0
    print(f"\nACCEPTANCE 5 (published baseline, split 1995): PASS [{elapsed:.0f}s]")


def test_acceptance_6_robustness_protocols():
    start_time = time.time()
    for train_end, published, label in (
        ("2005-12", PAIRS_2005, "split-2005"),
        ("2015-12", PAIRS_2015, "split-2015"),
    ):
        result = run_experiment(golden_config(train_end))
        check_pairs(result, published, label)

    weighted = run_experiment(golden_config("1995-12", weighting=True))
    art = weighted.artifacts[12]
    cw = ClassWeights.from_targets(art.dataset.targets[: art.dataset.split_index])
    assert cw.recession_ratio == pytest.approx(0.14, abs=0.01)
    oversampling = (1.0 - cw.recession_ratio) / cw.recession_ratio
    assert oversampling == pytest.approx(6.0, abs=0.5)
    assert all(art.reports["D"].ebf == 1.0 for art in weighted.artifacts.values())
    elapsed = time.time() - start_time
    print(
        f"\nACCEPTANCE 6 (robustness protocols): PASS "
        f"[r={cw.recession_ratio:.3f}, oversampling={oversampling:.1f}, "
        f"{elapsed:.0f}s]"
    )


# --- criterion 7: nesting invariant -------------------------------------------------------

def test_acceptance_7_nesting_invariant(market):
    panel, recessions = market
    splits = (
        SplitConfig(Month(1995, 12), Month(1961, 6), Month(2020, 7)),
        SplitConfig(Month(2005, 12), Month(1961, 6), Month(2020, 7)),
    )
    horizons = (3, 6, 9, 12, 15, 18, 21, 24)
    checked = 0
    for split in splits:
        for horizon in horizons:
            ds = align_dataset(panel, recessions, horizon, split, MATS)
            k = ds.split_index
            path = sweep_path(ds.features[:k], ds.targets[:k], feature_names=MATS)
            pair = select_pair(path).pair

            def train_ll(spec):
                model = fit_spec(ds, spec)
                probs = forecast_series(model, ds).probabilities[:k]
                y = ds.targets[:k]
                return float(np.mean(y * np.log(probs) + (1 - y) * np.log1p(-probs)))

            gen_ml = train_ll(ModelSpec(pair, simple=False))
            sim_ml = train_ll(ModelSpec(pair, simple=True))
            gen_cv = train_ll(ModelSpec(CONVENTIONAL_PAIR, simple=False))
            sim_cv = train_ll(ModelSpec(CONVENTIONAL_PAIR, simple=True))
            assert gen_ml >= sim_ml - 1e-8, (split.train_end, horizon)
            assert gen_cv >= sim_cv - 1e-8, (split.train_end, horizon)
            checked += 1
    print(f"\nACCEPTANCE 7 (nesting invariant): PASS [{checked} horizon/split cells]")


# --- criterion 8: determinism ----------------------------------------------------------

def test_acceptance_8_byte_identical_reruns(data_files, tmp_path):
    config = {
        "yield_files": [data_files["yields"]],
        "recession_file": data_files["recessions"],
        "maturities": list(MATS),
        "split": {
            "sample_start": "1961-06",
            "train_end": "1995-12",
            "sample_end": "2020-07",
        },
        "horizons": [3, 12],
        "forced_controls": ["lead_idx"],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config), "utf-8")
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert cli_main(["run", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert cli_main(["run", "--config", str(cfg_path), "--out", str(out2)]) == 0
    names = sorted(os.listdir(out1))
    assert names == sorted(os.listdir(out2))
    match, mismatch, errors = filecmp.cmpfiles(str(out1), str(out2), names, shallow=False)
    assert mismatch == [] and errors == []
    assert len(match) == len(names)
    print(f"\nACCEPTANCE 8 (determinism): PASS [{len(names)} files byte-identical]")
