#!/usr/bin/env python3
"""Benchmark of the termspread pipeline, one workload per run.

    python3 perfbench/run.py --workload table_plain --seed 42 --seconds 40 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src/``. The run generates the workload's inputs from the seed
(untimed), then, for ``--seconds``, runs operations one after another, each
in a fresh process: a ``termspread run`` for the table workloads, a dataset
assembly plus load and alignment for ``ingest_daily``. Calibration
processes are spread over the run. Every operation's output is checked; see
README.md in this directory for the checks, the calibration and what each
metric predicts.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` operations
alternate between untraced and traced processes and the object holds the
per-layer metrics. The lines before it print every metric by name with its
unit, the sample counts and the failure fraction.
"""

from __future__ import annotations

import os

# Pin BLAS and OpenMP threads before numpy loads, here and in every operation.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(BENCH_DIR)
WORK = os.path.join(CHECKOUT, ".perfbench_work")
REFERENCE_DIR = os.path.join(BENCH_DIR, "reference")
WORKLOADS = ("table_plain", "table_weighted_lead", "ingest_daily")
PACE_POINTS = 12  # calibrations per untraced run, spread over it
MIN_OPS = 3  # two at least, so output identity across operations is checked
SAMPLE_MONTHS, TRAIN_MONTHS = 710, 415  # 1961-06..2020-07, 1961-06..1995-12
# A shared host's speed drifts by up to a third over minutes. A fresh
# interpreter that imports numpy and the standard modules the program uses
# (no program code) slows with it as the operations do, so reported times
# are scaled by CALIBRATION_REFERENCE_S over the run's median calibration.
CALIBRATION_CODE = "import argparse, csv, dataclasses, json, re\nimport numpy\n"
CALIBRATION_REFERENCE_S = 0.15


class Workload:
    """A workload's inputs in its own work directory and how to run one operation."""

    def __init__(self, name: str, seed: int) -> None:
        self.name = name
        self.seed = seed
        self.root = os.path.join(WORK, name)
        shutil.rmtree(self.root, ignore_errors=True)
        os.makedirs(self.root)
        if name == "ingest_daily":
            self.kind = "ingest"
            raw = os.path.join(self.root, "raw")
            self.expected = inputs.write_raw_downloads(seed, raw)
            self.input_args = ["--raw", raw]
        else:
            self.kind = "table"
            config = inputs.write_market(seed, self.root, name == "table_weighted_lead")
            self.input_args = ["--config", config]
        self.env = dict(os.environ, PYTHONPATH=os.path.join(CHECKOUT, "src"), **THREAD_ENV)
        # an installed program has its bytecode compiled; set-up must not pay for compiling
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)

    def calibrate(self) -> float:
        """Wall time of one calibration process, spawn to exit."""
        spawned = time.monotonic()
        subprocess.run([sys.executable, "-c", CALIBRATION_CODE], env=self.env, check=True)
        return time.monotonic() - spawned

    def run_op(self, op_id: int, traced: bool = False, setup_only: bool = False) -> dict:
        out = os.path.join(self.root, f"out{op_id}")
        result_path = os.path.join(self.root, f"result{op_id}.json")
        err_path = os.path.join(self.root, f"stderr{op_id}.txt")
        cmd = [sys.executable, os.path.join(BENCH_DIR, "operation.py"), self.kind,
               *self.input_args, "--out", out, "--result", result_path, "--op-id", str(op_id)]
        cmd += ["--trace"] * traced + ["--setup-only"] * setup_only
        with open(err_path, "w", encoding="utf-8") as err:
            spawned = time.monotonic()
            proc = subprocess.Popen(cmd, env=self.env, stdout=subprocess.DEVNULL, stderr=err)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            ended = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        # ru_maxrss holds this process's own peak (see operation.peak_rss_mb):
        # it stands in only for an operation that died before reporting its own
        op = {"id": op_id, "traced": traced, "code": proc.returncode, "out": out,
              "run_s": ended - spawned, "rss_mb": usage.ru_maxrss / 1024.0}
        if proc.returncode != 0:
            with open(err_path, encoding="utf-8") as fh:
                op["error"] = fh.read().strip().splitlines()[-1:] or ["(no stderr)"]
            return op
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
        op["setup_s"] = result["setup_end"] - spawned
        op["rss_mb"] = result.get("peak_rss_mb", op["rss_mb"])
        op["aligned"] = result.get("aligned")
        op["trace"] = result.get("trace")
        if not setup_only:
            op["digest"] = checks.tree_digest(out) + json.dumps(op["aligned"], sort_keys=True)
        return op

    def content_problems(self, op: dict) -> list[str]:
        """Checks of one operation's outputs beyond identity with the others."""
        files = checks.read_tree(op["out"])
        if self.kind == "table":
            problems = checks.benchmark_ebf(files)
        else:
            problems = checks.ingest_expectations(files, self.expected)
            problems += checks.aligned_expectations(
                op["aligned"], inputs.HORIZONS, SAMPLE_MONTHS, TRAIN_MONTHS
            )
        if self.seed == inputs.REFERENCE_SEED:
            reference = checks.load_reference(reference_path(self.name))
            problems += checks.compare_tree(files, reference["files"])
            if self.kind == "ingest" and op["aligned"] != reference["aligned"]:
                problems.append("aligned datasets differ from the reference")
        return problems


def reference_path(workload: str) -> str:
    return os.path.join(REFERENCE_DIR, f"{workload}.json.gz")


def measure(workload: Workload, seconds: float, trace: bool) -> dict:
    """Operations until the time is up, with calibrations spread over the
    run; every output is kept for the checks."""
    warmup = workload.run_op(-1, setup_only=True)  # untimed: writes bytecode caches
    if warmup["code"] != 0:
        raise SystemExit(f"set-up failed: {warmup['error'][0]}")
    n_pace = 0 if trace else PACE_POINTS
    calibrations: list[float] = []
    ops: list[dict] = []
    kept = None  # the first good operation's outputs stay for the content checks
    start = time.monotonic()

    def keep_pace(count: int) -> None:
        while len(calibrations) < min(count, n_pace):
            calibrations.append(workload.calibrate())

    min_ops = 2 * MIN_OPS if trace else MIN_OPS
    while len(ops) < min_ops or (
        time.monotonic() - start + statistics.median(op["run_s"] for op in ops) <= seconds
    ):
        keep_pace(math.ceil(n_pace * (time.monotonic() - start) / seconds))
        op = workload.run_op(len(ops), traced=trace and len(ops) % 2 == 1)
        ops.append(op)
        if op["code"] == 0:
            if kept is None:
                kept = op["id"]
            else:
                shutil.rmtree(op["out"])  # identity is checked through the digest
    keep_pace(n_pace)
    return {"ops": ops, "warmup": warmup, "calibrations": calibrations,
            "elapsed": time.monotonic() - start}


def judge(workload: Workload, ops: list[dict]) -> tuple[int, list[str]]:
    """(failed operations, problems). An operation fails on a non-zero exit,
    an output that differs from the first good operation's, a failed content
    check (which fails every operation with the same output), or a traced fit
    whose KKT residual exceeds 1e-7."""
    problems = []
    good = [op for op in ops if op["code"] == 0]
    failed = {op["id"] for op in ops if op["code"] != 0}
    for op in ops:
        if op["code"] != 0:
            problems.append(f"operation {op['id']} exited {op['code']}: {op['error'][0]}")
    if good:
        first = good[0]
        content = workload.content_problems(first)
        problems += content
        for op in good:
            if op["digest"] != first["digest"]:
                failed.add(op["id"])
                problems.append(f"operation {op['id']} output differs from operation {first['id']}")
            elif content:
                failed.add(op["id"])
            if op["traced"]:
                kkt = max(op["trace"]["maxima"].values(), default=0.0)
                if kkt > checks.KKT_TOL:
                    failed.add(op["id"])
                    problems.append(f"operation {op['id']}: a fit has KKT residual {kkt:.3g}")
    return len(failed), problems


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer numbers of one traced operation; self time is a span's
    duration minus the durations of its direct children (calls are
    sequential, so the children never overlap)."""
    spans = {s[1]: s for s in trace["spans"]}
    counts = Counter(trace["counts"])
    maxima = trace["maxima"]
    total, own, calls, children = Counter(), Counter(), Counter(), Counter()
    for _, sid, parent, name, start, end in spans.values():
        children[parent] += end - start
    for _, sid, parent, name, start, end in spans.values():
        total[name] += end - start
        own[name] += end - start - children[sid]
        calls[name] += 1

    def under(sid: int, name: str) -> bool:
        while sid >= 0:
            sid = spans[sid][2]
            if sid >= 0 and spans[sid][3] == name:
                return True
        return False

    def is_eval(sid: int) -> bool:
        return sid >= 0 and spans[sid][3].startswith("evaluation.")

    iterations = counts["logit.fit_l1.iterations"]
    nll_calls = counts["logit.weighted_nll"]
    return {
        "logit.fit_l1.calls": calls["logit.fit_l1"],
        "logit.fit_l1.iterations": iterations,
        "logit.fit_l1.s": total["logit.fit_l1"],
        "logit.fit_l1.us_per_iter": 1e6 * total["logit.fit_l1"] / iterations if iterations else 0.0,
        "logit.fit_l1.kkt_max": maxima.get("logit.fit_l1.kkt_max", 0.0),
        "logit.fit_l1.useful_step_ratio": iterations / nll_calls if nll_calls else 0.0,
        "logit.fit_mle.calls": calls["logit.fit_mle"],
        "logit.fit_mle.iterations": counts["logit.fit_mle.iterations"],
        "logit.fit_mle.s": total["logit.fit_mle"],
        "logit.predict_proba.calls": counts["logit.predict_proba"],
        "logit.weighted_nll.calls": nll_calls,
        "logit.nll_gradient.calls": counts["logit.nll_gradient"],
        "logit.kkt_residual.calls": counts["logit.kkt_residual"],
        "selection.sweep_path.s": total["selection.sweep_path"],
        "selection.sweep_path.self_s": own["selection.sweep_path"],
        "selection.grid_points": counts["selection.grid_points"],
        "selection.select_pair.s": total["selection.select_pair"],
        "selection.bisect_fits": sum(
            1 for s in spans.values() if s[3] == "logit.fit_l1" and under(s[1], "selection.select_pair")
        ),
        "models.fit_spec.s": total["models.fit_spec"],
        "models.forecast_series.s": total["models.forecast_series"],
        "evaluation.s": sum(
            s[5] - s[4] for s in spans.values() if is_eval(s[1]) and not is_eval(s[2])
        ),
        "evaluation.calls": sum(n for name, n in calls.items() if name.startswith("evaluation.")),
        "experiment.run_horizon.s": total["experiment.run_horizon"],
        "experiment.run_horizon.self_s": own["experiment.run_horizon"],
        "experiment.emit_all.s": total["experiment.emit_all"],
        "experiment.files_written": counts["experiment.files_written"],
        "experiment.bytes_written": counts["experiment.bytes_written"],
        "data.load_yield_panel.s": total["data.load_yield_panel"],
        "data.load_recession_series.s": total["data.load_recession_series"],
        "data.align_dataset.s": total["data.align_dataset"],
        "data.monthly_average.s": total["data.monthly_average"],
        "data.discount_to_bond_equivalent.calls": counts["data.discount_to_bond_equivalent"],
        "data.bytes_read": counts["data.bytes_read"],
        "assemble.read_gsw_monthly.calls": calls["assemble.read_gsw_monthly"],
        "assemble.read_gsw_monthly.s": total["assemble.read_gsw_monthly"],
        "assemble.read_fred_monthly.s": total["assemble.read_fred_monthly"],
        "assemble.main.self_s": own["assemble.main"],
        "cli.main.s": total["cli.main"],
        "cli.main.self_s": own["cli.main"],
    }


def _median(values) -> float:
    return statistics.median(values) if values else float("nan")


def _spread(values) -> str:
    if len(values) < 4:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)}, quartiles {q1:.4f}..{q3:.4f}"


def report(spec: dict, workload: Workload, run: dict, trace: bool) -> dict:
    ops = run["ops"]
    failed, problems = judge(workload, ops)
    # with no good operation, times of the failed ones still give finite numbers
    plain = [op for op in ops if op["code"] == 0 and not op["traced"]] or [
        op for op in ops if not op["traced"]
    ]
    traced = [op for op in ops if op["code"] == 0 and op["traced"]]
    run_times = [op["run_s"] for op in plain]
    setups = [op["setup_s"] for op in plain if op["code"] == 0] or [run["warmup"]["setup_s"]]
    calibrations = run["calibrations"]
    calibration_s = _median(calibrations)
    scale = CALIBRATION_REFERENCE_S / calibration_s if calibrations else 1.0
    end_to_end = {
        "run_s": (_median(run_times) * scale, _spread(run_times)),
        "setup_s": (_median(setups) * scale, _spread(setups)),
        "peak_rss_mb": (_median([op["rss_mb"] for op in plain]), f"n={len(plain)}"),
    }
    if trace:
        metric_list = spec["per_layer"]
        per_op = [layer_metrics(op["trace"]) for op in traced]
        chosen = {name: _median([m[name] for m in per_op]) for name in per_op[0]} if per_op else {}
        for m in metric_list:
            if m["unit"] in ("count", "bytes") and len({op[m["name"]] for op in per_op}) > 1:
                problems.append(f"{m['name']} differs between traced operations")
        chosen["trace.overhead_s"] = _median([op["run_s"] for op in traced]) - end_to_end["run_s"][0]
        lines = [f"{m['name']} {chosen.get(m['name'])} {m['unit']}" for m in metric_list]
    else:
        metric_list = spec["end_to_end"]
        chosen = {name: value for name, (value, _) in end_to_end.items()}
        lines = [
            f"{m['name']} {end_to_end[m['name']][0]} {m['unit']} (median, {end_to_end[m['name']][1]})"
            for m in metric_list if m["name"] in end_to_end
        ]
        lines.append(
            f"calibration {calibration_s} s (median of {len(calibrations)}), scale {scale}: "
            f"run_s and setup_s are measured medians x scale = {CALIBRATION_REFERENCE_S} s / "
            f"calibration (quartiles are unscaled)"
        )
    missing = [m["name"] for m in metric_list if m["name"] not in chosen]
    if missing:
        raise SystemExit(f"no measurement for metrics {missing}")

    print(f"workload {workload.name}, seed {workload.seed}: {len(ops)} operations "
          f"({len(traced)} traced) in {run['elapsed']:.1f} s; BLAS/OpenMP threads pinned to 1; "
          f"python {sys.version.split()[0]}")
    print(f"fail_frac {failed / len(ops)} ratio ({failed} of {len(ops)} operations)")
    for problem in problems[:10]:
        print(f"problem: {problem}")
    print("\n".join(lines))
    return {
        "correct": failed == 0 and not problems,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {m["name"]: {"value": chosen[m["name"]], "unit": m["unit"]} for m in metric_list},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    for needed in ("src/termspread/cli.py", "scripts/assemble_dataset.py", "BENCHMARK.json"):
        if not os.path.isfile(os.path.join(CHECKOUT, needed)):
            print(f"error: {needed} is missing from {CHECKOUT}; nothing to measure", file=sys.stderr)
            return 2
    with open(os.path.join(CHECKOUT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    try:
        workload = Workload(args.workload, args.seed)
    except inputs.SeedRejected as exc:
        print(f"error: seed {args.seed} rejected before timing: {exc}", file=sys.stderr)
        return 3
    run = measure(workload, args.seconds, bool(args.trace))
    print(json.dumps(report(spec, workload, run, bool(args.trace))))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
