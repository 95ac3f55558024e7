"""One benchmark operation, run in a fresh process as a user would run it.

    python3 operation.py table  --config CFG --out DIR --result FILE [--trace] [--setup-only]
    python3 operation.py ingest --raw DIR    --out DIR --result FILE [--trace] [--setup-only]

``table`` is one ``termspread run``: it imports ``termspread.cli``, parses
the config, then calls ``termspread.cli.main``. ``ingest`` imports the
package and ``scripts/assemble_dataset.py``, runs the script's ``main`` on
the raw downloads, then loads the assembled files and aligns every
horizon. The import of ``termspread`` must resolve to the checkout's
``src/`` (the caller sets ``PYTHONPATH``), so an installed copy is never
measured by mistake.

The result file records the monotonic time at which set-up ended (imports
done and the config parsed, before any input file is read), the process's
peak resident memory, a summary of the aligned datasets for ``ingest``, and,
with ``--trace``, the spans and counters of the run. Spans are recorded around calls into each layer's
public functions, wrapped in every module namespace the caller looks them
up in; the hottest logit evaluations are counted instead of spanned.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import sys
import time
from collections import Counter

CHECKOUT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(CHECKOUT, "src")
ASSEMBLE_SCRIPT = os.path.join(CHECKOUT, "scripts", "assemble_dataset.py")
# Repeated from inputs.py on purpose: an operation imports only what a user's
# process would, so set-up time holds nothing of the benchmark's own.
MATURITIES = ["3m", "6m", "1y", "2y", "3y", "5y", "7y", "10y", "20y"]
HORIZONS = (3, 6, 9, 12, 15, 18, 21, 24)
SPLIT = ("1995-12", "1961-06", "2020-07")  # train_end, sample_start, sample_end


class Tracer:
    """In-memory spans (op, id, parent, name, start, end) and counters."""

    def __init__(self, op_id: int) -> None:
        self.op_id = op_id
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = {}

    def span(self, name, fn, after=None):
        def traced(*args, **kwargs):
            sid = len(self.spans)
            self.spans.append(None)
            parent = self.stack[-1] if self.stack else -1
            self.stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans[sid] = (self.op_id, sid, parent, name, start, end)
            if after is not None:
                after(self, args, result)
            return result

        return traced

    def counter(self, name, fn):
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def note_max(self, name: str, value: float) -> None:
        self.maxima[name] = max(self.maxima.get(name, value), value)

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts), "maxima": self.maxima}


def _after_fit(prefix):
    def hook(tracer, args, fit):
        tracer.counts[f"{prefix}.iterations"] += fit.iterations
        tracer.note_max(f"{prefix}.kkt_max", fit.kkt_residual)
    return hook


def _after_sweep(tracer, args, path):
    tracer.counts["selection.grid_points"] += len(path.lambdas)


def _after_emit(tracer, args, written):
    tracer.counts["experiment.files_written"] += len(written)
    tracer.counts["experiment.bytes_written"] += sum(os.path.getsize(p) for p in written)


def _after_load(tracer, args, result):
    paths = [args[0]] if isinstance(args[0], str) else list(args[0])
    tracer.counts["data.bytes_read"] += sum(os.path.getsize(p) for p in paths)


def _targets():
    """Spans: (module, attribute) -> (span name, hook run on the result).
    Counters: (module, attribute) -> counter name."""
    spans = {
        ("termspread.logit", "fit_l1"): ("logit.fit_l1", _after_fit("logit.fit_l1")),
        ("termspread.logit", "fit_mle"): ("logit.fit_mle", _after_fit("logit.fit_mle")),
        ("termspread.selection", "sweep_path"): ("selection.sweep_path", _after_sweep),
        ("termspread.selection", "select_pair"): ("selection.select_pair", None),
        ("termspread.models", "fit_spec"): ("models.fit_spec", None),
        ("termspread.models", "forecast_series"): ("models.forecast_series", None),
        ("termspread.experiment", "run_experiment"): ("experiment.run_experiment", None),
        ("termspread.experiment", "run_horizon"): ("experiment.run_horizon", None),
        ("termspread.experiment", "emit_all"): ("experiment.emit_all", _after_emit),
        ("termspread.data", "load_yield_panel"): ("data.load_yield_panel", _after_load),
        ("termspread.data", "load_recession_series"): ("data.load_recession_series", _after_load),
        ("termspread.data", "align_dataset"): ("data.align_dataset", None),
        ("termspread.data", "monthly_average"): ("data.monthly_average", None),
        ("assemble_dataset", "read_gsw_monthly"): ("assemble.read_gsw_monthly", None),
        ("assemble_dataset", "read_fred_monthly"): ("assemble.read_fred_monthly", None),
    }
    for fn in ("avg_log_likelihood", "ebf", "auc", "roc_curve", "relative_mse"):
        spans[("termspread.evaluation", fn)] = (f"evaluation.{fn}", None)
    counts = {
        ("termspread.logit", fn): f"logit.{fn}"
        for fn in ("predict_proba", "weighted_nll", "nll_gradient", "kkt_residual")
    }
    counts[("termspread.data", "discount_to_bond_equivalent")] = "data.discount_to_bond_equivalent"
    return spans, counts


def install(tracer: Tracer) -> None:
    """Replace each target in every namespace that holds it, so calls are seen
    whichever module looks the name up."""
    namespaces = [
        m for name, m in sys.modules.items()
        if name in ("termspread", "assemble_dataset") or name.startswith("termspread.")
    ]
    spans, counts = _targets()
    wrapped = {}
    for (modname, attr), (name, after) in spans.items():
        if modname in sys.modules:
            orig = getattr(sys.modules[modname], attr)
            wrapped[id(orig)] = tracer.span(name, orig, after)
    for (modname, attr), name in counts.items():
        orig = getattr(sys.modules[modname], attr)
        wrapped[id(orig)] = tracer.counter(name, orig)
    for module in namespaces:
        for key, value in list(vars(module).items()):
            if id(value) in wrapped:
                setattr(module, key, wrapped[id(value)])


def peak_rss_mb() -> float:
    """VmHWM: the high-water resident size of the memory map made at exec.

    Not ``ru_maxrss``: at exec Linux carries the parent's high-water mark
    into it, so it can never read below the benchmark's own peak.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise SystemExit("no VmHWM in /proc/self/status")


def _import_checkout_package():
    import termspread

    if os.path.dirname(os.path.abspath(termspread.__file__)) != os.path.join(SRC, "termspread"):
        raise SystemExit(f"termspread imported from {termspread.__file__}, not from {SRC}")


def _load_assemble_module():
    spec = importlib.util.spec_from_file_location("assemble_dataset", ASSEMBLE_SCRIPT)
    module = importlib.util.module_from_spec(spec)
    sys.modules["assemble_dataset"] = module
    spec.loader.exec_module(module)
    return module


def _align_summary(out_dir: str) -> dict:
    from termspread.data import (
        Month, SplitConfig, align_dataset, load_recession_series, load_yield_panel,
    )

    panel = load_yield_panel([os.path.join(out_dir, "yields_monthly.csv")], MATURITIES)
    recessions = load_recession_series(os.path.join(out_dir, "recessions.csv"))
    split = SplitConfig(*(Month.parse(m) for m in SPLIT))
    summary = {}
    for h in HORIZONS:
        ds = align_dataset(panel, recessions, h, split, MATURITIES)
        digest = hashlib.sha256(ds.features.tobytes() + ds.targets.tobytes()).hexdigest()
        summary[str(h)] = {
            "rows": ds.n_rows,
            "split_index": ds.split_index,
            "first": str(ds.predictor_dates[0]),
            "last": str(ds.predictor_dates[-1]),
            "sha256": digest,
        }
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("kind", choices=("table", "ingest"))
    parser.add_argument("--config")
    parser.add_argument("--raw")
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--op-id", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    _import_checkout_package()
    if args.kind == "table":
        import termspread.cli
        from termspread.experiment import ExperimentConfig

        ExperimentConfig.from_json(args.config)
    else:
        import termspread.data  # noqa: F401

        assemble = _load_assemble_module()
    result = {"setup_end": time.monotonic()}
    if args.setup_only:
        _write(args.result, result)
        return 0

    tracer = Tracer(args.op_id) if args.trace else None
    if tracer is not None:
        install(tracer)
    if args.kind == "table":
        cli_main = termspread.cli.main
        if tracer is not None:
            cli_main = tracer.span("cli.main", cli_main)
        code = cli_main(["run", "--config", args.config, "--out", args.out])
    else:
        assemble_main = assemble.main
        if tracer is not None:
            assemble_main = tracer.span("assemble.main", assemble_main)
        sys.argv = ["assemble_dataset.py", "--raw", args.raw, "--out", args.out]
        code = assemble_main()
        if code == 0:
            result["aligned"] = _align_summary(args.out)
    if tracer is not None:
        result["trace"] = tracer.dump()
    result["peak_rss_mb"] = peak_rss_mb()
    _write(args.result, result)
    return code


def _write(path: str, result: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    raise SystemExit(main())
