#!/usr/bin/env python3
"""Write the reference outputs that seed-42 runs are compared against.

    python3 perfbench/make_reference.py

Runs one operation of every workload at seed 42 and stores its outputs in
``reference/<workload>.json.gz``. Run it only at a commit whose outputs are
known to be right: the references pin the program's numbers, so a later
change that moves them must show why, not regenerate them.
"""

from __future__ import annotations

import checks
import inputs
import run


def main() -> int:
    for name in run.WORKLOADS:
        workload = run.Workload(name, inputs.REFERENCE_SEED)
        op = workload.run_op(0)
        if op["code"] != 0:
            raise SystemExit(f"{name}: operation failed: {op['error'][0]}")
        reference = {"workload": name, "seed": inputs.REFERENCE_SEED,
                     "files": checks.read_tree(op["out"])}
        if op["aligned"] is not None:
            reference["aligned"] = op["aligned"]
        checks.save_reference(run.reference_path(name), reference)
        print(f"wrote {run.reference_path(name)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
