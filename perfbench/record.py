"""Records the benchmark's stored files from the current commit.

    PYTHONPATH=src python3 perfbench/record.py reference
    python3 perfbench/record.py baseline

"reference" writes perfbench/reference.json: for every workload and each of
its workloads.SETS input sets, one SHA-256 over the generated inputs and the
expected outcome of every op (exit code, status, optimal value).  A run
takes its expected outcomes from there and fails when its inputs differ, so
two commits can be shown to run the same bytes and are judged against the
same outcomes.

"baseline" runs each workload once traced, with seed BASELINE_SEED for
BASELINE_SECONDS, and writes perfbench/baseline.json:
the machine facts, each workload's layer shares of op wall time, its exact
work counts and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BASELINE_SEED = 1
BASELINE_SECONDS = 50


def record_reference() -> None:
    from workloads import (SETS, WORKLOADS, build_ops, inputs_digest,
                           pack_outcome, solve_expectations)

    scratch = ROOT / ".perfbench_work" / "reference"
    lines = []
    for workload in WORKLOADS:
        sets = []
        for seed in range(SETS):
            shutil.rmtree(scratch, ignore_errors=True)
            ops = solve_expectations(build_ops(workload, seed, scratch))
            sets.append(json.dumps({
                "inputs": inputs_digest(ops),
                "outcomes": [pack_outcome(op["expect"]) for op in ops]},
                separators=(",", ":")))
        lines.append(f'"{workload}": [\n' + ",\n".join(sets) + "\n]")
    shutil.rmtree(scratch, ignore_errors=True)
    # One input set per line, so a diff shows which sets changed.
    (HERE / "reference.json").write_text("{\n" + ",\n".join(lines) + "\n}\n")


def _versions() -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "machine": platform.machine()}


def record_baseline() -> None:
    from run import WORKLOADS

    keep = ("intersection.rounds", "intersection.arcs_total",
            "intersection.arcs_exchange", "intersection.path_hops",
            "trace.op_mean_s",
            "trace.ops_per_s_untraced", "trace.ops_per_s_traced",
            "trace.overhead_share", "trace.span_errors")
    workloads = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(BASELINE_SEED), "--seconds", str(BASELINE_SECONDS),
             "--trace", "1"],
            cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.splitlines()[-1])
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        workloads[workload] = {
            "correct": result["correct"],
            "layer_shares": {k[len("share."):]: round(v, 4)
                             for k, v in metrics.items() if k.startswith("share.")},
            **{k: metrics[k] for k in keep},
        }
    doc = {"seed": BASELINE_SEED, "seconds": BASELINE_SECONDS, "machine": _versions(),
           "workloads": workloads}
    (HERE / "baseline.json").write_text(json.dumps(doc, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("what", choices=("reference", "baseline"))
    args = parser.parse_args(argv)
    if args.what == "reference":
        record_reference()
    else:
        record_baseline()
    return 0


if __name__ == "__main__":
    sys.exit(main())
