"""Layer timings of the solver on fixed-seed shapes, written as BENCH_<n>.json.

    PYTHONPATH=src python3 bench/run.py --out BENCH_9.json

Each shape is one generated instance (generator seed 7), serialized once.
Every run then times, on that JSON text:

- json_loads: json.loads alone, the floor of any parse;
- parse_instance: the text to an Instance;
- forest: pipeline._build_forest on the parsed instance (the shared
  spanning forest; validity and completion read it);
- parse_forest: the two above together;
- solve: minimize_zfree with every check on, and the per-stage split its
  SolveReport.timings reports (forest, check, complete, greedy, ssp);
- end_to_end: parse_instance plus solve, JSON text to report.

Shapes with at most MATRIX_MAX_N positions also time `zfree complete`'s
path on the instance's induced partial matrix, serialized once the way
perfbench writes it (dump_matrix without indent):

- matrix.json_loads: json.loads alone;
- matrix.parse_partial_matrix: the text to a PartialMatrix;
- matrix.complete: complete() on it;
- matrix.dump_matrix: dump_matrix(indent=2) of the completion, the text
  the CLI prints;
- matrix.end_to_end: the three above together, JSON text to output text.

The solve's SolveReport.counters (pool size, rounds, arcs by kind, search
pops, kernel dtype) are recorded once per shape; they are the same in every
run.

Runs are untraced; each stage reports the median, min and max over the
runs.  The tracemalloc peaks of parse_instance, of the forest and of
minimize_zfree (solve_alloc_peak_mb: forest, check, relaxation and the
shortest-path loop together) on the parsed instance are taken in a
separate pass, because tracemalloc slows the code it watches.  The file
also records the core count and the numpy and Python versions, so two
files are comparable only when those agree.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

from zfree import (GenConfig, complete, dump_instance, dump_matrix, generate_instance,
                   induced_partial_matrix, minimize_zfree, parse_instance,
                   parse_partial_matrix)
from zfree.pipeline import _build_forest

SEED = 7
RUNS = 5

# name: (r, domains, inf_share).  The four shapes of the baseline table in
# ROADMAP.md (wide domains; the criterion-8 top size; many variables at
# n = 2000) plus a many-variable shape with tiny domains and half its
# instances carrying infinite costs.
SHAPES = {
    "r6_d42": (6, (42,) * 6, 0.0),
    "r13_d154": (13, (154,) * 13, 0.0),
    "r40_d50": (40, (50,) * 40, 0.0),
    "r100_d20": (100, (20,) * 100, 0.0),
    "r26_d2-3_inf0.5": (26, (2, 3) * 13, 0.5),
}

# The n = 2000 shapes are left out of the matrix stages: their induced
# matrices hold 2M entries, and complete's output text is about 150 MB.
MATRIX_MAX_N = 1000


def _summary(values) -> dict:
    return {"median": statistics.median(values), "min": min(values),
            "max": max(values), "runs": values}


def _timed(func, *args, **kwargs):
    t0 = time.perf_counter()
    out = func(*args, **kwargs)
    return out, time.perf_counter() - t0


def _peak_mb(func, *args) -> float:
    gc.collect()
    tracemalloc.start()
    try:
        out = func(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    del out
    return peak / 2**20


def matrix_stages(text: str) -> dict:
    """Seconds of each stage of `zfree complete` on one matrix document."""
    row = {}
    _, row["matrix.json_loads"] = _timed(json.loads, text)
    H, row["matrix.parse_partial_matrix"] = _timed(parse_partial_matrix, text)
    done, row["matrix.complete"] = _timed(complete, H)
    _, row["matrix.dump_matrix"] = _timed(dump_matrix, done, indent=2)
    row["matrix.end_to_end"] = (row["matrix.parse_partial_matrix"]
                                + row["matrix.complete"] + row["matrix.dump_matrix"])
    return row


def bench_shape(r: int, domains, inf_share: float) -> dict:
    """Time one shape over RUNS untraced runs, then measure its memory."""
    cfg = GenConfig(r=r, domains=tuple(domains), seed=SEED, inf_share=inf_share)
    source = generate_instance(cfg)
    text = dump_instance(source)
    matrix = (dump_matrix(induced_partial_matrix(source))
              if sum(domains) <= MATRIX_MAX_N else None)
    del source
    stages: dict[str, list] = {}
    report = None
    for _ in range(RUNS):
        gc.collect()
        row = {}
        _, row["json_loads"] = _timed(json.loads, text)
        inst, row["parse_instance"] = _timed(parse_instance, text)
        _, row["forest"] = _timed(_build_forest, inst)
        row["parse_forest"] = row["parse_instance"] + row["forest"]
        report, row["solve"] = _timed(minimize_zfree, inst)
        row["end_to_end"] = row["parse_instance"] + row["solve"]
        for stage, seconds in report.timings.items():
            row[f"solve.{stage}"] = seconds
        if matrix is not None:
            row.update(matrix_stages(matrix))
        for stage, seconds in row.items():
            stages.setdefault(stage, []).append(seconds)
        del inst
    inst = parse_instance(text)
    return {
        "r": r,
        "n": sum(domains),
        "domains": sorted(set(domains)),
        "inf_share": inf_share,
        "json_bytes": len(text),
        "matrix_json_bytes": None if matrix is None else len(matrix),
        "status": report.status.value,
        "iterations": len(report.iterations),
        "counters": report.counters,
        "seconds": {stage: _summary(v) for stage, v in stages.items()},
        "parse_peak_mb": _peak_mb(parse_instance, text),
        "forest_peak_mb": _peak_mb(_build_forest, inst),
        "solve_alloc_peak_mb": _peak_mb(minimize_zfree, inst),
    }


def machine() -> dict:
    return {"cores": os.cpu_count(), "numpy": np.__version__,
            "python": platform.python_version()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    doc = {"seed": SEED, "runs": RUNS, "machine": machine(), "shapes": {}}
    for name, shape in SHAPES.items():
        print(f"{name} ...", file=sys.stderr, flush=True)
        doc["shapes"][name] = bench_shape(*shape)
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
