"""Layer timings of the solver on fixed-seed shapes, written as BENCH_<n>.json.

    PYTHONPATH=src python3 bench/run.py --out BENCH_9.json
    PYTHONPATH=src python3 bench/run.py --out BENCH_17.json --parent ../parent

Each shape is one generated instance (generator seed 7), serialized once.
Every run then times, on that JSON text:

- json_loads: json.loads alone, what the parsers fall back to;
- decode: the parsers' decoder alone (instance._fast_loads: the depth
  check and orjson), left out for a tree that has none;
- parse_instance: the text to an Instance;
- parse_instance.indent2: the same instance written with indent=2, as
  `zfree gen` writes it, to an Instance;
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
- matrix.decode: the parsers' decoder alone, as above;
- matrix.parse_partial_matrix: the text to a PartialMatrix;
- matrix.complete: complete() on it;
- matrix.dump_matrix: dump_matrix(indent=2) of the completion, the text
  the CLI prints;
- matrix.end_to_end: the three above together, JSON text to output text.

The solve's SolveReport.counters (pool size, rounds, arcs by kind, search
pops, kernel dtype) are recorded once per shape; they are the same in every
run.  So is parse_route, the route parse_instance takes on the shape's text
and on its indent=2 form ("reader" when instance._read_instance reads it
from the text, "whole" when it is decoded whole), read with this file's
tree, also with --parent.

Runs are untraced.  A run makes PASSES passes over the stages in one
process and keeps each stage's best, since contention only ever adds time
and a single pass does not resolve stages under about a millisecond; each
stage then reports the median, min and max over the runs.  json_loads
and decode swap places from pass to pass, and so do matrix.json_loads and
matrix.decode, so that with PASSES >= 2 each of them has a pass in which
it runs first and its best does not depend on what the other left behind.
No pass times a decoder right after another decode of the same text,
which reads faster than any decode a parse makes (about 0.17 against
0.3-0.4 ms for instance._fast_loads at r6_d21 on a 2-core shared host).
The tracemalloc peaks of parse_instance, of the forest and of minimize_zfree
(solve_alloc_peak_mb: forest, check, relaxation and the shortest-path loop
together) on the parsed instance, and that of complete() on its induced
partial matrix (matrix.complete_alloc_peak_mb, at every size: the matrix
is built from the instance, not from its text), are taken in a separate
pass, because tracemalloc slows the code it watches.  The file also
records the core count and the numpy and Python versions, so two files
are comparable only when those agree.

no_check times `zfree solve --no-check` on MUTANT, a rejected single-cell
mutant of a shape: the best of PASSES calls of minimize_zfree with
check_properties off per run, each raising InvariantError, and the
error's text, which must not change.

--parent PATH compares this tree with another checkout at PATH (its src/
is put on the path; only its zfree package is used, timed by this file).
Host speed drifts between runs minutes apart, so the two sides are timed
alternately, run by run: each run of each side is a fresh process (one
small warm-up solve, then PASSES timed passes of the stages above, the
same text for both sides), the side that goes first alternates, and each
side's peaks are the medians of PEAK_RUNS more processes, alternating too
(one process has misread a peak by over 1 KB), with every reading kept
under "peak_readings".  The file then holds both sides per
shape ("change" and "parent", each with its seconds, peaks and counters),
"ratio", the median over runs of change / parent per stage, and each
side's src_sha256, a digest of its zfree sources, and no_check holds both
sides too.  The worker processes are this file run with --stages, --peaks
or --no-check.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import hashlib
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

from zfree import (GenConfig, InvariantError, complete, dump_instance, dump_matrix,
                   generate_instance, induced_partial_matrix, instance_from_dict,
                   instance_to_dict, minimize_zfree, parse_instance, parse_partial_matrix)
from zfree.pipeline import _build_forest

try:
    from zfree.instance import _fast_loads
except ImportError:   # a parent tree from before the orjson decoder
    _fast_loads = None
try:
    from zfree.instance import _read_instance
except ImportError:   # a tree from before the text reader
    _read_instance = None

SEED = 7
RUNS = 5
PASSES = 3   # passes per run; each stage keeps its best
PEAK_RUNS = 3   # --peaks processes per side with --parent; each peak keeps its median

# name: (r, domains, inf_share) or (r, domains, inf_share, scale).  The
# shapes of the baseline table in ROADMAP.md (wide domains; the criterion-8
# top size; many variables at n = 2000, up to r = 400), the size of
# perfbench's instances (r=6, d=21, n=126), and at that size with every
# finite pair cost times scale = 1237 (cells of 4 and 5 digits, which the
# parser's text reader reads digit by digit), the largest size the solve
# once rescanned its relaxation at (r=6, d=20, n=120), a many-variable
# shape with tiny domains and half its instances carrying infinite costs,
# and the r=13 shape with infinite costs (n=2002), whose "inf" cells keep
# its tables off the parser's int paths.
SHAPES = {
    "r6_d20": (6, (20,) * 6, 0.0),
    "r6_d21": (6, (21,) * 6, 0.0),
    "r6_d21_x1237": (6, (21,) * 6, 0.0, 1237),
    "r6_d42": (6, (42,) * 6, 0.0),
    "r13_d154": (13, (154,) * 13, 0.0),
    "r40_d50": (40, (50,) * 40, 0.0),
    "r100_d20": (100, (20,) * 100, 0.0),
    "r200_d10": (200, (10,) * 200, 0.0),
    "r400_d5": (400, (5,) * 400, 0.0),
    "r26_d2-3_inf0.5": (26, (2, 3) * 13, 0.5),
    "r13_d154_inf0.5": (13, (154,) * 13, 0.5),
}

# The n = 2000 shapes are left out of the timed matrix stages: their
# induced matrices hold 2M entries, and complete's output text is about
# 150 MB.
MATRIX_MAX_N = 1000

# (shape, i, j): the shape's instance with the first cell of its (i, j)
# table lowered by one, which the bottleneck check rejects.
MUTANT = ("r13_d154", 1, 2)


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


def _decoders(text: str, prefix: str, decode_first: bool) -> dict:
    """Seconds of json.loads and of the parsers' decoder on text, the
    decoder first when decode_first is set."""
    stages = [(f"{prefix}json_loads", json.loads)]
    if _fast_loads is not None:
        stages.append((f"{prefix}decode", _fast_loads))
    if decode_first:
        stages.reverse()
    return {stage: _timed(func, text)[1] for stage, func in stages}


def matrix_stages(text: str, decode_first: bool = False) -> dict:
    """Seconds of each stage of `zfree complete` on one matrix document."""
    row = _decoders(text, "matrix.", decode_first)
    H, row["matrix.parse_partial_matrix"] = _timed(parse_partial_matrix, text)
    done, row["matrix.complete"] = _timed(complete, H)
    _, row["matrix.dump_matrix"] = _timed(dump_matrix, done, indent=2)
    row["matrix.end_to_end"] = (row["matrix.parse_partial_matrix"]
                                + row["matrix.complete"] + row["matrix.dump_matrix"])
    return row


@functools.lru_cache(maxsize=1)
def _indented(text: str) -> str:
    """The instance text written with indent=2, as `zfree gen` writes it."""
    return json.dumps(json.loads(text), indent=2)


def one_pass(text: str, matrix: str | None, decode_first: bool = False):
    """One timed pass of every stage on an instance text (and its matrix
    text, if any): (seconds per stage, the solve's report)."""
    gc.collect()
    row = _decoders(text, "", decode_first)
    inst, row["parse_instance"] = _timed(parse_instance, text)
    _, row["parse_instance.indent2"] = _timed(parse_instance, _indented(text))
    _, row["forest"] = _timed(_build_forest, inst)
    row["parse_forest"] = row["parse_instance"] + row["forest"]
    report, row["solve"] = _timed(minimize_zfree, inst)
    row["end_to_end"] = row["parse_instance"] + row["solve"]
    for stage, seconds in report.timings.items():
        row[f"solve.{stage}"] = seconds
    if matrix is not None:
        row.update(matrix_stages(matrix, decode_first))
    return row, report


def one_run(text: str, matrix: str | None):
    """PASSES passes of every stage: (each stage's best seconds, the last
    pass's report).  The decoders swap order from pass to pass."""
    best, report = one_pass(text, matrix)
    for i in range(1, PASSES):
        row, report = one_pass(text, matrix, decode_first=i % 2 == 1)
        best = {stage: min(seconds, row[stage]) for stage, seconds in best.items()}
    return best, report


def peaks(text: str) -> dict:
    """The tracemalloc peaks of the parse, the forest, the solve and the
    completion of the instance's induced partial matrix."""
    inst = parse_instance(text)
    return {
        "parse_peak_mb": _peak_mb(parse_instance, text),
        "forest_peak_mb": _peak_mb(_build_forest, inst),
        "solve_alloc_peak_mb": _peak_mb(minimize_zfree, inst),
        "matrix.complete_alloc_peak_mb": _peak_mb(complete, induced_partial_matrix(inst)),
    }


def mutant_text() -> str:
    """The instance text of MUTANT."""
    name, i, j = MUTANT
    r, domains, inf_share = SHAPES[name]
    doc = instance_to_dict(generate_instance(
        GenConfig(r=r, domains=tuple(domains), seed=SEED, inf_share=inf_share)))
    entry = next(e for e in doc["binary"] if (e["i"], e["j"]) == (i, j))
    entry["table"][0][0] -= 1
    return json.dumps(doc)


def no_check_run(text: str) -> dict:
    """The best seconds of PASSES unchecked solves of a rejected instance,
    each of which must raise InvariantError, and the error's text."""
    inst = parse_instance(text)
    seconds = []
    for _ in range(PASSES):
        t0 = time.perf_counter()
        try:
            minimize_zfree(inst, check_properties=False)
        except InvariantError as exc:
            seconds.append(time.perf_counter() - t0)
            error = str(exc)
        else:
            raise SystemExit("solve --no-check accepted a rejected instance")
    return {"seconds": min(seconds), "error": error}


def shape_texts(r: int, domains, inf_share: float, scale: int = 1):
    """The shape's instance text, its finite pair costs times scale, and,
    up to MATRIX_MAX_N positions, the text of its induced partial matrix
    (None above)."""
    cfg = GenConfig(r=r, domains=tuple(domains), seed=SEED, inf_share=inf_share)
    source = generate_instance(cfg)
    if scale != 1:
        doc = instance_to_dict(source)
        for entry in doc.get("binary", []):
            entry["table"] = [[v * scale if isinstance(v, int) else v for v in row]
                              for row in entry["table"]]
        source = instance_from_dict(doc)
    matrix = (dump_matrix(induced_partial_matrix(source))
              if sum(domains) <= MATRIX_MAX_N else None)
    return dump_instance(source), matrix


def parse_routes(text: str) -> dict | None:
    """The route parse_instance takes on the text and on its indent=2 form,
    by stage: "reader" (instance._read_instance takes it) or "whole" (it
    is decoded whole); None for a tree without the reader."""
    if _read_instance is None:
        return None
    return {stage: "reader" if _read_instance(t) is not None else "whole"
            for stage, t in (("parse_instance", text),
                             ("parse_instance.indent2", _indented(text)))}


def _about(r, domains, inf_share, scale, text, matrix) -> dict:
    return {"r": r, "n": sum(domains), "domains": sorted(set(domains)),
            "inf_share": inf_share, "scale": scale, "json_bytes": len(text),
            "matrix_json_bytes": None if matrix is None else len(matrix),
            "parse_route": parse_routes(text)}


def _outcome(report) -> dict:
    return {"status": report.status.value, "iterations": len(report.iterations),
            "counters": report.counters}


def bench_shape(r: int, domains, inf_share: float, scale: int = 1) -> dict:
    """Time one shape over RUNS untraced runs, then measure its memory."""
    text, matrix = shape_texts(r, domains, inf_share, scale)
    stages: dict[str, list] = {}
    for _ in range(RUNS):
        row, report = one_run(text, matrix)
        for stage, seconds in row.items():
            stages.setdefault(stage, []).append(seconds)
    return {**_about(r, domains, inf_share, scale, text, matrix), **_outcome(report),
            "seconds": {stage: _summary(v) for stage, v in stages.items()},
            **peaks(text)}


def _src_digest(tree: Path) -> str:
    """SHA-256 over the names and bytes of a tree's zfree sources."""
    digest = hashlib.sha256()
    for path in sorted((tree / "src" / "zfree").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _worker(tree: Path, *args) -> dict:
    """Run this file in a fresh process on tree's zfree; its JSON reply."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    out = subprocess.run([sys.executable, str(Path(__file__).resolve()), *args],
                         env=env, check=True, stdout=subprocess.PIPE, text=True).stdout
    return json.loads(out)


def _alternate(trees: dict, runs: int, *args) -> dict:
    """runs worker replies per tree to the same arguments, the side that
    goes first alternating run by run."""
    replies = {side: [] for side in trees}
    for run in range(runs):
        for side in (list(trees) if run % 2 == 0 else list(trees)[::-1]):
            replies[side].append(_worker(trees[side], *args))
    return replies


def median_peaks(replies: list) -> dict:
    """Each peak's median over the replies of several --peaks processes,
    and under "peak_readings" every reply's value of each peak."""
    readings = {key: [reply[key] for reply in replies] for key in replies[0]}
    return {**{key: statistics.median(v) for key, v in readings.items()},
            "peak_readings": readings}


def compare_shape(trees: dict, r: int, domains, inf_share: float, scale: int = 1) -> dict:
    """Time one shape on both trees, alternately, run by run."""
    text, matrix = shape_texts(r, domains, inf_share, scale)
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp) / "instance.json", Path(tmp) / "matrix.json"]
        paths[0].write_text(text)
        with_matrix = []
        if matrix is not None:
            paths[1].write_text(matrix)
            with_matrix = ["--matrix", str(paths[1])]
        replies = _alternate(trees, RUNS, "--stages", str(paths[0]), *with_matrix)
        peak_replies = _alternate(trees, PEAK_RUNS, "--peaks", str(paths[0]))
        stages = {side: {} for side in trees}
        for side, got in replies.items():
            for reply in got:
                for stage, seconds in reply["seconds"].items():
                    stages[side].setdefault(stage, []).append(seconds)
        out = _about(r, domains, inf_share, scale, text, matrix)
        for side in trees:
            out[side] = {**replies[side][-1]["outcome"],
                         "seconds": {k: _summary(v) for k, v in stages[side].items()},
                         **median_peaks(peak_replies[side])}
    change, parent = stages["change"], stages["parent"]
    out["ratio"] = {stage: statistics.median(c / p for c, p in zip(change[stage], parent[stage]))
                    for stage in change if stage in parent}
    return out


def no_check(trees: dict | None) -> dict:
    """MUTANT's unchecked solve over RUNS runs: in this process, or on both
    trees alternately, each run a fresh process."""
    def summary(got):
        return {"seconds": _summary([g["seconds"] for g in got]),
                "errors": sorted({g["error"] for g in got})}

    text = mutant_text()
    out = {"shape": MUTANT[0], "table": list(MUTANT[1:])}
    if trees is None:
        return {**out, **summary([no_check_run(text) for _ in range(RUNS)])}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mutant.json"
        path.write_text(text)
        runs = _alternate(trees, RUNS, "--no-check", str(path))
    for side, got in runs.items():
        out[side] = summary(got)
    out["ratio"] = statistics.median(c["seconds"] / p["seconds"]
                                     for c, p in zip(runs["change"], runs["parent"]))
    return out


def _warm_up() -> None:
    """Load and run every stage once on a small instance, so that a fresh
    process times the stages, not first calls."""
    text, matrix = shape_texts(3, (3, 4, 3), 0.5)
    one_pass(text, matrix)


def machine() -> dict:
    return {"cores": os.cpu_count(), "numpy": np.__version__,
            "python": platform.python_version()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path)
    parser.add_argument("--parent", type=Path,
                        help="another checkout to time alternately with this one")
    parser.add_argument("--stages", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--matrix", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--peaks", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--no-check", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    matrix = None if args.matrix is None else args.matrix.read_text()
    if args.stages is not None:
        _warm_up()
        row, report = one_run(args.stages.read_text(), matrix)
        print(json.dumps({"seconds": row, "outcome": _outcome(report)}))
        return 0
    if args.peaks is not None:
        print(json.dumps(peaks(args.peaks.read_text())))
        return 0
    if args.no_check is not None:
        _warm_up()
        print(json.dumps(no_check_run(args.no_check.read_text())))
        return 0
    if args.out is None:
        parser.error("--out is required")
    doc = {"seed": SEED, "runs": RUNS, "passes": PASSES, "machine": machine(), "shapes": {}}
    trees = None
    if args.parent is not None:
        trees = {"change": Path(__file__).resolve().parents[1],
                 "parent": args.parent.resolve()}
        doc["src_sha256"] = {side: _src_digest(tree) for side, tree in trees.items()}
    for name, shape in SHAPES.items():
        print(f"{name} ...", file=sys.stderr, flush=True)
        doc["shapes"][name] = (bench_shape(*shape) if trees is None
                               else compare_shape(trees, *shape))
    if MUTANT[0] in SHAPES:
        print("no_check ...", file=sys.stderr, flush=True)
        doc["no_check"] = no_check(trees)
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
