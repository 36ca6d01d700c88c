"""zfree benchmark: one run of one workload.

    python3 perfbench/run.py --workload wide --seed 1 --seconds 50 --trace 0

Run from the repository root.  The run generates its inputs from the seed in
one process, times `import zfree.cli` in several fresh processes, and drives
the CLI in a separate measuring process (perfbench/measure.py), so that
process's peak RSS is the program's own.  Scratch files go under
.perfbench_work/ at the root.  The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones from a traced run.  See perfbench/README.md for definitions.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from measure import best_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# As in workloads.py, which this file does not import: it imports zfree,
# and a checkout without the sources must still fail cleanly.
WORKLOADS = ("wide", "reject")

# Host speed on a shared machine drifts by tens of percent within seconds,
# so every end-to-end time is taken from each input's best time over the
# passes of a run: contention only ever adds time.  op_s_tail is the 85th
# percentile (nearest rank) of those best times across the run's inputs: the
# largest of wide's three inputs, and the 82nd of reject's 96.
TAIL_PCT = 85

# Import samples taken before and again after the timed phase: host speed
# holds for seconds at a time, so samples spread over the run are more
# likely to include a quiet moment than samples taken back to back.
SETUP_SAMPLES = 3
DEADLINE_S = 170   # a hung step is killed so a run ends within three minutes
_IMPORT_TIMER = ("import time; t = time.perf_counter(); import zfree.cli; "
                 "print(time.perf_counter() - t)")


def _units(kind: str) -> dict:
    """Metric name to unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def _run(cmd, env, deadline):
    """Run cmd to completion; it is killed if it passes the run's deadline."""
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{cmd[1]} exited {proc.returncode}")
    return proc.stdout


def percentile(values, pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above its rank."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def setup_seconds(env, deadline) -> list:
    """`import zfree.cli` times in fresh interpreters.  setup_s is the best
    of them, by the same rule as the op times."""
    cmd = [sys.executable, "-c", _IMPORT_TIMER]
    return [float(_run(cmd, env, deadline)) for _ in range(SETUP_SAMPLES)]


def warm_import(env, deadline) -> None:
    """One untimed import, so every sample sees compiled bytecode and a
    warm file cache."""
    _run([sys.executable, "-c", _IMPORT_TIMER], env, deadline)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="one zfree benchmark run")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "zfree" / "cli.py").is_file():
        print(f"error: zfree sources not found under {src}", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-t{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))

    deadline = time.monotonic() + DEADLINE_S
    try:
        _run([sys.executable, str(HERE / "workloads.py"), "--workload",
              args.workload, "--seed", str(args.seed), "--out", str(work)],
             env, deadline)
        setup = []
        if not args.trace:
            warm_import(env, deadline)
            setup += setup_seconds(env, deadline)
        _run([sys.executable, str(HERE / "measure.py"),
              "--manifest", str(work / "manifest.json"),
              "--seconds", str(args.seconds), "--trace", str(args.trace),
              "--out", str(work / "result.json"),
              "--spans", str(work / "spans.json")], env, deadline)
        if not args.trace:
            setup += setup_seconds(env, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work / "inputs", ignore_errors=True)

    manifest = json.loads((work / "manifest.json").read_text())
    res = json.loads((work / "result.json").read_text())
    times = res["times"]
    attempted = len(times) + len(res["traced_times"])
    failed = res["failed"]
    for reason in res["failures"]:
        print(f"FAILED {reason}")
    print(f"inputs: {len(manifest['ops'])} files of input set "
          f"{manifest['input_set']}, digest {manifest['digest']}, "
          f"reference {manifest['reference']}")
    if manifest["reference"] != "match":
        print("FAILED inputs differ from the recorded input set, "
              "so their expected outcomes are unknown")
    print(f"ops: {attempted} in {res['passes']} passes over "
          f"{res['elapsed_s']:.2f} s, failed_share {failed / attempted:.4f}")

    correct = failed == 0 and manifest["reference"] == "match"
    if args.trace:
        layer = res["per_layer"]
        if layer["trace.count_mismatches"]:
            print(f"FLAG exact counts differ between traced passes "
                  f"({layer['trace.count_mismatches']} passes)")
        units = _units("per_layer")
        metrics = {k: {"value": layer[k], "unit": u} for k, u in units.items()}
    else:
        per_input = len(manifest["ops"])
        best = best_times(times, per_input)
        tail, beyond = percentile(best, TAIL_PCT)
        print(f"best op times over {len(times) // per_input} passes: "
              f"{' '.join(f'{b:.4f}' for b in best)}")
        print(f"op_s_tail: p{TAIL_PCT} of {per_input} inputs, {beyond} beyond it")
        print(f"setup_s samples: {' '.join(f'{s:.4f}' for s in setup)}; "
              f"measuring process import {res['import_s']:.4f}")
        values = {
            "ops_per_s": per_input / sum(best),
            "op_s_p50": statistics.median(best),
            "op_s_tail": tail,
            "peak_rss_mb": res["peak_rss_mb"],
            "setup_s": min(setup),
            "ok_share": 1 - failed / attempted,
        }
        metrics = {k: {"value": values[k], "unit": u}
                   for k, u in _units("end_to_end").items()}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
