"""Measuring process for one benchmark run.

Drives zfree.cli.main in-process as a closed loop: one client, one thread,
the next op starts when the previous one returned.  The timed phase runs
whole passes over the manifest's ops until --seconds have elapsed, so every
input is run equally often.  Each op is timed from the main([...]) call
until its stdout is captured; outcomes are checked after the timed phase.

With --trace 1, passes alternate between untraced and traced, which gives
the tracing overhead under the same conditions, and one extra untimed pass
measures allocation peaks with tracemalloc.

    PYTHONPATH=src python3 perfbench/measure.py --manifest M --seconds S \\
        --trace 0 --out RESULT.json --spans SPANS.json
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter


class Runner:
    """Runs ops and keeps each distinct (op, exit code, stdout) once, with
    the number of times it was seen."""

    def __init__(self, main, argvs):
        self.main = main
        self.argvs = argvs
        self.outputs = Counter()

    def run(self, k: int, tracer=None, record: bool = True) -> float:
        out, err = io.StringIO(), io.StringIO()
        start = perf_counter()
        root = tracer.open("op", start) if tracer is not None else None
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = self.main(self.argvs[k])
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a failed op is counted, not fatal
            code = f"raised {type(exc).__name__}: {exc}"
        text = out.getvalue()
        end = perf_counter()
        if root is not None:
            tracer.close(root, end)
        if record:
            self.outputs[(k, code, text)] += 1
        return end - start


def best_times(times, per_pass: int) -> list:
    """Each input's fastest time over the passes; times run pass by pass."""
    return [min(times[k::per_pass]) for k in range(per_pass)]


def _layer_metrics(spans, n_traced: int, pass_counts, per_pass: int,
                   alloc: dict, times: dict) -> dict:
    from tracing import summarize

    out = summarize(spans, n_traced)
    counts = pass_counts[0]
    out.update(counts)
    cells = out.pop("instance.parse_instance.cells")
    parse_s = out["instance.parse_instance.busy_s"] * per_pass
    ssp_s = out["intersection.ssp_intersect.busy_s"] * per_pass
    arcs = counts["intersection.arcs_total"]
    out["instance.parse_instance.cells_per_s"] = cells / parse_s if parse_s else 0.0
    out["intersection.path_arc_share"] = (
        counts["intersection.path_hops"] / arcs if arcs else 0.0)
    out["intersection.arcs_per_s"] = arcs / ssp_s if ssp_s else 0.0
    out["trace.count_mismatches"] = sum(1 for c in pass_counts[1:] if c != counts)
    # From per-input best times, the rule of the end-to-end metrics, so host
    # drift between the interleaved passes does not show as overhead.
    rates = {t: per_pass / sum(best_times(times[t], per_pass)) for t in times}
    out["trace.ops_per_s_untraced"] = rates[False]
    out["trace.ops_per_s_traced"] = rates[True]
    out["trace.overhead_share"] = rates[False] / rates[True] - 1.0
    out.update(alloc)
    return out


def _write_spans(path: Path, spans) -> None:
    names = sorted({rec[0] for rec in spans})
    index = {name: k for k, name in enumerate(names)}
    rows = [[index[rec[0]], *rec[1:5], int(rec[5])] for rec in spans]
    path.write_text(json.dumps({
        "fields": ["name", "start", "end", "parent", "op", "raised"],
        "names": names, "spans": rows}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="one measured benchmark run")
    parser.add_argument("--manifest", type=Path, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--spans", type=Path, required=True)
    args = parser.parse_args(argv)

    start = perf_counter()
    import zfree.cli
    import_s = perf_counter() - start
    # Both import zfree, so they come after the timed import.
    from outcomes import check
    from tracing import COUNTS, Tracer, alloc_peaks, call_counts

    ops = json.loads(args.manifest.read_text())["ops"]
    # Looked up on every call, so the tracer's wrapper is used once installed.
    runner = Runner(lambda a: zfree.cli.main(a), [op["argv"] for op in ops])
    tracer = Tracer() if args.trace else None

    runner.run(0, record=False)   # untimed warm-up: first-call costs
    times = {False: [], True: []}
    pass_counts = []
    begin = perf_counter()
    passes = 0
    while True:
        traced = tracer is not None and passes % 2 == 1
        if traced:
            tracer.install()
            tracer.counts.clear()
            first = len(tracer.spans)
        for k in range(len(ops)):
            if traced:
                tracer.op += 1
            times[traced].append(runner.run(k, tracer if traced else None))
        if traced:
            tracer.uninstall()
            pass_counts.append({**call_counts(tracer.spans[first:]),
                                **{k: tracer.counts[k] for k in COUNTS}})
        passes += 1
        if (perf_counter() - begin >= args.seconds
                and (tracer is None or passes >= 2)):
            break
    elapsed = perf_counter() - begin
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = {"import_s": import_s, "passes": passes, "elapsed_s": elapsed,
              "peak_rss_mb": peak_rss_mb, "times": times[False],
              "traced_times": times[True]}
    if tracer is not None:
        alloc = alloc_peaks(
            lambda: [runner.run(k, record=False) for k in range(len(ops))])
        result["per_layer"] = _layer_metrics(tracer.spans, len(times[True]),
                                             pass_counts, len(ops), alloc, times)
        _write_spans(args.spans, tracer.spans)

    cache: dict = {}
    failed = 0
    reasons = []
    for (k, code, text), count in runner.outputs.items():
        why = check(ops[k], code, text, cache)
        if why is not None:
            failed += count
            reasons.append(f"op {k} ({' '.join(ops[k]['argv'][:-1])} "
                           f"{Path(ops[k]['input']).name}): {why}")
    result["failed"] = failed
    result["failures"] = reasons
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
