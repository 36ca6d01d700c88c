"""Spans around the public functions of each zfree module, recorded from
outside the program.

Tracer.install replaces every binding of each traced function in the loaded
zfree modules (a name imported with "from .x import f" is a separate binding
per importing module) with a wrapper that records a span: name, start, end,
parent span and op id.  Spans stay in memory until the run ends.  Nothing
under src/ is edited; uninstall puts the original bindings back.
"""

from __future__ import annotations

import sys
import tracemalloc
from collections import Counter
from time import perf_counter

from zfree.intersection import ArcKind

# Traced functions as "module.function"; the module names are the layers.
# pipeline.minimum_spanning_tree is scipy's, traced through its pipeline
# binding.
TRACED = (
    "cli.main",
    "instance.parse_instance",
    "instance.evaluate_instance",
    "properties.check_jwp",
    "properties.check_zfree",
    "properties.check_mnatural_quadratic",
    "pipeline.minimize_zfree",
    "pipeline.build_relaxation",
    "pipeline.minimum_spanning_tree",
    "quadratic.greedy_min_layer",
    "quadratic.eval_quad",
    "intersection.ssp_intersect",
    "intersection.build_exchange_graph",
    "intersection.shortest_path_min_hops",
    "completion.parse_partial_matrix",
    "completion.complete",
    "completion.validate_partial",
    "completion.dump_matrix",
)

# Functions whose traced callees make self time differ from busy time.
WITH_CHILDREN = (
    "cli.main",
    "pipeline.minimize_zfree",
    "pipeline.build_relaxation",
    "intersection.ssp_intersect",
    "completion.complete",
)

ALLOC_TRACED = ("instance.parse_instance", "pipeline.build_relaxation")

LAYERS = ("bench", "trace", "cli", "instance", "properties", "pipeline",
          "quadratic", "intersection", "completion")

# Work counters, exact per pass over a run's inputs.
COUNTS = ("instance.parse_instance.cells", "intersection.rounds",
          "intersection.arcs_total", "intersection.arcs_exchange",
          "intersection.path_hops")

# Span record fields.
NAME, START, END, PARENT, OP, RAISED = range(6)


def _bindings(qualname: str):
    """(module, attribute, original) for every binding of a traced function
    in the loaded zfree modules."""
    mod_name, func_name = qualname.split(".")
    original = getattr(sys.modules[f"zfree.{mod_name}"], func_name)
    found = []
    for name, module in list(sys.modules.items()):
        if name != "zfree" and not name.startswith("zfree."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                found.append((module, attr, original))
    return found


class _Patch:
    """Replaces bindings with wrappers and restores them."""

    def __init__(self):
        self._saved = []

    def apply(self, qualnames, make_wrapper):
        for qualname in qualnames:
            bindings = _bindings(qualname)
            wrapper = make_wrapper(qualname, bindings[0][2])
            for module, attr, original in bindings:
                setattr(module, attr, wrapper)
                self._saved.append((module, attr, original))

    def restore(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()


def _cells(inst) -> int:
    """Unary plus table cells of a parsed instance."""
    d = inst.domains
    return sum(d) + sum(len(t) * len(t[0]) for _, t in inst.binary_pairs())


def _ssp_counts(result, counts):
    counts["intersection.path_hops"] += sum(s.path_hops for s in result.iterations)


def _graph_counts(graph, counts):
    counts["intersection.rounds"] += 1
    counts["intersection.arcs_total"] += len(graph.arcs)
    counts["intersection.arcs_exchange"] += graph.count(ArcKind.EXCHANGE)


def _parse_counts(inst, counts):
    counts["instance.parse_instance.cells"] += _cells(inst)


# Work counters read off a traced function's result.  They run inside a
# "trace.hooks" span, so their cost is not charged to the program's layers.
_HOOKS = {
    "instance.parse_instance": _parse_counts,
    "intersection.build_exchange_graph": _graph_counts,
    "intersection.ssp_intersect": _ssp_counts,
}


class Tracer:
    """In-memory span recorder.

    spans holds [name, start, end, parent index, op id, raised] lists.  The
    harness opens one root span named "op" per CLI call; its self time is
    the harness's own share of the op (stdout capture), which closes the
    sum: the self times of one op's spans add up to its wall time.
    """

    def __init__(self):
        self.spans: list = []
        self.counts = Counter()   # work counters of the current pass
        self.op = -1
        self._stack: list = []
        self._patch = _Patch()

    def install(self):
        self._patch.apply(TRACED, self._wrapper)

    def uninstall(self):
        self._patch.restore()

    def open(self, name: str, start: float) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, start, 0.0, parent, self.op, False])
        self._stack.append(idx)
        return idx

    def close(self, idx: int, end: float, raised: bool = False):
        rec = self.spans[idx]
        rec[END] = end
        rec[RAISED] = raised
        self._stack.pop()

    def _wrapper(self, name, fn):
        hook = _HOOKS.get(name)

        def traced(*args, **kwargs):
            idx = self.open(name, perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(idx, perf_counter(), raised=True)
                raise
            self.close(idx, perf_counter())
            if hook is not None:
                h = self.open("trace.hooks", perf_counter())
                hook(result, self.counts)
                self.close(h, perf_counter())
            return result

        traced.__wrapped__ = fn
        return traced


def self_times(spans) -> list:
    """Each span's duration minus the part its direct children cover."""
    own = [rec[END] - rec[START] for rec in spans]
    for rec in spans:
        if rec[PARENT] >= 0:
            own[rec[PARENT]] -= rec[END] - rec[START]
    return own


def layer_of(name: str) -> str:
    return "bench" if name == "op" else name.split(".")[0]


def summarize(spans, n_ops: int) -> dict:
    """Per-function busy/self seconds per op and per-layer shares of op wall
    time, over the given spans of n_ops traced ops."""
    own = self_times(spans)
    busy = Counter()
    self_s = Counter()
    layer_self = Counter()
    wall = 0.0
    for rec, s in zip(spans, own):
        name = rec[NAME]
        dur = rec[END] - rec[START]
        busy[name] += dur
        self_s[name] += s
        layer_self[layer_of(name)] += s
        if name == "op":
            wall += dur
    out = {}
    for name in TRACED:
        out[f"{name}.busy_s"] = busy[name] / n_ops
    for name in WITH_CHILDREN:
        out[f"{name}.self_s"] = self_s[name] / n_ops
    for layer in LAYERS:
        out[f"share.{layer}"] = layer_self[layer] / wall if wall else 0.0
    out["trace.op_mean_s"] = wall / n_ops
    out["trace.span_errors"] = span_errors(spans)
    return out


def span_errors(spans) -> int:
    """Spans left open, and spans not inside their parent's interval or not
    of their parent's op.  Self times add up to op wall time only when this
    is 0: every span then lies within one root "op" span."""
    bad = 0
    for rec in spans:
        if rec[END] < rec[START]:
            bad += 1
        elif rec[PARENT] >= 0:
            parent = spans[rec[PARENT]]
            bad += (rec[START] < parent[START] or rec[END] > parent[END]
                    or rec[OP] != parent[OP])
        else:
            bad += rec[NAME] != "op"
    return bad


def call_counts(spans) -> dict:
    """Calls and raised calls per traced function over the given spans."""
    calls = Counter()
    raised = Counter()
    for rec in spans:
        calls[rec[NAME]] += 1
        raised[rec[NAME]] += rec[RAISED]
    out = {}
    for name in TRACED:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.raised"] = raised[name]
    return out


def alloc_peaks(run_pass) -> dict:
    """Peak bytes traced by tracemalloc inside each call of ALLOC_TRACED,
    maximum over one pass, in MB.  tracemalloc runs only while one of those
    calls is open, so the rest of the pass runs at full speed."""
    peaks = Counter()

    def make(name, fn):
        def traced(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                peaks[name] = max(peaks[name], peak)
        return traced

    patch = _Patch()
    patch.apply(ALLOC_TRACED, make)
    try:
        run_pass()
    finally:
        patch.restore()
    return {f"{name}.alloc_peak_mb": peaks[name] / 2**20 for name in ALLOC_TRACED}
