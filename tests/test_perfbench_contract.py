"""The names the benchmark under perfbench/ reaches into the package by.

perfbench/tracing.py wraps functions by "module.function" name and reads
work counters off their results, and perfbench/workloads.py solves with
keyword arguments of minimize_zfree.  A rename, a reshaped result or a
dropped option would break the traced run or the recording of reference
outcomes only when the benchmark runs; these tests catch it in the
ordinary test run.
"""

import importlib
import importlib.util
from pathlib import Path

from zfree import (GenConfig, SolveStatus, dump_instance, format_value,
                   generate_instance, minimize_zfree, pipeline)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = _load("tracing")
    missing = []
    for qualname in tracing.TRACED + tracing.WITH_CHILDREN + tracing.ALLOC_TRACED:
        module, attr = qualname.split(".")
        if not callable(getattr(importlib.import_module(f"zfree.{module}"), attr, None)):
            missing.append(qualname)
    assert missing == []


def test_solve_expectations_keywords_are_accepted(tmp_path):
    workloads = _load("workloads")
    inst = generate_instance(GenConfig(r=3, dmax=3, seed=4))
    path = tmp_path / "inst.json"
    path.write_text(dump_instance(inst))
    ops = workloads.solve_expectations([{"expect": None, "input": str(path)}])
    report = minimize_zfree(inst)
    assert ops[0]["expect"] == {"exit": 0, "status": report.status.value,
                                "value": format_value(report.value)}


def test_trace_hooks_count_what_the_report_says():
    # The counters run on the real results of build_exchange_graph and
    # ssp_intersect, wrapped the way a traced benchmark run wraps them.
    tracing = _load("tracing")
    inst = generate_instance(GenConfig(r=5, dmax=6, seed=3))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        report = pipeline.minimize_zfree(inst)
    finally:
        tracer.uninstall()
    its = report.iterations
    assert report.status is SolveStatus.OPTIMAL and len(its) >= 2
    assert dict(tracer.counts) == {
        "intersection.rounds": len(its),
        "intersection.arcs_total": sum(st.arcs_exchange + st.arcs_reassign
                                       + st.arcs_source + st.arcs_sink for st in its),
        "intersection.arcs_exchange": sum(st.arcs_exchange for st in its),
        "intersection.path_hops": sum(st.path_hops for st in its),
    }
