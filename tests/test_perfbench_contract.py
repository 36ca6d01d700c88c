"""The names the benchmark under perfbench/ reaches into the package by.

perfbench/tracing.py wraps functions by "module.function" name and
perfbench/workloads.py solves with keyword arguments of minimize_zfree.  A
rename or a dropped option would break the traced run or the recording of
reference outcomes only when the benchmark runs; these tests catch it in
the ordinary test run.
"""

import importlib
import importlib.util
from pathlib import Path

from zfree import GenConfig, dump_instance, format_value, generate_instance, minimize_zfree

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
