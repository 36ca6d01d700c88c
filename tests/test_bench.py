"""Smoke test of bench/run.py on one r=3 shape; the full shapes take
minutes and run only by hand."""

import importlib.util
import json
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench" / "run.py"


def _load():
    spec = importlib.util.spec_from_file_location("bench_run", BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_writes_every_stage(tmp_path, monkeypatch):
    bench = _load()
    monkeypatch.setattr(bench, "SHAPES", {"r3": (3, (2, 3, 2), 0.5)})
    out = tmp_path / "BENCH.json"
    monkeypatch.setattr(bench, "RUNS", 2)
    assert bench.main(["--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["runs"] == 2 and set(doc["machine"]) == {"cores", "numpy", "python"}
    shape = doc["shapes"]["r3"]
    assert (shape["r"], shape["n"], shape["status"]) == (3, 7, "optimal")
    stages = shape["seconds"]
    for stage in ("json_loads", "parse_instance", "forest", "parse_forest", "solve",
                  "end_to_end", "solve.forest", "solve.check", "solve.ssp"):
        s = stages[stage]
        assert len(s["runs"]) == 2 and s["min"] <= s["median"] <= s["max"]
    assert shape["parse_peak_mb"] > 0
    assert shape["solve_alloc_peak_mb"] > 0
    assert shape["matrix_json_bytes"] > 0
    for stage in ("json_loads", "parse_partial_matrix", "complete", "dump_matrix",
                  "end_to_end"):
        s = stages[f"matrix.{stage}"]
        assert len(s["runs"]) == 2 and s["min"] <= s["median"] <= s["max"]
    counters = shape["counters"]
    assert set(counters) == {"pool_size", "rounds", "arcs", "search_pops", "kernel_dtype"}
    assert set(counters["arcs"]) == {"exchange", "reassign", "source", "sink"}
    assert counters["rounds"] >= shape["iterations"] and counters["kernel_dtype"] == "int64"
