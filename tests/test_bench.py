"""Smoke test of bench/run.py on one r=3 shape, in process and against a
parent tree (the repository itself); the full shapes take minutes and run
only by hand."""

import importlib.util
import json
from pathlib import Path

from zfree import check_bottleneck, parse_instance

BENCH = Path(__file__).resolve().parents[1] / "bench" / "run.py"


def _load():
    spec = importlib.util.spec_from_file_location("bench_run", BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_writes_every_stage(tmp_path, monkeypatch):
    bench = _load()
    monkeypatch.setattr(bench, "SHAPES", {"r3": (3, (2, 3, 2), 0.5)})
    monkeypatch.setattr(bench, "MUTANT", ("r3", 2, 3))
    out = tmp_path / "BENCH.json"
    monkeypatch.setattr(bench, "RUNS", 2)
    assert bench.main(["--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["runs"] == 2 and doc["passes"] == bench.PASSES
    assert set(doc["machine"]) == {"cores", "numpy", "python"}
    shape = doc["shapes"]["r3"]
    assert (shape["r"], shape["n"], shape["status"]) == (3, 7, "optimal")
    assert shape["parse_route"] == {"parse_instance": "reader",
                                    "parse_instance.indent2": "reader"}
    stages = shape["seconds"]
    for stage in ("json_loads", "decode", "parse_instance", "parse_instance.indent2", "forest",
                  "parse_forest", "solve", "end_to_end", "solve.forest", "solve.check",
                  "solve.ssp"):
        s = stages[stage]
        assert len(s["runs"]) == 2 and s["min"] <= s["median"] <= s["max"]
    assert shape["parse_peak_mb"] > 0
    assert shape["solve_alloc_peak_mb"] > 0
    assert shape["matrix_json_bytes"] > 0 and shape["matrix.complete_alloc_peak_mb"] > 0
    for stage in ("json_loads", "decode", "parse_partial_matrix", "complete", "dump_matrix",
                  "end_to_end"):
        s = stages[f"matrix.{stage}"]
        assert len(s["runs"]) == 2 and s["min"] <= s["median"] <= s["max"]
    counters = shape["counters"]
    assert set(counters) == {"pool_size", "rounds", "arcs", "search_pops", "kernel_dtype"}
    assert set(counters["arcs"]) == {"exchange", "reassign", "source", "sink"}
    assert counters["rounds"] >= shape["iterations"] and counters["kernel_dtype"] == "int64"
    no_check = doc["no_check"]
    assert no_check["shape"] == "r3" and len(no_check["seconds"]["runs"]) == 2
    [error] = no_check["errors"]
    assert error.startswith("completion produced a bad relaxation: ")


def test_bench_times_a_parent_alternately(tmp_path, monkeypatch):
    bench = _load()
    monkeypatch.setattr(bench, "SHAPES", {"r3": (3, (2, 3, 2), 0.5)})
    monkeypatch.setattr(bench, "MUTANT", ("r3", 2, 3))
    monkeypatch.setattr(bench, "RUNS", 2)
    out = tmp_path / "BENCH.json"
    root = BENCH.parents[1]
    assert bench.main(["--out", str(out), "--parent", str(root)]) == 0
    doc = json.loads(out.read_text())
    digests = doc["src_sha256"]
    assert set(digests) == {"change", "parent"} and digests["change"] == digests["parent"]
    shape = doc["shapes"]["r3"]
    assert (shape["r"], shape["n"]) == (3, 7) and shape["matrix_json_bytes"] > 0
    assert set(shape["parse_route"].values()) == {"reader"}
    for side in ("change", "parent"):
        got = shape[side]
        assert got["status"] == "optimal" and got["counters"]["kernel_dtype"] == "int64"
        for stage in ("json_loads", "decode", "parse_instance", "parse_instance.indent2",
                      "forest", "solve", "end_to_end", "solve.forest", "solve.ssp",
                      "matrix.decode", "matrix.complete", "matrix.end_to_end"):
            s = got["seconds"][stage]
            assert len(s["runs"]) == 2 and s["min"] <= s["median"] <= s["max"]
        assert got["parse_peak_mb"] > 0 and got["solve_alloc_peak_mb"] > 0
        assert got["matrix.complete_alloc_peak_mb"] > 0
        readings = got["peak_readings"]
        assert set(readings) == {"parse_peak_mb", "forest_peak_mb", "solve_alloc_peak_mb",
                                 "matrix.complete_alloc_peak_mb"}
        for key, values in readings.items():
            assert len(values) == bench.PEAK_RUNS and got[key] == sorted(values)[1]
    assert shape["change"]["counters"] == shape["parent"]["counters"]
    assert set(shape["ratio"]) == set(shape["change"]["seconds"])
    assert all(ratio > 0 for ratio in shape["ratio"].values())
    no_check = doc["no_check"]
    assert no_check["change"]["errors"] == no_check["parent"]["errors"]
    assert len(no_check["parent"]["seconds"]["runs"]) == 2 and no_check["ratio"] > 0


def test_the_mutant_is_rejected_without_checks():
    bench = _load()
    assert bench.MUTANT[0] in bench.SHAPES
    mutant = parse_instance(bench.mutant_text())
    assert check_bottleneck(mutant) is not None


def test_each_peak_is_the_median_of_its_processes():
    # One process misreading a peak, high or low, does not move the median.
    bench = _load()
    replies = [{"parse_peak_mb": 0.6009, "solve_alloc_peak_mb": 2.0},
               {"parse_peak_mb": 0.5994, "solve_alloc_peak_mb": 1.0},
               {"parse_peak_mb": 0.5994, "solve_alloc_peak_mb": 3.0}]
    assert bench.median_peaks(replies) == {
        "parse_peak_mb": 0.5994, "solve_alloc_peak_mb": 2.0,
        "peak_readings": {"parse_peak_mb": [0.6009, 0.5994, 0.5994],
                          "solve_alloc_peak_mb": [2.0, 1.0, 3.0]}}


def test_a_run_keeps_each_stages_best_pass(monkeypatch):
    bench = _load()
    rows = iter([{"a": 3.0, "b": 1.0}, {"a": 1.0, "b": 2.0}, {"a": 2.0, "b": 0.5}])
    orders = []

    def one_pass(text, matrix, decode_first=False):
        orders.append(decode_first)
        return next(rows), "report"

    monkeypatch.setattr(bench, "one_pass", one_pass)
    monkeypatch.setattr(bench, "PASSES", 3)
    assert bench.one_run("text", None) == ({"a": 1.0, "b": 0.5}, "report")
    assert orders == [False, True, False]


def test_the_decoders_swap_places(monkeypatch):
    bench = _load()
    calls = []
    monkeypatch.setattr(bench, "_timed", lambda func, text: calls.append(func) or (None, 1.0))
    assert list(bench._decoders("{}", "matrix.", False)) == ["matrix.json_loads", "matrix.decode"]
    assert list(bench._decoders("{}", "", True)) == ["decode", "json_loads"]
    assert calls == [json.loads, bench._fast_loads, bench._fast_loads, json.loads]
