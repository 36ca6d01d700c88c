"""Self-checks of the benchmark at tiny scale, where exhaustive oracles are
affordable: the expected outcomes the benchmark derives must agree with
brute_force_min, certify and completable_oracle, the recorded reference must
match the inputs generated now, and the outcome checker and tracer must
behave on real CLI runs.

    PYTHONPATH=src python3 -m pytest perfbench
"""

import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import zfree.cli
from zfree import (brute_force_min, certify, completable_oracle,
                   evaluate_instance, format_value, parse_instance,
                   parse_partial_matrix)

from measure import Runner
from outcomes import check
from tracing import END, PARENT, Tracer, call_counts, span_errors, summarize
from workloads import (WORKLOADS, apply_reference, build_ops,
                       solve_expectations)


def _cli(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = zfree.cli.main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_expectations_match_oracles(workload, tmp_path):
    ops = solve_expectations(build_ops(workload, 3, tmp_path, scale="tiny"))
    assert ops
    for op in ops:
        text = Path(op["input"]).read_text()
        expect = op["expect"]
        if op["kind"] == "complete":
            cycle = completable_oracle(parse_partial_matrix(text))
            assert (cycle is None) == (expect["exit"] == 0)
        elif expect["status"] == "rejected":
            result = certify(parse_instance(text))
            assert result.agreement and not result.completable
        else:
            _, value = brute_force_min(parse_instance(text))
            assert format_value(value) == expect["value"]
            assert expect["status"] == ("optimal" if value.is_finite
                                        else "infinite-minimum")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_cli_outcomes_pass_checker(workload, tmp_path):
    ops = solve_expectations(build_ops(workload, 4, tmp_path, scale="tiny"))
    cache = {}
    for op in ops:
        code, out = _cli(op["argv"])
        assert check(op, code, out, cache) is None


def test_checker_rejects_wrong_outcomes(tmp_path):
    op = solve_expectations(build_ops("wide", 5, tmp_path, scale="tiny"))[0]
    code, out = _cli(op["argv"])
    cache = {}
    assert check(op, code, out, cache) is None
    assert check(op, code + 1, out, cache) is not None
    wrong = dict(op, expect=dict(op["expect"], value="123456789"))
    assert check(wrong, code, out, cache) is not None
    doc = json.loads(out)
    inst = parse_instance(Path(op["input"]).read_text())
    best = tuple(a - 1 for a in doc["assignment"])
    for a in range(inst.domains[0]):
        other = (a,) + best[1:]
        if evaluate_instance(inst, other) != evaluate_instance(inst, best):
            doc["assignment"][0] = a + 1
            assert check(op, code, json.dumps(doc), cache) is not None


@pytest.mark.parametrize("workload", WORKLOADS)
def test_reference_matches_generated_inputs(workload, tmp_path):
    ops = build_ops(workload, 0, tmp_path)
    labels = [op["expect"] for op in ops]
    assert apply_reference(workload, 0, ops) == "match"
    # Outcomes known from the oracle labels are recorded as labelled.
    for label, op in zip(labels, ops):
        assert label is None or label == op["expect"]
    ops[0]["sha256"] = "0" * 64
    assert apply_reference(workload, 0, ops) == "mismatch"


def test_inputs_repeat_for_a_seed(tmp_path):
    a = build_ops("reject", 6, tmp_path / "a", scale="tiny")
    b = build_ops("reject", 6, tmp_path / "b", scale="tiny")
    c = build_ops("reject", 7, tmp_path / "c", scale="tiny")
    assert [op["sha256"] for op in a] == [op["sha256"] for op in b]
    assert [op["sha256"] for op in a] != [op["sha256"] for op in c]


def test_tracer_spans_close_and_restore(tmp_path):
    ops = solve_expectations(build_ops("wide", 8, tmp_path, scale="tiny"))
    runner = Runner(lambda a: zfree.cli.main(a), [op["argv"] for op in ops])
    original = zfree.cli.main
    tracer = Tracer()
    tracer.install()
    try:
        assert zfree.cli.main is not original
        for k in range(len(ops)):
            tracer.op += 1
            runner.run(k, tracer)
    finally:
        tracer.uninstall()
    assert zfree.cli.main is original
    spans = tracer.spans
    assert span_errors(spans) == 0
    child = next(k for k, s in enumerate(spans) if s[0] != "op")
    broken = [list(s) for s in spans]
    broken[child][END] = broken[broken[child][PARENT]][END] + 1.0
    assert span_errors(broken) == 1
    counts = call_counts(spans)
    assert counts["cli.main.calls"] == len(ops)
    assert counts["pipeline.minimize_zfree.calls"] == len(ops)
    assert (tracer.counts["intersection.rounds"]
            == counts["intersection.build_exchange_graph.calls"])
    shares = summarize(spans, len(ops))
    total = sum(v for k, v in shares.items() if k.startswith("share."))
    assert total == pytest.approx(1.0)
    cache = {}
    for (k, code, text) in runner.outputs:
        assert check(ops[k], code, text, cache) is None
