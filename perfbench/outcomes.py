"""Outcome checker: compares one CLI op's exit code and stdout with the
expected outcome of its input.

Values are compared, never bytes, so a later change may reorder witnesses or
keys.  A returned assignment is re-evaluated with evaluate_instance; a
completed matrix must be anti-ultrametric and keep every defined entry.
"""

from __future__ import annotations

import json
from pathlib import Path

from zfree import (CompletedMatrix, check_anti_ultrametric, evaluate_instance,
                   parse_instance, parse_partial_matrix, parse_value)


def _check_solve(expect: dict, doc: dict, read_input) -> str | None:
    status = doc.get("status")
    if status != expect["status"]:
        return f"status {status!r}, expected {expect['status']!r}"
    if status == "rejected":
        return None
    value = parse_value(doc["value"])
    if value != parse_value(expect["value"]):
        return f"value {doc['value']}, expected {expect['value']}"
    assignment = doc.get("assignment")
    if status == "infinite-minimum":
        return None if assignment is None else "assignment given for an infinite minimum"
    inst = read_input(parse_instance)
    x = tuple(a - 1 for a in assignment)
    got = evaluate_instance(inst, x)
    if got != value:
        return f"assignment evaluates to {got}, reported {value}"
    return None


def _check_complete(expect: dict, stdout: str, read_input) -> str | None:
    doc = json.loads(stdout)
    if expect["status"] == "not-completable":
        status = doc.get("status")
        return None if status == "not-completable" else f"status {status!r}"
    given = read_input(parse_partial_matrix)
    done = parse_partial_matrix(stdout)
    if done.n != given.n:
        return f"completed n={done.n}, input n={given.n}"
    for pair, v in given.pairs():
        if done.value(*pair) != v:
            return f"defined entry {pair} changed"
    try:
        full = CompletedMatrix(done.n, done.pairs())
    except ValueError as exc:
        return f"completion is not full: {exc}"
    bad = check_anti_ultrametric(full)
    return None if bad is None else f"completion is not anti-ultrametric: {bad}"


def check(op: dict, code, stdout: str, cache: dict) -> str | None:
    """None when the op's outcome is correct, otherwise the reason.

    cache maps input paths to parsed inputs, shared across calls.
    """
    expect = op["expect"]
    if code != expect["exit"]:
        return f"exit code {code}, expected {expect['exit']}"

    def read_input(parse):
        path = op["input"]
        if path not in cache:
            cache[path] = parse(Path(path).read_text())
        return cache[path]

    try:
        if op["kind"] == "solve":
            return _check_solve(expect, json.loads(stdout), read_input)
        return _check_complete(expect, stdout, read_input)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc!r}"
