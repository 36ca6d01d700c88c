"""Instance.ranks and Instance.pool: the parser's array path against the
constructor, the size cap, and what a solve leaves untouched.

Every instance is built twice, once by Instance(domains, unary, binary) from
Python values and once by parse_instance(dump_instance(...)), and both are
compared with each other and with the cells they were built from."""

import itertools
import json
import math
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import zfree.instance
from zfree import (ExtValue, GenConfig, Instance, ParseError, check_bottleneck,
                   dump_instance, evaluate_instance, generate_instance,
                   minimize_zfree, parse_instance)
from zfree.instance import _LOOKUP_SIZE, MAX_RANK_BYTES


def _raw_tables(inst):
    return {p: [[v.raw for v in row] for row in t] for p, t in inst.binary_pairs()}


def _with_tables(inst, cell=lambda v: v, keep=lambda pair: True):
    """The constructor inputs of inst: domains, unary raws and the kept
    tables with every finite cell v replaced by cell(v)."""
    tables = {p: [[v if v == math.inf else cell(v) for v in row] for row in t]
              for p, t in _raw_tables(inst).items() if keep(p)}
    return inst.domains, [[v.raw for v in row] for row in inst.unary], tables


def variants():
    """(label, domains, unary, binary) constructor inputs: generated
    instances with inf_share 0, 0.3 and 0.5 and half-integer unary costs,
    then remapped copies with cells past 2**63, near the int64 and int32
    limits, past the lookup table, as fractions and as strings, with tables
    omitted, single-value domains and one variable."""
    rng = random.Random(61)
    out = []
    for k in range(36):
        inst = generate_instance(GenConfig(r=rng.randint(2, 5), dmax=4, seed=600 + k,
                                           inf_share=(0.0, 0.3, 0.5)[k % 3]))
        out.append(("generated", *_with_tables(inst)))
        remaps = [
            ("past 2**63", lambda v: v * 2**64 + 1),
            ("at the int64 limit", lambda v: v + 2**63 - 1 - 40),
            ("past int32", lambda v: v * 2**31),
            ("past the lookup table", lambda v: v + _LOOKUP_SIZE - 10),
            ("fractions", lambda v: Fraction(v, 3)),
            ("strings", lambda v: f"{v}"),
        ]
        label, remap = remaps[k % len(remaps)]
        out.append((label, *_with_tables(inst, remap)))
        out.append(("omitted tables",
                    *_with_tables(inst, keep=lambda p: rng.random() < 0.5)))
    for k in range(12):
        domains = tuple(rng.choice((1, 1, 2, 3)) for _ in range(rng.randint(2, 5)))
        inst = generate_instance(GenConfig(r=len(domains), domains=domains,
                                           seed=700 + k, inf_share=0.3))
        out.append(("single-value domains",
                    *_with_tables(inst, keep=lambda p: k % 2 or rng.random() < 0.7)))
    for d in (1, 2, 5):
        out.append(("one variable", (d,), [list(range(d))], {}))
    return out


def _cell(binary, i, a, j, b):
    t = binary.get((i, j))
    return ExtValue.of(t[a][b] if t is not None else 0)


@pytest.mark.parametrize("label, domains, unary, binary", variants())
def test_parse_and_constructor_build_the_same_arrays(label, domains, unary, binary):
    built = Instance(domains, unary, binary)
    parsed = parse_instance(dump_instance(built))
    assert built.ranks.dtype == parsed.ranks.dtype == np.int32
    assert np.array_equal(built.ranks, parsed.ranks)
    assert np.array_equal(built.ranks, built.ranks.T)
    assert built.pool == parsed.pool
    assert [type(v.raw) for v in built.pool] == [type(v.raw) for v in parsed.pool]
    assert list(built.pool) == sorted(set(built.pool), key=lambda v: v.raw)
    r = len(domains)
    omitted = len(binary) < r * (r - 1) // 2
    assert (ExtValue.of(0) in built.pool) == (omitted or any(
        ExtValue.of(v).raw == 0 for t in binary.values() for row in t for v in row))

    lay = built.layout
    for i, j in itertools.combinations(range(r), 2):
        assert built.has_table(i, j) == parsed.has_table(i, j) == ((i, j) in binary)
        a_table, b_table = built.table(i, j), parsed.table(i, j)
        if (i, j) not in binary:
            assert a_table is b_table is None
        else:
            assert a_table == b_table
            assert ([type(v.raw) for row in a_table for v in row]
                    == [type(v.raw) for row in b_table for v in row])
        for a in range(domains[i]):
            block = built.ranks[lay.flat(i, a), list(lay.block(i))]
            assert not block.any()          # 0 within a variable
            for b in range(domains[j]):
                want = _cell(binary, i, a, j, b)
                assert built.binary_value(i, a, j, b) == want
                assert parsed.binary_value(j, b, i, a) == want
                assert built.ranks[lay.flat(i, a), lay.flat(j, b)] >= 1

    assignments = itertools.islice(itertools.product(*map(range, domains)), 60)
    for x in assignments:
        want = ExtValue.of(
            sum(ExtValue.of(unary[i][a]).raw for i, a in enumerate(x))
            + sum(_cell(binary, i, x[i], j, x[j]).raw
                  for i, j in itertools.combinations(range(r), 2)))
        assert evaluate_instance(built, x) == evaluate_instance(parsed, x) == want
    a, b = check_bottleneck(built), check_bottleneck(parsed)
    assert (a is None) == (b is None)
    if a is not None:
        assert (a.kind, a.indices, a.values, a.message) == (b.kind, b.indices, b.values,
                                                             b.message)


@pytest.mark.parametrize("chunk", [1, 6, 50])
def test_small_batches_and_bands_build_the_same_arrays(monkeypatch, chunk):
    # Each instance above takes one read and one band; a smaller
    # _CHUNK_CELLS splits it, down to a table a read and a row a band.
    monkeypatch.setattr(zfree.instance, "_CHUNK_CELLS", chunk)
    for case in variants()[::3]:
        test_parse_and_constructor_build_the_same_arrays(*case)


@pytest.mark.parametrize("cell, error", [
    (True, TypeError), (1.5, TypeError), (1.0, TypeError), (-1, ValueError),
    (-(2**70), ValueError), ("-1/2", ValueError), (2**70, None), ("7/2", None)])
def test_constructor_checks_cells_before_numpy_sees_them(cell, error):
    # numpy alone would read True as 1 and 1.5 as 1.
    args = ((2, 2), [[0, 0], [0, 0]], {(0, 1): [[cell, 0], [0, 0]]})
    if error is not None:
        with pytest.raises(error):
            Instance(*args)
    else:
        assert Instance(*args).binary_value(0, 0, 1, 0) == ExtValue.of(cell)


@pytest.mark.parametrize("i, a, j, b", [
    (0, 2, 1, 0), (0, 0, 1, 3), (1, 0, 0, 2), (0, -1, 1, 0), (0, 0, 1, -1),
    (0, 0, 3, 0), (-1, 0, 1, 0)])
def test_binary_value_refuses_values_outside_the_domains(i, a, j, b):
    # (0, 2) would land on position (1, 0) of the flat layout, and a
    # position within one variable has rank 0, which would read pool[-1].
    inst = Instance((2, 3, 2), [[0, 0], [0, 0, 0], [0, 0]],
                    {(0, 1): [[1, 2, 3], [4, 5, 6]]})
    with pytest.raises(IndexError):
        inst.binary_value(i, a, j, b)
    assert inst.binary_value(0, 1, 1, 2) == ExtValue.of(6)
    assert inst.binary_value(1, 2, 2, 1) == ExtValue.of(0)


def test_ranks_are_read_only():
    inst = parse_instance(dump_instance(generate_instance(GenConfig(r=3, seed=1))))
    with pytest.raises(ValueError):
        inst.ranks[0, 3] = 7
    with pytest.raises(AttributeError):
        inst.ranks = None


@pytest.mark.parametrize("seed, inf_share", [(2, 0.0), (3, 0.5), (4, 0.0)])
def test_a_solve_reads_the_arrays_and_builds_no_table(seed, inf_share):
    inst = generate_instance(GenConfig(r=5, dmax=4, seed=seed, inf_share=inf_share))
    if seed == 4:   # a rejected solve, which cites a witness
        tables = _raw_tables(inst)
        tables[(0, 1)][0][0] += 1
        inst = Instance(inst.domains, [[v.raw for v in row] for row in inst.unary], tables)
    parsed = parse_instance(dump_instance(inst))
    before = parsed.ranks.tobytes()
    report = minimize_zfree(parsed)
    assert report.status.value == minimize_zfree(inst).status.value
    assert (report.status.value == "rejected") == (seed == 4)
    assert parsed.ranks.tobytes() == before
    assert not parsed.ranks.flags.writeable
    assert parsed._tables and all(t is None for t in parsed._tables.values())
    parsed.table(0, 1)       # built on demand, then cached
    assert parsed._tables[(0, 1)] is parsed.table(0, 1)


# --- the size cap ---------------------------------------------------------

def _huge_document(n):
    """A small document declaring two variables of n / 2 values each."""
    return json.dumps({"r": 2, "domains": [n // 2, n // 2], "unary": [[0], [0]]})


def test_size_cap_refuses_huge_domains_before_reading_rows():
    n = math.isqrt(MAX_RANK_BYTES // 4) + 2
    with pytest.raises(ParseError) as exc:
        parse_instance(_huge_document(n))
    assert str(exc.value) == (f"{n} one-hot positions need a {4 * n * n}-byte rank "
                              f"matrix, more than the {MAX_RANK_BYTES}-byte limit")
    with pytest.raises(ValueError, match="-byte limit"):
        Instance((n // 2, n // 2), [[0], [0]])
    # Just below the cap the document gets as far as its unary rows.
    below = math.isqrt(MAX_RANK_BYTES // 4) // 2 * 2
    with pytest.raises(ParseError, match="unary row 1 must list"):
        parse_instance(_huge_document(below))


def test_size_cap_exits_1_without_traceback(tmp_path):
    path = tmp_path / "huge.json"
    path.write_text(_huge_document(10**6))
    proc = subprocess.run([sys.executable, "-m", "zfree", "solve", "--json", str(path)],
                          capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == (f"error: 1000000 one-hot positions need a 4000000000000-byte "
                           f"rank matrix, more than the {MAX_RANK_BYTES}-byte limit\n")

