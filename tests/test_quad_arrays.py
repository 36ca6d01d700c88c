"""QuadFn as (linear, ranks, pool): what its builders share, keep and
allocate, and that nothing on the way reads pair values one at a time."""

import contextlib
import io
import tracemalloc

import numpy as np
import pytest

from zfree import (CompletedMatrix, GenConfig, Instance, QuadFn, build_relaxation,
                   complete, dump_instance, eval_quad, generate_instance,
                   induced_partial_matrix, onehot_relaxation)
from zfree.cli import main
from zfree.completion import _RankMatrix
from zfree.pipeline import _build_forest


def instances():
    for r, domains, inf in [(1, (1,), 0.0), (1, (5,), 0.0), (2, (3, 2), 0.5),
                            (4, (3, 1, 4, 2), 0.3), (6, (4,) * 6, 0.0)]:
        yield generate_instance(GenConfig(r=r, domains=domains, seed=r + 3, inf_share=inf))
    yield Instance((2, 2, 3), [[1, 0], [2, "1/2"], [0, 3, 1]],
                   {(0, 2): [[2, 2, 2], [2, 2, 2]]})


def _no_tables_built(inst):
    return all(t is None for t in inst._tables.values())


@pytest.mark.parametrize("inst", list(instances()), ids=repr)
def test_builders_leave_the_instance_alone(inst):
    before = inst.ranks.tobytes()
    matrix = complete(induced_partial_matrix(inst))
    for f in (build_relaxation(inst), onehot_relaxation(inst, matrix)):
        assert inst.ranks.tobytes() == before
        assert _no_tables_built(inst)
        assert not f.ranks.flags.writeable
        with pytest.raises(ValueError):
            f.ranks[0, 0] = 1


@pytest.mark.parametrize("inst", list(instances()), ids=repr)
def test_builders_share_their_arrays(inst):
    matrix = complete(induced_partial_matrix(inst))
    f = onehot_relaxation(inst, matrix)
    assert f.ranks is matrix.ranks and f.pool == matrix.pool
    forest = _build_forest(inst)
    g = build_relaxation(inst, forest)
    if forest is None:
        assert g.ranks is inst.ranks and g.pool == inst.pool
    else:
        assert g.ranks is forest.floor and g.pool == forest.pool
    # The completion reads the same kind of forest, so the two agree.
    n = inst.n
    assert [f.pair(u, w) for u in range(n) for w in range(n) if u != w] == \
        [g.pair(u, w) for u in range(n) for w in range(n) if u != w]


def test_from_coeffs_ranks_are_read_only():
    f = QuadFn.from_coeffs([0, 1, 2], {(2, 0): 5, (0, 1): "inf"})
    assert not f.ranks.flags.writeable and f.ranks.dtype == np.int32
    assert f.pool == tuple(sorted(f.pool)) and len(f.pool) == 2
    assert f.ranks.tolist() == [[0, 2, 1], [2, 0, 0], [1, 0, 0]]


def test_rank_matrix_must_match_the_linear_part():
    with pytest.raises(ValueError, match="rank matrix"):
        QuadFn([0, 0, 0], np.zeros((2, 2), dtype=np.int32), ())


def test_no_pair_is_read_one_at_a_time(monkeypatch):
    insts = list(instances())
    matrices = [complete(induced_partial_matrix(inst)) for inst in insts]

    def refuse(*args):
        raise AssertionError("read pair by pair")

    monkeypatch.setattr(_RankMatrix, "value", refuse)
    monkeypatch.setattr(Instance, "table", refuse)
    monkeypatch.setattr(Instance, "binary_value", refuse)
    monkeypatch.setattr(QuadFn, "pair", refuse)
    for inst, matrix in zip(insts, matrices):
        f = onehot_relaxation(inst, matrix)
        f.kernel()
        eval_quad(f, (1 << inst.n) - 1)
        build_relaxation(inst)
    with pytest.raises(ValueError, match="disagrees"):
        bad = dict(matrices[3].pairs())
        bad[(0, 3)] = "1/3"
        onehot_relaxation(insts[3], CompletedMatrix(insts[3].n, bad))


def test_build_relaxation_allocates_no_rank_matrix():
    inst = generate_instance(GenConfig(r=8, domains=(50,) * 8, seed=1))
    forest = _build_forest(inst)
    tracemalloc.start()
    try:
        build_relaxation(inst, forest)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The cross-rank mask takes n^2 bytes; an int32 matrix would take 4 n^2.
    assert peak < 2 * inst.n ** 2


# `solve --json` on single-variable instances, as the relaxation built over
# an all-ones rank matrix of a zero pool printed it.
R1_SOLVES = {
    ((3,),): '{\n  "status": "optimal",\n  "assignment": [\n    1\n  ],\n'
             '  "value": 3,\n  "iterations": 0\n}\n',
    ((4, "1/2", 0, 7, "5/2"),): '{\n  "status": "optimal",\n  "assignment": [\n    3\n'
                                '  ],\n  "value": 0,\n  "iterations": 0\n}\n',
    ((2, 2, 1, 1, 9),): '{\n  "status": "optimal",\n  "assignment": [\n    3\n  ],\n'
                        '  "value": 1,\n  "iterations": 0\n}\n',
}


@pytest.mark.parametrize("flags", [[], ["--no-check"]], ids=["checked", "no-check"])
@pytest.mark.parametrize("unary", list(R1_SOLVES), ids=str)
def test_single_variable_solves_print_the_recorded_bytes(unary, flags, tmp_path):
    path = tmp_path / "r1.json"
    path.write_text(dump_instance(Instance((len(unary[0]),), [list(unary[0])])))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["solve", "--json", *flags, str(path)]) == 0
    assert out.getvalue() == R1_SOLVES[unary]
