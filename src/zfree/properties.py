"""Structural property checks with explicit refutation witnesses.

Each check returns None when the property holds, otherwise a Violation
carrying the witness indices and offending values, chosen deterministically
as the first hit in a documented scan order.  The scans are plain exhaustive
loops: every check is polynomial in the size of its input, and the point of
this module is to be obviously correct, not fast.  The solve path decides
check_jwp and check_zfree together with pipeline.check_bottleneck; these
scans are its oracles.

All indices inside Violation are 0-based (API convention); the attached
message renders them 1-based for human eyes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .instance import Instance
from .values import ZERO, ExtValue

__all__ = [
    "ViolationKind",
    "Violation",
    "check_jwp",
    "check_zfree",
    "check_anti_ultrametric",
    "check_mnatural_quadratic",
]


class ViolationKind(enum.Enum):
    JWP = "jwp"
    ZFREE = "zfree"
    ANTI_ULTRAMETRIC = "anti-ultrametric"
    NEGATIVE = "negative"


@dataclass(frozen=True)
class Violation:
    """A concrete refutation: re-evaluating the cited entries reproduces it."""

    kind: ViolationKind
    indices: tuple
    values: tuple[ExtValue, ...]
    message: str

    def __str__(self):
        return self.message


def _raw_table(inst: Instance, i: int, j: int):
    """d_i x d_j raw-value grid for c_ij, read off the instance's ranks and
    pool: the rank matrix is symmetric, and an omitted table's block holds
    0's rank."""
    off = inst.layout.offsets
    by_rank = (None, *(v.raw for v in inst.pool))
    block = inst.ranks[off[i]:off[i + 1], off[j]:off[j + 1]]
    return [[by_rank[k] for k in row] for row in block.tolist()]


def _jwp_violation(ia, jb, kc, raws) -> Violation:
    """The join-condition witness at positions ia=(i, a), jb=(j, b), kc=(k, c)
    with i < j; raws are c_ij(a,b), c_ik(a,c), c_jk(b,c), the first strictly
    below the other two."""
    (i, a), (j, b), (k, c) = ia, jb, kc
    vals = tuple(ExtValue.of(v) for v in raws)
    return Violation(
        ViolationKind.JWP,
        (ia, jb, kc),
        vals,
        "jwp violated at "
        f"({i + 1},{a + 1}),({j + 1},{b + 1}),({k + 1},{c + 1}): "
        f"c({i + 1},{j + 1})={vals[0]} is below both "
        f"c({i + 1},{k + 1})={vals[1]} and c({j + 1},{k + 1})={vals[2]}",
    )


def _zfree_violation(iab, jcd, raws) -> Violation:
    """The 2x2 witness on rows iab=(i, a, b) and columns jcd=(j, c, d) of
    c_ij, i < j, a < b, c < d; raws are the cells (a,c), (a,d), (b,c), (b,d),
    with a unique minimum."""
    (i, a, b), (j, c, d) = iab, jcd
    vals = tuple(ExtValue.of(v) for v in raws)
    return Violation(
        ViolationKind.ZFREE,
        (iab, jcd),
        vals,
        "z-freeness violated on variables "
        f"{i + 1},{j + 1}, values {{{a + 1},{b + 1}}}x{{{c + 1},{d + 1}}}: "
        f"unique minimum among {[str(v) for v in vals]}",
    )


def check_jwp(inst: Instance):
    """Joint winner property: c_ij(a,b) >= min(c_jk(b,c), c_ik(a,c)) for all
    distinct variables i, j, k and all values a, b, c.

    Scan order: pairs (i, j) with i < j lexicographically, then k ascending
    over the remaining variables, then (a, b, c) lexicographically.  Vacuous
    for r <= 2.
    """
    r = inst.r
    for i in range(r):
        for j in range(i + 1, r):
            tij = _raw_table(inst, i, j)
            for k in range(r):
                if k == i or k == j:
                    continue
                tik = _raw_table(inst, i, k)
                tjk = _raw_table(inst, j, k)
                for a in range(inst.domains[i]):
                    row_ab = tij[a]
                    row_ac = tik[a]
                    for b in range(inst.domains[j]):
                        vab = row_ab[b]
                        row_bc = tjk[b]
                        for c in range(inst.domains[k]):
                            if vab < row_bc[c] and vab < row_ac[c]:
                                return _jwp_violation((i, a), (j, b), (k, c),
                                                      (vab, row_ac[c], row_bc[c]))
    return None


def check_zfree(inst: Instance):
    """Z-freeness: every 2x2 subtable of every binary cost table attains its
    minimum at least twice (counting positions; four infinities count four).

    Scan order: pairs (i, j) with i < j, then rows a < b of c_ij, then
    columns c < d, each lexicographic.  Vacuous when both domains involved
    have a single value.
    """
    for i in range(inst.r):
        for j in range(i + 1, inst.r):
            t = _raw_table(inst, i, j)
            di, dj = inst.domains[i], inst.domains[j]
            for a in range(di):
                for b in range(a + 1, di):
                    ra, rb = t[a], t[b]
                    for c in range(dj):
                        vac, vbc = ra[c], rb[c]
                        for d in range(c + 1, dj):
                            quad = (vac, ra[d], vbc, rb[d])
                            m = min(quad)
                            if quad.count(m) == 1:
                                return _zfree_violation((i, a, b), (j, c, d), quad)
    return None


def _anti_ultra_scan(n: int, value):
    """First triple i<j<k whose three pairwise values have a unique minimum.

    value(i, j) must return the raw entry for i != j.  Returns None or
    (i, j, k, (v_ij, v_ik, v_jk)).
    """
    for i in range(n):
        for j in range(i + 1, n):
            vij = value(i, j)
            for k in range(j + 1, n):
                vik = value(i, k)
                vjk = value(j, k)
                m = vij
                if vik < m:
                    m = vik
                if vjk < m:
                    m = vjk
                if (vij == m) + (vik == m) + (vjk == m) == 1:
                    return i, j, k, (vij, vik, vjk)
    return None


def check_anti_ultrametric(matrix):
    """Anti-ultrametric property of a full symmetric matrix: within every
    triple i, j, k the minimum pairwise entry is attained at least twice.

    matrix needs attributes n and value(i, j); see completion.CompletedMatrix.
    Scan order: triples i < j < k lexicographically.
    """
    hit = _anti_ultra_scan(matrix.n, lambda i, j: matrix.value(i, j).raw)
    if hit is None:
        return None
    i, j, k, raws = hit
    vals = tuple(ExtValue.of(v) for v in raws)
    return Violation(
        ViolationKind.ANTI_ULTRAMETRIC,
        (i, j, k),
        vals,
        f"anti-ultrametric violated on triple ({i + 1},{j + 1},{k + 1}): "
        f"entries {vals[0]}, {vals[1]}, {vals[2]} have a unique minimum",
    )


def _finite_linear(linear) -> None:
    """Raise the ValueError of check_mnatural_quadratic for the first
    infinite linear coefficient."""
    for u, v in enumerate(linear):
        if not v.is_finite:
            raise ValueError(f"linear coefficient {u} must be finite")


def _mnatural_violation(indices: tuple, values: tuple) -> Violation:
    """check_mnatural_quadratic's Violation: a negative pair (u, w) and its
    value, or a triple (u, w, z) and the values of its pairs (u, w),
    (u, z) and (w, z), whose minimum is unique."""
    at = ",".join(str(u + 1) for u in indices)
    if len(indices) == 2:
        return Violation(ViolationKind.NEGATIVE, indices, values,
                         f"pair coefficient ({at}) = {values[0]} is negative")
    return Violation(
        ViolationKind.ANTI_ULTRAMETRIC,
        indices,
        values,
        f"pair coefficients on ({at}) are {values[0]}, {values[1]}, "
        f"{values[2]}: unique minimum breaks M-natural-convexity",
    )


def check_mnatural_quadratic(f):
    """Decide whether a quadratic function with finite linear part is
    M-natural-convex: all pair coefficients nonnegative and the pair
    coefficient matrix anti-ultrametric.

    f needs attributes n and linear plus a pair(u, w) method; negative pair
    coefficients are representable (the test suite uses them) and are
    reported as the violation.  Raises ValueError when a linear coefficient
    is infinite.  Scan order: negativity over pairs u < w first, then the
    triple scan.  QuadFn.mnatural_violation finds the same first hit
    without the scan.
    """
    _finite_linear(f.linear)
    n = f.n
    for u in range(n):
        for w in range(u + 1, n):
            v = f.pair(u, w)
            if v.is_finite and v < ZERO:
                return _mnatural_violation((u, w), (v,))
    hit = _anti_ultra_scan(n, lambda u, w: f.pair(u, w).raw)
    if hit is None:
        return None
    u, w, z, raws = hit
    return _mnatural_violation((u, w, z), tuple(ExtValue.of(v) for v in raws))
