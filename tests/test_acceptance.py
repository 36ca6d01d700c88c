"""Acceptance suite: eight end-to-end criteria, one pass/fail line each.

Every criterion pits the production path against an independent oracle or
a stated invariant, on fixed seeds, with exact arithmetic throughout.
"""

import itertools
import math
import random
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

from zfree import (INF, ExtValue, GenConfig, Instance, PartialMatrix, QuadFn,
                   brute_force_min, check_anti_ultrametric,
                   check_exchange_axiom, check_jwp, check_mnatural_local,
                   check_mnatural_quadratic, check_zfree, complete,
                   completable_oracle, eval_quad, generate_instance,
                   greedy_min_layer, induced_partial_matrix,
                   laminar_pair_values, minimize_zfree, table_from_quadratic)
from zfree.errors import NotCompletableError
from zfree.pipeline import SolveStatus


# --- validity-preserving perturbations for criterion 1 -----------------------
#
# Each map provably keeps both input checks satisfied: relabeling values or
# reordering variables is pure reindexing, unary costs are unconstrained,
# and scaling every binary entry by the same positive integer preserves all
# order comparisons (implicit zero tables scale to themselves).

def _tables(inst):
    return {pair: [list(row) for row in table] for pair, table in inst.binary_pairs()}


def _relabel_values(inst, rng):
    i = rng.randrange(inst.r)
    d = inst.domains[i]
    sigma = list(range(d))
    rng.shuffle(sigma)
    unary = [list(row) for row in inst.unary]
    unary[i] = [unary[i][sigma[a]] for a in range(d)]
    binary = _tables(inst)
    for (p, q), t in list(binary.items()):
        if p == i:
            binary[(p, q)] = [t[sigma[a]] for a in range(d)]
        elif q == i:
            binary[(p, q)] = [[row[sigma[b]] for b in range(d)] for row in t]
    return Instance(inst.domains, unary, binary)


def _permute_variables(inst, rng):
    r = inst.r
    pi = list(range(r))
    rng.shuffle(pi)
    inv = {pi[k]: k for k in range(r)}
    domains = [inst.domains[pi[k]] for k in range(r)]
    unary = [list(inst.unary[pi[k]]) for k in range(r)]
    binary = {}
    for (p, q), t in inst.binary_pairs():
        a, b = inv[p], inv[q]
        if a < b:
            binary[(a, b)] = [list(row) for row in t]
        else:
            binary[(b, a)] = [[t[x][y] for x in range(len(t))]
                              for y in range(len(t[0]))]
    return Instance(domains, unary, binary)


def _rewrite_unaries(inst, rng):
    unary = [[ExtValue(Fraction(rng.randint(0, 16), 2)) for _ in range(d)]
             for d in inst.domains]
    return Instance(inst.domains, unary, _tables(inst))


def _scale_tables(inst, rng):
    k = rng.randint(2, 4)
    binary = {pair: [[v.raw * k for v in row] for row in table]
              for pair, table in inst.binary_pairs()}
    return Instance(inst.domains, inst.unary, binary)


_PERTURBATIONS = (_relabel_values, _permute_variables, _rewrite_unaries,
                  _scale_tables)


def test_c1_solve_matches_exhaustive_oracle(record_criterion):
    started = time.perf_counter()
    problems = []

    def compare(inst, tag):
        report = minimize_zfree(inst)
        if report.status is SolveStatus.REJECTED:
            problems.append(f"{tag}: rejected a valid instance: {report.violation}")
            return
        _, best = brute_force_min(inst)
        if report.value != best:
            problems.append(f"{tag}: solve {report.value} != oracle {best}")

    for seed in range(500):
        cfg = GenConfig(r=1 + seed % 5, dmax=2 + seed % 3, levels=2 + seed % 3,
                        seed=seed, inf_share=0.3 if seed % 4 == 0 else 0.0)
        compare(generate_instance(cfg), f"gen seed={seed}")

    rng = random.Random(424242)
    for k in range(100):
        cfg = GenConfig(r=2 + k % 4, dmax=2 + k % 3, levels=3, seed=10_000 + k,
                        inf_share=0.25 if k % 3 == 0 else 0.0)
        perturbed = _PERTURBATIONS[k % len(_PERTURBATIONS)](
            generate_instance(cfg), rng)
        if check_jwp(perturbed) is not None or check_zfree(perturbed) is not None:
            problems.append(f"perturbed k={k}: perturbation broke validity")
            continue
        compare(perturbed, f"perturbed k={k}")

    elapsed = time.perf_counter() - started
    if elapsed >= 60.0:
        problems.append(f"600 instances took {elapsed:.1f} s, budget is 60 s")
    ok = not problems
    record_criterion(
        "criterion 1 (solve equals the exhaustive oracle on 600 instances, under 60 s)",
        ok)
    assert ok, problems[:5]


def test_c2_validity_checks_match_completability(record_criterion):
    rng = random.Random(91)
    cells = (0, 1, 2, math.inf)
    valid_count = 0
    invalid_count = 0
    problems = []
    for trial in range(1000):
        r = rng.randint(2, 4)
        domains = tuple(rng.randint(1, 3) for _ in range(r))
        binary = {}
        for i in range(r):
            for j in range(i + 1, r):
                if rng.random() < 0.15:
                    continue
                binary[(i, j)] = [[rng.choice(cells) for _ in range(domains[j])]
                                  for _ in range(domains[i])]
        inst = Instance(domains, [[0] * d for d in domains], binary)
        valid = check_jwp(inst) is None and check_zfree(inst) is None
        completable = completable_oracle(induced_partial_matrix(inst)) is None
        if valid != completable:
            problems.append(f"trial {trial}: valid={valid} completable={completable}")
        if valid:
            valid_count += 1
        else:
            invalid_count += 1
    if valid_count < 50 or invalid_count < 50:
        problems.append(f"poor coverage: {valid_count} valid, {invalid_count} invalid")
    ok = not problems
    record_criterion(
        "criterion 2 (validity checks match completability on 1000 instances)", ok)
    assert ok, problems[:5]


def test_c3_completion_agrees_with_cycle_oracle(record_criterion):
    problems = []

    def agree(h, tag):
        oracle_ok = completable_oracle(h) is None
        try:
            done = complete(h)
        except NotCompletableError:
            if oracle_ok:
                problems.append(f"{tag}: oracle accepts, complete refuses")
            return False
        if not oracle_ok:
            problems.append(f"{tag}: oracle refuses, complete succeeds")
        bad = check_anti_ultrametric(done)
        if bad is not None:
            problems.append(f"{tag}: completion not anti-ultrametric: {bad}")
        return True

    pairs4 = list(itertools.combinations(range(4), 2))
    for combo in itertools.product((1, 2, None), repeat=len(pairs4)):
        entries = {p: v for p, v in zip(pairs4, combo) if v is not None}
        agree(PartialMatrix(4, entries), f"exhaustive {combo}")

    rng = random.Random(5150)
    completed = refused = 0
    for trial in range(10_000):
        n = rng.randint(2, 6)
        entries = {}
        for p in itertools.combinations(range(n), 2):
            v = rng.choice((1, 2, math.inf, None))
            if v is not None:
                entries[p] = v
        if agree(PartialMatrix(n, entries), f"random {trial}"):
            completed += 1
        else:
            refused += 1
    if completed < 100 or refused < 100:
        problems.append(f"poor coverage: {completed} completed, {refused} refused")
    ok = not problems
    record_criterion(
        "criterion 3 (completion agrees with the cycle oracle, exhaustive and random)",
        ok)
    assert ok, problems[:5]


def test_c4_three_coefficient_characterizations_agree(record_criterion):
    rng = random.Random(1729)
    violations = 0
    problems = []
    for trial in range(1000):
        n = rng.randint(1, 5)
        linear = [rng.choice((0, 1, 2)) for _ in range(n)]
        pairs = {}
        for p in itertools.combinations(range(n), 2):
            if rng.random() < 0.2:
                continue
            pairs[p] = rng.choice((0, 1, 2, math.inf))
        f = QuadFn.from_coeffs(linear, pairs)
        table = table_from_quadratic(f)
        a = check_mnatural_quadratic(f) is None
        b = check_exchange_axiom(table, n) is None
        c = check_mnatural_local(table, n) is None
        if not (a == b == c):
            problems.append(f"trial {trial}: coeff={a} exchange={b} local={c}")
        if not a:
            violations += 1
    if violations < 200:
        problems.append(f"poor coverage: only {violations} violating quadratics")
    ok = not problems
    record_criterion(
        "criterion 4 (three coefficient characterizations agree on 1000 quadratics)",
        ok)
    assert ok, problems[:5]


def _value_table(f):
    """All 2^n raw values of f, by subset-sum recurrence."""
    n = f.n
    lin = [v.raw for v in f.linear]
    h = [[f.pair(u, w).raw for w in range(n)] for u in range(n)]
    out = [0] * (1 << n)
    for mask in range(1, 1 << n):
        u = (mask & -mask).bit_length() - 1
        rest = mask ^ (1 << u)
        val = out[rest] + lin[u]
        m = rest
        while m and val != math.inf:
            w = (m & -m).bit_length() - 1
            m &= m - 1
            val += h[u][w]
        out[mask] = val
    return out


def test_c5_greedy_layer_minimum_is_exact(record_criterion):
    rng = random.Random(31337)
    problems = []
    for trial in range(1000):
        n = rng.randint(2, 10)
        pair_vals = laminar_pair_values(n, rng, levels=rng.randint(2, 4))
        if pair_vals and rng.random() < 0.3:
            top = max(pair_vals.values())
            pair_vals = {k: (math.inf if v == top else v)
                         for k, v in pair_vals.items()}
        linear = [Fraction(rng.randint(0, 12), 2) for _ in range(n)]
        f = QuadFn.from_coeffs(linear, pair_vals)
        full = _value_table(f)
        best = [math.inf] * (n + 1)
        for mask, val in enumerate(full):
            k = mask.bit_count()
            if val < best[k]:
                best[k] = val
        for k in range(n + 1):
            mask = greedy_min_layer(f, k)
            if mask is None:
                if best[k] != math.inf:
                    problems.append(f"trial {trial} size {k}: greedy gave up, "
                                    f"optimum is {best[k]}")
            elif eval_quad(f, mask).raw != best[k]:
                problems.append(f"trial {trial} size {k}: greedy "
                                f"{eval_quad(f, mask).raw} != {best[k]}")
    ok = not problems
    record_criterion(
        "criterion 5 (greedy layer minimum is exact for every size on 1000 quadratics)",
        ok)
    assert ok, problems[:5]


def test_c6_path_loop_invariants_hold(record_criterion):
    problems = []
    total_iterations = 0
    for seed in range(300):
        cfg = GenConfig(r=2 + seed % 7, dmax=2 + seed % 3, levels=2 + seed % 3,
                        seed=20_000 + seed,
                        inf_share=(0.0, 0.25, 0.5)[seed % 3])
        inst = generate_instance(cfg)
        # A negative reduced length raises InvariantError before the search
        # that would use it, and fails this criterion from inside the solve.
        report = minimize_zfree(inst)
        if report.status is SolveStatus.REJECTED:
            problems.append(f"seed {seed}: rejected a generated instance")
            continue
        n = inst.layout.n
        r = inst.r
        its = report.iterations
        if len(its) > r:
            problems.append(f"seed {seed}: {len(its)} iterations > r={r}")
        for st in its:
            total_iterations += 1
            if st.gap_after != st.gap_before - 2:
                problems.append(f"seed {seed} iter {st.index}: gap "
                                f"{st.gap_before} -> {st.gap_after}")
            if st.arcs_exchange > r * (n - r):
                problems.append(f"seed {seed} iter {st.index}: "
                                f"{st.arcs_exchange} swap arcs > {r * (n - r)}")
            if st.arcs_reassign > n:
                problems.append(f"seed {seed} iter {st.index}: "
                                f"{st.arcs_reassign} reassign arcs > {n}")
            if st.arcs_source > r or st.arcs_sink > r:
                problems.append(f"seed {seed} iter {st.index}: endpoint arcs "
                                f"{st.arcs_source}/{st.arcs_sink} > {r}")
    if total_iterations < 100:
        problems.append(f"poor coverage: only {total_iterations} iterations")
    ok = not problems
    record_criterion("criterion 6 (path loop invariants hold on every solve)", ok)
    assert ok, problems[:5]


def _run_cli(*args, stdin=None):
    return subprocess.run([sys.executable, "-m", "zfree", *args],
                          capture_output=True, text=True, input=stdin)


def test_c7_identical_seed_gives_identical_bytes(record_criterion, tmp_path):
    problems = []
    gen_a = _run_cli("gen", "--r", "4", "--dmax", "3", "--seed", "99")
    gen_b = _run_cli("gen", "--r", "4", "--dmax", "3", "--seed", "99")
    if gen_a.returncode != 0 or gen_a.stdout != gen_b.stdout:
        problems.append("gen runs differ")
    path = tmp_path / "inst.json"
    path.write_text(gen_a.stdout)
    for extra in ((), ("--json",)):
        one = _run_cli("solve", *extra, str(path))
        two = _run_cli("solve", *extra, str(path))
        if one.returncode != 0 or (one.stdout, one.stderr) != (two.stdout, two.stderr):
            problems.append(f"solve{' --json' if extra else ''} runs differ")
    ok = not problems
    record_criterion("criterion 7 (identical seed gives byte-identical output)", ok)
    assert ok, problems


def test_c8_wall_time_grows_subcubically(record_criterion):
    sizes = [(6, 42), (8, 63), (10, 100), (13, 154)]
    ns = []
    ts = []
    problems = []
    for r, d in sizes:
        inst = generate_instance(GenConfig(r=r, domains=(d,) * r, seed=7))
        t0 = time.perf_counter()
        report = minimize_zfree(inst, check_properties=False)
        elapsed = max(time.perf_counter() - t0, 1e-4)
        if report.status is not SolveStatus.OPTIMAL:
            problems.append(f"n={inst.layout.n}: status {report.status.value}")
        ns.append(inst.layout.n)
        ts.append(elapsed)
    slope = float(np.polyfit(np.log(ns), np.log(ts), 1)[0])
    print(f"sizes {ns}, times {[round(t, 3) for t in ts]}, fitted exponent {slope:.2f}")
    if not slope < 3.0:
        problems.append(f"fitted exponent {slope:.2f} is not below 3")
    ok = not problems
    record_criterion(
        f"criterion 8 (wall time grows subcubically, fitted exponent {slope:.2f})",
        ok)
    assert ok, problems
