"""Seeded generators for valid instances and related structures.

Pair costs come from a laminar clustering of all flat positions: positions in
the same deeper cluster cost more to combine, which makes every 2x2 subtable
attain its minimum twice and satisfies the join condition by construction.
The same clustering trick, applied to plain index sets, yields coefficient
matrices whose every triangle attains its minimum twice; those drive the
greedy tests.

Everything is driven by random.Random(seed); no global RNG state is touched.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .instance import Instance

__all__ = ["GenConfig", "laminar_pair_values", "generate_instance"]


@dataclass(frozen=True)
class GenConfig:
    r: int
    dmax: int = 4
    levels: int = 3
    seed: int = 0
    domains: tuple | None = None   # explicit domain sizes, overrides dmax
    unary_max: int = 8
    rational_share: float = 0.25   # chance a unary cost is a half-integer
    inf_share: float = 0.0         # chance the costliest pair level becomes inf


def laminar_pair_values(count: int, rng: random.Random, levels: int = 3,
                        base: int = 0, step: int = 3) -> dict:
    """Pair values {(u, w): int} for u < w < count, from a random laminar
    hierarchy.

    Pairs split at depth d get a value that grows with d, so for any three
    indices the two pairs split at the shallower cluster share the smaller
    value.  That makes min over every triangle attained at least twice.
    """
    values: dict = {}

    def assign_cross(parts, value):
        for pi in range(len(parts)):
            for pj in range(pi + 1, len(parts)):
                for u in parts[pi]:
                    for w in parts[pj]:
                        values[(u, w) if u < w else (w, u)] = value

    def split(elems, depth, value):
        if len(elems) <= 1:
            return
        if depth >= levels:
            assign_cross([[e] for e in elems], value)
            return
        k = rng.randint(2, min(len(elems), 3))
        order = list(elems)
        rng.shuffle(order)
        cuts = sorted(rng.sample(range(1, len(order)), k - 1))
        parts = []
        prev = 0
        for c in cuts + [len(order)]:
            parts.append(order[prev:c])
            prev = c
        assign_cross(parts, value)
        for part in parts:
            split(part, depth + 1, value + rng.randint(1, step))

    split(list(range(count)), 0, rng.randint(0, 2))
    return values


def generate_instance(cfg: GenConfig) -> Instance:
    """A random instance that passes both input checks by construction."""
    if cfg.r < 1:
        raise ValueError("need at least one variable")
    if cfg.unary_max < 0:
        raise ValueError("unary_max must be nonnegative")
    rng = random.Random(cfg.seed)
    if cfg.domains is not None:
        domains = tuple(cfg.domains)
        if len(domains) != cfg.r:
            raise ValueError("domains length must equal r")
    else:
        lo = min(2, cfg.dmax)
        domains = tuple(rng.randint(lo, cfg.dmax) for _ in range(cfg.r))

    offsets = []
    total = 0
    for d in domains:
        offsets.append(total)
        total += d

    unary = []
    for d in domains:
        row = []
        for _ in range(d):
            if rng.random() < cfg.rational_share:
                row.append(Fraction(rng.randint(0, 2 * cfg.unary_max), 2))
            else:
                row.append(rng.randint(0, cfg.unary_max))
        unary.append(row)

    pair_vals = laminar_pair_values(total, rng, cfg.levels)
    if pair_vals and cfg.inf_share > 0 and rng.random() < cfg.inf_share:
        # Mapping every occurrence of the top value to infinity is monotone
        # and total, so it preserves both input properties.
        top = max(pair_vals.values())
        pair_vals = {k: (math.inf if v == top else v) for k, v in pair_vals.items()}
    binary = {}
    for i in range(cfg.r):
        for j in range(i + 1, cfg.r):
            table = []
            for a in range(domains[i]):
                u = offsets[i] + a
                row = []
                for b in range(domains[j]):
                    w = offsets[j] + b
                    row.append(pair_vals[(u, w) if u < w else (w, u)])
                table.append(row)
            binary[(i, j)] = table
    return Instance(domains, unary, binary)
