"""Workload inputs for the zfree benchmark.

Each workload is a fixed list of shapes; the workload seed only picks the
random content inside each shape (through generate_instance), so runs with
different seeds do the same kind and amount of work.  Every op is one CLI
call on one generated input file.

A run's expected outcomes come from reference.json, never from the solver
under test.  It holds, for SETS input sets per workload, one SHA-256 over the
set's input hashes and the outcome of every op, recorded by record.py and
proven at tiny scale by the exhaustive oracles (test_perfbench.py).  Seed s
runs input set s mod SETS; if the inputs generated now differ from the
recorded ones, the run is incorrect.

Run as a script to write one run's inputs and its manifest:

    PYTHONPATH=src python3 perfbench/workloads.py --workload wide --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
from pathlib import Path

from zfree import (GenConfig, Instance, check_jwp, check_zfree, dump_instance,
                   dump_matrix, format_value, generate_instance,
                   induced_partial_matrix, minimize_zfree, parse_instance)

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
SETS = 64

# Shapes per workload.  "full" is what the benchmark runs; "tiny" keeps the
# same structure at a size the exhaustive oracles can confirm (see the tests).
# Few inputs per run, so each runs in many passes: the end-to-end times are
# each input's best over the passes (run.py), and host speed drifts for
# seconds at a time, so the more passes an input gets, the steadier its best.
#   wide:   (r, d) with d values per variable, solved with checks on.  n > 120,
#           so the O(n^3) completion rescan (pipeline._VERIFY_LIMIT) is off and
#           check_zfree/check_jwp do nearly all the work.
#   reject: "solve" mutates each listed base shape once per pair table;
#           "complete" fills induced partial matrices of a valid instance and
#           of a mutated one per listed base shape.
SHAPES = {
    "wide": {
        "full": [(6, 21), (6, 22), (6, 23)],
        "tiny": [(3, 3), (3, 4)],
    },
    "reject": {
        "full": {"solve": [(6, 21)] * 6, "complete": [(6, 10)] * 3},
        "tiny": {"solve": [(3, 3)], "complete": [(3, 3)]},
    },
}

WORKLOADS = tuple(SHAPES)


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _config(r: int, d: int, seed: int) -> GenConfig:
    # rational_share stays at the generator default (half-integer unary costs).
    return GenConfig(r=r, domains=(d,) * r, seed=seed)


def is_valid(inst: Instance) -> bool:
    """Label by the exhaustive property oracles, never by assumption."""
    return check_jwp(inst) is None and check_zfree(inst) is None


def mutate_cell(inst: Instance, pair, cell, delta: int) -> Instance:
    """The instance with cell (a, b) of the (i, j) pair table moved by delta,
    or by -delta where that would make it negative."""
    tables = {p: [[v.raw for v in row] for row in t] for p, t in inst.binary_pairs()}
    t = tables[pair]
    a, b = cell
    old = t[a][b]
    t[a][b] = old + delta if old + delta >= 0 else old - delta
    return Instance(inst.domains, [[v.raw for v in row] for row in inst.unary], tables)


def invalid_mutant(inst: Instance, pair, cell, rng: random.Random) -> Instance:
    """A single-cell mutant of the pair table that the oracles reject: the
    given cell first, then random cells of the table."""
    i, j = pair
    for _ in range(100):
        cand = mutate_cell(inst, pair, cell, rng.choice((-2, -1, 1, 2)))
        if not is_valid(cand):
            return cand
        cell = (rng.randrange(inst.domains[i]), rng.randrange(inst.domains[j]))
    raise RuntimeError(f"no invalid single-cell mutant found for pair {pair}")


def build_ops(workload: str, seed: int, out: Path, scale: str = "full") -> list:
    """Write the inputs of one run under out and return the op list.

    Each op is {"kind", "argv", "input", "sha256", "expect"}; argv is the CLI
    argument list with the absolute input path.  expect is None for a solve
    on a valid instance, whose optimum only a solve can give (see
    solve_expectations); the other outcomes follow from the oracle labels.
    """
    if workload not in SHAPES:
        raise ValueError(f"unknown workload {workload!r}")
    shapes = SHAPES[workload][scale]
    rng = random.Random(f"zfree-bench/{workload}/{seed}")
    out.mkdir(parents=True, exist_ok=True)
    ops = []

    def add(kind, argv_head, text, expect):
        path = out / f"{len(ops):03d}.json"
        data = text.encode()
        path.write_bytes(data)
        ops.append({"kind": kind, "argv": [*argv_head, str(path)],
                    "input": str(path), "sha256": _digest(data), "expect": expect})

    if workload == "wide":
        for r, d in shapes:
            inst = generate_instance(_config(r, d, rng.getrandbits(32)))
            add("solve", ["solve", "--json"], dump_instance(inst), None)
    else:
        # Every pair table of every base is mutated once.  The mutated cells
        # are spread evenly over the rows and columns, the same cells for
        # every seed, so where the violation sits in the checks' scan order
        # (which sets how soon a solve rejects) varies little between seeds.
        bases = shapes["solve"]
        for b, (r, d) in enumerate(bases):
            inst = generate_instance(_config(r, d, rng.getrandbits(32)))
            pairs = [(i, j) for i in range(r) for j in range(i + 1, r)]
            slots = len(bases) * len(pairs)
            for p, pair in enumerate(pairs):
                q = b * len(pairs) + p
                mutant = invalid_mutant(inst, pair, (q * d // slots, q * 8 % d), rng)
                add("solve", ["solve", "--json"], dump_instance(mutant),
                    {"exit": 2, "status": "rejected"})
        for r, d in shapes["complete"]:
            inst = generate_instance(_config(r, d, rng.getrandbits(32)))
            pair = (0, rng.randrange(1, r))
            cell = (rng.randrange(d), rng.randrange(d))
            for source in (inst, invalid_mutant(inst, pair, cell, rng)):
                ok = is_valid(source)
                add("complete", ["complete", "--json"],
                    dump_matrix(induced_partial_matrix(source)),
                    {"exit": 0, "status": "completed"} if ok
                    else {"exit": 3, "status": "not-completable"})
    return ops


def solve_expectations(ops: list) -> list:
    """Fill in the expected outcome of every solve on a valid instance by
    solving it, checks skipped because the generator guarantees validity.
    Used to record reference.json and by the tiny-scale tests, never in a
    measured run."""
    for op in ops:
        if op["expect"] is None:
            inst = parse_instance(Path(op["input"]).read_text())
            report = minimize_zfree(inst, check_properties=False,
                                    verify_completion=False)
            op["expect"] = {"exit": 0, "status": report.status.value,
                            "value": format_value(report.value)}
    return ops


def inputs_digest(ops: list) -> str:
    """One hash over every input's SHA-256, in op order."""
    return _digest(" ".join(op["sha256"] for op in ops).encode())


def pack_outcome(expect: dict) -> list:
    """An expected outcome as stored in reference.json: [exit, status] or
    [exit, status, value], the value in its JSON form."""
    packed = [expect["exit"], expect["status"]]
    return packed + [expect["value"]] if "value" in expect else packed


def unpack_outcome(packed: list) -> dict:
    return dict(zip(("exit", "status", "value"), packed))


def apply_reference(workload: str, seed: int, ops: list) -> str:
    """Set every op's expected outcome from the recorded input set of this
    seed.  Returns 'match', or 'mismatch' when the inputs differ from the
    recorded ones (their outcomes are then unknown)."""
    recorded = json.loads(REFERENCE.read_text())[workload][seed % SETS]
    if (recorded["inputs"] != inputs_digest(ops)
            or len(recorded["outcomes"]) != len(ops)):
        return "mismatch"
    for op, packed in zip(ops, recorded["outcomes"]):
        op["expect"] = unpack_outcome(packed)
    return "match"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    ops = build_ops(args.workload, args.seed % SETS, args.out / "inputs")
    manifest = {"workload": args.workload, "seed": args.seed,
                "input_set": args.seed % SETS, "digest": inputs_digest(ops),
                "reference": apply_reference(args.workload, args.seed, ops),
                "ops": ops}
    (args.out / "manifest.json").write_text(json.dumps(manifest, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
