"""Command line front end.

Subcommands: solve, check, complete, oracle-min, gen, certify.  Instances
and matrices travel as JSON files; "-" reads stdin.  Exit codes: 0 success,
1 usage or parse failure, 2 input rejected by a property check, 3 matrix not
completable, 4 search budget exceeded.

Output is deterministic for a given input: no timings, no environment
details, fixed key order.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from pathlib import Path

from .completion import complete, dump_matrix, parse_partial_matrix
from .errors import (BudgetExceededError, InvariantError, NotCompletableError,
                     ParseError, ZfreeError)
from .generate import GenConfig, generate_instance
from .instance import dump_instance, parse_instance
from .oracles import DEFAULT_BUDGET, brute_force_min
from .pipeline import SolveStatus, certify, check_bottleneck, minimize_zfree
from .properties import check_jwp, check_zfree
from .values import format_value

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; this interface reserves 2 for property
    rejections, so usage errors exit 1 instead."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _read_text(path: str) -> str:
    """The text of the file at path, or of stdin for "-", decoded as UTF-8
    whatever the locale: JSON text is UTF-8 (RFC 8259)."""
    try:
        if path != "-":
            return Path(path).read_text(encoding="utf-8")
        if hasattr(sys.stdin, "buffer"):
            return sys.stdin.buffer.read().decode("utf-8")
        return sys.stdin.read()     # a text stream put in stdin's place
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not text: {exc}") from None


def _emit(payload: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(payload, indent=2))
        return
    for key, value in payload.items():
        if isinstance(value, list):
            value = " ".join(str(v) for v in value)
        elif isinstance(value, bool):
            value = "yes" if value else "no"
        elif value is None:
            value = "-"
        print(f"{key}: {value}")


def _dot_name(graph, v: int) -> str:
    if v == graph.s:
        return "s"
    if v == graph.t:
        return "t"
    return f"v{v}"


def _dot_hook(directory: Path, layout):
    """Write one Graphviz file per round of the shortest-path loop."""
    directory.mkdir(parents=True, exist_ok=True)

    def hook(index, graph, potential, search):
        def value(v):   # graph units back to the instance's
            return Fraction(v, graph.scale)

        lines = [f"digraph round_{index} {{", "  rankdir=LR;",
                 '  s [shape=diamond];', '  t [shape=diamond];']
        for v in range(graph.n):
            i, a = layout.pair(v)
            lines.append(f'  v{v} [label="({i + 1},{a + 1})"];')
        on_path = set(search.arcs or ())   # an Arc is unique within its graph
        for arc in graph.arcs:
            reduced = arc.length + potential[arc.tail] - potential[arc.head]
            attrs = (f'label="{value(arc.length)}/{value(reduced)}", '
                     f'tooltip="{arc.kind.value}"')
            if arc in on_path:
                attrs += ", color=red, penwidth=2"
            lines.append(f"  {_dot_name(graph, arc.tail)} -> "
                         f"{_dot_name(graph, arc.head)} [{attrs}];")
        lines.append("}")
        (directory / f"round_{index:02d}.dot").write_text("\n".join(lines) + "\n")

    return hook


def _cmd_solve(args) -> int:
    inst = parse_instance(_read_text(args.instance))
    hook = _dot_hook(Path(args.dump_aux), inst.layout) if args.dump_aux else None
    report = minimize_zfree(inst, check_properties=not args.no_check,
                            dump_hook=hook)
    _emit(report.to_dict(), args.json)
    return 2 if report.status is SolveStatus.REJECTED else 0


def _cmd_check(args) -> int:
    inst = parse_instance(_read_text(args.instance))
    if check_bottleneck(inst) is None:
        _emit({"jwp": True, "zfree": True}, args.json)
        return 0
    # Rejected: the exhaustive scans name the first violation of each check.
    jwp = check_jwp(inst)
    zfree = check_zfree(inst)
    payload: dict = {"jwp": jwp is None, "zfree": zfree is None}
    if jwp is not None:
        payload["jwp_reason"] = jwp.message
    if zfree is not None:
        payload["zfree_reason"] = zfree.message
    if jwp is None and zfree is None:
        raise InvariantError("the bottleneck check and the exhaustive checks disagree")
    _emit(payload, args.json)
    return 2


def _cmd_complete(args) -> int:
    matrix = parse_partial_matrix(_read_text(args.matrix))
    try:
        done = complete(matrix)
    except NotCompletableError as e:
        payload = {"status": "not-completable", "reason": str(e)}
        _emit(payload, args.json)
        return 3
    print(dump_matrix(done, indent=2))
    return 0


def _cmd_oracle_min(args) -> int:
    inst = parse_instance(_read_text(args.instance))
    assignment, value = brute_force_min(inst, max_evals=args.max_evals)
    payload: dict = {"status": "optimal", "assignment": [a + 1 for a in assignment],
                     "value": format_value(value)}
    if not value.is_finite:
        payload = {"status": "infinite-minimum", "assignment": None,
                   "value": format_value(value)}
    _emit(payload, args.json)
    return 0


def _cmd_gen(args) -> int:
    cfg = GenConfig(r=args.r, dmax=args.dmax, levels=args.levels, seed=args.seed,
                    unary_max=args.unary_max, inf_share=args.inf_share)
    try:
        inst = generate_instance(cfg)
    except ValueError as e:   # a parameter out of range: a usage failure
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(dump_instance(inst, indent=2))
    return 0


def _cmd_certify(args) -> int:
    inst = parse_instance(_read_text(args.instance))
    result = certify(inst, max_n=args.max_n)
    _emit(result.to_dict(), args.json)
    if not result.agreement:
        # Both checks passing is supposed to coincide with completability;
        # a mismatch is a defect in this package, not in the input.
        raise InvariantError("check results and completability disagree")
    return 0 if result.jwp_ok and result.zfree_ok else 2


@functools.cache   # building costs far more than one parse_args call
def _build_parser() -> _Parser:
    parser = _Parser(prog="zfree",
                     description="Exact minimization of valid binary instances.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--json", action="store_true",
                       help="emit a JSON object instead of key: value lines")
        return p

    p = add("solve", _cmd_solve, "minimize an instance")
    p.add_argument("instance", help="instance JSON file, or - for stdin")
    p.add_argument("--no-check", action="store_true",
                   help="do not reject an invalid instance: the verdict is "
                        "still computed, and an invalid one raises instead")
    p.add_argument("--dump-aux", metavar="DIR",
                   help="write one Graphviz file per search round into DIR")

    p = add("check", _cmd_check, "run both input property checks")
    p.add_argument("instance", help="instance JSON file, or - for stdin")

    p = add("complete", _cmd_complete, "fill in a partial coefficient matrix")
    p.add_argument("matrix", help="partial matrix JSON file, or - for stdin")

    p = add("oracle-min", _cmd_oracle_min, "exhaustive reference minimization")
    p.add_argument("instance", help="instance JSON file, or - for stdin")
    p.add_argument("--max-evals", type=int, default=DEFAULT_BUDGET,
                   help="assignment budget (default %(default)s)")

    p = add("gen", _cmd_gen, "generate a valid instance")
    p.add_argument("--r", type=int, required=True, help="number of variables")
    p.add_argument("--dmax", type=int, default=4, help="largest domain size")
    p.add_argument("--levels", type=int, default=3, help="pair value hierarchy depth")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--unary-max", type=int, default=8)
    p.add_argument("--inf-share", type=float, default=0.0,
                   help="chance the costliest pair level becomes infinite")

    p = add("certify", _cmd_certify, "cross-check the input properties against "
                                     "exhaustive completability")
    p.add_argument("instance", help="instance JSON file, or - for stdin")
    p.add_argument("--max-n", type=int, default=30,
                   help="flat size cap for the cycle search (default %(default)s)")

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceededError as e:
        print(f"error: {e}", file=sys.stderr)
        return 4
    except InvariantError:
        raise  # internal defect; fail loudly rather than exit politely
    except (OSError, ZfreeError) as e:   # ParseError among them
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
