"""Exact polynomial-time minimization of valid binary instances.

An instance assigns one value per variable; its cost is a sum of per-value
and per-pair terms.  When the pair tables satisfy the join condition and the
2x2 subtable condition, the minimum is found exactly by completing the
within-variable coefficients, minimizing the resulting quadratic over a
layer greedily, and walking it onto a one-hot point with successive shortest
paths.  See minimize_zfree for the one-call entry point and the zfree CLI
for file-based use.
"""

from .values import ExtValue, INF, ZERO, ext_sum, format_value, parse_value
from .errors import (BudgetExceededError, InvariantError, NotCompletableError,
                     NotOneHotError, ParseError, ZfreeError)
from .instance import (Instance, OneHotLayout, dump_instance, evaluate_instance,
                       instance_from_dict, instance_to_dict, one_hot_decode,
                       one_hot_encode, parse_instance)
from .properties import (Violation, ViolationKind, check_anti_ultrametric,
                         check_jwp, check_mnatural_quadratic, check_zfree)
from .completion import (CompletedMatrix, PartialMatrix, complete,
                         completable_oracle, dump_matrix, parse_partial_matrix,
                         validate_partial)
from .quadratic import (QuadFn, eval_quad, greedy_min_layer,
                        induced_partial_matrix, onehot_relaxation)
from .intersection import (Arc, ArcKind, ExchangeGraph, IterationStats,
                           SspResult, build_exchange_graph,
                           shortest_path_min_hops, ssp_intersect)
from .oracles import (brute_force_min, check_exchange_axiom,
                      check_mnatural_local, table_from_quadratic)
from .generate import GenConfig, generate_instance, laminar_pair_values
from .pipeline import (CertifyResult, SolveReport, SolveStatus,
                       build_relaxation, certify, check_bottleneck,
                       minimize_zfree)

__version__ = "0.1.0"

__all__ = [
    "ExtValue", "INF", "ZERO", "ext_sum", "format_value", "parse_value",
    "BudgetExceededError", "InvariantError", "NotCompletableError",
    "NotOneHotError", "ParseError", "ZfreeError",
    "Instance", "OneHotLayout", "dump_instance", "evaluate_instance",
    "instance_from_dict", "instance_to_dict", "one_hot_decode",
    "one_hot_encode", "parse_instance",
    "Violation", "ViolationKind", "check_anti_ultrametric", "check_jwp",
    "check_mnatural_quadratic", "check_zfree",
    "CompletedMatrix", "PartialMatrix", "complete", "completable_oracle",
    "dump_matrix", "parse_partial_matrix", "validate_partial",
    "QuadFn", "eval_quad", "greedy_min_layer",
    "induced_partial_matrix", "onehot_relaxation",
    "Arc", "ArcKind", "ExchangeGraph", "IterationStats", "SspResult",
    "build_exchange_graph", "shortest_path_min_hops", "ssp_intersect",
    "brute_force_min", "check_exchange_axiom", "check_mnatural_local",
    "table_from_quadratic",
    "GenConfig", "generate_instance", "laminar_pair_values",
    "CertifyResult", "SolveReport", "SolveStatus", "build_relaxation",
    "certify", "check_bottleneck", "minimize_zfree",
    "__version__",
]
