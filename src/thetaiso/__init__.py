"""Graph isomorphism testing through a lifted conic relaxation.

The pipeline: parse or construct a pair of graphs, compile them into a conic
program over an (n^2+1)-square matrix variable (``build_program``), solve the
doubly nonnegative relaxation with a projection-splitting method (``solve``),
and turn the result into a verdict (``decide``) that is either an exactly
certified isomorphism, a soundly separated non-isomorphism, or an explicit
inconclusive.  On a pair that 2-WL cannot separate, ``solve`` pins a
vertex and solves one smaller program per branch instead, skipping the
branches that a verified automorphism of the second graph maps from a
refuted one; the full layout is never solved, and branches that neither
lift nor refute leave the pair inconclusive.  Supporting algebra
(permutation lifts, feasibility checking, united-vector factorizations,
Birkhoff decomposition) is exported alongside.
"""

from .graphs import (
    Graph,
    GraphParseError,
    association_graph,
    complement,
    complete_graph,
    conflict_pairs,
    cycle_graph,
    disjoint_union,
    empty_graph,
    load_graph,
    parse_dimacs,
    parse_graph,
    parse_graph_text,
    path_graph,
    petersen_graph,
    relabel,
    star_graph,
)
from .oracle import (
    enumerate_isomorphisms,
    is_isomorphism,
    is_permutation,
)
from .program import (
    Program,
    branch_program,
    build_program,
    decision_threshold,
    objective_value,
    program_to_json_dict,
)
from .lifts import (
    ConvexCombination,
    DecompositionResult,
    FeasibilityReport,
    FeasibilityViolation,
    PermutationLift,
    check_feasible,
    consistent_set_search,
    convex_decompose,
    cp_factor_united,
    diagonal_matrix,
    is_united,
    lift,
)
from .refine import colour_refinement, wl2_separates
from .solver import (
    SolverConfig,
    SolverResult,
    SolverStatus,
    initial_point,
    project_affine,
    project_psd,
    solve,
)
from .extraction import (
    BirkhoffResult,
    Verdict,
    VerdictKind,
    birkhoff_decompose,
    decide,
    stochastic_deviation,
)
from .data import corpus_path

__version__ = "0.1.0"

__all__ = [
    "Graph", "GraphParseError", "association_graph", "complement",
    "complete_graph", "conflict_pairs", "cycle_graph", "disjoint_union",
    "empty_graph", "load_graph", "parse_dimacs", "parse_graph",
    "parse_graph_text", "path_graph", "petersen_graph", "relabel",
    "star_graph",
    "enumerate_isomorphisms", "is_isomorphism", "is_permutation",
    "Program", "branch_program", "build_program", "objective_value",
    "program_to_json_dict",
    "colour_refinement", "wl2_separates",
    "ConvexCombination", "DecompositionResult", "FeasibilityReport",
    "FeasibilityViolation", "PermutationLift", "check_feasible",
    "consistent_set_search", "convex_decompose", "cp_factor_united",
    "diagonal_matrix", "is_united", "lift",
    "SolverConfig", "SolverResult", "SolverStatus", "initial_point",
    "project_affine", "project_psd", "solve",
    "BirkhoffResult", "Verdict", "VerdictKind",
    "birkhoff_decompose", "decide", "decision_threshold",
    "stochastic_deviation",
    "corpus_path",
    "__version__",
]
