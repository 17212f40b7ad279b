"""Exact solvers for feedback arc sets and arc-disjoint cycle packings.

The package works on small digraphs (at most 64 vertices) held as
per-vertex adjacency bitsets.  It provides:

- minimum feedback arc sets with certified optimal orderings,
- maximum arc-disjoint cycle packings with certificate cycles,
- arc-disjoint cycles through a fixed vertex via max flow,
- isomorphism-free tournament enumeration by canonical codes,
- built-in reference instances and a one-shot claim suite
  (``arcpack verify-paper``).
"""

from .claims import (
    CLAIM_IDS,
    ClaimResult,
    format_claim,
    format_report,
    parse_claim,
    verify_paper,
)
from .digraph import (
    MAX_VERTICES,
    Digraph,
    backward_arcs,
    format_graph,
    is_eulerian,
    parse_graph,
    second_out_neighborhood,
    topological_order,
)
from .enumeration import (
    ENUMERATION_MAX_ORDER,
    CanonicalCode,
    PREDICATES,
    canonical_code,
    canonical_form,
    class_codes,
    enumerate_tournaments,
    labeled_count_identity_holds,
    verify_nu_eq_tau_upto,
)
from .fas import (
    FasResult,
    enumerate_min_fas,
    feedback_arc_set_size,
    min_fas_induces_path,
    min_fas_path,
    min_feedback_arc_set,
    mindeg_lower_bound,
)
from .flow import (
    guaranteed_cycles_through,
    max_cycles_through,
    min_arc_cover_through,
)
from .instances import (
    BUILTIN_NAMES,
    builtin,
    label_of,
    paper_T_backward_arcs,
    random_oriented,
    random_tournament,
    transitive_tournament,
    triangle_family_T,
    vertex_of,
)
from .packing import (
    Budget,
    BudgetExceeded,
    PackingReport,
    count_triangles_through,
    cycle_arcs,
    greedy_short_cycles,
    is_valid_packing,
    max_cycle_packing,
    max_triangles_through,
    normalize_cycle,
    packing_bruteforce,
    packing_violation,
)

__version__ = "0.1.0"

__all__ = [
    "BUILTIN_NAMES",
    "Budget",
    "BudgetExceeded",
    "CLAIM_IDS",
    "CanonicalCode",
    "ClaimResult",
    "Digraph",
    "ENUMERATION_MAX_ORDER",
    "FasResult",
    "MAX_VERTICES",
    "PREDICATES",
    "PackingReport",
    "backward_arcs",
    "builtin",
    "canonical_code",
    "canonical_form",
    "class_codes",
    "count_triangles_through",
    "cycle_arcs",
    "enumerate_min_fas",
    "enumerate_tournaments",
    "feedback_arc_set_size",
    "format_claim",
    "format_graph",
    "format_report",
    "greedy_short_cycles",
    "guaranteed_cycles_through",
    "is_eulerian",
    "is_valid_packing",
    "label_of",
    "labeled_count_identity_holds",
    "max_cycle_packing",
    "max_cycles_through",
    "max_triangles_through",
    "min_arc_cover_through",
    "min_fas_induces_path",
    "min_fas_path",
    "min_feedback_arc_set",
    "mindeg_lower_bound",
    "normalize_cycle",
    "packing_bruteforce",
    "packing_violation",
    "paper_T_backward_arcs",
    "parse_claim",
    "parse_graph",
    "random_oriented",
    "random_tournament",
    "second_out_neighborhood",
    "topological_order",
    "transitive_tournament",
    "triangle_family_T",
    "verify_nu_eq_tau_upto",
    "verify_paper",
    "vertex_of",
]
