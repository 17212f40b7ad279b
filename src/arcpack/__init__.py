"""Exact solvers for feedback arc sets and arc-disjoint cycle packings.

The package works on small digraphs (at most 64 vertices) held as
per-vertex adjacency bitsets.  It provides:

- minimum feedback arc sets with certified optimal orderings,
- maximum arc-disjoint cycle packings with certificate cycles,
- arc-disjoint cycles through a fixed vertex via max flow,
- isomorphism-free tournament enumeration by canonical codes,
- built-in reference instances and a one-shot claim suite
  (``arcpack verify-paper``).

The package root exports one entry point per answer, with the types it
takes, returns or raises; every other name is imported from its module,
for example ``from arcpack.fas import enumerate_min_fas``.
"""

from .claims import CLAIM_IDS, ClaimResult, format_report, parse_claim, verify_paper
from .digraph import Digraph, format_graph, parse_graph
from .enumeration import enumerate_tournaments
from .fas import FasResult, min_fas_path, min_feedback_arc_set
from .flow import guaranteed_cycles_through, max_cycles_through, min_arc_cover_through
from .instances import builtin, random_oriented, random_tournament
from .packing import Budget, BudgetExceeded, PackingReport, max_cycle_packing

__version__ = "0.1.0"

__all__ = [
    "Budget",
    "BudgetExceeded",
    "CLAIM_IDS",
    "ClaimResult",
    "Digraph",
    "FasResult",
    "PackingReport",
    "builtin",
    "enumerate_tournaments",
    "format_graph",
    "format_report",
    "guaranteed_cycles_through",
    "max_cycle_packing",
    "max_cycles_through",
    "min_arc_cover_through",
    "min_fas_path",
    "min_feedback_arc_set",
    "parse_claim",
    "parse_graph",
    "random_oriented",
    "random_tournament",
    "verify_paper",
]
