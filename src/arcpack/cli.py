"""Command-line front end.

Graphs are given either as a builtin instance name (``paper-T``,
``paper-Tprime``, ``paper-T7``, ``paper-T11``, ``isaak-10``,
``transitive-N``) or as a path to a text file in the edge-list format of
:func:`parse_graph` (``-`` reads standard input).  Vertices are numeric,
or single letters ``a``..``z`` as aliases for 0..25.

For ``nu`` a ``--budget-*`` flag wins; a limit not given comes from
``ARCPACK_BUDGET_NODES`` / ``ARCPACK_BUDGET_SECS`` (see ``Budget.from_env``).
``random-check`` reads only the variables, once, before any output.
"""

from __future__ import annotations

import argparse
import os
import random
import sys

from .claims import (
    CLAIM_IDS,
    format_report,
    mindeg_tau_bound_counts,
    mindeg_triangle_counts,
    packing_bruteforce_counts,
    second_neighborhood_counts,
    universal_vertex_cycle_counts,
    verify_paper,
)
from .digraph import Digraph, format_graph, is_decimal, parse_graph
from .enumeration import (
    ENUMERATION_MAX_ORDER,
    PREDICATES,
    canonical_form,
    class_codes,
    enumerate_tournaments,
)
from .fas import min_feedback_arc_set
from .flow import max_cycles_through, min_arc_cover_through
from .instances import (
    BUILTIN_NAMES,
    builtin,
    label_of,
    random_oriented,
    random_tournament,
)
from .packing import (
    BRUTEFORCE_MAX_VERTICES,
    Budget,
    BudgetExceeded,
    count_triangles_through,
    max_cycle_packing,
    max_triangles_through,
)


def _load_graph(source: str) -> Digraph:
    if source in BUILTIN_NAMES or source.startswith("transitive-"):
        return builtin(source)
    if source == "-":
        return parse_graph(sys.stdin.read())
    with open(source, encoding="utf-8") as fh:
        return parse_graph(fh.read())


def _parse_vertex(d: Digraph, word: str) -> int:
    if is_decimal(word):
        v = int(word)
    elif len(word) == 1 and word.isascii() and word.isalpha():
        v = ord(word.lower()) - ord("a")
    else:
        raise ValueError(f"bad vertex {word!r}")
    if not 0 <= v < d.n:
        raise ValueError(f"vertex {word!r} out of range for order {d.n}")
    return v


# -- subcommands ------------------------------------------------------


def _cmd_tau(args: argparse.Namespace) -> int:
    d = _load_graph(args.graph)
    res = min_feedback_arc_set(d)
    print(f"tau={res.tau}")
    print("ordering=" + " ".join(str(v) for v in res.ordering))
    for u, v in sorted(res.arcs):
        print(f"arc {u} {v}")
    return 0


def _cmd_nu(args: argparse.Namespace) -> int:
    d = _load_graph(args.graph)
    rep = max_cycle_packing(d, Budget.from_env(args.budget_nodes, args.budget_secs))
    print(f"nu={rep.value} optimal={str(rep.optimal).lower()}")
    for cycle in rep.cycles:
        print("cycle " + " ".join(str(v) for v in cycle))
    return 0 if rep.optimal else 3


def _cmd_cycles_through(args: argparse.Namespace) -> int:
    d = _load_graph(args.graph)
    v0 = _parse_vertex(d, args.vertex)
    value, cycles = max_cycles_through(d, v0)
    cut = min_arc_cover_through(d, v0)
    print(f"value={value}")
    for u, v in sorted(cut):
        print(f"cut {u} {v}")
    for cycle in cycles:
        print("cycle " + " ".join(str(v) for v in cycle))
    return 0


def _cmd_tri_through(args: argparse.Namespace) -> int:
    d = _load_graph(args.graph)
    v0 = _parse_vertex(d, args.vertex)
    print(f"count={count_triangles_through(d, v0)}")
    value, triangles = max_triangles_through(d, v0)
    print(f"max={value}")
    for cycle in triangles:
        print("triangle " + " ".join(str(v) for v in cycle))
    return 0


def _cmd_enum(args: argparse.Namespace) -> int:
    n = args.n
    if args.predicate is None:
        for code in class_codes(n):
            print(code.hex())
        print(f"classes={len(class_codes(n))}")
        return 0
    fn = PREDICATES[args.predicate]
    matched = 0
    for t in enumerate_tournaments(n):
        if fn(t):
            print(canonical_form(t)[0].hex())
            matched += 1
    print(f"matched={matched} classes={len(class_codes(n))}")
    return 0


def _cmd_random_check(args: argparse.Namespace) -> int:
    n, count = args.n, args.count
    if count < 1:
        raise ValueError(f"--count must be positive, got {count}")
    budget = Budget.from_env()
    rng = random.Random(args.seed)
    graphs = []
    for _ in range(count):
        seed = rng.randrange(1 << 32)
        if args.model == "tournament":
            graphs.append(random_tournament(n, seed))
        else:
            graphs.append(random_oriented(n, args.p, seed))

    failures = 0

    def report(name: str, checked: int, violations: int) -> None:
        nonlocal failures
        failures += violations
        print(f"CHECK {name} checked={checked} violations={violations}")

    report("universal-vertex-cycles", *universal_vertex_cycle_counts(graphs))

    if n <= 16:
        report("mindeg-tau-bound", *mindeg_tau_bound_counts(graphs))

    if args.model == "tournament":
        report("mindeg-triangle-count", *mindeg_triangle_counts(graphs))
        report("second-neighborhood", *second_neighborhood_counts(graphs))

    if n <= BRUTEFORCE_MAX_VERTICES:
        report("packing-vs-bruteforce", *packing_bruteforce_counts(graphs, budget))

    print("ok" if failures == 0 else "FAILED")
    return 0 if failures == 0 else 1


def _cmd_show(args: argparse.Namespace) -> int:
    d = builtin(args.name)
    print(f"# {args.name}")
    if d.n <= 26:
        legend = " ".join(f"{label_of(v)}={v}" for v in range(d.n))
        print(f"# letters: {legend}")
    print(format_graph(d), end="")
    return 0


def _cmd_verify_paper(args: argparse.Namespace) -> int:
    ids = None
    if args.only:
        ids = [s for chunk in args.only for s in chunk.split(",") if s]
    results = verify_paper(ids)
    print(format_report(results))
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arcpack",
        description="Exact feedback-arc-set and cycle-packing solvers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-paper", help="run the reference claim suite")
    p.add_argument(
        "--only",
        action="append",
        metavar="IDS",
        help=f"comma-separated claim ids from: {', '.join(CLAIM_IDS)}",
    )
    p.set_defaults(fn=_cmd_verify_paper)

    p = sub.add_parser("tau", help="minimum feedback arc set")
    p.add_argument("graph")
    p.set_defaults(fn=_cmd_tau)

    p = sub.add_parser("nu", help="maximum arc-disjoint cycle packing")
    p.add_argument("graph")
    p.add_argument("--budget-nodes", type=int, metavar="N")
    p.add_argument("--budget-secs", type=float, metavar="S")
    p.set_defaults(fn=_cmd_nu)

    p = sub.add_parser("cycles-through", help="arc-disjoint cycles through a vertex")
    p.add_argument("graph")
    p.add_argument("vertex")
    p.set_defaults(fn=_cmd_cycles_through)

    p = sub.add_parser("tri-through", help="triangles through a vertex")
    p.add_argument("graph")
    p.add_argument("vertex")
    p.set_defaults(fn=_cmd_tri_through)

    p = sub.add_parser("enum", help="enumerate tournament classes")
    p.add_argument("n", type=int, choices=range(1, ENUMERATION_MAX_ORDER + 1))
    p.add_argument("--predicate", choices=sorted(PREDICATES))
    p.set_defaults(fn=_cmd_enum)

    p = sub.add_parser("random-check", help="property checks on random instances")
    p.add_argument("--model", choices=("tournament", "oriented"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--p", type=float, default=0.5, help="arc probability (oriented)")
    p.set_defaults(fn=_cmd_random_check)

    p = sub.add_parser("show", help="print a builtin instance")
    p.add_argument("name")
    p.set_defaults(fn=_cmd_show)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader went away: keep the flush at exit quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE
    except (BudgetExceeded, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, BudgetExceeded) else 2


if __name__ == "__main__":
    raise SystemExit(main())
