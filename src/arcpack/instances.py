"""Built-in reference instances and seeded random generators.

The four reference tournaments are fixed constructions used throughout the
verification suite.  Each one is a row of ``_BUILTINS``: its order and its
"backward" arcs, with vertices labeled ``a``, ``b``, ``c``, ... for display;
every other pair is oriented from the earlier vertex to the later one.

* ``paper-T``       13 vertices, 12 backward arcs; its minimum feedback
                    arc set induces a directed path but the maximum
                    arc-disjoint cycle packing is one short of it.
* ``paper-Tprime``  ``paper-T``'s row plus ``mc kc ka``: three pairs
                    re-oriented, widening the same gap at 15 vs 14.
* ``paper-T7``      the smallest tournament with such a gap (5 vs 4).
* ``paper-T11``     an eulerian tournament whose out-degrees all equal 5,
                    used to separate 3-cycle packing from general cycle
                    packing through a vertex.

``builtin`` also builds ``transitive-N``, the acyclic tournament on ``N``
vertices.  Random generators are deterministic functions of their
arguments; the same seed always yields the same graph on every platform.
"""

from __future__ import annotations

import random

from .digraph import Arc, Digraph, _check_order, is_decimal

LETTERS = "abcdefghijklmnopqrstuvwxyz"


def label_of(v: int) -> str:
    """Single-letter display alias for a vertex of a built-in instance."""
    return LETTERS[v] if 0 <= v < len(LETTERS) else str(v)


def vertex_of(d: Digraph, label: str) -> int:
    """Index of a single-letter vertex label in a built-in instance."""
    if len(label) != 1 or label not in LETTERS:
        raise ValueError(f"bad vertex label {label!r}")
    v = LETTERS.index(label)
    if v >= d.n:
        raise ValueError(f"vertex {label!r} not present (order {d.n})")
    return v


def _parse_pairs(pairs: str) -> list[Arc]:
    """Decode arcs written as two-letter words, e.g. ``'ca ec'``."""
    out = []
    for word in pairs.split():
        u, v = LETTERS.index(word[0]), LETTERS.index(word[1])
        out.append((u, v))
    return out


def _tournament_from_backward(n: int, pairs: str) -> Digraph:
    """Tournament on 0..n-1 with the arcs in ``pairs``, every other pair
    oriented from the smaller vertex to the larger one."""
    rows = list(transitive_tournament(n).out)
    for u, v in _parse_pairs(pairs):
        rows[v] &= ~(1 << u)
        rows[u] |= 1 << v
    return Digraph(n, rows)


# Backward arcs of the 13-vertex reference tournament, in display letters:
# a chain of distance-2 hops, four distance-6 hops, and two distance-8 hops.
_T_BACKWARD = "ca ec ge ig ki mk ga ic ke mg ia me"

# Each reference tournament's order and backward arcs.  In paper-T11, h, i
# and j each beat a, b, c; k beats a..e; plus ca, gd, jh.
_BUILTINS = {
    "paper-T": (13, _T_BACKWARD),
    "paper-Tprime": (13, f"{_T_BACKWARD} mc kc ka"),
    "paper-T7": (7, "ca ec gd fb fa"),
    "paper-T11": (11, "ha hb hc ia ib ic ja jb jc ka kb kc kd ke ca gd jh"),
}

BUILTIN_NAMES = tuple(_BUILTINS)


def paper_T_backward_arcs() -> frozenset[Arc]:
    """The 12 backward arcs of ``paper-T`` under its defining ordering."""
    return frozenset(_parse_pairs(_BUILTINS["paper-T"][1]))


def transitive_tournament(n: int) -> Digraph:
    """The acyclic tournament: u -> v whenever u < v."""
    _check_order(n)
    return Digraph(n, [((1 << n) - 1) >> (v + 1) << (v + 1) for v in range(n)])


def triangle_family_T() -> tuple[tuple[int, int, int], ...]:
    """Eleven arc-disjoint 3-cycles of ``paper-T``.

    Together they use 33 distinct arcs and cover eleven of the twelve
    backward arcs; only ``me`` is left uncovered.
    """
    triples = [
        "abc", "cde", "efg", "ghi", "ijk", "klm",
        "adg", "cfi", "ehk", "gjm", "aei",
    ]
    return tuple(
        (LETTERS.index(t[0]), LETTERS.index(t[1]), LETTERS.index(t[2]))
        for t in triples
    )


def builtin(name: str) -> Digraph:
    """Look up a built-in graph by CLI name.

    Accepts the four reference tournaments plus ``transitive-N`` for any
    ``N`` between 1 and 64, written in ASCII digits.
    """
    if name in _BUILTINS:
        return _tournament_from_backward(*_BUILTINS[name])
    if name.startswith("transitive-"):
        size = name.removeprefix("transitive-")
        if not is_decimal(size):
            raise ValueError(f"bad transitive size in {name!r}")
        return transitive_tournament(int(size))
    raise ValueError(
        f"unknown builtin {name!r}; choose from {', '.join(BUILTIN_NAMES)} "
        "or transitive-N"
    )


# -- random generators ------------------------------------------------


def random_tournament(n: int, seed: int) -> Digraph:
    """Uniform random tournament; each pair's direction is one coin flip."""
    _check_order(n)
    rng = random.Random(seed)
    rows = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.getrandbits(1):
                rows[u] |= 1 << v
            else:
                rows[v] |= 1 << u
    return Digraph(n, rows)


def random_oriented(n: int, p: float, seed: int) -> Digraph:
    """Random oriented graph: each pair gets an arc with probability ``p``,
    direction uniform.  Never produces a 2-cycle."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability must be in [0, 1], got {p}")
    _check_order(n)
    rng = random.Random(seed)
    rows = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                if rng.getrandbits(1):
                    rows[u] |= 1 << v
                else:
                    rows[v] |= 1 << u
    return Digraph(n, rows)
