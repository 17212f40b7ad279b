"""Built-in reference instances and seeded random generators.

The four reference tournaments are fixed constructions used throughout the
verification suite.  Each one is defined by an ordering of its vertices
(labeled ``a``, ``b``, ``c``, ... for display) together with the set of
"backward" arcs; every other pair is oriented from the earlier vertex to
the later one.

* ``paper_T``       13 vertices, 12 backward arcs; its minimum feedback
                    arc set induces a directed path but the maximum
                    arc-disjoint cycle packing is one short of it.
* ``paper_Tprime``  ``paper_T`` with three pairs re-oriented, widening
                    the same gap at 15 vs 14.
* ``paper_T7``      the smallest tournament with such a gap (5 vs 4).
* ``paper_T11``     an eulerian tournament whose out-degrees all equal 5,
                    used to separate 3-cycle packing from general cycle
                    packing through a vertex.

Random generators are deterministic functions of their arguments; the
same seed always yields the same graph on every platform.
"""

from __future__ import annotations

import random
from typing import Iterable

from .digraph import Arc, Digraph, is_decimal

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


def _tournament_from_backward(n: int, backward: Iterable[Arc]) -> Digraph:
    """Tournament on 0..n-1 where listed arcs point backward and every
    other pair is oriented from the smaller vertex to the larger one."""
    back = set(backward)
    arcs = list(back)
    for u in range(n):
        for v in range(u + 1, n):
            if (v, u) not in back:
                arcs.append((u, v))
    return Digraph.from_arcs(n, arcs)


# Backward arcs of the 13-vertex reference tournament, in display letters:
# a chain of distance-2 hops, four distance-6 hops, and two distance-8 hops.
_T_BACKWARD = "ca ec ge ig ki mk ga ic ke mg ia me"

# Pairs re-oriented to obtain the widened 13-vertex variant.
_TPRIME_FLIPPED = "mc kc ka"

_T7_BACKWARD = "ca ec gd fb fa"

# Backward arcs of the eulerian 11-vertex tournament: h, i, j each beat
# a, b, c; k beats a..e; plus ca, gd, jh.
_T11_BACKWARD = "ha hb hc ia ib ic ja jb jc ka kb kc kd ke ca gd jh"


def paper_T() -> Digraph:
    """The 13-vertex reference tournament (ordering a..m, 12 backward arcs)."""
    return _tournament_from_backward(13, _parse_pairs(_T_BACKWARD))


def paper_T_backward_arcs() -> frozenset[Arc]:
    """The 12 backward arcs of ``paper_T`` under its defining ordering."""
    return frozenset(_parse_pairs(_T_BACKWARD))


def paper_Tprime() -> Digraph:
    """``paper_T`` with the pairs cm, ck, ak re-oriented to mc, kc, ka."""
    return _tournament_from_backward(13, _parse_pairs(f"{_T_BACKWARD} {_TPRIME_FLIPPED}"))


def paper_T7() -> Digraph:
    """The 7-vertex reference tournament (ordering a..g, 5 backward arcs)."""
    return _tournament_from_backward(7, _parse_pairs(_T7_BACKWARD))


def paper_T11() -> Digraph:
    """The eulerian 11-vertex reference tournament; every out-degree is 5."""
    return _tournament_from_backward(11, _parse_pairs(_T11_BACKWARD))


def transitive_tournament(n: int) -> Digraph:
    """The acyclic tournament: u -> v whenever u < v."""
    return Digraph(n, [((1 << n) - 1) >> (v + 1) << (v + 1) for v in range(n)])


def triangle_family_T() -> tuple[tuple[int, int, int], ...]:
    """Eleven arc-disjoint 3-cycles of ``paper_T``.

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


_BUILTINS = {
    "paper-T": paper_T,
    "paper-Tprime": paper_Tprime,
    "paper-T7": paper_T7,
    "paper-T11": paper_T11,
}

BUILTIN_NAMES = tuple(_BUILTINS)


def builtin(name: str) -> Digraph:
    """Look up a built-in graph by CLI name.

    Accepts the four reference tournaments plus ``transitive-N`` for any
    ``N`` between 1 and 64, written in ASCII digits.
    """
    if name in _BUILTINS:
        return _BUILTINS[name]()
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
