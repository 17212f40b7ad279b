"""Small directed graphs with bitset adjacency.

Vertices are the integers ``0..n-1`` with ``n <= 64``, so every adjacency
row fits in a single machine word and neighborhood arithmetic reduces to
integer bit operations.  Graphs are loop-free and immutable; every
function here is pure and returns fresh objects.

An arc is an ordered pair ``(u, v)`` meaning ``u -> v``.  Arc sets are
plain ``frozenset`` objects of such pairs, vertex orderings are tuples
containing each vertex exactly once.

The in-rows are built on first read of ``inn`` and kept.  The max flow
and cut through a vertex and the feedback arc set DP read only the
out-rows; in-rows serve degree, component, short-cycle and tournament
questions.  So a graph parsed only for a cycles-through query never
builds them, and one whose in-rows are read pays one loop over its
arcs, once.

``parse_graph`` reads the text in one bulk pass.  It splits every line
into fields, drops blank lines, and sets the rows in one loop over the
arc lines, mapping each label through a table of the canonical decimal
spellings ``0``..``64``.  Every fault fails that pass: a line of other
than two fields does not unpack, a label outside the table is not found,
a tail at or above ``n`` indexes no row, a head at or above ``n`` or a
self-loop fails the row checks of ``Digraph``, a wrong arc count fails
the compare with the header, and a duplicate arc sets no new bit, so the
rows hold fewer bits than there are arcs.  Only when the pass fails (a
fault, a comment, whose first field is no label, or a label spelled
other than canonically, such as ``07``, ``+3`` or ``1_0``) does the
parser walk the lines in file order: the walk names the first fault as
the format always has, or reads the labels when they are ASCII decimal
numbers (``07`` is 7; ``+3`` and ``1_0`` are faults).
"""

from __future__ import annotations

from typing import Iterable, Iterator

Arc = tuple[int, int]

MAX_VERTICES = 64


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _check_order(n: int) -> None:
    """``ValueError`` unless ``1 <= n <= MAX_VERTICES``."""
    if not 1 <= n <= MAX_VERTICES:
        raise ValueError(f"vertex count must be in 1..{MAX_VERTICES}, got {n}")


def _check_vertex(d: Digraph, v: int) -> None:
    """``ValueError`` unless ``v`` is a vertex of ``d``."""
    if not 0 <= v < d.n:
        raise ValueError(f"vertex {v} out of range")


class Digraph:
    """Immutable loop-free digraph stored as one out-neighbor bitmask per vertex."""

    __slots__ = ("n", "out", "_inn")

    def __init__(self, n: int, out_rows: Iterable[int]):
        _check_order(n)
        rows = tuple(out_rows)
        if len(rows) != n:
            raise ValueError(f"expected {n} adjacency rows, got {len(rows)}")
        full = (1 << n) - 1
        for v, row in enumerate(rows):
            if row & ~full:
                raise ValueError(f"row of vertex {v} mentions vertices >= {n}")
            if (row >> v) & 1:
                raise ValueError(f"self-loop at vertex {v}")
        self.n = n
        self.out = rows
        self._inn = None

    @property
    def inn(self) -> tuple[int, ...]:
        """One in-neighbor bitmask per vertex, built on first read."""
        if self._inn is None:
            inn = [0] * self.n
            for u, row in enumerate(self.out):
                ubit = 1 << u
                while row:
                    low = row & -row
                    inn[low.bit_length() - 1] |= ubit
                    row ^= low
            self._inn = tuple(inn)
        return self._inn

    @classmethod
    def from_arcs(cls, n: int, arcs: Iterable[Arc]) -> "Digraph":
        """Build a digraph from explicit arcs, rejecting loops and duplicates."""
        _check_order(n)
        rows = [0] * n
        for u, v in arcs:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"arc ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop ({u}, {v}) not allowed")
            if rows[u] >> v & 1:
                raise ValueError(f"duplicate arc ({u}, {v})")
            rows[u] |= 1 << v
        return cls(n, rows)

    # -- basic queries ------------------------------------------------

    def has_arc(self, u: int, v: int) -> bool:
        _check_vertex(self, u)
        _check_vertex(self, v)
        return bool((self.out[u] >> v) & 1)

    def arcs(self) -> list[Arc]:
        """All arcs in lexicographic order."""
        return [(u, v) for u in range(self.n) for v in bits(self.out[u])]

    def arc_count(self) -> int:
        return sum(row.bit_count() for row in self.out)

    def out_degree(self, v: int) -> int:
        _check_vertex(self, v)
        return self.out[v].bit_count()

    def in_degree(self, v: int) -> int:
        _check_vertex(self, v)
        return self.inn[v].bit_count()

    def min_out_degree(self) -> int:
        return min(map(int.bit_count, self.out))

    def is_tournament(self) -> bool:
        """True when every vertex pair carries exactly one arc."""
        full = (1 << self.n) - 1
        out, inn = self.out, self.inn
        return all(
            (out[u] | inn[u]) == full & ~(1 << u) and out[u] & inn[u] == 0
            for u in range(self.n)
        )

    # -- derived graphs -----------------------------------------------

    def induced(self, vertices: Iterable[int]) -> tuple["Digraph", tuple[int, ...]]:
        """Subgraph induced by ``vertices``.

        Returns the subgraph on relabeled vertices ``0..k-1`` together with
        the tuple mapping new labels back to the original ones (ascending).
        """
        keep = sorted(set(vertices))
        if not keep:
            raise ValueError("induced subgraph needs at least one vertex")
        if keep[0] < 0 or keep[-1] >= self.n:
            raise ValueError(f"vertices out of range: {keep}")
        index = {old: new for new, old in enumerate(keep)}
        rows = [0] * len(keep)
        for old_u in keep:
            for old_v in bits(self.out[old_u]):
                if old_v in index:
                    rows[index[old_u]] |= 1 << index[old_v]
        return Digraph(len(keep), rows), tuple(keep)

    # -- dunder -------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Digraph):
            return NotImplemented
        return self.n == other.n and self.out == other.out

    def __hash__(self) -> int:
        return hash((self.n, self.out))

    def __repr__(self) -> str:
        return f"Digraph(n={self.n}, m={self.arc_count()})"


# -- orderings --------------------------------------------------------


def backward_arcs(d: Digraph, ordering: Iterable[int]) -> frozenset[Arc]:
    """Arcs that point from a later position of ``ordering`` to an earlier one.

    Reversing (or deleting) exactly these arcs makes the graph acyclic with
    ``ordering`` as a topological order.
    """
    order = tuple(ordering)
    if sorted(order) != list(range(d.n)):
        raise ValueError(f"not a vertex ordering of 0..{d.n - 1}: {order}")
    pos = [0] * d.n
    for i, v in enumerate(order):
        pos[v] = i
    return frozenset(
        (u, v) for u in range(d.n) for v in bits(d.out[u]) if pos[u] > pos[v]
    )


def topological_order(d: Digraph) -> tuple[int, ...] | None:
    """A topological order of ``d``, or ``None`` when ``d`` has a cycle.

    Deterministic: the smallest vertex no remaining vertex points to is next.
    """
    out = d.out
    left = (1 << d.n) - 1
    order = []
    while left:
        ready = left
        for u in bits(left):
            ready &= ~out[u]
        if not ready:
            return None
        low = ready & -ready
        order.append(low.bit_length() - 1)
        left ^= low
    return tuple(order)


# -- neighborhoods ----------------------------------------------------


def second_out_neighborhood(d: Digraph, v: int) -> frozenset[int]:
    """Vertices reachable in exactly two steps but not in one: N++(v).

    Excludes ``v`` itself and all direct out-neighbors.
    """
    _check_vertex(d, v)
    first = d.out[v]
    second = 0
    for u in bits(first):
        second |= d.out[u]
    second &= ~first & ~(1 << v)
    return frozenset(bits(second))


# -- connectivity and degree balance ----------------------------------


def _reachable(rows: tuple[int, ...], start: int) -> int:
    seen = 1 << start
    frontier = 1 << start
    while frontier:
        new = 0
        for v in bits(frontier):
            new |= rows[v]
        frontier = new & ~seen
        seen |= new
    return seen


def scc_masks(d: Digraph) -> list[int]:
    """Strongly connected components as vertex bitmasks, in order of their
    lowest vertex: each is what that vertex both reaches and is reached by."""
    comps = []
    left = (1 << d.n) - 1
    while left:
        v = (left & -left).bit_length() - 1
        comp = _reachable(d.out, v) & _reachable(d.inn, v)
        comps.append(comp)
        left &= ~comp
    return comps


def is_eulerian(d: Digraph) -> bool:
    """True when every vertex balances in- and out-degree and the graph is
    strongly connected (so one closed trail covers every arc)."""
    if any(d.out_degree(v) != d.in_degree(v) for v in range(d.n)):
        return False
    return len(scc_masks(d)) == 1


# -- text format ------------------------------------------------------


# Canonical decimal spellings of every label and vertex count, 0..MAX_VERTICES.
_LABEL = {str(v): v for v in range(MAX_VERTICES + 1)}


def is_decimal(word: str) -> bool:
    """True when ``word`` is ASCII digits only: no sign, no ``_``, no other
    script's digits, all of which ``int`` would accept."""
    return word.isascii() and word.isdigit()


def parse_graph(text: str) -> Digraph:
    """Parse the plain text format: header ``n m`` then ``m`` lines ``u v``.

    Lines starting with ``#`` and blank lines are ignored.
    """
    fields = list(filter(None, map(str.split, text.splitlines())))
    try:
        (n_text, m_text), *arcs = fields
        rows = [0] * _LABEL[n_text]
        for u, v in arcs:
            rows[_LABEL[u]] |= 1 << _LABEL[v]
        if m_text == str(len(arcs)) and sum(map(int.bit_count, rows)) == len(arcs):
            return Digraph(len(rows), rows)
    except (KeyError, IndexError, ValueError):
        pass
    # A bulk check failed: walk the lines in file order.
    numbered = [
        (lineno, line)
        for lineno, line in enumerate(map(str.strip, text.splitlines()), start=1)
        if line and line[0] != "#"
    ]
    if not numbered:
        raise ValueError("empty graph text")
    lineno, header = numbered[0]
    parts = header.split()
    if len(parts) != 2:
        raise ValueError(f"line {lineno}: header must be 'n m', got {header!r}")
    if not all(map(is_decimal, parts)):
        raise ValueError(f"line {lineno}: header must be two integers")
    n, m = map(int, parts)
    body = numbered[1:]
    if len(body) != m:
        raise ValueError(f"header announces {m} arcs but {len(body)} arc lines found")
    arcs = []
    for lineno, line in body:
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: arc line must be 'u v', got {line!r}")
        if not all(map(is_decimal, parts)):
            raise ValueError(f"line {lineno}: arc endpoints must be integers")
        arcs.append((int(parts[0]), int(parts[1])))
    try:
        return Digraph.from_arcs(n, arcs)
    except ValueError as exc:
        raise ValueError(f"invalid graph: {exc}") from None


def format_graph(d: Digraph) -> str:
    """Serialize to the text format, arcs in lexicographic order."""
    lines = [f"{d.n} {d.arc_count()}"]
    lines.extend(f"{u} {v}" for u, v in d.arcs())
    return "\n".join(lines) + "\n"
