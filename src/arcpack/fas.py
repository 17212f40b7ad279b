"""Exact minimum feedback arc sets via dynamic programming over subsets.

A feedback arc set (FAS) of a digraph is a set of arcs whose removal
leaves an acyclic graph.  Equivalently, the minimum FAS size equals the
minimum number of backward arcs over all vertex orderings, and a set is a
minimum FAS exactly when it is the backward arc set of some optimal
ordering.  The solver therefore optimizes over orderings:

    f(empty) = 0
    f(S)     = min over v in S of  f(S - v) + |N+(v) intersect (S - v)|

Appending ``v`` to an ordered prefix ``S - v`` turns the arcs from ``v``
back into the prefix into backward arcs.  ``f(V)`` is the minimum FAS
size; a traceback recovers an optimal ordering and its backward arcs.

The table has ``2**n`` entries, so the solver is capped at
``MAX_DP_VERTICES`` vertices, and a caller may pass a
``time.perf_counter`` deadline: the clock is read once per
``DEADLINE_BLOCK`` cells, so the check costs nothing per cell.

The table is filled block by block, in 16-bit cells.  A block is the
``2**7`` consecutive subsets ``hs | lo`` that share their high bits
``hs`` (vertices 7 and up) and run over every low part ``lo``.  For a
high vertex ``v`` in ``hs``, the candidate ``f(S - v) + |N+(v) intersect
S|`` of every cell of the block reads one earlier block, ``hs - v``, at
the same ``lo``, and costs ``|N+(v) intersect hs| + |N+(v) intersect
lo|``.  So each high vertex gives the whole block's candidates at once:
the earlier block's cells, read as one int with a 16-bit field per
cell, plus a per-call packed table of those costs.  A field-wise
minimum over the high vertices (each field's top bit is a guard, so no
borrow crosses a field) seeds the block.  The block is then decoded
once into a list and finished there over each cell's low vertices,
whose candidates lie in the same block, cell by cell in increasing
order: the candidate of low vertex ``v`` is ``f(hs | lo - v) + a[v] +
|N+(v) intersect lo|``, with ``a[v] = |N+(v) intersect hs|`` once per
block and the last term read from a table per 7-bit low row.  That
table and the steps ``(lo - v, v)`` per low part do not depend on the
graph, so they are built once per process, on first use.  One slice
assignment writes the block back.  Below eight vertices there is one
block and no high vertex, and that list loop is the whole solver.

The table is identical to the cell-by-cell recurrence: every cell is
the minimum of the same candidates, in exact integer arithmetic, and a
minimum does not depend on the order of its arguments.  A filled cell
is at most the arc count, ``n(n - 1) = 552`` at the cap, and a cost is
below ``n``, so every field stays below ``2**14``, the value that marks
a cell with no candidate yet, which in turn stays below the guard bit
``2**15``.  A 24-vertex table takes 32 MB.  The graphs are loop-free,
so ``N+(v)`` never contains ``v`` and ``N+(v) intersect (S - v)`` is
``N+(v) intersect S``.
"""

from __future__ import annotations

import sys
import time
from array import array
from dataclasses import dataclass
from functools import cache
from typing import Iterable, Iterator

from .digraph import Arc, Digraph, backward_arcs, bits, topological_order

MAX_DP_VERTICES = 24

# Lower than the DP cap: every subset holds its own partial arc sets.
ENUMERATE_MAX_VERTICES = 16

DEADLINE_BLOCK = 4096

_BLOCK_BITS = 7
_CELL = array("h").itemsize  # bytes per table cell and per packed field
# A cell with no candidate yet: above every cost sum at the cap, below
# the guard bit of a 16-bit field.
_EMPTY = 1 << 14


class BudgetExceeded(RuntimeError):
    """A search ran out of budget before its answer was settled.

    ``reason`` names the limit that ran out: ``"node budget"`` or
    ``"time budget"``.
    """

    def __init__(self, reason: str, message: str = "") -> None:
        super().__init__(message or reason)
        self.reason = reason


@dataclass(frozen=True)
class FasResult:
    """Optimal value with one optimal ordering and its backward arc set."""

    tau: int
    ordering: tuple[int, ...]
    arcs: frozenset[Arc]


@cache
def _low_steps() -> tuple[tuple[tuple[int, int], ...], ...]:
    """Per low part ``lo`` of a block, its steps ``(lo - v, v)`` for each
    vertex ``v`` in ``lo``."""
    return tuple(
        tuple((lo ^ 1 << v, v) for v in range(_BLOCK_BITS) if lo >> v & 1)
        for lo in range(1 << _BLOCK_BITS)
    )


@cache
def _low_counts(row: int) -> tuple[int, ...]:
    """``|row & lo|`` for every low part ``lo``, given a row's low bits."""
    return tuple((row & lo).bit_count() for lo in range(1 << _BLOCK_BITS))


def _subset_costs(d: Digraph, deadline: float | None = None) -> array:
    """The DP table f over all vertex subsets, indexed by bitmask; the
    table has 2**n entries, so ``ValueError`` above ``MAX_DP_VERTICES``.
    ``BudgetExceeded`` once ``time.perf_counter()`` passes ``deadline``.
    Filled in blocks (see the module docstring)."""
    n = d.n
    if n > MAX_DP_VERTICES:
        raise ValueError(f"subset DP capped at {MAX_DP_VERTICES} vertices, got {n}")
    out = d.out
    size = 1 << n
    f = array("h", [0]) * size
    width = n if n < _BLOCK_BITS else _BLOCK_BITS
    block = 1 << width
    low = block - 1
    if n > width:
        nbytes = block * _CELL
        order = sys.byteorder
        ones = int.from_bytes(array("h", [1]) * block, order)
        empty = _EMPTY * ones  # a block with no candidate yet
        sign = 8 * _CELL - 1
        guard = ones << sign
        # high[1 << v]: out[v] and, per c, the packed costs c + |out[v] & lo|
        high = {}
        for v in range(width, n):
            row = out[v]
            base = int.from_bytes(array("h", _low_counts(row & low)), order)
            high[1 << v] = (row, [base + c * ones for c in range((row >> width).bit_count() + 1)])
        raw = memoryview(f).cast("B")
    counts = [_low_counts(out[v] & low) for v in range(width)]
    steps = _low_steps()[1:block]
    for hs in range(0, size, block):
        if deadline is not None and not hs % DEADLINE_BLOCK and time.perf_counter() > deadline:
            raise BudgetExceeded("time budget")
        if hs:
            x = empty
            t = hs
            while t:
                bit = t & -t
                t ^= bit
                row, costs = high[bit]
                start = (hs ^ bit) * _CELL
                y = int.from_bytes(raw[start : start + nbytes], order)
                y += costs[(row & hs).bit_count()]
                m = ((x | guard) - y) & guard  # guard bit set where x >= y
                x ^= (x ^ y) & (m - (m >> sign))  # and there x takes y
            cells = array("h", x.to_bytes(nbytes, order)).tolist()
        else:
            cells = [_EMPTY] * block
            cells[0] = 0
        a = [(out[v] & hs).bit_count() for v in range(width)]
        for lo, vs in enumerate(steps, 1):
            best = cells[lo]
            for prev, v in vs:
                c = cells[prev] + a[v] + counts[v][lo]
                if c < best:
                    best = c
            cells[lo] = best
        f[hs : hs + block] = array("h", cells)
    return f


def _optimal_last(f: array, out: tuple[int, ...], s: int) -> Iterator[int]:
    """Vertices, ascending, that can close an optimal ordering of ``s``."""
    for v in bits(s):
        rest = s & ~(1 << v)
        if f[rest] + (out[v] & rest).bit_count() == f[s]:
            yield v


def min_feedback_arc_set(d: Digraph, *, deadline: float | None = None) -> FasResult:
    """Minimum feedback arc set with an optimal ordering as certificate.

    Deterministic: the traceback reconstructs the ordering from the back,
    choosing the smallest vertex label whenever several choices are
    optimal.  Raises ``ValueError`` above the vertex cap and
    ``BudgetExceeded`` past ``deadline`` (see ``_subset_costs``).
    """
    f = _subset_costs(d, deadline)
    s = (1 << d.n) - 1
    rev = []
    while s:
        v = next(_optimal_last(f, d.out, s))
        rev.append(v)
        s ^= 1 << v
    ordering = tuple(reversed(rev))
    arcs = backward_arcs(d, ordering)
    tau = f[(1 << d.n) - 1]
    if len(arcs) != tau:
        raise RuntimeError(f"ordering has {len(arcs)} backward arcs, the DP says tau={tau}")
    return FasResult(tau=tau, ordering=ordering, arcs=arcs)


def feedback_arc_set_size(d: Digraph) -> int:
    """The minimum FAS size alone (no certificate traceback)."""
    return _subset_costs(d)[(1 << d.n) - 1]


def enumerate_min_fas(d: Digraph, limit: int) -> list[frozenset[Arc]]:
    """Every distinct minimum feedback arc set, sorted by their sorted arc
    tuple; ``ValueError`` when there are more than ``limit``.

    Walks every optimal traceback of the subset DP, merging duplicate
    partial backward arc sets per subset so that graphs with many optimal
    orderings but few distinct arc sets stay cheap.  It raises as soon as
    one subset holds more than ``limit`` partial sets, which is exact:
    every subset walked is the prefix of an optimal ordering, so its
    distinct partial sets, each extended by the backward arcs of one
    fixed optimal suffix, are that many distinct minimum sets.
    """
    if d.n > ENUMERATE_MAX_VERTICES:
        raise ValueError(
            f"enumeration capped at {ENUMERATE_MAX_VERTICES} vertices, got {d.n}"
        )
    if limit < 1:
        raise ValueError(f"limit must be positive, got {limit}")
    f = _subset_costs(d)
    out = d.out
    memo: dict[int, set[frozenset[Arc]]] = {0: {frozenset()}}

    def partial_sets(s: int) -> set[frozenset[Arc]]:
        cached = memo.get(s)
        if cached is not None:
            return cached
        found: set[frozenset[Arc]] = set()
        for v in _optimal_last(f, out, s):
            rest = s ^ (1 << v)
            added = frozenset((v, u) for u in bits(out[v] & rest))
            for prior in partial_sets(rest):
                found.add(prior | added)
        if len(found) > limit:
            raise ValueError(f"more than {limit} minimum feedback arc sets")
        memo[s] = found
        return found

    return sorted(partial_sets((1 << d.n) - 1), key=sorted)


def mindeg_lower_bound(d: Digraph) -> int:
    """Every digraph with minimum out-degree k needs at least k(k+1)/2
    arc deletions to become acyclic."""
    k = d.min_out_degree()
    return k * (k + 1) // 2


def min_fas_path(d: Digraph, arcs: Iterable[Arc]) -> tuple[int, ...] | None:
    """The hamiltonian path of ``arcs``' subgraph when ``arcs`` is a
    minimum FAS whose own subgraph is acyclic and carries one, else ``None``.

    The subgraph contains exactly the given arcs and their endpoints
    (vertices touching no given arc are dropped); the path is in original
    vertex labels.  Raises ``ValueError`` when ``arcs`` contains a non-arc
    of ``d``.

    A minimum feedback arc set that leaves the rest acyclic is the set of
    backward arcs of the rest's topological order.  That order reversed,
    on the vertices the set touches, orders the set's subgraph: it has a
    hamiltonian path exactly when consecutive vertices are adjacent, and
    then that order is the only such path.
    """
    fas = frozenset(arcs)
    rest = list(d.out)
    touched = 0
    for u, v in fas:
        if not (0 <= u < d.n and 0 <= v < d.n and rest[u] >> v & 1):
            raise ValueError(f"({u}, {v}) is not an arc of the graph")
        rest[u] ^= 1 << v
        touched |= 1 << u | 1 << v
    if not fas:
        return () if topological_order(d) is not None else None
    if len(fas) != feedback_arc_set_size(d):
        return None
    order = topological_order(Digraph(d.n, rest))
    if order is None:
        return None
    path = tuple(v for v in reversed(order) if touched >> v & 1)
    return path if fas.issuperset(zip(path, path[1:])) else None
