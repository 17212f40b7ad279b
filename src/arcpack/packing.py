"""Exact maximum arc-disjoint cycle packings.

The packing number of a digraph never exceeds the size of any feedback
arc set ``F``: every cycle must use at least one arc of ``F``, and the
cycles are arc-disjoint.  The solver measures a packing of ``k`` cycles
by its slack ``|F| - k``: an arc of ``F`` that no cycle uses costs 1,
and a cycle through ``j`` arcs of ``F`` costs ``j - 1``.

* A packing of slack ``s`` has a shape: the arcs of ``F`` it leaves
  unused, and the blocks of arcs that share a cycle, each in its cyclic
  order.  Between consecutive arcs ``f`` and ``g`` of a cycle runs an
  ``F``-avoiding path from the head of ``f`` to the tail of ``g``, and
  ``D - F`` is acyclic, so realizing a shape is an arc-disjoint
  path-system search in a DAG.  Over every shape that search is
  exhaustive, so a failed search is a proof.
* The paths of one cycle need only be arc-disjoint.  If two of them met
  at a vertex, the closed walk would split into two closed walks, each
  through an arc of ``F``: a packing of lower slack.  The slacks run
  upward on one ``F``, so every lower slack has already been refuted,
  and every cycle stitched together is simple.

One decider, ``_decide``, searches every shape of one slack, and
``max_cycle_packing`` runs it at slack 0, 1, ... until a packing is
found or the best one known is proved optimal.  ``F`` is a minimum
feedback arc set from the DP when the graph is small enough for it, and
otherwise a minimal one from a degree ordering; the search is exact
either way.

The path-system search is exhaustive, so its cost is what it visits:

* Per node it counts the paths of every open requirement to branch on
  the most constrained one.  One pass in reverse topological order
  packs, for every vertex ``v``, the numbers of ``v -> t`` paths for
  every ``t`` into one int, an ``n``-bit field per ``t``
  (``_PathSystem.path_table``): one int add per available arc, over
  out-neighbor tuples cached per row value, so reserved arcs cost
  nothing.  A DAG on ``n`` vertices has at most ``2**(n-2)`` paths
  between two vertices, so no field overflows.  A requirement reads
  its count from one field of that table, and the walk over the paths
  it branches on reads the same table: a path to ``t`` enters only
  vertices whose ``t`` field is nonzero.
* Per solve it remembers the states it has refuted.  Whether a state is
  feasible depends only on the available arcs and on the ends of the
  open paths, so one int holding a bit per available arc, a bit per
  open (f, f) and a count of the other open paths per pair of ends is
  a complete key (``_solve_requirements``).  The key is kept up to date
  rather than rebuilt: reserving or releasing an arc flips its bit, and
  realizing a requirement takes its share off, so a node costs one int
  ``|`` for its key.  The memo lives
  on the solve's ``_Tracker``, which lets every shape of every slack
  share it.  Only refutations are stored, so a hit prunes a branch that
  would fail anyway and answers and certificates are the same as
  without it.  A state refuted because some requirement has no path at
  all is not stored: counting again is cheaper.  At most
  ``MEMO_MAX_ENTRIES`` states are kept; later refutations are not
  stored.

All searches, the feedback arc set DP included, honor a node/time
budget; when it runs out the best packing found so far is returned with
``optimal=False`` and ``stop_reason`` naming the limit that ran out.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Iterable, Iterator

from .digraph import Arc, Digraph, _reachable, backward_arcs, bits, topological_order
from .fas import MAX_DP_VERTICES, BudgetExceeded, min_feedback_arc_set

Cycle = tuple[int, ...]

BRUTEFORCE_MAX_VERTICES = 7

# Refuted path-system states kept per solve; a key of a 16-vertex
# tournament's search takes about 90 bytes, about 160 with its set slot.
MEMO_MAX_ENTRIES = 1 << 17


@dataclass(frozen=True)
class Budget:
    """Search limits for the exact packing solver."""

    max_nodes: int = 100_000_000
    max_secs: float = 1800.0

    def __post_init__(self) -> None:
        if self.max_nodes < 1:
            raise ValueError(f"node budget must be positive, got {self.max_nodes}")
        if not self.max_secs > 0:
            raise ValueError(f"time budget must be positive, got {self.max_secs}")

    @classmethod
    def from_env(cls, max_nodes: int | None = None, max_secs: float | None = None) -> "Budget":
        """A budget with the limits given; a limit not given comes from
        ARCPACK_BUDGET_NODES / ARCPACK_BUDGET_SECS, or else the default.
        Each variable is read only when its limit is not given."""
        if max_nodes is None:
            max_nodes = _env_value("ARCPACK_BUDGET_NODES", int, cls.max_nodes)
        if max_secs is None:
            max_secs = _env_value("ARCPACK_BUDGET_SECS", float, cls.max_secs)
        return cls(max_nodes, max_secs)


def _env_value(name: str, kind: type, default):
    """The environment variable ``name`` read as ``kind``, or ``default``
    when it is unset; a value ``kind`` cannot read is named in the error."""
    text = os.environ.get(name, default)
    try:
        return kind(text)
    except ValueError:
        raise ValueError(f"{name}={text!r} is not a valid {kind.__name__}") from None


@dataclass(frozen=True)
class PackingReport:
    """Solver outcome: packing size, certificate, and search statistics.

    ``optimal`` is True only when the search proved no larger packing
    exists; otherwise ``value`` is a lower bound reached within budget.
    ``stop_reason`` is ``"optimal"``, ``"node budget"`` or ``"time
    budget"``: the limit that stopped the search, if any.
    ``memo_entries`` is the number of refuted path-system states the
    solve stored, and ``memo_hits`` how many search nodes one of them
    answered.
    """

    value: int
    cycles: tuple[Cycle, ...]
    optimal: bool
    nodes_explored: int
    elapsed: float
    stop_reason: str
    memo_entries: int
    memo_hits: int


class _Tracker:
    """Counts search nodes, enforces the budget, and holds the solve's
    memo of refuted path-system states.  A memo key does not record the
    vertex count, so all path systems of one solve have the same ``n``."""

    __slots__ = ("nodes", "max_nodes", "deadline", "refuted", "hits")

    def __init__(self, budget: Budget):
        self.nodes = 0
        self.max_nodes = budget.max_nodes
        self.deadline = time.perf_counter() + budget.max_secs
        self.refuted: set[int] = set()
        self.hits = 0

    def tick(self) -> None:
        self.nodes += 1
        if self.nodes > self.max_nodes:
            raise BudgetExceeded("node budget")
        self.poll()

    def poll(self) -> None:
        """Check the deadline without counting a node.  Every call reads
        the clock: a node or a shape's root costs far more than that, and
        up to a millisecond on 64 vertices."""
        if time.perf_counter() > self.deadline:
            raise BudgetExceeded("time budget")


# -- cycle utilities --------------------------------------------------


def cycle_arcs(cycle: Cycle) -> list[Arc]:
    """The consecutive arcs of a cycle, wrap-around included."""
    k = len(cycle)
    return [(cycle[i], cycle[(i + 1) % k]) for i in range(k)]


def normalize_cycle(cycle: Iterable[int]) -> Cycle:
    """Rotate so the smallest vertex comes first."""
    seq = tuple(cycle)
    i = seq.index(min(seq))
    return seq[i:] + seq[:i]


def packing_violation(d: Digraph, cycles: Iterable[Cycle]) -> str | None:
    """Why ``cycles`` is not a valid arc-disjoint packing, or ``None``.

    Valid means: every sequence is a directed cycle of distinct vertices
    (length at least 2; a 2-cycle needs both opposing arcs, so it can
    only validate in a non-oriented digraph), and no arc repeats.  This
    is the one validity check: a packing is valid exactly when this
    returns ``None``.
    """
    used: set[Arc] = set()
    for idx, cyc in enumerate(cycles):
        if len(cyc) < 2:
            return f"cycle {idx} has fewer than 2 vertices: {cyc}"
        if len(set(cyc)) != len(cyc):
            return f"cycle {idx} repeats a vertex: {cyc}"
        for u, v in cycle_arcs(cyc):
            if not (0 <= u < d.n and 0 <= v < d.n):
                return f"cycle {idx} leaves the vertex range: ({u}, {v})"
            if not d.has_arc(u, v):
                return f"cycle {idx} uses the missing arc ({u}, {v})"
            if (u, v) in used:
                return f"cycle {idx} reuses arc ({u}, {v})"
            used.add((u, v))
    return None


# -- path-system search in the acyclic remainder ----------------------


class _PathSystem:
    """Mutable availability of the arcs of a DAG plus path queries.

    ``avail`` holds one row of available out-neighbors per vertex, and
    ``flat`` the same arcs as one int, arc (u, v) at bit ``u * n + v``:
    the low part of every memo key, kept up to date one bit per reserved
    or released arc.  ``plan`` lists the vertices in reverse topological
    order, each with its field's unit; ``succ`` maps each row value seen
    so far to its out-neighbors.
    """

    __slots__ = ("n", "fmask", "avail", "flat", "plan", "succ", "tracker")

    def __init__(self, n: int, avail_rows: list[int], topo: tuple[int, ...], tracker: _Tracker):
        self.n = n
        self.fmask = (1 << n) - 1
        self.avail = avail_rows
        self.flat = sum(row << u * n for u, row in enumerate(avail_rows))
        self.plan = tuple((v, 1 << v * n) for v in reversed(topo))
        self.succ: dict[int, tuple[int, ...]] = {}
        self.tracker = tracker

    def place(self, arcs: Iterable[Arc]) -> None:
        """Reserve available ``arcs``, or release reserved ones: either
        way each arc's bit flips in its row and in ``flat``."""
        avail = self.avail
        n = self.n
        flat = self.flat
        for u, v in arcs:
            avail[u] ^= 1 << v
            flat ^= 1 << u * n + v
        self.flat = flat

    unplace = place

    def path_table(self) -> list[int]:
        """For every vertex v, the number of directed v->t paths on
        available arcs for every t, packed into one int: the count for t
        is the ``n``-bit field at bit ``t * n``.

        One pass in reverse topological order: v's int is its own unit
        field (the empty path) plus the ints of its available
        out-neighbors, read from ``succ``.  At most ``2**(n-2)`` paths
        join two vertices of a DAG, so a field never carries into the
        next.
        """
        avail = self.avail
        succ = self.succ
        table = [0] * self.n
        for v, acc in self.plan:
            row = avail[v]
            ws = succ.get(row)
            if ws is None:
                ws = succ[row] = tuple(bits(row))
            for w in ws:
                acc += table[w]
            table[v] = acc
        return table

    def iter_paths(self, table: list[int], src: int, dst: int) -> Iterator[tuple[int, ...]]:
        """All src->dst paths on available arcs, in lexicographic order.

        The graph is acyclic, so paths are automatically vertex-simple.
        The walk enters only vertices whose ``dst`` field is nonzero in
        ``table``, this availability's ``path_table``: the vertices that
        reach ``dst``.
        """
        avail = self.avail
        shift = dst * self.n
        fmask = self.fmask
        alive = 0
        for v, counts in enumerate(table):
            if counts >> shift & fmask:
                alive |= 1 << v
        path = [src]

        def rec(v: int) -> Iterator[tuple[int, ...]]:
            if v == dst:
                yield tuple(path)
                return
            for w in bits(avail[v] & alive):
                path.append(w)
                yield from rec(w)
                path.pop()

        if table[src] >> shift & fmask:
            yield from rec(src)


# A requirement (f, g) pairs two feedback arcs: a path from the head of
# f to the tail of g, where g follows f on f's cycle.  (f, f) closes the
# cycle through f alone.
Requirement = tuple[Arc, Arc]


def _solve_requirements(
    ps: _PathSystem, reqs: list[Requirement]
) -> list[tuple[Requirement, tuple[int, ...]]] | None:
    """Realize all requirements with pairwise arc-disjoint paths, and
    return each with its path, in the order they were placed.

    The memo key of a state is ``ps.flat | code``, and ``_search``
    takes one requirement's ``delta`` off ``code`` per realized one.
    Bit ``u * n + v`` is the available arc (u, v), bit ``n * n + x * n +
    y`` the open (f, f) with f = (x, y), and the ``w``-bit field at bit
    ``2 * n * n + (y * n + u) * w``, with ``w`` the bit length of ``n``,
    counts the open (f, g != f) with f = (x, y) and g = (u, v): the
    paths from y to u.  Whether a state is feasible depends only on the
    available arcs and on the ends of the open paths, so the key is
    complete.  Two first arcs alike raise ``ValueError``; otherwise at
    most ``n - 1`` open paths share their ends, and no field carries.
    """
    if len({f for f, _ in reqs}) < len(reqs):
        raise ValueError("first arcs of requirements must be distinct")
    n = ps.n
    n2 = n * n
    width = n.bit_length()
    code = 0
    items = []
    for req in reqs:
        (x, y), (u, _) = req
        if req[0] == req[1]:
            delta = 1 << n2 + x * n + y
        else:
            delta = 1 << 2 * n2 + (y * n + u) * width
        code += delta
        items.append((req, y, u * n, delta))
    return _search(ps, items, code)


def _search(ps: _PathSystem, items: list[tuple], code: int) -> list | None:
    """One search node: ``items`` are the open requirements, each as
    ``(req, y, u * n, delta)`` for a path from ``y`` to ``u``, and
    ``ps.flat | code`` is the state's memo key.

    Picks the requirement with the fewest paths first, the earliest on a
    tie; a requirement with no path left refutes the whole branch.
    Refuted states go into the tracker's memo and are refuted again
    without a search.
    """
    if not items:
        return []
    tracker = ps.tracker
    refuted = tracker.refuted
    key = ps.flat | code
    if key in refuted:
        tracker.hits += 1
        return None
    table = ps.path_table()
    n = ps.n
    fmask = ps.fmask
    best_i = -1
    best_count = None
    for i, (_, y, shift, _) in enumerate(items):
        c = table[y] >> shift & fmask
        if c == 0:
            return None  # cheaper to count again than to store
        if best_count is None or c < best_count:
            best_i, best_count = i, c
    req, y, shift, delta = items[best_i]
    rest = items[:best_i] + items[best_i + 1 :]
    code -= delta
    for path in ps.iter_paths(table, y, shift // n):
        tracker.tick()
        arcs = list(zip(path, path[1:]))
        ps.place(arcs)
        sub = _search(ps, rest, code)
        ps.unplace(arcs)
        if sub is not None:
            return [(req, path)] + sub
    if len(refuted) < MEMO_MAX_ENTRIES:
        refuted.add(key)
    return None


def _stitch(placed: list[tuple[Requirement, tuple[int, ...]]]) -> list[Cycle]:
    """The cycles of realized requirements: from a feedback arc f, its
    path to the tail of the next arc g, then g's path, until the walk is
    back at f.  One cycle per successor cycle, in placement order."""
    step = {f: (g, path) for (f, g), path in placed}
    cycles = []
    for f in list(step):
        cyc: list[int] = []
        while f in step:
            g, path = step.pop(f)
            cyc.append(f[0])
            cyc.extend(path[:-1])
            f = g
        if cyc:
            cycles.append(tuple(cyc))
    return cycles


def _shapes(ordered: list[Arc], slack: int) -> Iterator[list[Requirement]]:
    """The requirements of every shape of a packing of ``len(ordered) -
    slack`` cycles through the sorted feedback arcs ``ordered``.

    The arcs left unused come first, ``slack`` of them down to none, in
    ``combinations`` order.  The rest of the slack goes to ``_blocks``,
    and a block b_0 .. b_(j-1) becomes the requirements (b_i, b_(i+1)),
    the last one closing back to b_0; every other arc is (h, h).
    """
    for unused in range(slack, -1, -1):
        for drop in combinations(ordered, unused):
            rest = [h for h in ordered if h not in drop]
            for blocks in _blocks(rest, slack - unused):
                reqs = [(b[i], b[(i + 1) % len(b)]) for b in blocks for i in range(len(b))]
                merged = {h for b in blocks for h in b}
                yield reqs + [(h, h) for h in rest if h not in merged]


def _blocks(arcs: list[Arc], budget: int) -> Iterator[list[tuple[Arc, ...]]]:
    """Every set of disjoint blocks of ``arcs`` that spends ``budget``,
    a block of ``j`` arcs costing ``j - 1``.

    A block is the feedback arcs of one cycle in their cyclic order,
    starting at its smallest arc, and the blocks come in the order of
    their smallest arcs: so each set is made once.  A simple cycle
    cannot leave or enter one vertex twice, so no two arcs of a block
    share a tail or a head.
    """
    if budget == 0:
        yield []
        return
    for i, first in enumerate(arcs):
        later = arcs[i + 1 :]
        for size in range(1, budget + 1):
            for others in combinations(later, size):
                members = (first,) + others
                if len({a[0] for a in members}) <= size or len({a[1] for a in members}) <= size:
                    continue
                rest = [a for a in later if a not in others]
                for order in permutations(others):
                    for tail in _blocks(rest, budget - size):
                        yield [(first,) + order] + tail


def _decide(d: Digraph, fas: frozenset[Arc], slack: int, tracker: _Tracker) -> list[Cycle] | None:
    """Packing of size ``len(fas) - slack``, where ``fas`` is a feedback
    arc set and every smaller slack on it has already been refuted.

    Exhaustive over the shapes such a packing can have (``_shapes``).
    The paths of one cycle may share vertices only when a packing of a
    smaller slack exists (module docstring), so the cycles stitched are
    simple.  All shapes search one path system: a refuted search leaves
    its availability as it found it.  A shape refuted at its root counts
    no node, so the clock is polled once per shape.
    """
    rows = list(d.out)
    for u, v in fas:
        rows[u] &= ~(1 << v)
    topo = topological_order(Digraph(d.n, rows))
    if topo is None:
        raise RuntimeError(f"{sorted(fas)} is not a feedback arc set: a cycle remains")
    ps = _PathSystem(d.n, rows, topo, tracker)
    for reqs in _shapes(sorted(fas), slack):
        tracker.poll()
        placed = _solve_requirements(ps, reqs)
        if placed is not None:
            return _stitch(placed)
    return None


def _minimal_feedback_arc_set(d: Digraph) -> frozenset[Arc]:
    """A feedback arc set found without the DP: the backward arcs of the
    vertices ordered by out-degree, highest first, then less every arc,
    in sorted order, whose return leaves the rest acyclic: its head does
    not reach its tail."""
    ordering = sorted(range(d.n), key=d.out_degree, reverse=True)
    rows = list(d.out)
    backward = sorted(backward_arcs(d, ordering))
    for u, v in backward:
        rows[u] &= ~(1 << v)
    fas = []
    for u, v in backward:
        if _reachable(rows, v) >> u & 1:
            fas.append((u, v))
        else:
            rows[u] |= 1 << v
    return frozenset(fas)


# -- greedy seed ------------------------------------------------------


def greedy_short_cycles(d: Digraph) -> list[Cycle]:
    """Arc-disjoint 2- and 3-cycles picked greedily in lexicographic order.

    Fast lower-bound seed for the exact solver; makes no optimality claim.
    No two 2-cycles share an arc, so all of them are taken first.
    """
    out, inn = d.out, d.inn
    cycles: list[Cycle] = [(u, v) for u in range(d.n) for v in bits(out[u] & inn[u] & -(2 << u))]
    free = [row & ~back for row, back in zip(out, inn)]  # out-rows of the arcs left
    for u in range(d.n):
        later = -(2 << u)  # the vertices above u
        for v in bits(free[u] & later):
            for w in bits(free[v] & inn[u] & later):
                if free[w] >> u & 1:
                    free[u] ^= 1 << v
                    free[v] ^= 1 << w
                    free[w] ^= 1 << u
                    cycles.append((u, v, w))
                    break
    return cycles


# -- public solvers ---------------------------------------------------


def max_cycle_packing(d: Digraph, budget: Budget | None = None) -> PackingReport:
    """Maximum number of pairwise arc-disjoint directed cycles.

    Refutes slack 0, 1, ... against one feedback arc set until a packing
    is found or the best one known meets the ceiling.  Up to
    ``MAX_DP_VERTICES`` (24) vertices the set is a minimum one from the
    DP and the ceiling is tau; above that the set is
    ``_minimal_feedback_arc_set`` and the ceiling its size, which may lie
    far above the answer.  See the module docstring for the search.
    """
    if budget is None:
        budget = Budget.from_env()
    tracker = _Tracker(budget)
    t0 = time.perf_counter()
    best: list[Cycle] = greedy_short_cycles(d)
    stop_reason = "optimal"
    try:
        if d.n <= MAX_DP_VERTICES:
            fr = min_feedback_arc_set(d, deadline=tracker.deadline)
            fas, ceiling = fr.arcs, fr.tau
        else:
            fas = _minimal_feedback_arc_set(d)
            ceiling = len(fas)
        # tau, not len(fas), so that a set that is not a feedback arc set
        # still reaches the decider's check
        slack = 0
        while ceiling - slack > len(best):
            sol = _decide(d, fas, slack, tracker)
            if sol is not None:
                best = sol
                break
            slack += 1
    except BudgetExceeded as exc:
        stop_reason = exc.reason
    cycles = tuple(sorted(normalize_cycle(c) for c in best))
    violation = packing_violation(d, cycles)
    if violation is not None:
        raise RuntimeError(f"solver built an invalid packing: {violation}")
    return PackingReport(
        value=len(cycles),
        cycles=cycles,
        optimal=stop_reason == "optimal",
        nodes_explored=tracker.nodes,
        elapsed=time.perf_counter() - t0,
        stop_reason=stop_reason,
        memo_entries=len(tracker.refuted),
        memo_hits=tracker.hits,
    )


def packing_bruteforce(d: Digraph) -> int:
    """Maximum arc-disjoint cycle count by exhaustive search over all
    simple cycles.  Independent of the main solver; capped at n <= 7."""
    if d.n > BRUTEFORCE_MAX_VERTICES:
        raise ValueError(
            f"brute force capped at {BRUTEFORCE_MAX_VERTICES} vertices, got {d.n}"
        )
    n = d.n
    out = d.out
    cycles: list[int] = []  # arc masks, arc (u, v) -> bit u * n + v

    path: list[int] = []

    def collect(start: int, v: int, visited: int) -> None:
        for w in bits(out[v]):
            if w == start and len(path) >= 2:
                mask = 0
                for i in range(len(path)):
                    a, b = path[i], path[(i + 1) % len(path)]
                    mask |= 1 << (a * n + b)
                cycles.append(mask)
            elif w > start and not (visited >> w) & 1:
                path.append(w)
                collect(start, w, visited | (1 << w))
                path.pop()

    for s in range(n):
        path[:] = [s]
        collect(s, s, 1 << s)

    best = 0
    total = len(cycles)

    def rec(i: int, used: int, count: int) -> None:
        nonlocal best
        if count > best:
            best = count
        if count + (total - i) <= best:
            return
        for j in range(i, total):
            if cycles[j] & used == 0:
                rec(j + 1, used | cycles[j], count + 1)

    rec(0, 0, 0)
    return best


# -- triangles through a fixed vertex ---------------------------------


def count_triangles_through(d: Digraph, v: int) -> int:
    """Number of directed 3-cycles through ``v``: arcs from N+(v) to N-(v)."""
    if not 0 <= v < d.n:
        raise ValueError(f"vertex {v} out of range")
    ins = d.inn[v]
    return sum((d.out[x] & ins).bit_count() for x in bits(d.out[v]))


def max_triangles_through(d: Digraph, v: int) -> tuple[int, tuple[Cycle, ...]]:
    """Largest set of arc-disjoint 3-cycles through ``v``.

    Two triangles v -> x -> y -> v share an arc at ``v`` exactly when
    they share ``x`` or ``y``, so the problem is a maximum bipartite
    matching between N+(v) and N-(v) along the arcs x -> y.  Solved with
    augmenting paths in vertex order; returns the witness triangles.
    """
    if not 0 <= v < d.n:
        raise ValueError(f"vertex {v} out of range")
    right_mask = d.inn[v]
    match_of: dict[int, int] = {}  # right vertex -> left vertex

    def augment(x: int, visited: set[int]) -> bool:
        for y in bits(d.out[x] & right_mask):
            if y in visited:
                continue
            visited.add(y)
            if y not in match_of or augment(match_of[y], visited):
                match_of[y] = x
                return True
        return False

    size = 0
    for x in bits(d.out[v]):
        if augment(x, set()):
            size += 1
    triangles = tuple(
        sorted(normalize_cycle((v, x, y)) for y, x in match_of.items())
    )
    return size, triangles
