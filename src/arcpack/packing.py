"""Exact maximum arc-disjoint cycle packings.

The packing number of a digraph never exceeds its minimum feedback arc
set size: every cycle must use at least one arc of any feedback arc set
``F``, and the cycles are arc-disjoint.  The solver exploits how tight
that pigeonhole is:

* A packing of size ``tau`` forces every cycle to use exactly one arc of
  ``F``, with all of ``F`` used.  Each cycle is then one arc ``x -> y``
  of ``F`` plus an ``F``-avoiding path ``y -> x``, and ``D - F`` is
  acyclic, so deciding feasibility is an arc-disjoint path-system search
  in a DAG.
* A packing of size ``tau - 1`` has exactly two shapes: either one arc
  of ``F`` is unused entirely, or a single cycle passes through two arcs
  ``f`` and ``g`` of ``F`` and the rest use one each.  The cycle through
  two arcs is two paths, head of ``f`` to tail of ``g`` and head of
  ``g`` to tail of ``f``, needing only to be arc-disjoint: if they met
  at a vertex, the closed walk would split into a cycle through ``f``
  and one through ``g``, a packing of size ``tau`` that the shapes with
  an unused arc, tried first, have already refuted.

One decider, ``_decide``, searches that path system for a packing of
size ``tau - slack`` with slack 0 or 1.  Both reductions are
exhaustive, so a failed search is a proof.  Below ``tau - 1`` the
solver falls back to branching on a feedback arc:
either some cycle through it is in the packing, or the arc is unused and
can be deleted (dropping the feedback bound by exactly one).

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
  open paths, so one int holding a bit per available arc and a bit per
  open requirement is a complete key (``_solve_requirements``).  The
  key is kept up to date rather than rebuilt: reserving or releasing an
  arc flips its bit, and realizing a requirement clears its bit, so a
  node costs one int ``|`` for its key.  The memo lives on the solve's
  ``_Tracker``, which lets every shape of every ``_decide`` call, those
  under the general branch-and-bound included, share it.  Only
  refutations are stored, so a hit prunes a branch that would fail
  anyway and answers and certificates are the same as without it.
  A state refuted because some requirement has no path at all is not
  stored: counting again is cheaper.  At most ``MEMO_MAX_ENTRIES``
  states are kept; later refutations are not stored.

All searches, the feedback arc set DP included, honor a node/time
budget; when it runs out the best packing found so far is returned with
``optimal=False`` and ``stop_reason`` naming the limit that ran out.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from itertools import chain, combinations
from typing import Iterable, Iterator

from .digraph import Arc, Digraph, bits, scc_masks, topological_order
from .fas import DEADLINE_BLOCK, MAX_DP_VERTICES, BudgetExceeded, min_feedback_arc_set

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
    vertex count, so all path systems of one solve have the same ``n``:
    ``_cyclic_restriction`` and ``without_arcs`` keep every vertex."""

    __slots__ = ("nodes", "max_nodes", "deadline", "polls", "refuted", "hits")

    def __init__(self, budget: Budget):
        self.nodes = 0
        self.max_nodes = budget.max_nodes
        self.deadline = time.perf_counter() + budget.max_secs
        self.polls = 0
        self.refuted: set[int] = set()
        self.hits = 0

    def tick(self) -> None:
        self.nodes += 1
        if self.nodes > self.max_nodes:
            raise BudgetExceeded("node budget")
        self.poll()

    def poll(self) -> None:
        """Check the deadline once per ``DEADLINE_BLOCK`` calls, ticks
        included, without counting a node."""
        self.polls += 1
        if self.polls % DEADLINE_BLOCK == 0 and time.perf_counter() > self.deadline:
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
    only validate in a non-oriented digraph), and no arc repeats.
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


def is_valid_packing(d: Digraph, cycles: Iterable[Cycle]) -> bool:
    return packing_violation(d, list(cycles)) is None


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


def _path_arcs(path: tuple[int, ...]) -> list[Arc]:
    return [(path[i], path[i + 1]) for i in range(len(path) - 1)]


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
    clears one requirement's ``delta`` from ``code`` per realized one.
    Bit ``u * n + v`` is the available arc (u, v), bit ``n * n + x * n +
    y`` the open (f, f) with f = (x, y), and bit ``2 * n * n + y * n +
    u`` an open (f, g) with f = (x, y) and g = (u, w) != f: its path's
    two ends.  Whether a state is feasible depends only on the available
    arcs and on the ends of the open paths, so the key is complete.  Two
    requirements on one bit raise ``ValueError``.
    """
    n = ps.n
    n2 = n * n
    code = 0
    items = []
    for req in reqs:
        (x, y), (u, _) = req
        if req[0] == req[1]:
            delta = 1 << n2 + x * n + y
        else:
            delta = 1 << 2 * n2 + y * n + u
        if code & delta:
            raise ValueError("requirements must be distinct")
        code |= delta
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
        arcs = _path_arcs(path)
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


def _decide(d: Digraph, fas: frozenset[Arc], slack: int, tracker: _Tracker) -> list[Cycle] | None:
    """Packing of size ``len(fas) - slack`` where ``fas`` is a minimum FAS
    and ``slack`` is 0 or 1.

    Exhaustive over the shapes such a packing can have.  Slack 0: every
    FAS arc used exactly once.  Slack 1: one FAS arc unused entirely
    (tried in sorted order), or one cycle through exactly two FAS arcs f
    and g (in ``combinations`` order), the requirements (f, g) and (g, f):
    their paths may share vertices only when a shape before them would
    have succeeded (module docstring), so the cycles stitched are simple.
    All shapes search one path system: a refuted search leaves its
    availability as it found it.
    """
    rows = list(d.out)
    for u, v in fas:
        rows[u] &= ~(1 << v)
    topo = topological_order(Digraph(d.n, rows))
    if topo is None:
        raise RuntimeError(f"{sorted(fas)} is not a feedback arc set: a cycle remains")
    ps = _PathSystem(d.n, rows, topo, tracker)
    ordered = sorted(fas)
    if slack == 0:
        shapes: Iterable[list[Requirement]] = [[(f, f) for f in ordered]]
    else:
        shapes = chain(
            ([(h, h) for h in ordered if h != skip] for skip in ordered),
            (
                [(f, g), (g, f)] + [(h, h) for h in ordered if h != f and h != g]
                for f, g in combinations(ordered, 2)
                # A simple cycle cannot leave or enter the same vertex twice.
                if f[0] != g[0] and f[1] != g[1]
            ),
        )
    for reqs in shapes:
        placed = _solve_requirements(ps, reqs)
        if placed is not None:
            return _stitch(placed)
    return None


# -- general branch-and-bound below tau - 1 ---------------------------


def _cyclic_restriction(d: Digraph) -> Digraph:
    """Subgraph of the arcs that lie on at least one cycle: both endpoints
    in the same strongly connected component."""
    comp_of = [0] * d.n
    for mask in scc_masks(d):
        for v in bits(mask):
            comp_of[v] = mask
    return Digraph(d.n, [d.out[v] & comp_of[v] for v in range(d.n)])


def _counting_bound(d: Digraph) -> int:
    """Cheap upper bound on the packing size of a cyclic-only graph."""
    m = d.arc_count()
    if m == 0:
        return 0
    has_two = any(d.out[v] & d.inn[v] for v in range(d.n))
    denom = 2 if has_two else 3
    degree_sum = sum(min(d.out_degree(v), d.in_degree(v)) for v in range(d.n))
    return min(m // denom, degree_sum // denom)


def _all_simple_paths(d: Digraph, src: int, dst: int, tracker: _Tracker) -> list[tuple[int, ...]]:
    """Every simple src->dst path, sorted shortest first then lexicographic."""
    out = d.out
    found: list[tuple[int, ...]] = []
    path = [src]

    def rec(v: int, visited: int) -> None:
        tracker.poll()
        if v == dst:
            tracker.tick()
            found.append(tuple(path))
            return
        for w in bits(out[v] & ~visited):
            path.append(w)
            rec(w, visited | (1 << w))
            path.pop()

    # dst stays allowed; src may not be revisited
    rec(src, (1 << src) | 0)
    found.sort(key=lambda p: (len(p), p))
    return found


def _find_general(d: Digraph, k: int, tracker: _Tracker) -> list[Cycle] | None:
    """Find ``k`` arc-disjoint cycles, or prove there are none.

    Branches on one arc ``f`` of a minimum FAS: either some cycle of the
    packing passes through ``f`` (all simple cycles through it are
    tried), or no cycle uses ``f`` and it can be deleted, which lowers
    the feedback bound by exactly one.  When ``k`` reaches the bound the
    exhaustive path-system deciders take over.
    """
    if k == 0:
        return []
    dc = _cyclic_restriction(d)
    if _counting_bound(dc) < k:
        return None
    if dc.n <= MAX_DP_VERTICES:
        fr = min_feedback_arc_set(dc, deadline=tracker.deadline)
        if fr.tau < k:
            return None
        if k >= fr.tau - 1:
            return _decide(dc, fr.arcs, fr.tau - k, tracker)
        branch = min(fr.arcs)
    else:
        branch = next((u, v) for u in range(dc.n) for v in bits(dc.out[u]))
    x, y = branch
    for path in _all_simple_paths(dc, y, x, tracker):
        tracker.tick()
        cyc = (x,) + path[:-1]
        sol = _find_general(dc.without_arcs(cycle_arcs(cyc)), k - 1, tracker)
        if sol is not None:
            return [cyc] + sol
    return _find_general(dc.without_arcs([branch]), k, tracker)


# -- greedy seed ------------------------------------------------------


def greedy_short_cycles(d: Digraph) -> list[Cycle]:
    """Arc-disjoint 2- and 3-cycles picked greedily in lexicographic order.

    Fast lower-bound seed for the exact solver; makes no optimality claim.
    """
    used: set[Arc] = set()
    cycles: list[Cycle] = []

    def free(*arcs: Arc) -> bool:
        return all(a not in used for a in arcs)

    for u in range(d.n):
        for v in bits(d.out[u] & d.inn[u]):
            if v > u and free((u, v), (v, u)):
                used.update(((u, v), (v, u)))
                cycles.append((u, v))
    for u in range(d.n):
        for v in bits(d.out[u]):
            if v < u:
                continue
            for w in bits(d.out[v] & d.inn[u]):
                if w < u:
                    continue
                if free((u, v), (v, w), (w, u)):
                    used.update(((u, v), (v, w), (w, u)))
                    cycles.append((u, v, w))
                    break
    return cycles


# -- public solvers ---------------------------------------------------


def max_cycle_packing(d: Digraph, budget: Budget | None = None) -> PackingReport:
    """Maximum number of pairwise arc-disjoint directed cycles.

    Exact for every graph small enough for the feedback-arc DP
    (n <= ``MAX_DP_VERTICES``, 24); above that only counting bounds steer
    the search and optimality is rarely proven.  See the module docstring for the
    search strategy.
    """
    if budget is None:
        budget = Budget.from_env()
    tracker = _Tracker(budget)
    t0 = time.perf_counter()
    best: list[Cycle] = greedy_short_cycles(d)
    stop_reason = "optimal"
    try:
        ceiling = None  # known upper bound on the packing number
        if d.n <= MAX_DP_VERTICES:
            fr = min_feedback_arc_set(d, deadline=tracker.deadline)
            ceiling = fr.tau
            if len(best) < ceiling:
                for slack in (0, 1):
                    sol = _decide(d, fr.arcs, slack, tracker)
                    if sol is not None:
                        best = sol
                        break
                    ceiling -= 1
        # climb from the best packing so far up to the ceiling
        k = len(best) + 1
        while ceiling is None or k <= ceiling:
            sol = _find_general(d, k, tracker)
            if sol is None:
                break
            best = sol
            k += 1
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
    return sum((d.out[x] & d.inn[v]).bit_count() for x in bits(d.out[v]))


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
