"""Arc-disjoint cycles through one fixed vertex, by unit-capacity max flow.

Splitting the fixed vertex ``v0`` into a source keeping its out-arcs and
a sink receiving its in-arcs turns arc-disjoint cycles through ``v0``
into arc-disjoint source-sink paths.  With every arc at capacity one the
maximum flow value equals the maximum number of such cycles, and the
minimum cut maps back to a smallest arc set whose removal leaves no
cycle through ``v0``.

Also hosts the sufficient condition for a vertex adjacent to all others
to lie on out-degree many arc-disjoint cycles.
"""

from __future__ import annotations

from dataclasses import dataclass

from .digraph import Arc, Digraph, bits
from .packing import Cycle, normalize_cycle


def _split_network(d: Digraph, v0: int) -> list[list[int]]:
    """Capacity matrix of the split graph; node n is the sink copy of v0.

    Arcs into ``v0`` are redirected to the sink copy, so nothing enters
    the source and nothing leaves the sink.
    """
    n = d.n
    cap = [[0] * (n + 1) for _ in range(n + 1)]
    for u in range(n):
        for w in bits(d.out[u]):
            cap[u][n if w == v0 else w] = 1
    return cap


def _max_flow(cap: list[list[int]], source: int, sink: int) -> tuple[int, list[list[int]]]:
    """Edmonds-Karp with neighbors scanned in ascending order."""
    size = len(cap)
    flow = [[0] * size for _ in range(size)]
    value = 0
    while True:
        parent = [-1] * size
        parent[source] = source
        queue = [source]
        while queue and parent[sink] == -1:
            nxt = []
            for v in queue:
                for w in range(size):
                    if parent[w] == -1 and cap[v][w] - flow[v][w] + flow[w][v] > 0:
                        parent[w] = v
                        nxt.append(w)
            queue = nxt
        if parent[sink] == -1:
            return value, flow
        w = sink
        while w != source:
            v = parent[w]
            # prefer canceling opposing flow over adding new flow
            if flow[w][v] > 0:
                flow[w][v] -= 1
            else:
                flow[v][w] += 1
            w = v
        value += 1


def max_cycles_through(d: Digraph, v0: int) -> tuple[int, tuple[Cycle, ...]]:
    """Largest set of arc-disjoint directed cycles through ``v0``.

    Returns the count with witness cycles.  The flow decomposition walks
    smallest-index arcs first and discards any closed detour not through
    ``v0``, so each witness is a simple cycle.
    """
    if not 0 <= v0 < d.n:
        raise ValueError(f"vertex {v0} out of range")
    n = d.n
    cap = _split_network(d, v0)
    value, flow = _max_flow(cap, v0, n)
    cycles = []
    for _ in range(value):
        walk = [v0]
        pos = {v0: 0}
        v = v0
        while v != n:
            w = next(w for w in range(n + 1) if flow[v][w] > 0)
            flow[v][w] -= 1
            if w in pos:
                # The walk closed a detour w .. v -> w not through v0.
                # Its arcs are already consumed, so dropping the segment
                # discards that circulation and keeps a valid flow.
                keep = pos[w]
                for u in walk[keep + 1 :]:
                    del pos[u]
                del walk[keep + 1 :]
                v = w
                continue
            walk.append(w)
            pos[w] = len(walk) - 1
            v = w
        walk.pop()  # drop the sink copy; the walk closes back at v0
        cycles.append(normalize_cycle(walk))
    return value, tuple(sorted(cycles))


def min_arc_cover_through(d: Digraph, v0: int) -> frozenset[Arc]:
    """A smallest arc set whose removal leaves no cycle through ``v0``.

    By flow duality its size equals ``max_cycles_through`` and it lies on
    the residual cut: arcs from source-reachable to unreachable nodes.
    """
    if not 0 <= v0 < d.n:
        raise ValueError(f"vertex {v0} out of range")
    n = d.n
    cap = _split_network(d, v0)
    value, flow = _max_flow(cap, v0, n)
    reach = {v0}
    queue = [v0]
    while queue:
        v = queue.pop()
        for w in range(n + 1):
            if w not in reach and cap[v][w] - flow[v][w] + flow[w][v] > 0:
                reach.add(w)
                queue.append(w)
    cut = []
    for u in reach:
        for w in range(n + 1):
            if cap[u][w] == 1 and w not in reach:
                cut.append((u, v0 if w == n else w))
    if len(cut) != value:
        raise RuntimeError(f"residual cut has {len(cut)} arcs, the flow value is {value}")
    return frozenset(cut)


# -- sufficient condition for out-degree many cycles ------------------


@dataclass(frozen=True)
class UniversalVertexParams:
    """Degrees governing the cycle guarantee at a vertex adjacent to all
    others.

    ``min_out_over_out`` is the smallest out-degree among out-neighbors,
    ``min_out_over_in`` the same over in-neighbors (``None`` when there
    are no in-neighbors, acting as plus infinity).
    """

    v0: int
    out_degree: int
    min_out_over_out: int | None
    min_out_over_in: int | None

    def guarantee_applies(self) -> bool:
        """True when out_degree <= min(a, (a + b + 1) / 2) holds exactly,
        with a, b the neighborhood minima above.  All arithmetic is on
        integers; a missing neighborhood acts as plus infinity."""
        a = self.min_out_over_out
        b = self.min_out_over_in
        if a is None:
            return True  # out-degree is 0, the guarantee is vacuous
        if self.out_degree > a:
            return False
        return b is None or 2 * self.out_degree <= a + b + 1


def universal_vertex_params(d: Digraph, v0: int) -> UniversalVertexParams | None:
    """The guarantee's degree parameters, or ``None`` when some vertex is
    not adjacent to ``v0`` (no arc in either direction)."""
    if not 0 <= v0 < d.n:
        raise ValueError(f"vertex {v0} out of range")
    full = ((1 << d.n) - 1) & ~(1 << v0)
    if (d.out[v0] | d.inn[v0]) != full:
        return None
    outs = [d.out_degree(w) for w in bits(d.out[v0])]
    ins = [d.out_degree(w) for w in bits(d.inn[v0])]
    return UniversalVertexParams(
        v0=v0,
        out_degree=d.out_degree(v0),
        min_out_over_out=min(outs) if outs else None,
        min_out_over_in=min(ins) if ins else None,
    )


@dataclass(frozen=True)
class UniversalVertexReport:
    """Outcome of checking the guarantee at every eligible vertex."""

    checked: tuple[UniversalVertexParams, ...]
    violations: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_universal_vertex_cycles(d: Digraph) -> UniversalVertexReport:
    """Check that every vertex satisfying the hypothesis really lies on
    out-degree many arc-disjoint cycles."""
    checked = []
    violations = []
    for v0 in range(d.n):
        params = universal_vertex_params(d, v0)
        if params is None or not params.guarantee_applies():
            continue
        checked.append(params)
        value, _ = max_cycles_through(d, v0)
        if value < params.out_degree:
            violations.append(v0)
    return UniversalVertexReport(checked=tuple(checked), violations=tuple(violations))
