"""Arc-disjoint cycles through one fixed vertex, by unit-capacity max flow.

Splitting the fixed vertex ``v0`` into a source keeping its out-arcs and
a sink receiving its in-arcs turns arc-disjoint cycles through ``v0``
into arc-disjoint source-sink paths.  With every arc at capacity one the
maximum flow value equals the maximum number of such cycles, and the
minimum cut maps back to a smallest arc set whose removal leaves no
cycle through ``v0``.

The network is held in bitset rows, one int per node: capacity, flow and
the flow's transpose.  Augmenting cancels opposing flow before adding
flow, so each arc carries 0 or 1 and no pair carries flow both ways: the
residual row of ``v`` is exactly ``(cap & ~flow) | flow into v``.  The
search takes a level's vertices in queue order and each one's new
residual neighbors in ascending order, the order of a scan over the
columns of a capacity matrix, and stops at the first vertex whose row
holds the sink, the sink's parent in that scan.  The augmenting paths,
witness cycles and cut thus do not depend on the representation.

Also hosts ``guaranteed_cycles_through``, the sufficient condition for a
vertex adjacent to all others to lie on out-degree many arc-disjoint
cycles.
"""

from __future__ import annotations

from .digraph import Arc, Digraph, bits
from .packing import Cycle, normalize_cycle


def _max_flow(d: Digraph, v0: int) -> tuple[int, list[int], list[int], int]:
    """Edmonds-Karp from ``v0`` to its sink copy, node ``d.n``.

    Arcs into ``v0`` are redirected to the sink copy, so nothing enters
    the source and nothing leaves the sink.  Returns the flow value, the
    capacity and flow rows, and the mask of nodes the final, failed
    search reached in the residual graph.
    """
    if not 0 <= v0 < d.n:
        raise ValueError(f"vertex {v0} out of range")
    n = d.n
    source_bit, sink_bit = 1 << v0, 1 << n
    cap = [(row & ~source_bit) | sink_bit if row & source_bit else row for row in d.out]
    cap.append(0)
    fl = [0] * (n + 1)
    fin = [0] * (n + 1)  # fin[w] has bit v when fl[v] has bit w
    parent = [0] * (n + 1)
    value = 0
    while True:
        seen = source_bit
        queue = [v0]
        while queue and not seen & sink_bit:
            nxt = []
            for v in queue:
                new = ((cap[v] & ~fl[v]) | fin[v]) & ~seen
                seen |= new
                if new & sink_bit:
                    parent[n] = v
                    break
                while new:
                    low = new & -new
                    w = low.bit_length() - 1
                    parent[w] = v
                    nxt.append(w)
                    new ^= low
            queue = nxt
        if not seen & sink_bit:
            return value, cap, fl, seen
        w = n
        while w != v0:
            v = parent[w]
            if fl[w] >> v & 1:  # cancel opposing flow before adding flow
                fl[w] ^= 1 << v
                fin[v] ^= 1 << w
            else:
                fl[v] |= 1 << w
                fin[w] |= 1 << v
            w = v
        value += 1


def max_cycles_through(d: Digraph, v0: int) -> tuple[int, tuple[Cycle, ...]]:
    """Largest set of arc-disjoint directed cycles through ``v0``.

    Returns the count with witness cycles.  The flow decomposition walks
    smallest-index arcs first and discards any closed detour not through
    ``v0``, so each witness is a simple cycle.
    """
    value, _, fl, _ = _max_flow(d, v0)
    n = d.n
    cycles = []
    for _ in range(value):
        walk = [v0]
        pos = {v0: 0}
        v = v0
        while v != n:
            low = fl[v] & -fl[v]
            fl[v] ^= low
            w = low.bit_length() - 1
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
    value, cap, _, reach = _max_flow(d, v0)
    n = d.n
    cut = [(u, v0 if w == n else w) for u in bits(reach) for w in bits(cap[u] & ~reach)]
    if len(cut) != value:
        raise RuntimeError(f"residual cut has {len(cut)} arcs, the flow value is {value}")
    return frozenset(cut)


# -- sufficient condition for out-degree many cycles ------------------


def guaranteed_cycles_through(d: Digraph, v0: int) -> int | None:
    """Out-degree many arc-disjoint cycles through ``v0``, when the degree
    condition guarantees them: ``d+(v0)``, else ``None``.

    The condition: ``v0`` is adjacent to every other vertex (an arc in
    either direction), ``d+(v0) <= a``, and either ``v0`` has no
    in-neighbor or ``2 d+(v0) <= a + b + 1``, with ``a`` and ``b`` the
    least out-degrees over the out- and the in-neighbors of ``v0``.  All
    arithmetic is on integers.  Out-degree 0 gives the vacuous 0.
    """
    if not 0 <= v0 < d.n:
        raise ValueError(f"vertex {v0} out of range")
    outs, ins = d.out[v0], d.inn[v0]
    if outs | ins != ((1 << d.n) - 1) & ~(1 << v0):
        return None
    k = outs.bit_count()
    if not k:
        return 0
    a = min(d.out[w].bit_count() for w in bits(outs))
    if k > a:
        return None
    if ins and 2 * k > a + min(d.out[w].bit_count() for w in bits(ins)) + 1:
        return None
    return k
