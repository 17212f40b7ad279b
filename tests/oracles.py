"""Brute-force reference implementations for cross-checking the solvers.

Everything here is deliberately naive and kept independent of the
package's algorithms: permutations instead of subset DP, set recursion
instead of flow or matching.  Small orders only.  Two subset DPs are
the exceptions.  ``hamiltonian_path`` is the reference for the package's
linear FAS-path test and is itself checked against
``hamiltonian_path_exists``.  ``subset_costs_reference`` is the τ
recurrence cell by cell, the reference for the package's blocked table,
and its last cell is checked against ``tau_perm``.  ``in_rows_reference``
tests every vertex pair where the package loops over arcs.
``parse_graph_reference`` is the per-line loop that the package's bulk
parse replaced, and ``path_counts_reference`` is the per-source
path-count sweep that the path-system search's packed path table
replaced.  ``topological_order_reference`` is the heap-based Kahn order
that the package's row scan replaced.  ``state_key_reference`` is the
memo key that search rebuilt at every node before it kept one up to
date, and ``state_key_fresh`` rebuilds today's key from scratch.
"""

from __future__ import annotations

import heapq
import random
import re
from array import array
from itertools import combinations, permutations
from typing import Iterator

from arcpack.digraph import Digraph, bits
from arcpack.instances import random_oriented, random_tournament


def in_rows_reference(rows: list[int]) -> tuple[int, ...]:
    """In-neighbor rows of the digraph with out-rows ``rows``, by testing
    every ordered pair of vertices."""
    n = len(rows)
    return tuple(
        sum(1 << u for u in range(n) if rows[u] >> v & 1) for v in range(n)
    )


def parse_graph_reference(text: str) -> Digraph:
    """The edge-list format line by line: every line's shape and ASCII
    decimal numbers in file order, then every arc's range, loop and
    duplicate in order."""
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and line[0] != "#":
            rows.append((lineno, line))
    if not rows:
        raise ValueError("empty graph text")
    lineno, header = rows[0]
    parts = header.split()
    if len(parts) != 2:
        raise ValueError(f"line {lineno}: header must be 'n m', got {header!r}")
    if not all(re.fullmatch("[0-9]+", p) for p in parts):
        raise ValueError(f"line {lineno}: header must be two integers")
    n, m = int(parts[0]), int(parts[1])
    body = rows[1:]
    if len(body) != m:
        raise ValueError(f"header announces {m} arcs but {len(body)} arc lines found")
    arcs = []
    for lineno, line in body:
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: arc line must be 'u v', got {line!r}")
        if not all(re.fullmatch("[0-9]+", p) for p in parts):
            raise ValueError(f"line {lineno}: arc endpoints must be integers")
        arcs.append((int(parts[0]), int(parts[1])))
    try:
        return Digraph.from_arcs(n, arcs)
    except ValueError as exc:
        raise ValueError(f"invalid graph: {exc}") from None


def random_digraph(n: int, p: float, seed: int) -> Digraph:
    """Each ordered pair independently gets an arc: allows 2-cycles."""
    rng = random.Random(seed)
    rows = [0] * n
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < p:
                rows[u] |= 1 << v
    return Digraph(n, rows)


def relabel(d: Digraph, perm) -> Digraph:
    """Image of ``d`` under the vertex permutation ``perm`` (old label ->
    new label), for the metamorphic tests."""
    p = tuple(perm)
    if sorted(p) != list(range(d.n)):
        raise ValueError(f"not a permutation of 0..{d.n - 1}: {p}")
    rows = [0] * d.n
    for u in range(d.n):
        for v in bits(d.out[u]):
            rows[p[u]] |= 1 << p[v]
    return Digraph(d.n, rows)


def reverse(d: Digraph) -> Digraph:
    """``d`` with every arc reversed: its in-rows as out-rows."""
    return Digraph(d.n, d.inn)


def without_arcs(d: Digraph, arcs) -> Digraph:
    """Copy of ``d`` with the given arcs removed, for checking that a cut
    or a feedback arc set leaves the rest acyclic; removing a missing arc
    is an error."""
    rows = list(d.out)
    for u, v in arcs:
        if not (0 <= u < d.n and 0 <= v < d.n and rows[u] >> v & 1):
            raise ValueError(f"arc ({u}, {v}) not present")
        rows[u] &= ~(1 << v)
    return Digraph(d.n, rows)


def golden_graph(case: dict) -> Digraph:
    """The graph of a golden-file case: its ``rows`` when it lists them,
    else the seeded random graph it names by kind, n, p, seed."""
    if "rows" in case:
        return Digraph(case["n"], case["rows"])
    if case["kind"] == "tournament":
        return random_tournament(case["n"], case["seed"])
    if case["kind"] == "digraph":
        return random_digraph(case["n"], case["p"], case["seed"])
    return random_oriented(case["n"], case["p"], case["seed"])


def tau_perm(d: Digraph) -> int:
    """Minimum backward-arc count over every vertex ordering."""
    arcs = d.arcs()
    best = len(arcs)
    for perm in permutations(range(d.n)):
        pos = {v: i for i, v in enumerate(perm)}
        best = min(best, sum(1 for u, v in arcs if pos[u] > pos[v]))
    return best


def subset_costs_reference(d: Digraph) -> array:
    """The subset DP table cell by cell: f[s] is the minimum over v in s
    of f[s - v] + |out(v) & (s - v)|, with f[0] = 0."""
    out = d.out
    f = array("i", bytes(4 << d.n))
    for s in range(1, 1 << d.n):
        best = 1 << 30
        t = s
        while t:
            low = t & -t
            t ^= low
            v = low.bit_length() - 1
            c = f[s ^ low] + (out[v] & (s ^ low)).bit_count()
            if c < best:
                best = c
        f[s] = best
    return f


def topological_order_reference(d: Digraph) -> tuple[int, ...] | None:
    """Kahn's algorithm with in-degree counters and a heap, smallest ready
    label first; ``None`` when ``d`` has a cycle.  The package's order
    rescans the remaining vertices' rows for one that nothing points to."""
    indeg = [sum(d.out[u] >> v & 1 for u in range(d.n)) for v in range(d.n)]
    order = []
    heap = [v for v in range(d.n) if indeg[v] == 0]
    heapq.heapify(heap)
    while heap:
        v = heapq.heappop(heap)
        order.append(v)
        for w in bits(d.out[v]):
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(heap, w)
    if len(order) != d.n:
        return None
    return tuple(order)


def path_counts_reference(rows: list[int], src: int) -> list[int]:
    """For every vertex t, the number of directed src->t paths on the
    arcs of the DAG with out-rows ``rows``: one sweep in topological
    order from ``src``.  ``counts[src]`` is 1."""
    topo = topological_order_reference(Digraph(len(rows), list(rows)))
    counts = [0] * len(rows)
    counts[src] = 1
    for v in topo[topo.index(src) :]:
        c = counts[v]
        if c:
            m = rows[v]
            while m:
                low = m & -m
                counts[low.bit_length() - 1] += c
                m ^= low
    return counts


def state_key_reference(ps, reqs: list[tuple]) -> int:
    """One int for (available arcs of the path system ``ps``, multiset
    of requirements ``reqs``).

    A requirement (f, f) with f = (x, y) is coded by f; any other (f, g)
    by the ends of its path, the head of f and the tail of g.  From the
    low bits up: ``n`` in 7 bits, the ``n`` rows of ``n`` bits each,
    then the sorted requirement codes, each nonzero and in ``width``
    bits, so distinct states never share a key.
    """
    n = ps.n
    width = 4 * n.bit_length() + 1
    codes = []
    for f, g in reqs:
        if f == g:
            codes.append(1 + f[0] * n + f[1])
        else:
            codes.append(1 + n * n + f[1] * n + g[0])
    key = 0
    for code in sorted(codes):
        key = key << width | code
    for row in ps.avail:
        key = key << n | row
    return key << 7 | n


def state_key_fresh(ps, reqs: list[tuple]) -> int:
    """The path-system search's memo key of (``ps.avail``, ``reqs`` with
    distinct first arcs), built arc by arc from the rows: one bit per
    available arc, then one bit per (f, f) requirement at f's arc
    position, then a count of the other (f, g) per pair of path ends, in
    a field as wide as ``n`` in bits."""
    n = ps.n
    n2 = n * n
    width = n.bit_length()
    key = 0
    for u, row in enumerate(ps.avail):
        for v in bits(row):
            key |= 1 << u * n + v
    for f, g in reqs:
        if f == g:
            key |= 1 << n2 + f[0] * n + f[1]
        else:
            key += 1 << 2 * n2 + (f[1] * n + g[0]) * width
    return key


def simple_cycle_masks(d: Digraph) -> list[int]:
    """Every simple cycle of ``d`` once, as the mask of its arcs: arc
    (u, v) is bit ``u * n + v``.  Each cycle is walked from its smallest
    vertex."""
    n = d.n
    found = []

    def walk(start: int, v: int, visited: int, mask: int) -> None:
        for w in range(start, n):
            if d.has_arc(v, w):
                arc = 1 << (v * n + w)
                if w == start:
                    found.append(mask | arc)
                elif not visited >> w & 1:
                    walk(start, w, visited | 1 << w, mask | arc)

    for s in range(n):
        walk(s, s, 1 << s, 0)
    return found


def min_fas_masks(d: Digraph) -> list[int]:
    """Distinct minimum feedback arc sets of ``d`` as arc masks, one per
    traceback of ``subset_costs_reference``: the r-th traceback places
    last the first vertex from r on, cyclically, that keeps the cost."""
    n = d.n
    f = subset_costs_reference(d)
    found = set()
    for r in range(n):
        s, mask = (1 << n) - 1, 0
        while s:
            for i in range(n):
                v = (r + i) % n
                rest = s & ~(1 << v)
                back = d.out[v] & rest
                if rest != s and f[rest] + back.bit_count() == f[s]:
                    mask |= sum(1 << (v * n + w) for w in range(n) if back >> w & 1)
                    s = rest
                    break
        found.add(mask)
    return sorted(found)


def nu_set_packing(d: Digraph) -> int:
    """Maximum number of arc-disjoint cycles: an exact set packing of the
    arc masks of every simple cycle.

    Cycles are tried shortest first.  A node branches on the lowest arc
    of the shortest cycle left: one of the cycles through that arc is
    packed, or none is and they are all dropped.  Two bounds prune.
    Every cycle uses an arc of each feedback arc set, so the cycles left
    pack at most as many as a minimum set ``F`` has arcs among theirs;
    at the root that is τ, and the search stops when τ is reached.  And
    they pack at most their arcs over the shortest one's length.
    """
    cycles = sorted(simple_cycle_masks(d), key=lambda c: (c.bit_count(), c))
    fas_sets = min_fas_masks(d)
    tau = fas_sets[0].bit_count()
    best = 0

    def rec(cands: list[int], count: int) -> None:
        nonlocal best
        best = max(best, count)
        if best == tau or not cands:
            return
        arcs = 0
        for c in cands:
            arcs |= c
        bound = min(min((f & arcs).bit_count() for f in fas_sets), arcs.bit_count() // cands[0].bit_count())
        if count + bound <= best:
            return
        low = cands[0] & -cands[0]
        rest = [c for c in cands if not c & low]
        for c in cands:
            if c & low:
                rec([r for r in rest if not r & c], count + 1)
                if best == tau:
                    return
        rec(rest, count)

    rec(cycles, 0)
    return best


def all_labeled_tournaments(n: int) -> Iterator[Digraph]:
    """Every labeled tournament on 0..n-1; 2^C(n,2) of them."""
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    for word in range(1 << len(pairs)):
        rows = [0] * n
        for k, (i, j) in enumerate(pairs):
            if (word >> k) & 1:
                rows[i] |= 1 << j
            else:
                rows[j] |= 1 << i
        yield Digraph(n, rows)


def canonical_brute(t: Digraph) -> tuple[int, int]:
    """Smallest code over all n! relabelings, with how many reach it.

    A relabeling lists the vertex at each position; its code reads the
    pairs grouped by the later position, (0,1), (0,2), (1,2), (0,3), ...,
    most significant first, a 1 meaning the earlier vertex beats the later.
    """
    best, count = None, 0
    for perm in permutations(range(t.n)):
        code = 0
        for j in range(1, t.n):
            for i in range(j):
                code = (code << 1) | t.has_arc(perm[i], perm[j])
        if best is None or code < best:
            best, count = code, 1
        elif code == best:
            count += 1
    return best, count


def scc_brute(d: Digraph) -> set[frozenset[int]]:
    """Strong components as classes of mutual reachability, by transitive
    closure over vertex sets."""
    reach = [{v} | set(bits(d.out[v])) for v in range(d.n)]
    changed = True
    while changed:
        changed = False
        for v in range(d.n):
            grown = set().union(*(reach[w] for w in reach[v]))
            if grown != reach[v]:
                reach[v], changed = grown, True
    return {
        frozenset(w for w in range(d.n) if v in reach[w] and w in reach[v])
        for v in range(d.n)
    }


def second_out_brute(d: Digraph, v: int) -> set[int]:
    first = set(bits(d.out[v]))
    second = set()
    for x in first:
        second.update(bits(d.out[x]))
    return second - first - {v}


def simple_cycles_through(d: Digraph, v0: int) -> list[tuple[int, ...]]:
    """All simple cycles containing v0, as vertex tuples starting at v0."""
    found = []

    def walk(v: int, visited: int, path: list[int]) -> None:
        for w in bits(d.out[v]):
            if w == v0:
                found.append(tuple(path))
            elif not (visited >> w) & 1:
                path.append(w)
                walk(w, visited | (1 << w), path)
                path.pop()

    walk(v0, 1 << v0, [v0])
    return found


def _arc_sets(cycles: list[tuple[int, ...]]) -> list[frozenset[tuple[int, int]]]:
    return [
        frozenset(zip(c, c[1:] + (c[0],)))
        for c in cycles
    ]


def max_disjoint(arc_sets: list[frozenset[tuple[int, int]]]) -> int:
    """Largest pairwise-disjoint subfamily, include/exclude recursion with
    a remaining-count prune."""
    sets = sorted(arc_sets, key=len)
    best = 0

    def rec(i: int, used: frozenset, count: int) -> None:
        nonlocal best
        best = max(best, count)
        if i == len(sets) or count + len(sets) - i <= best:
            return
        if not (sets[i] & used):
            rec(i + 1, used | sets[i], count + 1)
        rec(i + 1, used, count)

    rec(0, frozenset(), 0)
    return best


def cycles_through_brute(d: Digraph, v0: int) -> int:
    """Maximum arc-disjoint cycles all containing v0."""
    return max_disjoint(_arc_sets(simple_cycles_through(d, v0)))


def triangles_through_brute(t: Digraph, v0: int) -> int:
    """Maximum arc-disjoint triangles all containing v0."""
    tris = [c for c in simple_cycles_through(t, v0) if len(c) == 3]
    return max_disjoint(_arc_sets(tris))


def min_fas_sets_brute(d: Digraph) -> set[frozenset[tuple[int, int]]]:
    """All distinct minimum feedback arc sets, via every ordering."""
    arcs = d.arcs()
    by_size: dict[int, set[frozenset[tuple[int, int]]]] = {}
    for perm in permutations(range(d.n)):
        pos = {v: i for i, v in enumerate(perm)}
        back = frozenset((u, v) for u, v in arcs if pos[u] > pos[v])
        by_size.setdefault(len(back), set()).add(back)
    return by_size[min(by_size)]


def hamiltonian_path_exists(d: Digraph) -> bool:
    return any(
        all(d.has_arc(p[i], p[i + 1]) for i in range(d.n - 1))
        for p in permutations(range(d.n))
    )


# Subset-DP feasibility cap for hamiltonian_path: the table has 2**n rows.
HAMILTONIAN_PATH_MAX = 24


def hamiltonian_path(d: Digraph) -> tuple[int, ...] | None:
    """A directed path visiting every vertex exactly once, or ``None``.

    Subset dynamic program: ``ends[S]`` holds the bitmask of vertices that
    can terminate a path covering exactly the set ``S``.  Capped at
    n <= 24 because the table has 2**n rows.  Deterministic traceback
    prefers smaller vertex labels.
    """
    n = d.n
    if n > HAMILTONIAN_PATH_MAX:
        raise ValueError(
            f"hamiltonian_path supports at most {HAMILTONIAN_PATH_MAX} vertices, got {n}"
        )
    if n == 1:
        return (0,)
    inn = d.inn
    size = 1 << n
    ends = array("q", bytes(8 * size))
    for v in range(n):
        ends[1 << v] = 1 << v
    full = size - 1
    for s in range(3, size):
        if s & (s - 1) == 0:
            continue
        e = 0
        t = s
        while t:
            low = t & -t
            t ^= low
            v = low.bit_length() - 1
            if ends[s ^ low] & inn[v]:
                e |= low
        ends[s] = e
    if ends[full] == 0:
        return None
    # Rebuild one path back to front, smallest candidate first.
    s = full
    v = (ends[full] & -ends[full]).bit_length() - 1
    path = [v]
    while s != 1 << v:
        s ^= 1 << v
        cand = ends[s] & inn[v]
        v = (cand & -cand).bit_length() - 1
        path.append(v)
    path.reverse()
    return tuple(path)


def triangle_count_through(t: Digraph, v0: int) -> int:
    return sum(
        1
        for x, y in combinations(range(t.n), 2)
        if v0 not in (x, y)
        and (
            (t.has_arc(v0, x) and t.has_arc(x, y) and t.has_arc(y, v0))
            or (t.has_arc(v0, y) and t.has_arc(y, x) and t.has_arc(x, v0))
        )
    )
