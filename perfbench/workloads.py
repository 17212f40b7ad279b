"""Inputs and answer checks for the benchmark workloads.

Nothing here imports arcpack: every input comes from the benchmark's own
seeded ``random.Random`` (or from the frozen pool in ``frozen.json``), and
every answer is checked by code written independently of the solvers, so
a change to the package can change neither the workload nor the check.

Graphs are lists of out-neighbour bitmasks, one per vertex, as in
arcpack; they reach the program only as edge-list text.
"""

from __future__ import annotations

import itertools
import random
import re
import time

# -- graphs --------------------------------------------------------------


def tournament(rng: random.Random, n: int) -> list[int]:
    """Uniform random tournament: one coin flip per vertex pair."""
    rows = [0] * n
    for j in range(1, n):
        for i in range(j):
            if rng.random() < 0.5:
                rows[i] |= 1 << j
            else:
                rows[j] |= 1 << i
    return rows


def oriented(rng: random.Random, n: int, p: float) -> list[int]:
    """Random oriented graph: each pair carries an arc with probability
    ``p``, in a uniformly random direction."""
    rows = [0] * n
    for j in range(1, n):
        for i in range(j):
            if rng.random() < p:
                if rng.random() < 0.5:
                    rows[i] |= 1 << j
                else:
                    rows[j] |= 1 << i
    return rows


def arcs_of(rows: list[int]) -> list[tuple[int, int]]:
    return [(u, v) for u, row in enumerate(rows) for v in range(len(rows)) if row >> v & 1]


def graph_text(rows: list[int]) -> str:
    """The graph in arcpack's edge-list file format."""
    arcs = arcs_of(rows)
    return f"{len(rows)} {len(arcs)}\n" + "".join(f"{u} {v}\n" for u, v in arcs)


def _reach(rows: list[int], start_mask: int) -> int:
    seen = frontier = start_mask
    while frontier:
        new = 0
        v = 0
        while frontier:
            if frontier & 1:
                new |= rows[v]
            frontier >>= 1
            v += 1
        frontier = new & ~seen
        seen |= frontier
    return seen


def strongly_connected(rows: list[int]) -> bool:
    n = len(rows)
    full = (1 << n) - 1
    rev = [0] * n
    for u, v in arcs_of(rows):
        rev[v] |= 1 << u
    return _reach(rows, 1) == full and _reach(rev, 1) == full


def backward_count(rows: list[int], ordering: list[int]) -> int:
    """Arcs pointing from a later to an earlier vertex of ``ordering``;
    an upper bound on the minimum feedback arc set size."""
    pos = {v: i for i, v in enumerate(ordering)}
    if sorted(pos) != list(range(len(rows))):
        raise ValueError("ordering is not a permutation of the vertices")
    return sum(pos[u] > pos[v] for u, v in arcs_of(rows))


def fas_size(rows: list[int]) -> int:
    """Minimum feedback arc set size of a small graph.

    Builds orderings from the front: placing ``v`` first among the
    vertices of ``S`` makes every arc from the rest of ``S`` into ``v``
    backward.  Used on blocks of at most 7 vertices."""
    n = len(rows)
    inn = [0] * n
    for u, v in arcs_of(rows):
        inn[v] |= 1 << u
    best = [0] * (1 << n)
    for s in range(1, 1 << n):
        best[s] = min(
            best[s & ~(1 << v)] + (inn[v] & s).bit_count()
            for v in range(n)
            if s >> v & 1
        )
    return best[-1]


def simple_cycles(rows: list[int]) -> list[tuple[int, ...]]:
    """Every simple cycle once, starting at its smallest vertex."""
    n = len(rows)
    found = []

    def rec(start: int, path: list[int], visited: int) -> None:
        v = path[-1]
        for w in range(start, n):
            if not rows[v] >> w & 1:
                continue
            if w == start:
                if len(path) >= 2:
                    found.append(tuple(path))
            elif not visited >> w & 1:
                path.append(w)
                rec(start, path, visited | 1 << w)
                path.pop()

    for s in range(n):
        rec(s, [s], 1 << s)
    return found


def packs(rows: list[int], k: int) -> bool:
    """Whether ``k`` pairwise arc-disjoint cycles exist (exhaustive)."""
    n = len(rows)
    masks = []
    for cyc in simple_cycles(rows):
        m = 0
        for i, u in enumerate(cyc):
            m |= 1 << (u * n + cyc[(i + 1) % len(cyc)])
        masks.append(m)
    masks.sort(key=int.bit_count)

    def rec(i: int, used: int, need: int) -> bool:
        if need == 0:
            return True
        for j in range(i, len(masks) - need + 1):
            if masks[j] & used == 0 and rec(j + 1, used | masks[j], need - 1):
                return True
        return False

    return rec(0, 0, k)


def packing_problem(rows: list[int], cycles: list[list[int]]) -> str | None:
    """Why ``cycles`` is not an arc-disjoint cycle packing of the graph."""
    n = len(rows)
    used = set()
    for cyc in cycles:
        if len(cyc) < 2 or len(set(cyc)) != len(cyc):
            return f"not a simple cycle: {cyc}"
        for i, u in enumerate(cyc):
            v = cyc[(i + 1) % len(cyc)]
            if not (0 <= u < n and 0 <= v < n and rows[u] >> v & 1):
                return f"cycle {cyc} uses the non-arc ({u}, {v})"
            if (u, v) in used:
                return f"arc ({u}, {v}) is used twice"
            used.add((u, v))
    return None


# -- reference computation -------------------------------------------------

REFERENCE = tournament(random.Random(0), 12)
# Roughly the reference's time on an idle core of the 2-vCPU Xeon the
# benchmark was sized on, so that scaled times read like seconds there.
REFERENCE_SECONDS = 0.009


def time_reference() -> float:
    """Seconds that one run of a fixed pure-Python computation (the
    feedback-arc DP above, on a fixed 12-vertex tournament) takes now."""
    t0 = time.perf_counter()
    fas_size(REFERENCE)
    return time.perf_counter() - t0


def scaled(seconds: float, ref_before: float, ref_after: float) -> float:
    """``seconds`` in reference seconds, given timings of the reference
    computation just before and after.  Other tenants of a shared machine
    slow every computation on it alike and by up to twofold, so the ratio
    is steady where the raw time is not."""
    return seconds * REFERENCE_SECONDS * 2 / (ref_before + ref_after)


# -- nu-hard: the frozen pool ----------------------------------------------

HARD_ORDER = 14


def hard_candidates(pool_seed: int):
    """Strongly connected 14-vertex tournaments, in generation order.

    ``freeze.py`` screens these once and stores the kept ones in
    ``frozen.json``; runs read the stored rows, never this generator."""
    rng = random.Random(pool_seed)
    while True:
        rows = tournament(rng, HARD_ORDER)
        if strongly_connected(rows):
            yield rows


def hard_pass(rng: random.Random, pool: list[dict]) -> list[dict]:
    """One pass over the frozen pool in a seed-chosen order."""
    order = list(range(len(pool)))
    rng.shuffle(order)
    return [{"id": i, "text": graph_text(pool[i]["rows"])} for i in order]


def check_hard(op: dict, out: dict, pool: list[dict]) -> str | None:
    entry = pool[op["id"]]
    if not out["optimal"]:
        return "budget exhausted (optimal=false)"
    if out["value"] != len(out["cycles"]):
        return "value differs from the number of cycles"
    problem = packing_problem(entry["rows"], out["cycles"])
    if problem:
        return problem
    if backward_count(entry["rows"], entry["ordering"]) != entry["tau"]:
        return "frozen ordering does not certify the frozen tau"
    if out["value"] > entry["tau"]:
        return "nu exceeds tau"
    if out["value"] != entry["nu"]:
        return f"nu={out['value']}, frozen answer {entry['nu']}"
    return None


# -- nu-blocks -------------------------------------------------------------

BLOCK_SIZES = range(4, 8)
BLOCK_ORDERS = (16, 17, 18)


def _compositions(n: int) -> list[tuple[int, ...]]:
    return [
        c
        for k in (3, 4)
        for c in itertools.product(BLOCK_SIZES, repeat=k)
        if sum(c) == n
    ]


def _block(rng: random.Random, size: int) -> tuple[list[int], int]:
    """A random tournament block whose packing number equals its feedback
    number, with that number.

    Only two of the 456 classes of order 7 (and none below) have a gap;
    a block from them is redrawn, so every op stays on the path the
    workload measures: the subset DP and the full path-system decider."""
    while True:
        rows = tournament(rng, size)
        tau = fas_size(rows)
        if packs(rows, tau):
            return rows, tau


def blocks_graph(rng: random.Random, n: int) -> dict:
    """``n`` vertices in 3-4 tournament blocks of 4-7 vertices; arcs
    between blocks (each pair with probability 1/2) only go from an
    earlier block to a later one.  Vertex labels are shuffled."""
    sizes = rng.choice(_compositions(n))
    rows = [0] * n
    block_taus = []
    base = 0
    for size in sizes:
        block, tau = _block(rng, size)
        block_taus.append(tau)
        for u in range(size):
            later = 0
            for v in range(base + size, n):
                if rng.random() < 0.5:
                    later |= 1 << v
            rows[base + u] = block[u] << base | later
        base += size
    perm = list(range(n))
    rng.shuffle(perm)
    relabeled = [0] * n
    for u, v in arcs_of(rows):
        relabeled[perm[u]] |= 1 << perm[v]
    # concatenated optimal block orderings would certify tau = sum(block_taus)
    return {"rows": relabeled, "sizes": list(sizes), "block_taus": block_taus}


def blocks_batch(rng: random.Random, orders=BLOCK_ORDERS) -> list[dict]:
    """One graph of each order, so every batch has the same DP work."""
    ops = []
    for n in orders:
        g = blocks_graph(rng, n)
        ops.append({"text": graph_text(g["rows"]), **g})
    return ops


def check_blocks(op: dict, out: dict) -> str | None:
    if not out["optimal"]:
        return "budget exhausted (optimal=false)"
    if out["value"] != len(out["cycles"]):
        return "value differs from the number of cycles"
    problem = packing_problem(op["rows"], out["cycles"])
    if problem:
        return problem
    # A packing of sum(block_taus) cycles meets the upper bound tau <=
    # sum(block_taus), so nu = tau = the block sums exactly.
    if out["value"] != sum(op["block_taus"]):
        return f"nu={out['value']}, block sums give {sum(op['block_taus'])}"
    return None


# -- through-64 ------------------------------------------------------------

THROUGH_ORDER = 64
SPARSE_P = 0.1


def through_batch(rng: random.Random, n: int = THROUGH_ORDER) -> list[dict]:
    """Every vertex of one tournament and of two sparse oriented graphs.

    Sparse queries are two thirds of the ops, so the median op is a
    sparse query and not the gap between the two latency modes."""
    ops = []
    for rows in (tournament(rng, n), oriented(rng, n, SPARSE_P), oriented(rng, n, SPARSE_P)):
        text = graph_text(rows)
        ops.extend({"text": text, "rows": rows, "vertex": v} for v in range(n))
    return ops


def check_through(op: dict, out: dict) -> str | None:
    rows, v0 = op["rows"], op["vertex"]
    value, cycles, cut = out["value"], out["cycles"], out["cut"]
    if not (value == len(cycles) == len(cut)):
        return f"value {value}, {len(cycles)} cycles, cut of {len(cut)}"
    if any(v0 not in cyc for cyc in cycles):
        return "a witness cycle misses the vertex"
    problem = packing_problem(rows, cycles)
    if problem:
        return problem
    left = list(rows)
    for u, w in cut:
        if not (0 <= u < len(rows) and left[u] >> w & 1):
            return f"cut arc ({u}, {w}) is not an arc"
        left[u] &= ~(1 << w)
    if _reach(left, left[v0]) >> v0 & 1:
        return "a cycle through the vertex survives the cut"
    return None


# -- census ----------------------------------------------------------------

CENSUS_COMMANDS = (
    ("verify-paper",),
    ("enum", "7", "--predicate", "nu_lt_tau"),
)
SMOKE_CENSUS_COMMANDS = (
    ("verify-paper", "--only", "TAU_T7,NU_T7,FLOW_K_T11,FAS_PATH_T"),
    ("enum", "7", "--predicate", "nu_lt_tau"),
)


def census_batch(rng: random.Random, smoke: bool = False) -> list[dict]:
    """Both commands once; the seed picks which runs first."""
    commands = list(SMOKE_CENSUS_COMMANDS if smoke else CENSUS_COMMANDS)
    rng.shuffle(commands)
    return [{"argv": list(c)} for c in commands]


_TIMING = re.compile(r" secs=[0-9.]+$| \([0-9.]+s\)$")


def census_lines(stdout: str) -> list[str]:
    """Command output with its timing fields removed."""
    return [_TIMING.sub("", line) for line in stdout.splitlines()]


def check_census(returncode: int, stdout: str, expected: list[str]) -> str | None:
    if returncode != 0:
        return f"exit code {returncode}"
    lines = census_lines(stdout)
    if not lines:
        return "no output"
    if lines[0].startswith("CLAIM"):
        claims = [line for line in lines if line.startswith("CLAIM ")]
        if any(line.split()[2] != "PASS" for line in claims):
            return "a claim did not pass"
    if lines != expected:
        return "output differs from the frozen answer"
    return None
