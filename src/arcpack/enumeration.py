"""Isomorphism-free tournament enumeration via canonical codes.

A tournament on vertices ``0..n-1`` is encoded by the bits of its
orientation: pairs are scanned grouped by their larger endpoint, so the
bit list is (0,1), (0,2), (1,2), (0,3), ... with bit 1 meaning the
smaller-positioned vertex beats the larger.  The canonical code is the
lexicographically smallest bit string over all vertex relabelings; two
tournaments are isomorphic exactly when their codes agree.

The minimizing search places one vertex per position and keeps the code
prefix as one int.  Placing a vertex at position ``d`` appends its chunk,
the ``d`` bits "the vertex at position i beats it" in position order;
each unplaced vertex carries its next chunk as an int, which grows by one
shift per placement.  A branch survives only while its prefix is at most
``best >> shift``, the same-length prefix of the best code known.  One
look-ahead prunes earlier: while every chunk so far is zero, only the
vertices beating all placed ones can add another zero chunk, so a branch
at depth ``d`` with ``k`` such vertices left is cut when the best code
starts with more than ``d + k`` zero chunks.  Both rules cut only
branches that cannot reach the minimum, so the search still visits every
permutation achieving it; their count is the automorphism group size.

Representatives of order ``n`` are generated by extending each order
``n-1`` representative with every possible orientation pattern toward a
new vertex and deduplicating by code.  The labeled-count identity

    sum over classes of n! / |Aut|  ==  2 ** (n * (n - 1) / 2)

cross-checks that no class was lost or duplicated.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial
from typing import Callable

from .digraph import Digraph, second_out_neighborhood
from .fas import min_feedback_arc_set
from .packing import (
    Budget,
    BudgetExceeded,
    max_cycle_packing,
    max_triangles_through,
)

ENUMERATION_MAX_ORDER = 8


@dataclass(frozen=True, order=True)
class CanonicalCode:
    """Canonical bit string of a tournament, packed into an int."""

    n: int
    value: int

    def bit_length(self) -> int:
        return self.n * (self.n - 1) // 2

    def hex(self) -> str:
        width = max(1, (self.bit_length() + 3) // 4)
        return f"{self.value:0{width}x}"

    def decode(self) -> Digraph:
        """The representative tournament labeled canonically."""
        n = self.n
        rows = [0] * n
        pos = self.bit_length() - 1
        for j in range(1, n):
            for i in range(j):
                if (self.value >> pos) & 1:
                    rows[i] |= 1 << j
                else:
                    rows[j] |= 1 << i
                pos -= 1
        return Digraph(n, rows)


def canonical_form(t: Digraph) -> tuple[CanonicalCode, int]:
    """Canonical code together with the automorphism group size."""
    n = t.n
    if not t.is_tournament():
        raise ValueError("canonical codes are defined for tournaments only")
    if n > ENUMERATION_MAX_ORDER:
        raise ValueError(
            f"canonical search capped at order {ENUMERATION_MAX_ORDER}, got {n}"
        )
    if n == 1:
        return CanonicalCode(1, 0), 1
    out, inn = t.out, t.inn
    total = n * (n - 1) // 2
    last = n - 1

    def zero_run(code: int) -> int:
        # leading chunks of the code that are all zero (chunk 0 is empty)
        lead = total - code.bit_length()
        k = 1
        while k < n and k * (k + 1) // 2 <= lead:
            k += 1
        return k

    # Seed with the identity labeling so pruning works from the start.
    best = 0
    for j in range(1, n):
        for i in range(j):
            best = (best << 1) | ((out[i] >> j) & 1)
    best_run = zero_run(best)
    aut = 0

    def rec(depth: int, prefix: int, rem: list[tuple[int, int]], dom: int) -> None:
        # ``rem`` pairs each unplaced vertex with its next chunk; ``dom`` is
        # the unplaced vertices that beat every placed one, read while
        # ``prefix`` is zero.
        nonlocal best, best_run, aut
        shift = total - depth * (depth + 1) // 2
        base = prefix << depth
        nxt = depth + 1
        for u, chunk in rem:
            p = base | chunk
            if p > best >> shift:
                continue
            if p == 0:
                dom_u = dom & inn[u]
                if nxt + dom_u.bit_count() < best_run:
                    continue  # cannot match the zero run of the best code
            else:
                dom_u = 0
            row = out[u]
            child = [(w, (c << 1) | ((row >> w) & 1)) for w, c in rem if w != u]
            if nxt < last:
                rec(nxt, p, child, dom_u)
                continue
            # one vertex left: its chunk completes the code
            p = (p << nxt) | child[0][1]
            if p == best:
                aut += 1
            elif p < best:
                best, best_run, aut = p, zero_run(p), 1

    # large in-degree first: long zero runs tighten the bound early
    order = sorted(range(n), key=lambda v: -inn[v].bit_count())
    rec(0, 0, [(v, 0) for v in order], (1 << n) - 1)
    # the identity seed was not a search leaf; it never inflates aut
    return CanonicalCode(n, best), aut


# -- class generation -------------------------------------------------


def _extend(parent: Digraph, pattern: int) -> Digraph:
    """Add one vertex; bit i of ``pattern`` set means i beats the new one."""
    k = parent.n
    rows = list(parent.out) + [0]
    for i in range(k):
        if (pattern >> i) & 1:
            rows[i] |= 1 << k
        else:
            rows[k] |= 1 << i
    return Digraph(k + 1, rows)


@lru_cache(maxsize=None)
def _classes(n: int) -> tuple[tuple[int, int], ...]:
    """Sorted (code value, aut size) pairs for all classes of order n."""
    if not 1 <= n <= ENUMERATION_MAX_ORDER:
        raise ValueError(f"order must be in 1..{ENUMERATION_MAX_ORDER}, got {n}")
    if n == 1:
        return ((0, 1),)
    found: dict[int, int] = {}
    for value, _ in _classes(n - 1):
        parent = CanonicalCode(n - 1, value).decode()
        for pattern in range(1 << (n - 1)):
            code, aut = canonical_form(_extend(parent, pattern))
            found[code.value] = aut
    return tuple(sorted(found.items()))


def enumerate_tournaments(n: int) -> tuple[Digraph, ...]:
    """One canonically labeled representative per isomorphism class,
    in ascending code order."""
    return tuple(CanonicalCode(n, v).decode() for v, _ in _classes(n))


def class_codes(n: int) -> tuple[CanonicalCode, ...]:
    return tuple(CanonicalCode(n, v) for v, _ in _classes(n))


def labeled_count_identity_holds(n: int) -> bool:
    """Check sum(n!/|Aut|) over classes against the labeled total 2^C(n,2)."""
    fact = factorial(n)
    total = 0
    for _, aut in _classes(n):
        if fact % aut:
            raise RuntimeError(f"|Aut| = {aut} does not divide {n}! at order {n}")
        total += fact // aut
    return total == 1 << (n * (n - 1) // 2)


# -- sweeps over all classes ------------------------------------------


@dataclass(frozen=True)
class SweepReport:
    """Result of comparing packing number and feedback size on every
    class up to an order."""

    class_counts: tuple[int, ...]  # per order 1..n
    identity_ok: bool
    violations: tuple[CanonicalCode, ...]  # classes with nu != tau

    @property
    def ok(self) -> bool:
        return self.identity_ok and not self.violations


def verify_nu_eq_tau_upto(n: int, budget: Budget | None = None) -> SweepReport:
    """Check packing number equals minimum feedback size on every
    tournament class of order at most ``n`` (capped at 6, where the
    equality is known to hold throughout)."""
    if not 1 <= n <= 6:
        raise ValueError(f"sweep capped at order 6, got {n}")
    counts = []
    violations = []
    identity_ok = True
    for k in range(1, n + 1):
        counts.append(len(_classes(k)))
        identity_ok = identity_ok and labeled_count_identity_holds(k)
        for t in enumerate_tournaments(k):
            tau = min_feedback_arc_set(t).tau
            rep = max_cycle_packing(t, budget)
            if not rep.optimal or rep.value != tau:
                violations.append(canonical_form(t)[0])
    return SweepReport(
        class_counts=tuple(counts),
        identity_ok=identity_ok,
        violations=tuple(violations),
    )


def nu_lt_tau(t: Digraph) -> bool:
    """Strict gap between packing number and minimum feedback size."""
    tau = min_feedback_arc_set(t).tau
    rep = max_cycle_packing(t)
    if not rep.optimal:
        raise BudgetExceeded(rep.stop_reason, "budget exhausted before the packing was settled")
    return rep.value < tau


def mindeg_triangles_fail(t: Digraph) -> bool:
    """No minimum-out-degree vertex reaches min-out-degree many
    arc-disjoint triangles."""
    k = t.min_out_degree()
    return not any(
        t.out_degree(v) == k and max_triangles_through(t, v)[0] >= k
        for v in range(t.n)
    )


def second_neighborhood_fail(d: Digraph) -> bool:
    """No vertex has a second out-neighborhood at least as large as its
    first (tournaments are expected to always have one)."""
    return not any(
        len(second_out_neighborhood(d, v)) >= d.out_degree(v) for v in range(d.n)
    )


PREDICATES: dict[str, Callable[[Digraph], bool]] = {
    "nu_lt_tau": nu_lt_tau,
    "mindeg_triangles_fail": mindeg_triangles_fail,
    "second_neighborhood_fail": second_neighborhood_fail,
}
