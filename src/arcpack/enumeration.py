"""Isomorphism-free tournament enumeration via canonical codes.

A tournament on vertices ``0..n-1`` is encoded by the bits of its
orientation: pairs are scanned grouped by their larger endpoint, so the
bit list is (0,1), (0,2), (1,2), (0,3), ... with bit 1 meaning the
smaller-positioned vertex beats the larger.  The canonical code is the
lexicographically smallest bit string over all vertex relabelings; two
tournaments are isomorphic exactly when their codes agree.

The minimizing search places one vertex per position and compares the
growing bit prefix against the best known code, pruning any branch that
can no longer reach the minimum.  The same search counts how many
permutations achieve the minimum, which is the automorphism group size.

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

from .digraph import Digraph, has_second_neighborhood_witness
from .fas import min_feedback_arc_set
from .packing import (
    Budget,
    BudgetExceeded,
    max_cycle_packing,
    mindeg_triangle_packing_holds,
)

ENUMERATION_MAX_ORDER = 7


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


def _require_tournament(t: Digraph) -> None:
    if not t.is_tournament():
        raise ValueError("canonical codes are defined for tournaments only")
    if t.n > ENUMERATION_MAX_ORDER:
        raise ValueError(
            f"canonical search capped at order {ENUMERATION_MAX_ORDER}, got {t.n}"
        )


def canonical_form(t: Digraph) -> tuple[CanonicalCode, int]:
    """Canonical code together with the automorphism group size."""
    _require_tournament(t)
    n = t.n
    if n == 1:
        return CanonicalCode(1, 0), 1

    # Seed with the identity labeling so pruning works from the start.
    best: list[int] = []
    for j in range(1, n):
        for i in range(j):
            best.append(1 if t.has_arc(i, j) else 0)
    aut = 0
    cur: list[int] = []
    chosen: list[int] = []
    used = [False] * n

    def rec() -> None:
        nonlocal aut, best
        depth = len(chosen)
        if depth == n:
            if cur == best:
                aut += 1
            else:  # pruning guarantees cur <= best here
                best = cur.copy()
                aut = 1
            return
        for v in range(n):
            if used[v]:
                continue
            base = len(cur)
            for i in range(depth):
                cur.append(1 if t.has_arc(chosen[i], v) else 0)
            # compare the whole prefix against the current best
            if cur <= best[: len(cur)]:
                used[v] = True
                chosen.append(v)
                rec()
                chosen.pop()
                used[v] = False
            del cur[base:]

    rec()
    value = 0
    for b in best:
        value = (value << 1) | b
    # the identity seed was not a search leaf; it never inflates aut
    return CanonicalCode(n, value), aut


def canonical_code(t: Digraph) -> CanonicalCode:
    return canonical_form(t)[0]


def aut_group_size(t: Digraph) -> int:
    """Number of vertex permutations mapping the tournament to itself."""
    return canonical_form(t)[1]


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


def class_count(n: int) -> int:
    """Number of tournaments of order n up to isomorphism."""
    return len(_classes(n))


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
        assert fact % aut == 0
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
        counts.append(class_count(k))
        identity_ok = identity_ok and labeled_count_identity_holds(k)
        for t in enumerate_tournaments(k):
            tau = min_feedback_arc_set(t).tau
            rep = max_cycle_packing(t, budget)
            if not rep.optimal or rep.value != tau:
                violations.append(canonical_code(t))
    return SweepReport(
        class_counts=tuple(counts),
        identity_ok=identity_ok,
        violations=tuple(violations),
    )


def nu_lt_tau(t: Digraph, budget: Budget | None = None) -> bool:
    """Strict gap between packing number and minimum feedback size."""
    tau = min_feedback_arc_set(t).tau
    rep = max_cycle_packing(t, budget)
    if not rep.optimal:
        raise BudgetExceeded(rep.stop_reason, "budget exhausted before the packing was settled")
    return rep.value < tau


def mindeg_triangles_fail(t: Digraph) -> bool:
    """No minimum-out-degree vertex reaches min-out-degree many
    arc-disjoint triangles."""
    return not mindeg_triangle_packing_holds(t)


def second_neighborhood_fail(d: Digraph) -> bool:
    """No vertex has a second out-neighborhood at least as large as its
    first (tournaments are expected to always have one)."""
    return not has_second_neighborhood_witness(d)


PREDICATES: dict[str, Callable[[Digraph], bool]] = {
    "nu_lt_tau": nu_lt_tau,
    "mindeg_triangles_fail": mindeg_triangles_fail,
    "second_neighborhood_fail": second_neighborhood_fail,
}


def search_counterexamples(
    n: int, predicate: str | Callable[[Digraph], bool]
) -> tuple[CanonicalCode, ...]:
    """Codes of all order-``n`` classes satisfying the predicate."""
    fn = PREDICATES[predicate] if isinstance(predicate, str) else predicate
    return tuple(
        canonical_code(t) for t in enumerate_tournaments(n) if fn(t)
    )
