"""One-shot verification suite for the reference-instance claims.

Each claim recomputes a published or derived quantity from scratch and
compares it against the frozen expectation.  Results print one line per
claim::

    CLAIM <id> <PASS|FAIL> observed=<v> expected=<v> secs=<t>

The value strings never contain spaces, so the lines split cleanly and
parse back into :class:`ClaimResult` objects.  Apart from the timing
field the output is byte-stable across runs.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .digraph import Digraph, has_second_neighborhood_witness, is_eulerian
from .enumeration import enumerate_tournaments, verify_nu_eq_tau_upto
from .fas import (
    feedback_arc_set_size,
    min_fas_path,
    mindeg_lower_bound,
)
from .flow import max_cycles_through, universal_vertex_params
from .instances import (
    builtin,
    label_of,
    paper_T_backward_arcs,
    random_oriented,
    random_tournament,
    triangle_family_T,
    vertex_of,
)
from .packing import (
    Budget,
    count_triangles_through,
    cycle_arcs,
    is_valid_packing,
    max_cycle_packing,
    max_triangles_through,
    packing_bruteforce,
)

_STATUSES = ("PASS", "FAIL")


@dataclass(frozen=True)
class ClaimResult:
    claim_id: str
    status: str  # PASS / FAIL
    observed: str
    expected: str
    elapsed: float

    def __post_init__(self) -> None:
        if self.status not in _STATUSES:
            raise ValueError(f"bad status {self.status!r}")
        for field in (self.claim_id, self.observed, self.expected):
            if not field or any(c.isspace() for c in field):
                raise ValueError(f"claim field must be space-free: {field!r}")

    @property
    def passed(self) -> bool:
        return self.status == "PASS"


def format_claim(r: ClaimResult) -> str:
    return (
        f"CLAIM {r.claim_id} {r.status} "
        f"observed={r.observed} expected={r.expected} secs={r.elapsed:.3f}"
    )


def parse_claim(line: str) -> ClaimResult:
    parts = line.split()
    if len(parts) != 6 or parts[0] != "CLAIM":
        raise ValueError(f"not a claim line: {line!r}")
    fields = {}
    for part in parts[3:]:
        key, _, value = part.partition("=")
        fields[key] = value
    if set(fields) != {"observed", "expected", "secs"}:
        raise ValueError(f"not a claim line: {line!r}")
    return ClaimResult(
        claim_id=parts[1],
        status=parts[2],
        observed=fields["observed"],
        expected=fields["expected"],
        elapsed=float(fields["secs"]),
    )


# -- property checks on random instances ------------------------------
# Shared with ``arcpack random-check``; each returns (checked, violations).


def universal_vertex_cycle_counts(graphs: Iterable[Digraph]) -> tuple[int, int]:
    """Vertices meeting the universal-vertex hypothesis, and those that do
    not lie on out-degree many arc-disjoint cycles."""
    checked = violations = 0
    for g in graphs:
        for v in range(g.n):
            params = universal_vertex_params(g, v)
            if params is not None and params.guarantee_applies():
                checked += 1
                violations += max_cycles_through(g, v)[0] < params.out_degree
    return checked, violations


def mindeg_tau_bound_counts(graphs: Sequence[Digraph]) -> tuple[int, int]:
    """Graphs, and those whose minimum FAS is below the min-degree bound."""
    bad = sum(feedback_arc_set_size(g) < mindeg_lower_bound(g) for g in graphs)
    return len(graphs), bad


def mindeg_triangle_counts(graphs: Iterable[Digraph]) -> tuple[int, int]:
    """Min-out-degree vertices, and those on fewer than min-out-degree many
    triangles (counted, not packed)."""
    checked = violations = 0
    for t in graphs:
        k = t.min_out_degree()
        low = [v for v in range(t.n) if t.out_degree(v) == k]
        checked += len(low)
        violations += sum(count_triangles_through(t, v) < k for v in low)
    return checked, violations


def second_neighborhood_counts(graphs: Sequence[Digraph]) -> tuple[int, int]:
    """Graphs, and those where no vertex has a second out-neighborhood at
    least as large as its first."""
    return len(graphs), sum(not has_second_neighborhood_witness(g) for g in graphs)


def packing_bruteforce_counts(graphs: Sequence[Digraph], budget: Budget) -> tuple[int, int]:
    """Graphs, and those whose packing is not settled within ``budget`` or
    differs from the exhaustive count (at most 7 vertices each)."""
    bad = 0
    for g in graphs:
        rep = max_cycle_packing(g, budget)
        bad += not rep.optimal or rep.value != packing_bruteforce(g)
    return len(graphs), bad


# -- individual claims ------------------------------------------------
#
# Each runner returns (passed, observed, expected); the caller adds
# status and timing.  Value strings must stay space-free.

_Runner = Callable[[Budget], tuple[bool, str, str]]


def _tau_claim(name: str, expected: int) -> _Runner:
    def run(budget: Budget) -> tuple[bool, str, str]:
        tau = feedback_arc_set_size(builtin(name))
        return tau == expected, str(tau), str(expected)

    return run


def _nu_claim(name: str, expected: int) -> _Runner:
    def run(budget: Budget) -> tuple[bool, str, str]:
        rep = max_cycle_packing(builtin(name), budget)
        if not rep.optimal:
            return False, f"atleast:{rep.value};budget-exhausted", str(expected)
        return rep.value == expected, str(rep.value), str(expected)

    return run


def _sweep_le6(budget: Budget) -> tuple[bool, str, str]:
    rep = verify_nu_eq_tau_upto(6, budget)
    counts = ",".join(str(c) for c in rep.class_counts)
    observed = (
        f"counts:{counts};identity:{'ok' if rep.identity_ok else 'bad'};"
        f"violations:{len(rep.violations)}"
    )
    return rep.ok, observed, "identity:ok;violations:0"


def _euler_t11(budget: Budget) -> tuple[bool, str, str]:
    t = builtin("paper-T11")
    outs = {t.out_degree(v) for v in range(t.n)}
    eul = is_eulerian(t)
    observed = f"eulerian:{str(eul).lower()};outdeg:{','.join(map(str, sorted(outs)))}"
    return eul and outs == {5}, observed, "eulerian:true;outdeg:5"


def _tri_k_t11(budget: Budget) -> tuple[bool, str, str]:
    t = builtin("paper-T11")
    k = vertex_of(t, "k")
    value, _ = max_triangles_through(t, k)
    return value == 4, str(value), "4"


def _flow_k_t11(budget: Budget) -> tuple[bool, str, str]:
    t = builtin("paper-T11")
    k = vertex_of(t, "k")
    value, cycles = max_cycles_through(t, k)
    ok = value == 5 and len(cycles) == 5
    return ok, str(value), "5"


def _draw(rng: random.Random, count: int, hi: int, make: Callable) -> list[Digraph]:
    """``count`` graphs ``make(n, seed)`` of random order ``3 <= n < hi``."""
    return [make(rng.randrange(3, hi), rng.randrange(1 << 32)) for _ in range(count)]


def _oriented(n: int, seed: int) -> Digraph:
    return random_oriented(n, 0.5, seed)


def _counted(checked: int, violations: int) -> tuple[bool, str, str]:
    return violations == 0, f"checked:{checked};violations:{violations}", "violations:0"


def _univ_cycles_random(budget: Budget) -> tuple[bool, str, str]:
    rng = random.Random(101)
    graphs = _draw(rng, 500, 13, random_tournament) + _draw(rng, 500, 13, _oriented)
    return _counted(*universal_vertex_cycle_counts(graphs))


def _mindeg_tau_random(budget: Budget) -> tuple[bool, str, str]:
    graphs = _draw(random.Random(202), 300, 11, _oriented)
    return _counted(*mindeg_tau_bound_counts(graphs))


def _mindeg_tri_random(budget: Budget) -> tuple[bool, str, str]:
    # checked counts graphs here; random-check counts min-degree vertices
    graphs = _draw(random.Random(303), 300, 13, random_tournament)
    return _counted(len(graphs), mindeg_triangle_counts(graphs)[1])


def _second_nbhd_le8(budget: Budget) -> tuple[bool, str, str]:
    # some vertex with |N++| >= |N+| in every tournament: all classes of
    # order <= 7, then 500 random order-8 instances
    rng = random.Random(404)
    graphs = [t for n in range(1, 8) for t in enumerate_tournaments(n)]
    graphs += [random_tournament(8, rng.randrange(1 << 32)) for _ in range(500)]
    return _counted(*second_neighborhood_counts(graphs))


def _pack11_t(budget: Budget) -> tuple[bool, str, str]:
    t = builtin("paper-T")
    cycles = triangle_family_T()
    valid = is_valid_packing(t, cycles)
    used = {arc for c in cycles for arc in cycle_arcs(c)}
    # which of the 12 ordering-backward arcs the family leaves uncovered
    missing = sorted(
        label_of(u) + label_of(v)
        for u, v in paper_T_backward_arcs()
        if (u, v) not in used
    )
    observed = (
        f"cycles:{len(cycles)};valid:{str(valid).lower()};"
        f"missing:{','.join(missing) if missing else 'none'}"
    )
    ok = valid and len(cycles) == 11 and missing == ["me"]
    return ok, observed, "cycles:11;valid:true;missing:me"


def _fas_path_t(budget: Budget) -> tuple[bool, str, str]:
    t = builtin("paper-T")
    arcs = paper_T_backward_arcs()
    path = min_fas_path(t, arcs)
    ok = path is not None
    word = "".join(label_of(v) for v in path) if path else "none"
    observed = f"{'ok' if ok else 'bad'};path:{word}"
    return ok and word == "mkigeca", observed, "ok;path:mkigeca"


_RUNNERS: dict[str, _Runner] = {
    "TAU_T": _tau_claim("paper-T", 12),
    "NU_T": _nu_claim("paper-T", 11),
    "TAU_T7": _tau_claim("paper-T7", 5),
    "NU_T7": _nu_claim("paper-T7", 4),
    "TAU_TP": _tau_claim("paper-Tprime", 15),
    "NU_TP": _nu_claim("paper-Tprime", 14),
    "NU_EQ_TAU_LE6": _sweep_le6,
    "EULER_T11": _euler_t11,
    "TRI_K_T11": _tri_k_t11,
    "FLOW_K_T11": _flow_k_t11,
    "UNIV_CYCLES_RANDOM": _univ_cycles_random,
    "MINDEG_TAU_RANDOM": _mindeg_tau_random,
    "MINDEG_TRI_RANDOM": _mindeg_tri_random,
    "SECOND_NBHD_LE8": _second_nbhd_le8,
    "PACK11_T": _pack11_t,
    "FAS_PATH_T": _fas_path_t,
}

CLAIM_IDS: tuple[str, ...] = tuple(_RUNNERS)


def verify_paper(claim_ids: Sequence[str] | None = None) -> list[ClaimResult]:
    """Run the claim suite (or a subset) in fixed order, under a budget
    read from the environment (``Budget.from_env``) before the first
    claim."""
    if claim_ids is None:
        selected = CLAIM_IDS
    else:
        unknown = [c for c in claim_ids if c not in _RUNNERS]
        if unknown:
            raise ValueError(f"unknown claim ids: {', '.join(unknown)}")
        selected = tuple(c for c in CLAIM_IDS if c in set(claim_ids))
        if not selected:
            raise ValueError("no claim ids selected")
    budget = Budget.from_env()
    results = []
    for cid in selected:
        start = time.perf_counter()
        passed, observed, expected = _RUNNERS[cid](budget)
        elapsed = time.perf_counter() - start
        results.append(
            ClaimResult(
                claim_id=cid,
                status="PASS" if passed else "FAIL",
                observed=observed,
                expected=expected,
                elapsed=elapsed,
            )
        )
    return results


def format_report(results: Iterable[ClaimResult]) -> str:
    results = list(results)
    lines = [format_claim(r) for r in results]
    n_pass = sum(r.status == "PASS" for r in results)
    n_fail = sum(r.status == "FAIL" for r in results)
    total = sum(r.elapsed for r in results)
    summary = f"{len(results)} claims: {n_pass} passed, {n_fail} failed ({total:.1f}s)"
    return "\n".join(lines + [summary])
