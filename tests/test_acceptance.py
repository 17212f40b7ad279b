"""End-to-end acceptance checks.

Each test is one numbered criterion with its own wall-clock limit; run with
``pytest -v tests/test_acceptance.py`` to get one pass/fail line per
criterion (an ``ACCEPT`` line with the measured time is also printed).
"""

import random
import time
from contextlib import contextmanager

from oracles import (
    cycles_through_brute,
    random_digraph,
    tau_perm,
    triangles_through_brute,
)

from arcpack.claims import verify_paper
from arcpack.digraph import is_eulerian
from arcpack.enumeration import (
    canonical_code,
    enumerate_tournaments,
    labeled_count_identity_holds,
    nu_lt_tau,
    verify_nu_eq_tau_upto,
)
from arcpack.fas import (
    min_fas_induces_path,
    min_fas_path,
    min_feedback_arc_set,
)
from arcpack.flow import max_cycles_through, min_arc_cover_through
from arcpack.instances import (
    label_of,
    paper_T_backward_arcs,
    random_oriented,
    triangle_family_T,
    vertex_of,
)
from arcpack.packing import (
    cycle_arcs,
    is_valid_packing,
    max_cycle_packing,
    max_triangles_through,
    packing_bruteforce,
)


@contextmanager
def criterion(name, limit_secs):
    start = time.perf_counter()
    failed = True
    try:
        yield
        elapsed = time.perf_counter() - start
        assert elapsed < limit_secs, (
            f"{name} took {elapsed:.1f}s, limit {limit_secs}s"
        )
        failed = False
    finally:
        elapsed = time.perf_counter() - start
        verdict = "FAIL" if failed else "PASS"
        print(f"ACCEPT {name} {verdict} secs={elapsed:.1f}")


def test_criterion_01_fas_and_packing_on_T(paper_T):
    with criterion("criterion-1", 1800):
        t0 = time.perf_counter()
        fas = min_feedback_arc_set(paper_T)
        assert time.perf_counter() - t0 < 1.0
        assert fas.tau == 12
        assert len(fas.arcs) == 12

        rep = max_cycle_packing(paper_T)
        assert rep.value == 11
        assert rep.optimal
        assert is_valid_packing(paper_T, rep.cycles)
        assert len(rep.cycles) == 11


def test_criterion_02_min_fas_induces_path_on_T(paper_T):
    with criterion("criterion-2", 1.0):
        arcs = paper_T_backward_arcs()
        assert min_fas_induces_path(paper_T, arcs)
        path = min_fas_path(paper_T, arcs)
        assert path is not None
        assert "".join(label_of(v) for v in path) == "mkigeca"


def test_criterion_03_seven_vertex_gap_instance(paper_T7):
    with criterion("criterion-3", 10.0):
        assert min_feedback_arc_set(paper_T7).tau == 5
        rep = max_cycle_packing(paper_T7)
        assert rep.value == 4
        assert rep.optimal
        assert is_valid_packing(paper_T7, rep.cycles)


def test_criterion_04_augmented_instance(paper_Tprime):
    with criterion("criterion-4", 1800):
        assert min_feedback_arc_set(paper_Tprime).tau == 15
        rep = max_cycle_packing(paper_Tprime)
        assert rep.value == 14
        assert rep.optimal
        assert is_valid_packing(paper_Tprime, rep.cycles)


def test_criterion_05_exhaustive_sweep_to_order_6():
    with criterion("criterion-5", 600):
        rep = verify_nu_eq_tau_upto(6)
        assert rep.class_counts == (1, 1, 2, 4, 12, 56)
        assert rep.identity_ok
        assert rep.violations == ()
        assert rep.ok


def test_criterion_06_regular_instance_vertex_k(paper_T11):
    with criterion("criterion-6", 10.0):
        assert is_eulerian(paper_T11)
        assert all(m.bit_count() == 5 for m in paper_T11.out)
        k = vertex_of(paper_T11, "k")

        count, triangles = max_triangles_through(paper_T11, k)
        assert count == 4
        assert count < 5
        assert len(triangles) == 4
        assert is_valid_packing(paper_T11, triangles)
        assert triangles_through_brute(paper_T11, k) == 4
        assert all(
            max_triangles_through(paper_T11, v)[0] == 5
            for v in range(11)
            if v != k
        )

        value, cycles = max_cycles_through(paper_T11, k)
        assert value == 5
        assert len(cycles) == 5


def test_criterion_07_eleven_triangle_family(paper_T):
    with criterion("criterion-7", 1.0):
        family = triangle_family_T()
        assert len(family) == 11
        assert is_valid_packing(paper_T, family)
        used = set()
        for tri in family:
            used.update(cycle_arcs(tri))
        missing = {a for a in paper_T_backward_arcs() if a not in used}
        m, e = vertex_of(paper_T, "m"), vertex_of(paper_T, "e")
        assert missing == {(m, e)}


def test_criterion_08_randomized_suites():
    with criterion("criterion-8", 900):
        claimed = verify_paper(
            claim_ids=[
                "UNIV_CYCLES_RANDOM",
                "MINDEG_TAU_RANDOM",
                "MINDEG_TRI_RANDOM",
                "SECOND_NBHD_LE8",
            ]
        )
        assert [r.status for r in claimed] == ["PASS"] * 4

        # packing vs. exhaustive set packing
        rng = random.Random(505)
        for _ in range(300):
            n = rng.randrange(3, 7)
            d = random_oriented(n, 0.5, rng.getrandbits(32))
            rep = max_cycle_packing(d)
            assert rep.optimal
            assert is_valid_packing(d, rep.cycles)
            assert rep.value == packing_bruteforce(d)

        # feedback arc set vs. all-orderings minimum, two-cycles allowed
        rng = random.Random(606)
        for _ in range(300):
            n = rng.randrange(1, 8)
            d = random_digraph(n, rng.uniform(0.1, 0.9), rng.getrandbits(32))
            assert min_feedback_arc_set(d).tau == tau_perm(d)

        # cycles through a fixed vertex vs. exhaustive enumeration
        rng = random.Random(707)
        for _ in range(200):
            n = rng.randrange(2, 7)
            d = random_digraph(n, rng.uniform(0.2, 0.7), rng.getrandbits(32))
            v0 = rng.randrange(n)
            value, cycles = max_cycles_through(d, v0)
            assert value == cycles_through_brute(d, v0)
            assert len(cycles) == value
            assert is_valid_packing(d, cycles)
            assert all(v0 in c for c in cycles)
            assert len(min_arc_cover_through(d, v0)) == value


def test_criterion_09_enumeration_identity_and_gap_search(paper_T7):
    with criterion("criterion-9", 600):
        for n in range(1, 8):
            assert labeled_count_identity_holds(n)
        hits = [canonical_code(t) for t in enumerate_tournaments(7) if nu_lt_tau(t)]
        assert len(hits) >= 1
        assert canonical_code(paper_T7) in hits
