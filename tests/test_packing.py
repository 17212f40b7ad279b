import json
import random
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from arcpack import packing
from arcpack.digraph import Digraph, topological_order
from arcpack.enumeration import mindeg_triangles_fail
from arcpack.fas import min_feedback_arc_set
from arcpack.instances import (
    builtin,
    random_oriented,
    random_tournament,
    transitive_tournament,
    vertex_of,
)
from arcpack.packing import (
    Budget,
    BudgetExceeded,
    PackingReport,
    _decide,
    _PathSystem,
    _search,
    _solve_requirements,
    _stitch,
    _Tracker,
    count_triangles_through,
    cycle_arcs,
    greedy_short_cycles,
    max_cycle_packing,
    max_triangles_through,
    normalize_cycle,
    packing_bruteforce,
    packing_violation,
)
from oracles import (
    golden_graph,
    nu_set_packing,
    path_counts_reference,
    random_digraph,
    relabel,
    state_key_fresh,
    state_key_reference,
    triangle_count_through,
    triangles_through_brute,
)


class TestCycleUtilities:
    def test_cycle_arcs_wraps(self):
        assert cycle_arcs((3, 1, 2)) == [(3, 1), (1, 2), (2, 3)]

    def test_normalize_rotates(self):
        assert normalize_cycle((3, 1, 2)) == (1, 2, 3)
        assert normalize_cycle((0, 5, 2)) == (0, 5, 2)

    @pytest.mark.parametrize(
        "cycles,fragment",
        [
            ([(0,)], "fewer than 2"),
            ([(0, 1, 0, 2)], "repeats a vertex"),
            ([(0, 9, 1)], "vertex range"),
            ([(0, 2, 1)], "missing arc"),
            ([(0, 1, 2), (0, 1, 2)], "reuses arc"),
        ],
    )
    def test_violations(self, cycles, fragment):
        d = Digraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)])
        assert fragment in packing_violation(d, cycles)

    def test_valid_packing(self):
        d = Digraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)])
        assert packing_violation(d, [(0, 1, 2)]) is None
        assert packing_violation(d, [(0, 1, 2)]) is None

    def test_two_cycle_needs_digon(self):
        d = Digraph.from_arcs(2, [(0, 1), (1, 0)])
        assert packing_violation(d, [(0, 1)]) is None
        oriented = Digraph.from_arcs(2, [(0, 1)])
        assert packing_violation(oriented, [(0, 1)]) is not None


class TestKnownValues:
    @pytest.mark.parametrize(
        "name,nu",
        [
            ("paper-T", 11),
            ("paper-Tprime", 14),
            ("paper-T7", 4),
            ("paper-T11", 17),
            ("transitive-12", 0),
        ],
    )
    def test_builtins(self, name, nu):
        d = builtin(name)
        rep = max_cycle_packing(d)
        assert rep.optimal
        assert rep.value == nu
        assert len(rep.cycles) == nu
        assert packing_violation(d, rep.cycles) is None

    def test_report_bookkeeping(self, paper_T):
        rep = max_cycle_packing(paper_T)
        assert isinstance(rep, PackingReport)
        assert rep.nodes_explored >= 0
        assert rep.elapsed >= 0.0
        assert rep.cycles == tuple(sorted(rep.cycles))

    def test_deterministic_certificate(self, paper_T7):
        assert max_cycle_packing(paper_T7).cycles == max_cycle_packing(paper_T7).cycles


class TestOracleEquivalence:
    def test_oriented(self):
        rng = random.Random(21)
        for _ in range(120):
            g = random_oriented(
                rng.randrange(2, 7), rng.uniform(0.3, 0.9), rng.randrange(1 << 32)
            )
            rep = max_cycle_packing(g)
            assert rep.optimal
            assert rep.value == packing_bruteforce(g)
            assert packing_violation(g, rep.cycles) is None

    def test_tournaments(self):
        rng = random.Random(22)
        for _ in range(120):
            t = random_tournament(rng.randrange(2, 7), rng.randrange(1 << 32))
            rep = max_cycle_packing(t)
            assert rep.optimal
            assert rep.value == packing_bruteforce(t) == nu_set_packing(t)

    def test_digraphs_with_two_cycles(self):
        rng = random.Random(23)
        for _ in range(120):
            d = random_digraph(
                rng.randrange(2, 7), rng.uniform(0.3, 0.8), rng.randrange(1 << 32)
            )
            rep = max_cycle_packing(d)
            assert rep.optimal
            assert rep.value == packing_bruteforce(d) == nu_set_packing(d)

    def test_set_packing_oracle_tournaments_8_and_9(self):
        rng = random.Random(24)
        sample = [
            random_tournament(n, rng.randrange(1 << 32))
            for n, count in ((8, 40), (9, 60))
            for _ in range(count)
        ]
        # random tournaments with nu = tau - 1 are about 2 in 100, so the
        # first such seeds below 400 are checked as well
        gaps = [random_tournament(8, s) for s in (142, 321, 339, 382)]
        gaps += [random_tournament(9, s) for s in (13, 19, 24, 27, 31, 63)]
        for t in sample + gaps:
            rep = max_cycle_packing(t)
            assert rep.optimal
            assert rep.value == nu_set_packing(t)
        for t in gaps:
            assert nu_set_packing(t) == min_feedback_arc_set(t).tau - 1

    def test_set_packing_oracle_two_cycles_8_and_9(self):
        rng = random.Random(25)
        for n in (8, 9):
            for _ in range(30):
                d = random_digraph(n, rng.uniform(0.3, 0.8), rng.randrange(1 << 32))
                rep = max_cycle_packing(d)
                assert rep.optimal
                assert rep.value == nu_set_packing(d)

    def test_bruteforce_cap(self):
        with pytest.raises(ValueError, match="capped at 7"):
            packing_bruteforce(Digraph(8, [0] * 8))


def _ten_triangles():
    """Ten disjoint triangles on 30 vertices, over the DP cap."""
    arcs = []
    for i in range(10):
        a, b, c = 3 * i, 3 * i + 1, 3 * i + 2
        arcs += [(a, b), (b, c), (c, a)]
    return Digraph.from_arcs(30, arcs)


def _long_cycle():
    """One cycle through all of 30 vertices."""
    return Digraph.from_arcs(30, [(v, (v + 1) % 30) for v in range(30)])


class TestEdgesOfThePipeline:
    def test_acyclic_graph(self):
        d = Digraph.from_arcs(4, [(0, 1), (1, 2), (0, 3)])
        rep = max_cycle_packing(d)
        assert (rep.value, rep.cycles, rep.optimal) == (0, (), True)

    def test_single_cycle(self):
        d = Digraph.from_arcs(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        rep = max_cycle_packing(d)
        assert rep.value == 1 and rep.optimal

    def test_beyond_dp_cap_disjoint_triangles(self):
        # 30 vertices is over the DP cap: the degree ordering's feedback
        # arc set, one arc per triangle, is the ceiling the greedy meets
        rep = max_cycle_packing(_ten_triangles())
        assert rep.value == 10 and rep.optimal

    def test_beyond_dp_cap_single_cycle(self):
        # the feedback arc set is one arc, and slack 0 finds the cycle
        rep = max_cycle_packing(_long_cycle())
        assert (rep.value, rep.cycles, rep.optimal) == (1, (tuple(range(30)),), True)

    @pytest.mark.parametrize("make", [_ten_triangles, _long_cycle])
    def test_beyond_dp_cap_relabeled(self, make):
        # Relabeled, the degree ordering puts two backward arcs on some
        # cycles; the set is made minimal, so its size stays the answer
        # and no slack above 0 is searched.
        d = make()
        rng = random.Random(3)
        for _ in range(5):
            g = relabel(d, rng.sample(range(d.n), d.n))
            rep = max_cycle_packing(g, Budget(max_secs=10))
            assert (rep.value, rep.optimal) == (max_cycle_packing(d).value, True)
            assert packing_violation(g, rep.cycles) is None

    def test_beyond_dp_cap_acyclic(self):
        rep = max_cycle_packing(transitive_tournament(30))
        assert (rep.value, rep.cycles, rep.optimal) == (0, (), True)

    def test_beyond_dp_cap_time_budget(self):
        t = random_tournament(26, 1)
        start = time.perf_counter()
        rep = max_cycle_packing(t, Budget(max_secs=0.5))
        assert time.perf_counter() - start < 3.0
        assert (rep.optimal, rep.stop_reason) == (False, "time budget")
        assert rep.value >= len(greedy_short_cycles(t))
        assert packing_violation(t, rep.cycles) is None

    def test_budget_exhaustion_keeps_certificate(self, paper_T):
        rep = max_cycle_packing(paper_T, Budget(max_nodes=1))
        assert not rep.optimal
        assert rep.value <= 11
        assert packing_violation(paper_T, rep.cycles) is None

    def test_stop_reason_optimal(self, paper_T):
        assert max_cycle_packing(paper_T).stop_reason == "optimal"

    def test_stop_reason_node_budget(self, paper_T):
        assert max_cycle_packing(paper_T, Budget(max_nodes=1)).stop_reason == "node budget"

    def test_time_budget_bounds_the_dp(self):
        # the tau DP alone takes seconds at 20 vertices
        t = random_tournament(20, 5)
        start = time.perf_counter()
        rep = max_cycle_packing(t, Budget(max_secs=0.3))
        assert time.perf_counter() - start < 2.0
        assert (rep.optimal, rep.stop_reason) == (False, "time budget")
        assert rep.value > 0 and packing_violation(t, rep.cycles) is None

    def test_shape_loop_polls_the_clock(self):
        # five arcs v + 1 -> v, all of them feedback arcs, and no arc left
        # for a path: every slack-2 shape is refuted at its root without
        # a node, so only the poll per shape stops the search
        d = Digraph.from_arcs(10, [(2 * i + 1, 2 * i) for i in range(5)])
        tracker = _Tracker(Budget())
        tracker.deadline = 0.0
        with pytest.raises(BudgetExceeded) as info:
            _decide(d, frozenset(d.arcs()), 2, tracker)
        assert info.value.reason == "time budget"
        assert tracker.nodes == 0

    def test_budget_env_override(self, monkeypatch):
        monkeypatch.setenv("ARCPACK_BUDGET_NODES", "123")
        monkeypatch.setenv("ARCPACK_BUDGET_SECS", "9.5")
        b = Budget.from_env()
        assert (b.max_nodes, b.max_secs) == (123, 9.5)

    def test_given_limit_skips_its_variable(self, monkeypatch):
        monkeypatch.setenv("ARCPACK_BUDGET_NODES", "1e3")
        monkeypatch.setenv("ARCPACK_BUDGET_SECS", "9.5")
        assert Budget.from_env(max_nodes=5) == Budget(max_nodes=5, max_secs=9.5)

    def test_greedy_is_valid(self):
        rng = random.Random(5)
        for _ in range(60):
            d = random_digraph(rng.randrange(2, 10), 0.5, rng.randrange(1 << 32))
            assert packing_violation(d, greedy_short_cycles(d)) is None

    @pytest.mark.parametrize(
        "d, expected",
        [
            (builtin("paper-T"), [
                (0, 1, 2), (0, 3, 6), (0, 4, 8), (2, 3, 4), (2, 5, 8), (4, 5, 6),
                (4, 7, 10), (4, 9, 12), (6, 7, 8), (6, 11, 12), (8, 9, 10),
            ]),
            (builtin("paper-Tprime"), [
                (0, 1, 2), (0, 3, 6), (0, 4, 8), (0, 5, 10), (2, 3, 4), (2, 5, 8),
                (2, 6, 10), (2, 7, 12), (4, 5, 6), (4, 7, 10), (4, 9, 12),
                (6, 7, 8), (6, 11, 12), (8, 9, 10),
            ]),
            (builtin("paper-T7"), [(0, 1, 2), (0, 3, 5), (1, 4, 5), (2, 3, 4)]),
            (builtin("paper-T11"), [
                (0, 1, 2), (0, 3, 7), (0, 4, 8), (0, 5, 9), (0, 6, 10), (1, 3, 8),
                (1, 4, 7), (1, 5, 10), (1, 6, 9), (2, 3, 9), (2, 5, 7), (2, 6, 8),
                (3, 4, 6), (4, 9, 10), (7, 8, 9),
            ]),
            (Digraph(3, (6, 5, 3)), [(0, 1), (0, 2), (1, 2)]),
            (Digraph(4, (10, 5, 9, 3)), [(0, 1), (0, 3), (1, 2, 3)]),
            (Digraph(5, (30, 13, 25, 21, 15)), [
                (0, 1), (0, 2), (0, 3), (0, 4), (2, 3), (2, 4), (3, 4),
            ]),
            (Digraph(8, (136, 224, 171, 181, 162, 78, 140, 104)), [
                (0, 3), (1, 5), (2, 3), (2, 5), (3, 5), (3, 7), (6, 7), (1, 6, 2),
            ]),
        ],
        ids=["paper-T", "paper-Tprime", "paper-T7", "paper-T11",
             "K3-both-ways", "two-cycles-then-triangle", "five", "eight"],
    )
    def test_greedy_pinned(self, d, expected):
        # the exact seed: 2-cycles first, then each u's triangles (u, v, w)
        # with u smallest, in lexicographic order over the arcs still free
        assert greedy_short_cycles(d) == expected


def _paths(table, n, a, b):
    """Number of a->b paths in a ``path_table`` of an ``n``-vertex DAG."""
    return table[a] >> b * n & (1 << n) - 1


def _dag_system(n, arcs):
    d = Digraph.from_arcs(n, arcs)
    topo = topological_order(d)
    assert topo is not None
    return _PathSystem(n, list(d.out), topo, _Tracker(Budget()))


def _random_dag_systems(rng):
    """Path systems of 80 random DAGs on 2..7 vertices, arcs low to high."""
    for _ in range(80):
        n = rng.randrange(2, 8)
        arcs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
        if arcs:
            yield _dag_system(n, arcs)


class TestPathSystem:
    def test_count_matches_enumeration(self):
        rng = random.Random(13)
        for ps in _random_dag_systems(rng):
            n = ps.n
            src = rng.randrange(n)
            counts = path_counts_reference(ps.avail, src)
            table = ps.path_table()
            for dst in range(n):
                paths = list(ps.iter_paths(table, src, dst))
                assert counts[dst] == len(paths)
                assert len(set(paths)) == len(paths)
                assert paths == sorted(paths)

    def test_table_matches_sweeps(self):
        # Random DAGs with shuffled labels and some arcs reserved, so the
        # table must follow the availability rather than the starting DAG.
        rng = random.Random(17)
        for n in range(2, 13):
            for _ in range(3):
                order = rng.sample(range(n), n)
                p = rng.uniform(0.3, 0.9)
                arcs = [(order[i], order[j]) for j in range(n) for i in range(j) if rng.random() < p]
                ps = _dag_system(n, arcs)
                ps.place(a for a in arcs if rng.random() < 0.2)
                table = ps.path_table()
                for a in range(n):
                    counts = path_counts_reference(ps.avail, a)
                    assert [_paths(table, n, a, b) for b in range(n)] == counts

    def test_widest_field(self):
        # 2**(n-2) paths from first to last, the most a DAG has: the
        # 24-bit fields hold every count without carrying into the next.
        n = 24
        t = transitive_tournament(n)
        table = _PathSystem(n, list(t.out), tuple(range(n)), _Tracker(Budget())).path_table()
        assert _paths(table, n, 0, n - 1) == 1 << 22
        for a in range(n):
            want = sum((1 << max(b - a - 1, 0)) << (b * n) for b in range(a, n))
            assert table[a] == want

    def test_walk_enters_only_vertices_that_reach_dst(self, monkeypatch):
        # 0 reaches 9 only through 1; it also reaches a transitive
        # tournament on 2..8, from which 9 is unreachable
        n, src, dst = 10, 0, 9
        dense = range(2, 9)
        arcs = [(0, 1), (1, 9)] + [(0, v) for v in dense]
        arcs += [(u, v) for u in dense for v in dense if u < v]
        ps = _dag_system(n, arcs)
        table = ps.path_table()
        entered = []
        real_bits = packing.bits

        def counting_bits(mask):
            for v in real_bits(mask):
                entered.append(v)
                yield v

        monkeypatch.setattr(packing, "bits", counting_bits)
        assert list(ps.iter_paths(table, src, dst)) == [(0, 1, 9)]
        assert entered == [1, 9]

    def test_place_unplace_roundtrip(self):
        ps = _dag_system(3, [(0, 1), (1, 2), (0, 2)])
        before = list(ps.avail), ps.flat
        ps.place([(0, 1), (1, 2)])
        assert _paths(ps.path_table(), 3, 0, 2) == 1  # only the direct arc remains
        assert ps.flat == 1 << 2  # arc (0, 2) alone, at bit 0 * 3 + 2
        ps.unplace([(0, 1), (1, 2)])
        assert (ps.avail, ps.flat) == before


class TestRequirements:
    def test_single_requirement_realizations(self):
        # (f, f) with f = 2 -> 0 is one path 0 ~> 2; the first in
        # lexicographic order is taken
        ps = _dag_system(3, [(0, 1), (1, 2), (0, 2)])
        f = (2, 0)
        placed = _solve_requirements(ps, [(f, f)])
        assert placed == [((f, f), (0, 1, 2))]
        assert _stitch(placed) == [(2, 0, 1)]

    def test_composite_requirement_realizations(self):
        # a cycle through 4 -> 0 and 3 -> 2: a path 0 ~> 3 and a path
        # 2 ~> 4, the one with fewer paths placed first
        ps = _dag_system(5, [(0, 1), (1, 3), (0, 3), (2, 4)])
        f, g = (4, 0), (3, 2)
        placed = _solve_requirements(ps, [(f, g), (g, f)])
        assert placed == [((g, f), (2, 4)), ((f, g), (0, 1, 3))]
        assert _stitch(placed) == [(3, 2, 4, 0, 1)]

    def test_composite_with_no_realization(self):
        # a cycle through 3 -> 0 and 2 -> 1 needs a path 1 ~> 3
        ps = _dag_system(4, [(0, 1), (1, 2)])
        f, g = (3, 0), (2, 1)
        assert _solve_requirements(ps, [(f, g), (g, f)]) is None

    def test_pair_paths_may_share_a_vertex(self):
        # both paths run through vertex 1, on different arcs: the search
        # accepts it, and the walk it stitches repeats 1
        ps = _dag_system(5, [(0, 1), (1, 3), (2, 1), (1, 4)])
        f, g = (4, 0), (3, 2)
        placed = _solve_requirements(ps, [(f, g), (g, f)])
        assert _stitch(placed) == [(4, 0, 1, 3, 2, 1)]

    def test_solver_realizes_disjointly(self):
        # two requirements share vertex 1 but must split its arcs
        ps = _dag_system(
            5, [(0, 1), (1, 4), (2, 1), (1, 3), (0, 4), (2, 3)]
        )
        reqs = [((4, 0), (4, 0)), ((3, 2), (3, 2))]
        placed = _solve_requirements(ps, reqs)
        assert placed is not None
        sol = _stitch(placed)
        d_closed = Digraph.from_arcs(
            5,
            [(0, 1), (1, 4), (2, 1), (1, 3), (0, 4), (2, 3), (4, 0), (3, 2)],
        )
        assert packing_violation(d_closed, sol) is None
        assert len(sol) == 2

    def test_solver_refutes(self):
        # both requirements need the arc 0->1
        ps = _dag_system(3, [(0, 1), (1, 2)])
        reqs = [((1, 0), (1, 0)), ((2, 0), (2, 0))]
        assert _solve_requirements(ps, reqs) is None
        # the refutation is remembered, but the first alone is feasible:
        # the memo key tells the two states apart
        assert len(ps.tracker.refuted) == 1
        assert _solve_requirements(ps, reqs[:1]) == [(reqs[0], (0, 1))]

    def test_refuted_search_restores_availability(self, paper_T7):
        # Every shape of one decider call searches the same path system,
        # so a refuted search must hand back the arcs it placed.
        fr = min_feedback_arc_set(paper_T7)
        ps = _dag_system(7, [a for a in paper_T7.arcs() if a not in fr.arcs])
        before = list(ps.avail), ps.flat
        reqs = [(f, f) for f in sorted(fr.arcs)]
        assert _solve_requirements(ps, reqs) is None  # nu < tau
        assert ps.tracker.nodes > 0  # arcs were placed on the way
        assert (ps.avail, ps.flat) == before

    @pytest.mark.parametrize(
        "reqs,message",
        [
            ([((3, 0), (3, 0))] * 2, "must be distinct"),
            ([((4, 0), (3, 2))] * 2, "must be distinct"),
            pytest.param(
                [((4, 0), (3, 2)), ((4, 0), (3, 1))], "must be distinct", id="one-first-arc-twice"
            ),
        ],
    )
    def test_repeated_or_clashing_requirements_raise(self, reqs, message):
        ps = _dag_system(5, [(0, 1), (1, 3), (0, 3), (2, 4)])
        with pytest.raises(ValueError, match=message):
            _solve_requirements(ps, reqs)
        assert ps.tracker.nodes == 0

    def test_two_pairs_with_one_pair_of_ends(self):
        # (4, 0) -> (3, 2) and (2, 0) -> (3, 1) both ask for a path 0 ~> 3,
        # as two open pairs of one slack-2 shape can: the key counts them,
        # and the state needs two arc-disjoint such paths
        reqs = [((4, 0), (3, 2)), ((2, 0), (3, 1))]
        ps = _dag_system(5, [(0, 1), (1, 3), (0, 3), (2, 4)])
        placed = _solve_requirements(ps, reqs)
        assert sorted(path for _, path in placed) == [(0, 1, 3), (0, 3)]
        # with one path 0 ~> 3, the pair is refuted and the memo keeps it,
        # yet one of the two alone is feasible: the key tells them apart
        ps = _dag_system(5, [(0, 1), (1, 3), (2, 4)])
        assert _solve_requirements(ps, reqs) is None
        assert len(ps.tracker.refuted) == 1
        assert _solve_requirements(ps, reqs[:1]) is not None


class TestDeciders:
    def test_full_decider_on_T7(self, paper_T7):
        fr = min_feedback_arc_set(paper_T7)
        tracker = _Tracker(Budget())
        assert _decide(paper_T7, fr.arcs, 0, tracker) is None  # nu < tau
        sol = _decide(paper_T7, fr.arcs, 1, tracker)
        assert sol is not None and len(sol) == 4
        assert packing_violation(paper_T7, sol) is None

    def test_refutations_do_not_block_one_below(self, paper_T7):
        fr = min_feedback_arc_set(paper_T7)
        shared = _Tracker(Budget())
        assert _decide(paper_T7, fr.arcs, 0, shared) is None
        assert shared.refuted  # the failed full search filled the memo
        sol = _decide(paper_T7, fr.arcs, 1, shared)
        assert sol == _decide(paper_T7, fr.arcs, 1, _Tracker(Budget()))

    def test_full_decider_finds_tau_packing(self, paper_T11):
        fr = min_feedback_arc_set(paper_T11)
        sol = _decide(paper_T11, fr.arcs, 0, _Tracker(Budget()))
        assert sol is not None and len(sol) == 17
        assert packing_violation(paper_T11, sol) is None


# random_tournament(11, seed) with nu = tau - 1, where only a shape with
# one cycle through two feedback arcs settles it: (tau, certificate).
PAIR_SETTLED = {
    4604: (15, [
        (0, 3, 4), (0, 8, 1), (1, 5, 2, 3), (1, 6, 2), (1, 10, 4), (2, 8, 4), (2, 9, 7),
        (3, 6, 5), (3, 9, 8), (3, 10, 7), (4, 5, 7), (5, 10, 8), (6, 8, 7), (6, 10, 9),
    ]),
    13466: (16, [
        (0, 2, 4), (0, 3, 8, 9), (0, 6, 5), (0, 10, 8), (1, 5, 3), (1, 6, 9), (1, 8, 7),
        (1, 10, 4), (2, 5, 8), (2, 7, 3), (3, 9, 4), (3, 10, 6), (4, 5, 7), (4, 8, 6),
        (7, 9, 10),
    ]),
    20519: (15, [
        (0, 1, 7), (0, 3, 4), (0, 6, 2), (0, 9, 5), (1, 3, 6), (1, 4, 8), (1, 10, 5),
        (2, 3, 8), (2, 5, 4), (2, 10, 9), (3, 5, 7), (4, 10, 6), (5, 8, 6), (6, 9, 7),
    ]),
}


class TestPairShapes:
    @pytest.mark.parametrize("seed", sorted(PAIR_SETTLED))
    def test_pair_settled_tournaments(self, seed):
        tau, cycles = PAIR_SETTLED[seed]
        t = random_tournament(11, seed)
        fas = min_feedback_arc_set(t).arcs
        rep = max_cycle_packing(t)
        assert (len(fas), rep.optimal, rep.value) == (tau, True, tau - 1)
        assert list(rep.cycles) == cycles
        through_two = [c for c in rep.cycles if len(fas.intersection(cycle_arcs(c))) == 2]
        assert len(through_two) == 1

    def test_shape_order_carries_the_proof(self, monkeypatch):
        # Two triangles through vertex 2, one feedback arc on each.  The
        # pair shape's paths 1 ~> 3 and 4 ~> 0 both pass 2: a packing of
        # slack 0 exists, so the decider is called out of turn here, and
        # only the shapes with an unused arc, tried first, keep it sound.
        d = Digraph.from_arcs(5, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 2), (2, 3)])
        fas = frozenset({(0, 1), (3, 4)})
        assert _decide(d, fas, 1, _Tracker(Budget())) == [(3, 4, 2)]
        real = packing._solve_requirements

        def pairs_only(ps, reqs):
            return None if all(f == g for f, g in reqs) else real(ps, reqs)

        monkeypatch.setattr(packing, "_solve_requirements", pairs_only)
        walk = _decide(d, fas, 1, _Tracker(Budget()))
        assert walk == [(0, 1, 2, 3, 4, 2)]
        assert "repeats a vertex" in packing_violation(d, walk)


GOLDEN = json.loads((Path(__file__).parent / "golden_packings.json").read_text())


def _golden_id(case):
    return f"{case['kind']}-{case['n']}-{case['seed']}"


def _same_as_golden(rep, case):
    assert rep.optimal
    assert rep.value == case["value"]
    assert [list(c) for c in rep.cycles] == case["cycles"]


class TestGoldenPackings:
    """Values, certificates and ``nodes_without_memo`` in
    ``golden_packings.json`` were recorded before path counts were shared
    per source and refuted states memoized; neither may change an answer
    or a certificate.  ``nodes`` is the count with the memo on, which
    pins the search itself: how paths are counted may not change it."""

    @pytest.mark.parametrize("case", GOLDEN, ids=_golden_id)
    def test_same_packing(self, case):
        rep = max_cycle_packing(golden_graph(case))
        _same_as_golden(rep, case)
        assert rep.nodes_explored == case["nodes"] <= case["nodes_without_memo"]

    def test_memo_cuts_nodes(self):
        # 6700 nodes without the memo
        rep = max_cycle_packing(random_tournament(12, 30))
        assert rep.value == 14
        assert rep.nodes_explored <= 4036
        assert (rep.memo_entries, rep.memo_hits) == (1596, 466)

    @pytest.mark.parametrize("cap", [0, 3])
    def test_memo_cap_keeps_answers(self, monkeypatch, cap):
        monkeypatch.setattr(packing, "MEMO_MAX_ENTRIES", cap)
        for case in GOLDEN:
            rep = max_cycle_packing(golden_graph(case))
            _same_as_golden(rep, case)
            if cap == 0:
                # no memo: the shared sweeps alone keep the search as it was
                assert rep.nodes_explored == case["nodes_without_memo"]
                assert (rep.memo_entries, rep.memo_hits) == (0, 0)

    def test_memo_stays_under_cap(self, monkeypatch):
        monkeypatch.setattr(packing, "MEMO_MAX_ENTRIES", 3)
        t = random_tournament(12, 30)
        fr = min_feedback_arc_set(t)
        tracker = _Tracker(Budget())
        assert len(_decide(t, fr.arcs, 0, tracker)) == fr.tau
        assert len(tracker.refuted) == 3  # about 1600 without the cap


def _record_keys(monkeypatch):
    """Record every search node as (kept key, key rebuilt from scratch,
    reference key, whether the memo held it)."""
    seen = []

    def recording(ps, items, code):
        reqs = [item[0] for item in items]
        kept = ps.flat | code
        seen.append(
            (
                kept,
                state_key_fresh(ps, reqs),
                state_key_reference(ps, reqs),
                kept in ps.tracker.refuted,
            )
        )
        return _search(ps, items, code)

    monkeypatch.setattr(packing, "_search", recording)
    return seen


def _assert_keys_agree(seen):
    """Each kept key equals its rebuild, and two visited states share a
    kept key exactly when they share a reference key."""
    assert seen
    reference_of, kept_of = {}, {}
    for kept, fresh, reference, _ in seen:
        assert kept == fresh
        assert reference_of.setdefault(kept, reference) == reference
        assert kept_of.setdefault(reference, kept) == kept


class TestMemoKey:
    """The search keeps its memo key up to date per placed arc and per
    realized requirement.  At every visited node the key must equal a
    rebuild from the availability rows, and it must tell states apart
    exactly as the key it replaced (``oracles.state_key_reference``)."""

    def test_golden_graphs(self, monkeypatch):
        hits = 0
        for case in GOLDEN:
            seen = _record_keys(monkeypatch)
            rep = max_cycle_packing(golden_graph(case))
            _same_as_golden(rep, case)
            assert rep.nodes_explored == case["nodes"]
            _assert_keys_agree(seen)
            assert rep.memo_hits == sum(hit for *_, hit in seen)
            hits += rep.memo_hits
        assert hits > 0  # some states were visited twice

    def test_random_systems_with_distinct_requirements(self, monkeypatch):
        # Decider-like systems: a random tournament minus a minimum FAS,
        # with all of the FAS or all but one arc as (f, f) requirements,
        # half of them with two arcs f, g on one cycle: (f, g) and (g, f).
        rng = random.Random(41)
        hits = pairs = 0
        for _ in range(80):
            n = rng.randrange(7, 11)
            d = random_tournament(n, rng.randrange(1 << 32))
            fas = sorted(min_feedback_arc_set(d).arcs)
            if len(fas) < 2:
                continue
            ps = _dag_system(n, [a for a in d.arcs() if a not in fas])
            chosen = rng.sample(fas, len(fas) - rng.randrange(2))
            reqs = [(f, f) for f in chosen]
            f, g = rng.sample(fas, 2)
            if rng.random() < 0.5 and f[0] != g[0] and f[1] != g[1]:
                reqs = [(f, g), (g, f)] + [(h, h) for h in chosen if h != f and h != g]
                pairs += 1
            seen = _record_keys(monkeypatch)
            _solve_requirements(ps, reqs)
            _assert_keys_agree(seen)
            hits += ps.tracker.hits
        assert hits > 0 and pairs > 0

    def test_two_arc_requirement_against_its_two_single_arcs(self, monkeypatch):
        # [(f, g), (g, f)] and [(f, f), (g, g)] at the same availability
        # are different states: one cycle through both arcs, or two cycles
        ps = _dag_system(5, [(0, 1), (1, 3), (0, 3), (2, 4)])
        f, g = (4, 0), (3, 2)
        seen = _record_keys(monkeypatch)
        assert _solve_requirements(ps, [(f, f), (g, g)]) is None  # no 0 ~> 4 path
        first = len(seen)
        assert len(_stitch(_solve_requirements(ps, [(f, g), (g, f)]))) == 1
        _assert_keys_agree(seen)
        single, pair = seen[0], seen[first]
        assert single[0] != pair[0] and single[2] != pair[2]

    def test_slack_one_shapes_with_a_two_arc_requirement(self, monkeypatch, paper_T7):
        seen = _record_keys(monkeypatch)
        d = _two_T7_copies(paper_T7)
        fr = min_feedback_arc_set(d)
        tracker = _Tracker(Budget())
        assert _decide(d, fr.arcs, 1, tracker) is None  # every shape refuted
        _assert_keys_agree(seen)
        pair_at = 2 * d.n * d.n
        assert any(kept >> pair_at for kept, *_ in seen)  # pair shapes visited
        assert tracker.hits > 0

    def test_slack_two_shapes(self, monkeypatch, paper_T7):
        # The decider is exact for any feedback arc set: with two arcs
        # added to a minimum one, nu = 8 is slack 4, so slack 2 is
        # refuted through every shape, two open pairs and blocks of
        # three arcs included.
        d = _two_T7_copies(paper_T7)
        fas = min_feedback_arc_set(d).arcs | {(0, 3), (1, 4)}
        tracker = _Tracker(Budget())
        assert _decide(d, fas, 0, tracker) is None
        assert _decide(d, fas, 1, tracker) is None
        seen = _record_keys(monkeypatch)
        assert _decide(d, fas, 2, tracker) is None
        _assert_keys_agree(seen)
        n2, width = d.n * d.n, d.n.bit_length()
        counts = [kept >> 2 * n2 + i * width & (1 << width) - 1 for kept, *_ in seen for i in range(n2)]
        assert max(counts) == 2  # two open pairs with the same ends
        assert any((kept >> 2 * n2).bit_count() > 2 for kept, *_ in seen)  # 3+ pairs open
        assert sum(hit for *_, hit in seen) > 0


def _two_T7_copies(paper_T7):
    """paper-T7 on 0..6 and again on 7..13, every arc from the first copy
    to the second: tau 10 and nu 8, one below tau - 1."""
    n = paper_T7.n
    rows = [paper_T7.out[u] | ((1 << n) - 1) << n for u in range(n)]
    return Digraph(2 * n, rows + [paper_T7.out[u] << n for u in range(n)])


class TestSlackTwo:
    def test_memo_shared_across_slacks(self, paper_T7):
        # One feedback arc set per solve: the states refuted at slacks 0
        # and 1 stay in the memo for slack 2, which finds nu = tau - 2.
        d = _two_T7_copies(paper_T7)
        fr = min_feedback_arc_set(d)
        assert fr.tau == 10
        tracker = _Tracker(Budget())
        assert _decide(d, fr.arcs, 0, tracker) is None
        assert _decide(d, fr.arcs, 1, tracker) is None
        assert (len(tracker.refuted), tracker.nodes, tracker.hits) == (383, 579, 69)
        sol = _decide(d, fr.arcs, 2, tracker)
        assert len(sol) == 8 and packing_violation(d, sol) is None
        assert (len(tracker.refuted), tracker.nodes, tracker.hits) == (638, 986, 103)
        # the solver refutes the same two slacks; the greedy 8 triangles
        # then meet tau - 2
        rep = max_cycle_packing(d)
        assert (rep.value, rep.optimal, rep.nodes_explored) == (8, True, 579)
        assert (rep.memo_entries, rep.memo_hits) == (383, 69)

    def test_tournament_two_below_tau(self):
        # one of the three random_tournament(16, s), s < 200, with
        # floor(nu*) = tau - 2; every slack-1 shape is refuted first
        t = random_tournament(16, 138)
        assert min_feedback_arc_set(t).tau == 33
        rep = max_cycle_packing(t)
        assert (rep.value, rep.optimal) == (31, True)
        assert packing_violation(t, rep.cycles) is None


class TestTriangles:
    def test_count_matches_brute(self):
        rng = random.Random(31)
        for _ in range(60):
            t = random_tournament(rng.randrange(3, 9), rng.randrange(1 << 32))
            for v in range(t.n):
                assert count_triangles_through(t, v) == triangle_count_through(t, v)

    def test_max_matches_brute(self):
        rng = random.Random(32)
        for _ in range(60):
            t = random_tournament(rng.randrange(3, 8), rng.randrange(1 << 32))
            for v in range(t.n):
                value, tris = max_triangles_through(t, v)
                assert value == triangles_through_brute(t, v)
                assert packing_violation(t, tris) is None
                assert all(v in c for c in tris)

    def test_T11_vertex_k_misses_degree(self, paper_T11):
        k = vertex_of(paper_T11, "k")
        assert count_triangles_through(paper_T11, k) == 15
        value, _ = max_triangles_through(paper_T11, k)
        assert value == 4  # strictly below the out-degree 5
        for v in range(paper_T11.n):
            if v != k:
                assert max_triangles_through(paper_T11, v)[0] == 5

    @pytest.mark.parametrize("name", ["paper-T", "paper-T7", "paper-T11"])
    def test_mindeg_triangle_packing_on_builtins(self, name):
        assert not mindeg_triangles_fail(builtin(name))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(3, 9), st.integers(0, 2**32 - 1))
    def test_mindeg_triangle_packing_random(self, n, seed):
        assert not mindeg_triangles_fail(random_tournament(n, seed))
