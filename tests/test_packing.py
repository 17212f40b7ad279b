import json
import random
import time
from collections import Counter
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
    _all_simple_paths,
    _decide,
    _find_general,
    _avoiding_paths,
    _paths,
    _PathSystem,
    _requirement_placements,
    _search,
    _solve_requirements,
    _Tracker,
    _two_arc_count,
    count_triangles_through,
    cycle_arcs,
    greedy_short_cycles,
    is_valid_packing,
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
        assert is_valid_packing(d, [(0, 1, 2)])
        assert packing_violation(d, [(0, 1, 2)]) is None

    def test_two_cycle_needs_digon(self):
        d = Digraph.from_arcs(2, [(0, 1), (1, 0)])
        assert is_valid_packing(d, [(0, 1)])
        oriented = Digraph.from_arcs(2, [(0, 1)])
        assert not is_valid_packing(oriented, [(0, 1)])


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
        assert is_valid_packing(d, rep.cycles)

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
            assert is_valid_packing(g, rep.cycles)

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
        # 30 vertices forces the general climb; counting bound closes it
        arcs = []
        for i in range(10):
            a, b, c = 3 * i, 3 * i + 1, 3 * i + 2
            arcs += [(a, b), (b, c), (c, a)]
        d = Digraph.from_arcs(30, arcs)
        rep = max_cycle_packing(d)
        assert rep.value == 10 and rep.optimal

    def test_beyond_dp_cap_single_cycle(self):
        # no tau ceiling: the first-arc branch finds the cycle, and the
        # counting bound refutes a second
        d = Digraph.from_arcs(30, [(v, (v + 1) % 30) for v in range(30)])
        rep = max_cycle_packing(d)
        assert (rep.value, rep.cycles, rep.optimal) == (1, (tuple(range(30)),), True)

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
        assert is_valid_packing(t, rep.cycles)

    def test_budget_exhaustion_keeps_certificate(self, paper_T):
        rep = max_cycle_packing(paper_T, Budget(max_nodes=1))
        assert not rep.optimal
        assert rep.value <= 11
        assert is_valid_packing(paper_T, rep.cycles)

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
        assert rep.value > 0 and is_valid_packing(t, rep.cycles)

    def test_simple_path_search_polls_the_clock(self):
        # 9 mutually adjacent vertices and an unreachable target: the
        # walk finds no path, so only the clock can stop it
        arcs = [(u, v) for u in range(9) for v in range(9) if u != v]
        d = Digraph.from_arcs(10, arcs)
        tracker = _Tracker(Budget())
        tracker.deadline = 0.0
        with pytest.raises(BudgetExceeded) as info:
            _all_simple_paths(d, 0, 9, tracker)
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
            assert is_valid_packing(d, greedy_short_cycles(d))


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
            forbid = rng.getrandbits(n)
            counts = path_counts_reference(ps.avail, src, forbid)
            table = ps.path_table()
            for dst in range(n):
                paths = list(ps.iter_paths(table, src, dst, forbid))
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
                    # every overlap of endpoints and avoided vertices
                    for z1 in range(n):
                        for z2 in range(z1, n):
                            forbid = (1 << z1) | (1 << z2)
                            counts = path_counts_reference(ps.avail, a, forbid)
                            for b in range(n):
                                assert _avoiding_paths(table, n, a, b, z1, z2) == counts[b]
                                assert _avoiding_paths(table, n, a, b, z2, z1) == counts[b]
                for _ in range(40):
                    x, y, u, w = (rng.randrange(n) for _ in range(4))
                    c1 = path_counts_reference(ps.avail, y, (1 << x) | (1 << w))[u]
                    c2 = path_counts_reference(ps.avail, w, (1 << y) | (1 << u))[x]
                    assert _two_arc_count(table, n, ("c", (x, y), (u, w))) == c1 * c2

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

    def test_forbid_blocks_interior_only(self):
        ps = _dag_system(4, [(0, 1), (1, 3), (0, 2), (2, 3)])
        table = ps.path_table()
        assert _paths(table, 4, 0, 3) == 2
        assert _avoiding_paths(table, 4, 0, 3, 1, 1) == 1
        assert _avoiding_paths(table, 4, 0, 3, 1, 2) == 0
        # forbidding an endpoint has no effect
        assert _avoiding_paths(table, 4, 0, 3, 0, 3) == 2


class TestRequirements:
    def test_single_requirement_realizations(self):
        ps = _dag_system(3, [(0, 1), (1, 2), (0, 2)])
        placements = list(_requirement_placements(ps, ps.path_table(), ("s", (2, 0))))
        assert sorted(cyc for _, cyc in placements) == [(2, 0), (2, 0, 1)]
        assert _paths(ps.path_table(), 3, 0, 2) == 2

    def test_composite_requirement_realizations(self):
        # cycle through both 4->0 and 3->2: 0~>3 avoiding {4,2}, then
        # 2~>4 avoiding the first path
        ps = _dag_system(5, [(0, 1), (1, 3), (0, 3), (2, 4)])
        req = ("c", (4, 0), (3, 2))
        assert _two_arc_count(ps.path_table(), 5, req) == 2
        before = list(ps.avail)
        placements = list(_requirement_placements(ps, ps.path_table(), req))
        assert ps.avail == before  # the walks reserve nothing
        got = sorted((cyc, tuple(sorted(arcs))) for arcs, cyc in placements)
        assert got == [
            ((4, 0, 1, 3, 2), ((0, 1), (1, 3), (2, 4))),
            ((4, 0, 3, 2), ((0, 3), (2, 4))),
        ]

    def test_composite_with_no_realization(self):
        # the only route 0~>2 runs through vertex 1, which the second
        # feedback arc forbids
        ps = _dag_system(4, [(0, 1), (1, 2)])
        req = ("c", (3, 0), (2, 1))
        assert _two_arc_count(ps.path_table(), 4, req) == 0
        assert list(_requirement_placements(ps, ps.path_table(), req)) == []

    def test_two_arc_placements_match_counts(self):
        # A cycle through x -> y and u -> w: for every first path
        # p1 = y ~> u avoiding {x, w}, one placement per second path
        # w ~> x avoiding every vertex of p1, and no arc used twice.
        rng = random.Random(13)
        placed = 0
        for ps in _random_dag_systems(rng):
            n = ps.n
            table = ps.path_table()
            for _ in range(20):
                x, y, u, w = (rng.randrange(n) for _ in range(4))
                if x == y or u == w or x == u or y == w:
                    continue
                per_first = Counter()
                for arcs, cyc in _requirement_placements(ps, table, ("c", (x, y), (u, w))):
                    assert len(set(arcs)) == len(arcs)
                    assert all(ps.avail[a] >> b & 1 for a, b in arcs)
                    per_first[cyc[1 : cyc.index(u) + 1]] += 1
                forbid = (1 << x) | (1 << w)
                firsts = list(ps.iter_paths(table, y, u, forbid))
                assert len(firsts) == path_counts_reference(ps.avail, y, forbid)[u]
                assert set(per_first) <= set(firsts)
                for p1 in firsts:
                    mask = sum(1 << v for v in p1)
                    assert per_first[p1] == path_counts_reference(ps.avail, w, mask)[x]
                placed += sum(per_first.values())
        assert placed > 0

    def test_solver_realizes_disjointly(self):
        # two requirements share vertex 1 but must split its arcs
        ps = _dag_system(
            5, [(0, 1), (1, 4), (2, 1), (1, 3), (0, 4), (2, 3)]
        )
        reqs = [("s", (4, 0)), ("s", (3, 2))]
        sol = _solve_requirements(ps, reqs)
        assert sol is not None
        d_closed = Digraph.from_arcs(
            5,
            [(0, 1), (1, 4), (2, 1), (1, 3), (0, 4), (2, 3), (4, 0), (3, 2)],
        )
        assert is_valid_packing(d_closed, sol)
        assert len(sol) == 2

    def test_solver_refutes(self):
        # both requirements need the arc 0->1
        ps = _dag_system(3, [(0, 1), (1, 2)])
        reqs = [("s", (1, 0)), ("s", (2, 0))]
        assert _solve_requirements(ps, reqs) is None
        # the refutation is remembered, but the first alone is feasible:
        # the memo key tells the two states apart
        assert len(ps.tracker.refuted) == 1
        assert _solve_requirements(ps, reqs[:1]) == [(1, 0)]

    def test_refuted_search_restores_availability(self, paper_T7):
        # Every shape of one decider call searches the same path system,
        # so a refuted search must hand back the arcs it placed.
        fr = min_feedback_arc_set(paper_T7)
        ps = _dag_system(7, [a for a in paper_T7.arcs() if a not in fr.arcs])
        before = list(ps.avail), ps.flat
        reqs = [("s", f) for f in sorted(fr.arcs)]
        assert _solve_requirements(ps, reqs) is None  # nu < tau
        assert ps.tracker.nodes > 0  # arcs were placed on the way
        assert (ps.avail, ps.flat) == before

    def test_one_two_arc_requirement_at_most(self):
        ps = _dag_system(5, [(0, 1), (1, 3), (0, 3), (2, 4)])
        reqs = [("c", (4, 0), (3, 2)), ("c", (3, 2), (4, 0))]
        with pytest.raises(ValueError, match="at most one two-arc requirement"):
            _solve_requirements(ps, reqs)

    @pytest.mark.parametrize(
        "reqs,message",
        [
            ([("s", (3, 0)), ("s", (3, 0))], "must be distinct"),
            ([("c", (4, 0), (3, 2))] * 2, "must be distinct"),
            ([("c", (4, 0), (4, 2))], "share a tail or a head"),
            ([("c", (4, 0), (3, 0))], "share a tail or a head"),
        ],
    )
    def test_repeated_or_clashing_requirements_raise(self, reqs, message):
        ps = _dag_system(5, [(0, 1), (1, 3), (0, 3), (2, 4)])
        with pytest.raises(ValueError, match=message):
            _solve_requirements(ps, reqs)
        assert ps.tracker.nodes == 0


class TestDeciders:
    def test_full_decider_on_T7(self, paper_T7):
        fr = min_feedback_arc_set(paper_T7)
        tracker = _Tracker(Budget())
        assert _decide(paper_T7, fr.arcs, 0, tracker) is None  # nu < tau
        sol = _decide(paper_T7, fr.arcs, 1, tracker)
        assert sol is not None and len(sol) == 4
        assert is_valid_packing(paper_T7, sol)

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
        assert is_valid_packing(paper_T11, sol)


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
        # with all of the FAS or all but one arc as single-arc
        # requirements, half of them with two merged into a two-arc one.
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
            reqs = [("s", f) for f in chosen]
            f, g = rng.sample(fas, 2)
            if rng.random() < 0.5 and f[0] != g[0] and f[1] != g[1]:
                reqs = [("c", f, g)] + [("s", h) for h in chosen if h != f and h != g]
                pairs += 1
            seen = _record_keys(monkeypatch)
            _solve_requirements(ps, reqs)
            _assert_keys_agree(seen)
            hits += ps.tracker.hits
        assert hits > 0 and pairs > 0

    def test_two_arc_requirement_against_its_two_single_arcs(self, monkeypatch):
        # [c(f, g)] and [s(f), s(g)] at the same availability are
        # different states: one cycle through both arcs, or two cycles
        ps = _dag_system(5, [(0, 1), (1, 3), (0, 3), (2, 4)])
        f, g = (4, 0), (3, 2)
        seen = _record_keys(monkeypatch)
        assert _solve_requirements(ps, [("s", f), ("s", g)]) is None  # no 0 ~> 4 path
        first = len(seen)
        assert len(_solve_requirements(ps, [("c", f, g)])) == 1
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
        assert any(kept >> pair_at for kept, *_ in seen)  # two-arc shapes visited
        assert tracker.hits > 0


def _two_T7_copies(paper_T7):
    """paper-T7 on 0..6 and again on 7..13, every arc from the first copy
    to the second: tau 10 and nu 8, one below tau - 1."""
    n = paper_T7.n
    rows = [paper_T7.out[u] | ((1 << n) - 1) << n for u in range(n)]
    return Digraph(2 * n, rows + [paper_T7.out[u] << n for u in range(n)])


class TestMemoAcrossFeedbackSets:
    def test_memo_shared_with_the_general_search(self, monkeypatch, paper_T7):
        # The general search decides on a reduced graph with another
        # feedback arc set; the memo the deciders filled on the whole
        # graph must neither answer for it nor change its search.
        d = _two_T7_copies(paper_T7)
        fr = min_feedback_arc_set(d)
        assert fr.tau == 10
        tracker = _Tracker(Budget())
        assert _decide(d, fr.arcs, 0, tracker) is None
        assert _decide(d, fr.arcs, 1, tracker) is None
        assert (len(tracker.refuted), tracker.nodes) == (336, 510)
        fresh = _find_general(d, 8, _Tracker(Budget()))
        decided = []

        def recording(g, fas, slack, tr):
            decided.append(len(fas))
            return _decide(g, fas, slack, tr)

        monkeypatch.setattr(packing, "_decide", recording)
        sol = _find_general(d, 8, tracker)
        assert sol == fresh and len(sol) == 8 and is_valid_packing(d, sol)
        assert (tracker.nodes, len(tracker.refuted)) == (510 + 49, 344)
        assert decided == [6]


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
                assert is_valid_packing(t, tris)
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
