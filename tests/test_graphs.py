import random
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import comb, prod
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from ultrafree import _kernels, budget, graphs as _graphs
from ultrafree.budget import BudgetExceeded, SearchBudget
from ultrafree.constructions import blowup, hypercube_lb, kneser, random_graph
from ultrafree.graphs import (
    Graph,
    chromatic_number,
    clique_codensity,
    clique_number,
    codegree_min,
    count_cliques,
    has_induced_p4,
    is_kr_free,
    is_maximal_kr_free,
    mask_of,
    max_clique_witness,
    members,
)
from ultrafree.setsystems import mis_family
from ultrafree.ultra import ultra_parameter

C5 = Graph.cycle(5)


class TestGraphBasics:
    def test_rejects_loops_and_range(self):
        with pytest.raises(ValueError, match="loop at vertex 0"):
            Graph(3, [(0, 0)])
        for edge in ((0, 3), (0, 5), (-1, 0)):
            with pytest.raises(ValueError, match="out of range for n=3"):
                Graph(3, [edge])
        with pytest.raises(ValueError):
            Graph(-1)

    def test_complete_rejects_negative(self):
        with pytest.raises(ValueError, match="vertex count must be nonnegative"):
            Graph.complete(-1)

    def test_duplicate_edges_collapse(self):
        G = Graph(3, [(0, 1), (1, 0), (0, 1)])
        assert G.edge_count() == 1

    def test_builders(self):
        assert Graph.empty(4).edge_count() == 0
        assert Graph.complete(4).edge_count() == 6
        assert Graph.cycle(5).edges() == [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]
        assert Graph.path(4).edges() == [(0, 1), (1, 2), (2, 3)]
        with pytest.raises(ValueError):
            Graph.cycle(2)
        K23 = blowup(Graph.complete(2), [2, 3])
        assert K23.edge_count() == 6
        assert not K23.has_edge(0, 1) and not K23.has_edge(2, 3)
        assert K23.has_edge(0, 2)

    def test_identity_and_views(self):
        G = Graph(4, [(0, 1), (2, 3)])
        assert G == Graph(4, [(2, 3), (1, 0)])
        assert hash(G) == hash(Graph(4, [(0, 1), (2, 3)]))
        assert G != Graph(5, [(0, 1), (2, 3)])
        assert G.adj[0] == 0b10
        assert G.degree(0) == 1 and G.min_degree() == 1

    def test_complement_involution(self):
        G = random_graph(7, 1, 2, 99)
        assert G.complement().complement() == G
        # edges and non-edges swap
        assert G.complement().edges() == [
            (u, v) for u, v in combinations(range(G.n), 2) if not G.has_edge(u, v)
        ]

    def test_induced_relabels(self):
        G = Graph(5, [(0, 2), (2, 4), (1, 3)])
        H = G.induced([0, 2, 4])
        assert H.n == 3 and H.edges() == [(0, 1), (1, 2)]

    @pytest.mark.parametrize("vertices", [[0, 0, 1], [-1, 0], [4, 5]])
    def test_induced_rejects_repeated_or_out_of_range(self, vertices):
        with pytest.raises(ValueError, match="distinct and in 0..4"):
            C5.induced(vertices)

    @given(oracles.graphs(max_n=10), st.data())
    @settings(max_examples=60, deadline=None)
    def test_induced_matches_edge_list(self, G, data):
        vs = data.draw(st.lists(st.integers(0, max(G.n - 1, 0)), unique=True, max_size=G.n))
        H = G.induced(vs)
        assert H.n == len(vs)
        assert H.edges() == oracles.induced_edges(G, vs)

    def test_connectivity(self):
        assert Graph.path(6).is_connected()
        assert Graph(0).is_connected()
        assert Graph(1).is_connected()
        assert not Graph(2).is_connected()
        assert not Graph(4, [(0, 1), (2, 3)]).is_connected()

    def test_mask_helpers(self):
        assert mask_of((0, 3)) == 0b1001
        assert members(0b1001) == (0, 3)
        assert members(0) == ()


class TestCliqueKernels:
    @given(oracles.graphs(max_n=8))
    @settings(max_examples=60, deadline=None)
    def test_count_matches_brute(self, G):
        for b in range(1, 5):
            assert count_cliques(G, b) == len(oracles.cliques(G, b))

    @given(oracles.graphs(max_n=8), st.data())
    @settings(max_examples=60, deadline=None)
    def test_within_restriction(self, G, data):
        within = data.draw(st.integers(min_value=0, max_value=G.full_mask))
        for b in range(1, 5):
            want = oracles.cliques(G, b, within=members(within))
            assert _kernels.count_cliques(G.adj, b, within) == len(want)

    @given(oracles.graphs(max_n=8), st.data())
    @settings(max_examples=60, deadline=None)
    def test_weighted_count_matches_brute(self, G, data):
        weights = data.draw(st.lists(st.integers(1, 5), min_size=G.n, max_size=G.n))
        within = data.draw(st.integers(min_value=0, max_value=G.full_mask))

        def weigh(mask):
            return sum(weights[v] for v in members(mask))

        for b in range(5):
            cliques = oracles.cliques(G, b, within=members(within))
            want = sum(prod(weights[v] for v in K) for K in cliques)
            assert _kernels.count_cliques(G.adj, b, within, weigh=weigh) == want

    def test_zero_size(self):
        assert count_cliques(C5, 1) == 5
        with pytest.raises(ValueError):
            count_cliques(C5, 0)

    @given(oracles.graphs(max_n=8))
    @settings(max_examples=60, deadline=None)
    def test_clique_number(self, G):
        assert clique_number(G) == oracles.clique_number(G)

    @given(oracles.graphs(max_n=8))
    @settings(max_examples=40, deadline=None)
    def test_max_clique_witness(self, G):
        size, vs = max_clique_witness(G)
        assert size == oracles.clique_number(G)
        assert len(vs) == size and oracles.is_clique(G, vs)


@st.composite
def mirrored_graphs(draw, max_pairs=7):
    """Bitmask adjacency on 2k vertices, each edge added with its image
    under the involution v <-> v ^ 1, and a mask closed under it."""
    k = draw(st.integers(min_value=0, max_value=max_pairs))
    adj = [0] * (2 * k)
    for u, v in combinations(range(2 * k), 2):
        if draw(st.booleans()):
            for a, b in ((u, v), (u ^ 1, v ^ 1)):
                adj[a] |= 1 << b
                adj[b] |= 1 << a
    keep = draw(st.lists(st.booleans(), min_size=k, max_size=k))
    return adj, sum(0b11 << 2 * i for i, f in enumerate(keep) if f)


class TestMaxCliqueMirror:
    @given(mirrored_graphs())
    # the mirror may prune only at the root: dropping images below it
    # loses this graph's 6-clique
    @example(([4084, 4088, 1657, 2486, 3951, 3999, 3863, 3883, 3323, 3319, 1015, 1019], 4095))
    @settings(max_examples=80, deadline=None)
    def test_mirror_keeps_the_clique_size(self, case):
        adj, mask = case
        size, witness = _kernels.max_clique(adj, mask, mirror=[v ^ 1 for v in range(len(adj))])
        assert size == _kernels.max_clique(adj, mask)[0]
        vs = members(witness)
        assert len(vs) == size and witness & ~mask == 0
        assert all(adj[u] >> v & 1 for u, v in combinations(vs, 2))


class TestChromatic:
    @given(oracles.graphs(max_n=7))
    @settings(max_examples=50, deadline=None)
    def test_matches_brute(self, G):
        assert chromatic_number(G) == oracles.chromatic_number(G)

    @given(oracles.graphs(max_n=9))
    @settings(max_examples=40, deadline=None)
    def test_given_omega_matches_brute(self, G):
        # a caller's ω replaces the kernel's own clique search, not the answer
        want = oracles.chromatic_number(G)
        assert chromatic_number(G, omega=clique_number(G)) == want
        assert chromatic_number(G) == want

    def test_pinned(self):
        assert chromatic_number(Graph(0)) == 0
        assert chromatic_number(Graph(3)) == 1
        assert chromatic_number(C5) == 3
        assert chromatic_number(Graph.complete(6)) == 6
        assert chromatic_number(Graph.cycle(6)) == 2


class TestChromaticGreedyExit:
    @given(oracles.graphs(max_n=9))
    @settings(max_examples=60, deadline=None)
    def test_search_only_when_greedy_exceeds_omega(self, G):
        calls = []
        kcolour = _kernels._kcolour

        def counted(adj, k, uncol, meter):
            calls.append(k)
            return kcolour(adj, k, uncol, meter)

        _kernels._kcolour = counted
        try:
            chi = chromatic_number(G, omega=clique_number(G))
        finally:
            _kernels._kcolour = kcolour
        assert chi == oracles.chromatic_number(G)
        greedy = _kernels._color_order(G.adj, G.full_mask)[1][-1] if G.n else 0
        assert bool(calls) == (G.edge_count() > 0 and greedy > clique_number(G))

    @pytest.mark.parametrize("G, searches", [(Graph.cycle(8), 0), (Graph.cycle(7), 1)])
    def test_even_cycle_runs_no_search(self, G, searches, monkeypatch):
        calls = []
        kcolour = _kernels._kcolour
        monkeypatch.setattr(_kernels, "_kcolour", lambda adj, k, *rest: calls.append(k) or kcolour(adj, k, *rest))
        assert chromatic_number(G) == 2 + G.n % 2
        assert len(calls) == searches

    @pytest.mark.parametrize("G", [Graph.cycle(8), Graph.cycle(7)])
    def test_greedy_classes_of_the_whole_graph_once(self, G, monkeypatch):
        # the root of the clique search and the greedy exit share one
        # colouring of the whole graph
        masks = []
        color_order = _kernels._color_order

        def counted(adj, cand):
            masks.append(cand)
            return color_order(adj, cand)

        monkeypatch.setattr(_kernels, "_color_order", counted)
        assert chromatic_number(G) == 2 + G.n % 2
        assert masks.count(G.full_mask) == 1


class TestChromaticOrder:
    def test_blowup_within_cap(self):
        # 144 vertices; DSATUR with forward checking takes 83 nodes
        G = hypercube_lb(4).G
        with SearchBudget(max_nodes=100):
            assert chromatic_number(G) == 4

    def test_kneser_within_cap(self):
        # χ(K(9,3)) = 9 - 6 + 2 (Lovász) in 1,105 nodes
        with SearchBudget(max_nodes=20_000):
            assert chromatic_number(kneser(9, 3)) == 5

    def test_long_odd_cycle(self):
        # ω = 2 below the greedy 3: the 2-colouring search fails 1,500
        # vertices deep, past any recursion limit
        assert chromatic_number(Graph.cycle(1501)) == 3

    def test_long_shuffled_path(self):
        # a relabelled path whose greedy classes are 3, so the 2-colouring
        # search runs, and succeeds, 1,500 vertices deep
        label = list(range(1500))
        random.Random(7).shuffle(label)
        G = Graph(1500, [(label[i], label[i + 1]) for i in range(1499)])
        assert _kernels._color_order(G.adj, G.full_mask)[1][-1] == 3
        assert chromatic_number(G) == 2


class TestChromaticAtGreedyCount:
    # ω = the greedy count = 2 on a path: χ is answered with no colouring
    # search, so neither the search depth nor the node count grows with n
    def test_long_path(self):
        assert chromatic_number(Graph.path(1500)) == 2

    def test_path_within_node_cap(self):
        with SearchBudget(max_nodes=50):
            assert chromatic_number(Graph.path(100)) == 2


class TestMis:
    @given(oracles.graphs(max_n=8))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute(self, G):
        assert [members(s) for s in mis_family(G).sets] == oracles.maximal_independent_sets(G)

    def test_pinned(self):
        assert [members(s) for s in mis_family(Graph(0)).sets] == [()]
        assert [members(s) for s in mis_family(Graph(2)).sets] == [(0, 1)]
        assert [members(s) for s in mis_family(C5).sets] == [(0, 2), (0, 3), (1, 3), (1, 4), (2, 4)]


class TestCodegree:
    @given(oracles.graphs(max_n=7))
    @settings(max_examples=40, deadline=None)
    def test_codegree_matches_brute(self, G):
        for a in (1, 2, 3):
            assert codegree_min(G, a) == oracles.codegree_min(G, a)

    @given(oracles.graphs(max_n=7))
    @settings(max_examples=40, deadline=None)
    def test_codensity_matches_brute(self, G):
        for a, b in ((1, 2), (2, 2), (2, 3), (3, 2)):
            assert clique_codensity(G, a, b) == oracles.clique_codensity(G, a, b)

    @given(oracles.graphs(max_n=9), st.lists(st.integers(min_value=1, max_value=3), min_size=9, max_size=9))
    @settings(max_examples=40, deadline=None)
    def test_codensity_is_the_least_fraction(self, F, sizes):
        # the integer comparison finds the least of the per-co-neighbourhood
        # Fractions, on a graph and on a blow-up of it
        for G in (F, blowup(F, sizes[: F.n])):
            for a, b in ((1, 2), (2, 2), (2, 3), (3, 2)):
                counts = _graphs._coneighborhood_counts(*_graphs._blowup_quotient(G), a, b, budget._FREE)
                least = min((Fraction(count, comb(size, b) or 1) for _, size, count in counts), default=None)
                assert clique_codensity(G, a, b) == least

    def test_pinned(self):
        assert codegree_min(C5, 2) == 1
        assert codegree_min(Graph.complete(4), 2) is None
        assert clique_codensity(C5, 2, 2) == 0
        assert clique_codensity(Graph.complete(4), 2, 2) is None
        with pytest.raises(ValueError):
            codegree_min(C5, 0)
        with pytest.raises(ValueError):
            clique_codensity(C5, 1, 1)


class TestP4:
    def test_path_endpoints(self):
        assert has_induced_p4(Graph.path(4), 0, 3) == (1, 2)
        assert has_induced_p4(Graph.path(4), 0, 2) is None

    def test_cycle(self):
        assert has_induced_p4(C5, 0, 2) == (4, 3)

    def test_adjacent_pair(self):
        assert has_induced_p4(Graph.complete(4), 0, 1) is None
        with pytest.raises(ValueError):
            has_induced_p4(C5, 2, 2)

    @given(oracles.graphs(max_n=7, min_n=2))
    @settings(max_examples=60, deadline=None)
    def test_witness_is_induced_path(self, G):
        def path_exists(u, v):
            return any(
                G.has_edge(u, y)
                and G.has_edge(y, z)
                and G.has_edge(z, v)
                and not G.has_edge(u, z)
                and not G.has_edge(y, v)
                for y in range(G.n)
                for z in range(G.n)
                if len({u, v, y, z}) == 4
            )

        for u, v in combinations(range(G.n), 2):
            got = has_induced_p4(G, u, v)
            if G.has_edge(u, v):
                assert got is None
                continue
            assert (got is not None) == path_exists(u, v)
            if got is not None:
                y, z = got
                assert G.has_edge(u, y) and G.has_edge(y, z) and G.has_edge(z, v)
                assert not G.has_edge(u, z) and not G.has_edge(y, v)
                assert len({u, v, y, z}) == 4


class TestMaximality:
    def test_kr_free(self):
        assert is_kr_free(C5, 3)
        assert not is_kr_free(Graph.complete(3), 3)
        assert is_kr_free(Graph.complete(3), 4)
        assert is_kr_free(Graph(1), 2)
        with pytest.raises(ValueError):
            is_kr_free(C5, 1)

    def test_maximal(self):
        assert is_maximal_kr_free(C5, 3)
        assert not is_maximal_kr_free(Graph.path(4), 3)
        assert is_maximal_kr_free(blowup(Graph.complete(3), [3, 3, 3]), 4)
        assert not is_maximal_kr_free(blowup(Graph.complete(3), [3, 3, 3]), 3)

    def test_maximality_charges_each_coneighbourhood(self, monkeypatch):
        # the twin quotient of hypercube_lb(5).G has 680 non-adjacent class
        # pairs and 10 classes of two or more twins; at r = 3 each test is
        # a popcount, so the meter counts the co-neighbourhoods themselves.
        # The budget also holds the K_3 count that is_kr_free runs first.
        meters = []
        meter = SearchBudget.meter
        monkeypatch.setattr(SearchBudget, "meter", lambda b, op: meters.append(meter(b, op)) or meters[-1])
        G = hypercube_lb(5).G
        with SearchBudget() as b:
            assert is_maximal_kr_free(G, 3)
        assert [(m.op, m.nodes) for m in meters] == [("count_cliques", 207), ("is_maximal_kr_free", 690)]
        assert b.nodes == 897
        with pytest.raises(BudgetExceeded) as exc, SearchBudget(max_nodes=896):
            is_maximal_kr_free(G, 3)
        assert exc.value.op == "is_maximal_kr_free"
        with SearchBudget(max_nodes=897):
            assert is_maximal_kr_free(G, 3)

    def test_r2_degenerates_to_edgeless(self):
        assert is_maximal_kr_free(Graph(3), 2)
        assert is_maximal_kr_free(Graph(1), 2)
        assert not is_maximal_kr_free(Graph(3, [(0, 1)]), 2)

    @given(oracles.graphs(max_n=7))
    @settings(max_examples=40, deadline=None)
    def test_matches_definition(self, G):
        for r in (3, 4):
            free = len(oracles.cliques(G, r)) == 0
            maximal = free and all(
                oracles.cliques(Graph(G.n, G.edges() + [(u, v)]), r)
                for u, v in combinations(range(G.n), 2)
                if not G.has_edge(u, v)
            )
            assert is_kr_free(G, r) == free
            assert is_maximal_kr_free(G, r) == maximal


def test_coneighbourhood_counts_charge_one_rule(monkeypatch):
    # hypercube_lb(5).G has 690 co-neighbourhoods for a = 2: each of the
    # four functions charges its meter one node per co-neighbourhood plus
    # the nodes of its clique counts (ultra_parameter's K_3 check among
    # them; is_maximal_kr_free runs its own under count_cliques)
    meters = []
    meter = SearchBudget.meter
    monkeypatch.setattr(SearchBudget, "meter", lambda b, op: meters.append(meter(b, op)) or meters[-1])
    clique_nodes = Counter()
    count = _kernels.count_cliques

    def counted(adj, b, mask, weigh=int.bit_count, meter=None):
        before = meter.nodes if meter else 0
        try:
            return count(adj, b, mask, weigh, meter)
        finally:
            if meter:
                clique_nodes[meter.op] += meter.nodes - before

    monkeypatch.setattr(_kernels, "count_cliques", counted)
    G = hypercube_lb(5).G
    with SearchBudget():
        codegree_min(G, 2)
        clique_codensity(G, 2, 2)
        is_maximal_kr_free(G, 3)
        ultra_parameter(G, 3)
    ops = ["codegree_min", "clique_codensity", "is_maximal_kr_free", "ultra_parameter"]
    assert {m.op: m.nodes for m in meters if m.op in ops} == {
        "codegree_min": 690,
        "clique_codensity": 690 + 2_010,
        "is_maximal_kr_free": 690,
        "ultra_parameter": 690 + 207,
    }
    assert all(m.nodes == 690 + clique_nodes[m.op] for m in meters if m.op in ops)


class TestBudget:
    def test_nodes_cap(self):
        G = random_graph(40, 1, 2, 7)
        with pytest.raises(BudgetExceeded) as exc, SearchBudget(max_nodes=5):
            chromatic_number(G)
        assert exc.value.reason == "nodes"
        assert exc.value.nodes > 5

    def test_unlimited_and_roomy(self):
        with SearchBudget():
            assert chromatic_number(C5) == 3
        with SearchBudget(max_nodes=10**6):
            assert chromatic_number(C5) == 3

    @pytest.mark.parametrize("field", ["max_nodes", "max_millis"])
    def test_rejects_negative(self, field):
        with pytest.raises(ValueError, match=f"{field} must be nonnegative"):
            SearchBudget(**{field: -1})
        assert getattr(SearchBudget(**{field: 0}), field) == 0

    def test_value_semantics(self):
        b = SearchBudget(max_nodes=10, max_millis=20)
        assert repr(b) == "SearchBudget(max_nodes=10, max_millis=20)"
        assert repr(SearchBudget()) == "SearchBudget(max_nodes=None, max_millis=None)"
        assert (b.max_nodes, b.max_millis) == (10, 20)
        with pytest.raises(ValueError, match="max_millis must be nonnegative"):
            SearchBudget(0, -1)

    def test_budget_is_one_account(self):
        # each clique_number(C5) charges 2 nodes, all to the one budget
        with SearchBudget(max_nodes=10**6) as b:
            for _ in range(3):
                assert clique_number(C5) == 2
        assert b.nodes == 6
        with SearchBudget(max_nodes=5):
            for _ in range(2):
                assert clique_number(C5) == 2
            with pytest.raises(BudgetExceeded) as exc:
                clique_number(C5)
        assert (exc.value.reason, exc.value.nodes) == ("nodes", 6)

    def test_inner_budget_replaces_the_outer_until_it_ends(self):
        # with no budget in force a search charges nothing; a nested
        # ``with`` charges only the inner budget, re-entering a budget
        # charges it again, and each exit restores the budget before it
        outer, inner = SearchBudget(), SearchBudget()
        with outer:
            clique_number(C5)
            with inner:
                clique_number(C5)
                with outer:
                    clique_number(C5)
                clique_number(C5)
            clique_number(C5)
        assert clique_number(C5) == 2
        assert (outer.nodes, inner.nodes) == (6, 4)
        assert budget._active.get() is None


class TestBudgetDeadline:
    def test_deadline_is_shared(self, monkeypatch):
        # the clock reads 0 as the budget and the first meter are made and
        # 1 after that: the 500 ms deadline passes between the two calls,
        # so the second raises as it opens, before its first node, with
        # the first call's 2 nodes on the budget
        ticks = iter([0.0, 0.0])
        monkeypatch.setattr(budget, "time", SimpleNamespace(monotonic=lambda: next(ticks, 1.0)))
        with SearchBudget(max_millis=500):
            assert clique_number(C5) == 2
            with pytest.raises(BudgetExceeded) as exc:
                clique_number(C5)
        assert (exc.value.op, exc.value.reason, exc.value.nodes) == ("clique_number", "time", 2)

    def test_caps_are_read_on_every_check(self, monkeypatch):
        with SearchBudget() as b:
            assert clique_number(C5) == 2
            b.max_nodes = 3
            with pytest.raises(BudgetExceeded) as exc:
                clique_number(C5)
            assert (exc.value.reason, exc.value.nodes) == ("nodes", 4)
            b.max_nodes, b.max_millis = None, 0
            monkeypatch.setattr(budget, "time", SimpleNamespace(monotonic=lambda: b._start + 1.0))
            with pytest.raises(BudgetExceeded) as exc:
                clique_number(C5)
        assert (exc.value.reason, exc.value.nodes) == ("time", 4)


def _cliques_by_complement(adj, b, mask):
    """The b-cliques inside ``mask`` (b >= 1) as bitmasks: the independent
    b-sets of the complement within ``mask``, walked by the kernels' one
    generator of independent sets."""
    co = [mask & ~row & ~(1 << v) for v, row in enumerate(adj)]
    return [I for I, _ in _kernels._independent_sets(co, b, mask)]


class TestIndependentSets:
    @given(oracles.graphs(max_n=9), st.integers(1, 4), st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force(self, G, a, data):
        mask = data.draw(st.integers(0, G.full_mask))
        got = list(_kernels._independent_sets(G.adj, a, mask))
        assert got == oracles.independent_sets(G, a, mask)

    @given(oracles.graphs(max_n=9), st.integers(1, 4), st.data())
    @settings(max_examples=150, deadline=None)
    def test_list_cliques_nodes_match_reference(self, G, b, data):
        mask = data.draw(st.integers(0, G.full_mask))
        assert _cliques_by_complement(G.adj, b, mask) == oracles.list_cliques(G.adj, b, mask)

    def test_list_cliques_nodes_on_a_dense_graph(self):
        G = random_graph(60, 3, 4, 1)
        got = _cliques_by_complement(G.adj, 4, G.full_mask)
        assert len(got) == 96_207
        assert got == oracles.list_cliques(G.adj, 4, G.full_mask)
