from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import oracles
import ultrafree.setsystems
from ultrafree.budget import BudgetExceeded, SearchBudget
from ultrafree.constructions import hypercube_lb, kneser
from ultrafree.errors import PreconditionViolated
from ultrafree.graphs import Graph, chromatic_number, mask_of, members
from ultrafree.setsystems import (
    FractionalSolution,
    Infeasible,
    SetSystem,
    disjointness_graph,
    dual,
    fractional_transversal,
    has_pq_property,
    helly_number,
    matching_number,
    maximal_intersecting_subfamilies,
    mis_family,
    mis_star_system,
    neighborhood_system,
    transversal_number,
    vc_dimension,
)

C5 = Graph.cycle(5)


def certify(sol: FractionalSolution, F: SetSystem) -> None:
    """Re-check optimality from scratch: both solutions feasible and equal
    in value, which by weak duality certifies both."""
    tau_total = sum(sol.weights.values(), Fraction(0))
    assert tau_total == sol.value
    assert all(w >= 0 for w in sol.weights.values())
    for s in F.sets:
        assert sum(
            (w for p, w in sol.weights.items() if s >> p & 1), Fraction(0)
        ) >= 1
    nu = sol.dual
    nu_total = sum(nu.weights.values(), Fraction(0))
    assert nu_total == nu.value == sol.value
    assert all(w >= 0 for w in nu.weights.values())
    for p in range(F.ground):
        assert sum(
            (w for j, w in nu.weights.items() if F.sets[j] >> p & 1), Fraction(0)
        ) <= 1


class TestSetSystem:
    def test_construction(self):
        F = SetSystem(4, [(0, 1), (2,), ()])
        assert F.ground == 4 and len(F) == 3
        assert F.sets == (0b11, 0b100, 0)

    def test_duplicates_are_members(self):
        F = SetSystem(2, [(0,), (0,)])
        assert len(F) == 2
        assert matching_number(F)[0] == 1

    def test_rejects(self):
        with pytest.raises(ValueError, match="set element out of ground range"):
            SetSystem(2, [(2,)])
        with pytest.raises(ValueError, match="set element out of ground range"):
            SetSystem(3, [(-1,)])
        with pytest.raises(ValueError):
            SetSystem(-1, [])

    def test_identity(self):
        assert SetSystem(3, [(0, 1)]) == SetSystem(3, [(1, 0)])
        assert SetSystem(3, [(0,)]) != SetSystem(3, [(1,)])


class TestTranspose:
    def test_computed_once_and_not_identity(self):
        F = SetSystem(3, [(0, 1), (1, 2)])
        covers = ultrafree.setsystems._element_cover_masks(F)
        assert covers == (0b01, 0b11, 0b10)
        assert ultrafree.setsystems._element_cover_masks(F) is covers
        G = SetSystem(3, [(0, 1), (1, 2)])
        assert F == G and hash(F) == hash(G)

    def test_dual_leaves_its_own_transpose_unfilled(self):
        # the stars' transpose is rebuilt from the stars, never copied from
        # the system they came from, so maximal stars test the stars
        mis = mis_family(C5)
        stars = dual(mis)
        assert stars._covers is None
        assert ultrafree.setsystems._element_cover_masks(stars) == mis.sets


class TestDual:
    @given(oracles.set_systems())
    @settings(max_examples=80, deadline=None)
    def test_transpose(self, F):
        D = dual(F)
        assert D.ground == len(F.sets) and len(D.sets) == F.ground
        for v in range(F.ground):
            for i in range(len(F.sets)):
                assert bool(D.sets[v] >> i & 1) == bool(F.sets[i] >> v & 1)

    @given(oracles.set_systems())
    @settings(max_examples=40, deadline=None)
    def test_involution(self, F):
        assert dual(dual(F)).sets == F.sets


class TestDisjointness:
    @given(oracles.set_systems())
    @settings(max_examples=40, deadline=None)
    def test_edges_iff_disjoint(self, F):
        G = disjointness_graph(F)
        assert G.n == len(F.sets)
        for i in range(G.n):
            for j in range(i + 1, G.n):
                assert G.has_edge(i, j) == (not F.sets[i] & F.sets[j])


class TestTransversalMatching:
    @given(oracles.set_systems())
    @settings(max_examples=60, deadline=None)
    def test_match_brute(self, F):
        nu, nu_wit = matching_number(F)
        assert nu == oracles.matching_number(F)
        union = 0
        for i in nu_wit:
            assert not F.sets[i] & union
            union |= F.sets[i]
        if all(s for s in F.sets):
            tau, tau_wit = transversal_number(F)
            assert tau == oracles.transversal_number(F)
            hit = mask_of(tau_wit)
            assert all(s & hit for s in F.sets)
            assert len(tau_wit) == tau
            assert nu <= tau
        elif F.sets:
            with pytest.raises(Infeasible):
                transversal_number(F)

    def test_star_system_values(self):
        stars = mis_star_system(C5)
        assert transversal_number(stars)[0] == 3
        assert matching_number(stars)[0] == 2

    def test_empty_family(self):
        F = SetSystem(3, [])
        assert transversal_number(F) == (0, ())
        assert matching_number(F) == (0, ())

    def test_matching_budget(self):
        F = mis_star_system(C5)
        with pytest.raises(BudgetExceeded) as exc, SearchBudget(max_nodes=1):
            matching_number(F)
        assert exc.value.op == "matching_number"

    def test_transversal_solves_no_lp(self, monkeypatch):
        def no_lp(c, A, b):
            raise AssertionError("transversal_number must not solve an LP")

        monkeypatch.setattr(ultrafree.setsystems, "max_simplex", no_lp)
        assert transversal_number(mis_star_system(C5))[0] == 3

    def test_transversal_budget(self):
        F = mis_star_system(C5)
        with pytest.raises(BudgetExceeded) as exc, SearchBudget(max_nodes=1):
            transversal_number(F)
        assert exc.value.op == "transversal_number"

    @pytest.mark.parametrize("m, k", [(5, 2), (6, 2), (7, 2)])
    def test_kneser_tau_is_chromatic(self, m, k):
        # Lovász: chi(K(m, k)) = m - 2k + 2.  For (6, 2) and (7, 2) the
        # fractional bound ceil(m / k) lies below tau, so the search closes
        # that gap on its combinatorial bounds alone.
        G = kneser(m, k)
        assert transversal_number(mis_star_system(G))[0] == chromatic_number(G) == m - 2 * k + 2


class TestFractional:
    @given(oracles.set_systems())
    @settings(max_examples=60, deadline=None)
    def test_certified_duality(self, F):
        if any(s == 0 for s in F.sets):
            with pytest.raises(Infeasible):
                fractional_transversal(F)
            return
        sol = fractional_transversal(F)
        certify(sol, F)
        if F.sets:
            assert matching_number(F)[0] <= sol.value <= transversal_number(F)[0]

    def test_hypercube_lb4_star_system(self):
        # 24 sets over 328 points and 22,875 nodes, which the full
        # tableau took about 30 s to write
        F = mis_star_system(hypercube_lb(4).H)
        with SearchBudget(max_millis=20000):
            sol = fractional_transversal(F)
        assert sol.value == Fraction(104, 31)
        certify(sol, F)

    def test_empty_set_is_a_precondition(self):
        F = SetSystem(2, [(), (1,)])
        for solve in (fractional_transversal, transversal_number):
            with pytest.raises(PreconditionViolated):
                solve(F)

    def test_c5_value(self):
        sol = fractional_transversal(mis_star_system(C5))
        assert sol.value == Fraction(5, 2)
        certify(sol, mis_star_system(C5))

    def test_integral_example(self):
        F = SetSystem(4, [(0, 1), (2, 3)])
        assert fractional_transversal(F).value == 2

    def test_budget(self):
        F = mis_star_system(C5)
        with pytest.raises(BudgetExceeded) as exc, SearchBudget(max_nodes=1):
            fractional_transversal(F)
        assert exc.value.op == "fractional_transversal"
        with SearchBudget(max_nodes=10**6):
            assert fractional_transversal(F).value == Fraction(5, 2)


def _metered_vc_dimension(F):
    """``vc_dimension(F)`` under an unlimited budget: its result and the
    node count of the one meter it opens."""
    meters = []

    class Recording(SearchBudget):
        __slots__ = ()

        def meter(self, op):
            meters.append(super().meter(op))
            return meters[-1]

    with Recording():
        result = vc_dimension(F)
    (meter,) = meters
    return result, meter.nodes


class TestVcDimension:
    @given(oracles.set_systems(max_ground=8, max_sets=12))
    @settings(max_examples=150, deadline=None)
    def test_masks_match_the_tuple_levels(self, F):
        ref = SearchBudget().meter("vc_dimension")
        assert _metered_vc_dimension(F) == (oracles.vc_dimension_metered(F, ref), ref.nodes)

    def test_graph_systems_match_the_tuple_levels(self, small_catalog):
        for G in small_catalog:
            for F in (neighborhood_system(G), mis_star_system(G), mis_family(G)):
                ref = SearchBudget().meter("vc_dimension")
                want = oracles.vc_dimension_metered(F, ref), ref.nodes
                assert _metered_vc_dimension(F) == want

    @given(oracles.set_systems())
    @settings(max_examples=80, deadline=None)
    def test_match_brute(self, F):
        d, witness = vc_dimension(F)
        assert d == oracles.vc_dimension(F)
        assert witness == min(oracles.max_shattered_sets(F))

    def test_pinned(self):
        assert vc_dimension(SetSystem(3, []))[0] == 0
        assert vc_dimension(mis_star_system(C5))[0] == 2
        assert vc_dimension(neighborhood_system(C5)) == (2, (0, 2))
        powerset = SetSystem(3, [tuple(range(3))])  # one set shatters nothing > 0
        assert vc_dimension(powerset)[0] == 0


class TestHelly:
    @given(oracles.set_systems())
    @settings(max_examples=80, deadline=None)
    def test_match_brute(self, F):
        assert helly_number(F) == oracles.helly_number(F)

    def test_conventions(self):
        assert helly_number(SetSystem(3, [])) == 0
        assert helly_number(SetSystem(3, [(0, 1), (0, 2)])) == 1
        assert helly_number(SetSystem(3, [()])) == 1
        assert helly_number(SetSystem(3, [(), (0,), (1,)])) == 2

    def test_interval_like(self):
        # three pairwise-intersecting sets with empty triple intersection
        F = SetSystem(3, [(0, 1), (1, 2), (0, 2)])
        assert helly_number(F) == 3

    def test_star_systems_are_two_helly(self):
        assert helly_number(mis_star_system(C5)) == 2
        assert helly_number(mis_star_system(Graph(3))) == 1

    @pytest.mark.parametrize("n", range(2, 9))
    def test_singleton_complements(self, n):
        # each member's private witness is its missing point, so the whole
        # family is minimal and the bound of popcount(inter) is tight
        F = SetSystem(n, [tuple(x for x in range(n) if x != i) for i in range(n)])
        assert helly_number(F) == n


class TestPq:
    @given(oracles.set_systems())
    @settings(max_examples=40, deadline=None)
    def test_match_brute(self, F):
        for p, q in ((2, 2), (3, 2), (3, 3), (4, 2), (4, 3), (5, 3), (5, 5)):
            assert has_pq_property(F, p, q) == oracles.pq_property(F, p, q)

    def test_rejects(self):
        with pytest.raises(ValueError):
            has_pq_property(SetSystem(2, []), 2, 3)
        with pytest.raises(ValueError):
            has_pq_property(SetSystem(2, []), 1, 1)

    def test_small_family_vacuous(self):
        assert has_pq_property(SetSystem(2, [(0,), (1,)]), 3, 2)

    def test_deep_family_needs_no_recursion(self):
        # 1500 pairwise-disjoint sets: the search goes 1500 members deep
        assert has_pq_property(SetSystem(1500, [(i,) for i in range(1500)]), 1500, 2) is False


class TestPqProperties:
    @given(oracles.set_systems(), st.sampled_from((2, 3)), st.data())
    @settings(max_examples=60, deadline=None)
    def test_every_p_matches_brute(self, F, q, data):
        ps = sorted(data.draw(st.sets(st.integers(q, 7), max_size=4)))
        got = ultrafree.setsystems._pq_properties(F, ps, q)
        assert got == {p: oracles.pq_property(F, p, q) for p in ps}

    @pytest.mark.parametrize(
        "F, p, q, nodes",
        [
            (mis_star_system(Graph.cycle(7)), 3, 2, 10),
            (mis_star_system(Graph.cycle(7)), 4, 2, 8),
            (mis_star_system(Graph.cycle(7)), 5, 2, 6),
            (mis_star_system(Graph.path(6)), 3, 2, 8),
            (SetSystem(6, [(i,) for i in range(6)]), 5, 2, 5),
            (SetSystem(5, [(0, 1, 2), (1, 2, 3), (2, 3, 4), (0, 3, 4), (0, 1, 4), (1, 3)]), 2, 2, 5),
            (SetSystem(5, [(0, 1, 2), (1, 2, 3), (2, 3, 4), (0, 3, 4), (0, 1, 4), (1, 3)]), 4, 3, 14),
        ],
    )
    def test_single_p_nodes_pinned(self, F, p, q, nodes, monkeypatch):
        meters = []
        meter = SearchBudget.meter

        def recording_meter(budget, op):
            meters.append((op, meter(budget, op)))
            return meters[-1][1]

        monkeypatch.setattr(SearchBudget, "meter", recording_meter)
        with SearchBudget():
            has_pq_property(F, p, q)
        assert [(op, m.nodes) for op, m in meters] == [("has_pq_property", nodes)]

    def test_one_meter_for_every_p(self, monkeypatch):
        # C7's stars: 10, 8 and 6 nodes one p at a time, 10 in one search
        ops = []
        meter = SearchBudget.meter

        def recording_meter(budget, op):
            ops.append(op)
            return meter(budget, op)

        monkeypatch.setattr(SearchBudget, "meter", recording_meter)
        F = mis_star_system(Graph.cycle(7))
        with SearchBudget(max_nodes=10):
            got = ultrafree.setsystems._pq_properties(F, (5, 3, 4), 2)
        assert got == {3: True, 4: True, 5: True}
        assert ops == ["has_pq_property"]
        # every p above the number of sets holds without a search
        ops.clear()
        assert ultrafree.setsystems._pq_properties(SetSystem(1, [(0,)]), (2, 3), 2) == {2: True, 3: True}
        assert ops == []

    def test_rejects_any_bad_p(self):
        with pytest.raises(ValueError, match="need p >= q >= 2"):
            ultrafree.setsystems._pq_properties(SetSystem(2, []), (3, 2), 3)


@st.composite
def _systems_with_repeats(draw):
    # a random system plus a duplicate, a subset of a member and an empty set
    F = draw(oracles.set_systems(max_sets=5))
    sets = list(F.sets)
    if sets:
        sets.append(draw(st.sampled_from(sets)))
        sets.append(draw(st.sampled_from(sets)) & draw(st.integers(0, (1 << F.ground) - 1)))
    sets.append(0)
    order = draw(st.permutations(range(len(sets))))
    return SetSystem.from_masks(F.ground, [sets[i] for i in order])


class TestMaximalIntersecting:
    @given(oracles.set_systems())
    @settings(max_examples=60, deadline=None)
    def test_match_brute(self, F):
        got = maximal_intersecting_subfamilies(F)
        assert got == sorted(got)
        assert sorted(map(members, got)) == oracles.maximal_intersecting(F)

    @given(_systems_with_repeats())
    @settings(max_examples=60, deadline=None)
    def test_duplicate_nested_and_empty_sets(self, F):
        got = maximal_intersecting_subfamilies(F)
        assert got == sorted(got)
        assert sorted(map(members, got)) == oracles.maximal_intersecting(F)

    def test_stars_recover_mis(self):
        stars = mis_star_system(C5)
        got = maximal_intersecting_subfamilies(stars)
        assert got == sorted(mis_family(C5).sets)
        assert sorted(map(members, got)) == [(0, 2), (0, 3), (1, 3), (1, 4), (2, 4)]


class TestGraphSystems:
    def test_mis_family(self):
        F = mis_family(C5)
        assert F.ground == 5
        assert [members(s) for s in F.sets] == [
            (0, 2), (0, 3), (1, 3), (1, 4), (2, 4),
        ]

    def test_star_system_is_dual(self):
        stars = mis_star_system(C5)
        assert stars.ground == 5  # one ground point per maximal independent set
        assert stars.sets == dual(mis_family(C5)).sets

    def test_neighborhood_system(self):
        N = neighborhood_system(C5)
        assert N.ground == 5 and N.sets == C5.adj
