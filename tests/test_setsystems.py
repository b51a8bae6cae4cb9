from fractions import Fraction

import pytest
from hypothesis import given, settings

import oracles
import ultrafree.setsystems
from ultrafree.budget import BudgetExceeded, SearchBudget
from ultrafree.constructions import kneser
from ultrafree.graphs import Graph, chromatic_number, mask_of
from ultrafree.setsystems import (
    FractionalSolution,
    Infeasible,
    SetSystem,
    disjointness_graph,
    dual,
    frac_helly_witness,
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
        assert F.set_members(0) == (0, 1)

    def test_duplicates_are_members(self):
        F = SetSystem(2, [(0,), (0,)])
        assert len(F) == 2
        assert matching_number(F)[0] == 1

    def test_rejects(self):
        with pytest.raises(ValueError):
            SetSystem(2, [(2,)])
        with pytest.raises(ValueError):
            SetSystem(-1, [])
        with pytest.raises(ValueError):
            SetSystem(2, [(0,)], labels=["a", "b"])

    def test_identity(self):
        assert SetSystem(3, [(0, 1)]) == SetSystem(3, [(1, 0)])
        assert SetSystem(3, [(0,)]) != SetSystem(3, [(1,)])


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
        with pytest.raises(BudgetExceeded) as exc:
            matching_number(mis_star_system(C5), SearchBudget(max_nodes=1))
        assert exc.value.op == "matching_number"

    def test_transversal_solves_no_lp(self, monkeypatch):
        def no_lp(c, A, b):
            raise AssertionError("transversal_number must not solve an LP")

        monkeypatch.setattr(ultrafree.setsystems, "max_simplex", no_lp)
        assert transversal_number(mis_star_system(C5))[0] == 3

    def test_transversal_budget(self):
        with pytest.raises(BudgetExceeded) as exc:
            transversal_number(mis_star_system(C5), SearchBudget(max_nodes=1))
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

    def test_c5_value(self):
        sol = fractional_transversal(mis_star_system(C5))
        assert sol.value == Fraction(5, 2)
        certify(sol, mis_star_system(C5))

    def test_integral_example(self):
        F = SetSystem(4, [(0, 1), (2, 3)])
        assert fractional_transversal(F).value == 2


class TestVcDimension:
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


class TestPq:
    @given(oracles.set_systems())
    @settings(max_examples=40, deadline=None)
    def test_match_brute(self, F):
        for p, q in ((2, 2), (3, 2), (3, 3)):
            assert has_pq_property(F, p, q) == oracles.pq_property(F, p, q)

    def test_rejects(self):
        with pytest.raises(ValueError):
            has_pq_property(SetSystem(2, []), 2, 3)
        with pytest.raises(ValueError):
            has_pq_property(SetSystem(2, []), 1, 1)

    def test_small_family_vacuous(self):
        assert has_pq_property(SetSystem(2, [(0,), (1,)]), 3, 2)


class TestFracHelly:
    def test_counts(self):
        F = SetSystem(3, [(0, 1), (1, 2), (0, 2), ()])
        alpha, beta = frac_helly_witness(F, 2)
        assert alpha == Fraction(3, 6)
        assert beta == Fraction(2, 4)

    def test_rejects(self):
        with pytest.raises(ValueError):
            frac_helly_witness(SetSystem(2, [(0,)]), 2)


class TestMaximalIntersecting:
    @given(oracles.set_systems())
    @settings(max_examples=60, deadline=None)
    def test_match_brute(self, F):
        assert maximal_intersecting_subfamilies(F) == oracles.maximal_intersecting(F)

    def test_stars_recover_mis(self):
        stars = mis_star_system(C5)
        got = maximal_intersecting_subfamilies(stars)
        assert got == [(0, 2), (0, 3), (1, 3), (1, 4), (2, 4)]


class TestGraphSystems:
    def test_mis_family(self):
        F = mis_family(C5)
        assert F.ground == 5
        assert [F.set_members(i) for i in range(len(F))] == [
            (0, 2), (0, 3), (1, 3), (1, 4), (2, 4),
        ]

    def test_star_system_is_dual(self):
        stars = mis_star_system(C5)
        assert stars.ground == 5  # one ground point per maximal independent set
        assert stars.sets == dual(mis_family(C5)).sets

    def test_neighborhood_system(self):
        N = neighborhood_system(C5)
        assert N.ground == 5 and N.sets == C5.adj
