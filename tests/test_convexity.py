from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from ultrafree.convexity import (
    ConvexitySpace,
    Measure,
    convex_hull,
    explicit_space,
    mis_space,
    radon_number,
    radon_partition,
    space_helly_number,
    subcube_space,
    verify_correspondence,
    weak_eps_net,
)
from ultrafree.errors import ClaimViolation
from ultrafree.graphs import Graph, members
from ultrafree.setsystems import SetSystem

import oracles


class TestMeasure:
    def test_uniform(self):
        mu = Measure.uniform(4)
        assert mu.weights == {p: Fraction(1, 4) for p in range(4)}
        assert mu.mass(0b0011) == Fraction(1, 2)
        assert mu.mass(0) == 0
        assert mu.mass(0b1111) == 1

    def test_zero_weights_dropped(self):
        mu = Measure({0: 1, 1: 0})
        assert mu.weights == {0: Fraction(1)}

    def test_rejects(self):
        with pytest.raises(ValueError):
            Measure({0: Fraction(1, 2)})
        with pytest.raises(ValueError):
            Measure({0: Fraction(3, 2), 1: Fraction(-1, 2)})
        with pytest.raises(ValueError):
            Measure.uniform(0)


class TestSpaceBasics:
    def test_unknown_tag(self):
        with pytest.raises(ValueError, match="kind"):
            ConvexitySpace("bogus", SetSystem(1, [(0,)]), range(1))

    def test_explicit(self):
        S = explicit_space(SetSystem(3, [(0, 1), (1, 2)]))
        assert S.ground_size == 3 and S.points == (0, 1, 2)
        assert S.hull_mask(0) == 0
        assert convex_hull(S, [1]) == (1,)
        assert convex_hull(S, [0, 2]) == (0, 1, 2)

    def test_hull_point_validation(self):
        S = explicit_space(SetSystem(3, [(0, 1)]))
        with pytest.raises(ValueError, match="range"):
            convex_hull(S, [3])
        with pytest.raises(ValueError, match="duplicate"):
            convex_hull(S, [1, 1])

    @given(oracles.set_systems(), st.integers(min_value=0))
    def test_hull_is_closure_operator(self, F, seed):
        S = explicit_space(F)
        m = seed % (1 << F.ground) if F.ground else 0
        h = S.hull_mask(m)
        assert h & m == m  # extensive
        assert S.hull_mask(h) == h  # idempotent
        # monotone against every submask obtained by clearing one bit
        for p in members(m):
            assert h & S.hull_mask(m & ~(1 << p)) == S.hull_mask(m & ~(1 << p))
        if m:
            assert h in S.convex_sets()

    @given(oracles.set_systems(max_ground=5, max_sets=5))
    def test_convex_sets_closed(self, F):
        S = explicit_space(F)
        sets = S.convex_sets()
        assert list(sets) == sorted(set(sets), key=members)
        assert S.full_mask in sets
        if S.ground_size:
            assert all(c for c in sets)
        for a in sets:
            for b in sets:
                assert (a & b) in sets or (a & b) == 0


class TestSubcube:
    def test_shapes(self):
        for d, gens in ((1, 3), (2, 9), (3, 27)):
            S = subcube_space(d)
            assert S.ground_size == 1 << d
            assert len(S.generators.sets) == gens
            assert len(set(S.generators.sets)) == gens
        with pytest.raises(ValueError):
            subcube_space(0)

    def test_closure_is_generator_family(self):
        # subcubes meet in subcubes, so the closure adds nothing new
        S = subcube_space(2)
        assert set(S.convex_sets()) == set(S.generators.sets)
        assert S.convex_sets() == (1, 3, 15, 5, 2, 10, 4, 12, 8)

    def test_hulls(self):
        S = subcube_space(2)
        assert convex_hull(S, [0, 3]) == (0, 1, 2, 3)  # antipodal pair spans
        assert convex_hull(S, [0, 1]) == (0, 1)
        assert convex_hull(S, [2]) == (2,)

    def test_radon_by_dimension(self):
        for d, r in ((1, 2), (2, 2), (3, 3)):
            S = subcube_space(d)
            assert radon_number(S, min(4, S.ground_size)) == r

    def test_radon_cap(self):
        S = subcube_space(2)
        assert radon_number(S, 1) is None
        with pytest.raises(ValueError):
            radon_number(S, 0)
        with pytest.raises(ValueError):
            radon_number(S, 5)

    def test_helly(self):
        for d in (1, 2, 3):
            assert space_helly_number(subcube_space(d)) == 2


class TestGraphSpace:
    def test_c5_layout(self):
        S = mis_space(Graph.cycle(5))
        assert S.tag == "from_graph"
        assert S.points == (5, 9, 10, 18, 20)
        assert S.generators.sets == (3, 12, 17, 6, 24)
        assert S.ground_size == 5

    def test_c5_invariants(self):
        S = mis_space(Graph.cycle(5))
        assert radon_number(S, 4) == 2
        assert space_helly_number(S) == 2

    def test_c5_partitions(self):
        S = mis_space(Graph.cycle(5))
        # the two disjoint stars around MIS 0 and 1 admit no split
        assert radon_partition(S, [0, 1]) is None
        got = radon_partition(S, [0, 1, 2, 3, 4])
        assert got == ((0, 2, 3, 4), (1,))

    def test_hull_cross_check_failure(self, monkeypatch):
        # hulls that never meet contradict the edge reformulation
        S = mis_space(Graph.cycle(5))
        monkeypatch.setattr(ConvexitySpace, "hull_mask", lambda self, mask: 0)
        with pytest.raises(ClaimViolation, match="hull/edge reformulation"):
            radon_partition(S, [0, 1, 2, 3, 4])

    def test_partition_contract(self):
        S = subcube_space(2)
        got = radon_partition(S, [0, 1, 2, 3])
        assert got == ((0, 2, 3), (1,))
        y1, y2 = got
        assert set(y1) & set(y2) == set()
        assert sorted(y1 + y2) == [0, 1, 2, 3]
        h1 = S.hull_mask(sum(1 << p for p in y1))
        h2 = S.hull_mask(sum(1 << p for p in y2))
        assert h1 & h2

    def test_partition_validation(self):
        S = subcube_space(2)
        with pytest.raises(ValueError):
            radon_partition(S, [1])
        with pytest.raises(ValueError):
            radon_partition(S, [1, 1])


class TestWeakEpsNet:
    def test_uniform_half(self):
        S = subcube_space(2)
        net = weak_eps_net(S, Measure.uniform(4), Fraction(1, 2))
        assert net == (0, 3)

    def test_uniform_quarter_hits_everything(self):
        S = subcube_space(2)
        mu = Measure.uniform(4)
        net = weak_eps_net(S, mu, Fraction(1, 4))
        assert net == (0, 1, 2, 3)
        mask = sum(1 << p for p in net)
        for c in S.convex_sets():
            if mu.mass(c) >= Fraction(1, 4):
                assert c & mask

    def test_dirac(self):
        S = subcube_space(2)
        assert weak_eps_net(S, Measure({0: 1}), 1) == (0,)

    def test_rejects_nonpositive_eps(self):
        with pytest.raises(ValueError):
            weak_eps_net(subcube_space(1), Measure.uniform(2), 0)

    @pytest.mark.parametrize("point", [99, -1])
    def test_rejects_point_off_space(self, point):
        mu = Measure({0: Fraction(1, 2), point: Fraction(1, 2)})
        with pytest.raises(ValueError, match=f"measure point {point} "):
            weak_eps_net(subcube_space(2), mu, Fraction(1, 2))

    @given(oracles.graphs(max_n=6, min_n=1), st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_coverage_property(self, G, denom):
        S = mis_space(G)
        mu = Measure.uniform(S.ground_size)
        eps = Fraction(1, denom)
        net = weak_eps_net(S, mu, eps)
        mask = sum(1 << p for p in net)
        for c in S.convex_sets():
            if mu.mass(c) >= eps:
                assert c & mask


class TestCorrespondence:
    def test_c5(self):
        R = verify_correspondence(Graph.cycle(5), 3)
        assert R.passed
        assert [c.name for c in R.checks] == [
            "chromatic-equals-transversal",
            "clique-equals-matching",
            "clique-free-matches-pq",
            "disjointness-reconstructs-graph",
            "edges-match-disjoint-stars",
            "mis-match-maximal-stars",
            "star-helly-matches-edges",
        ]
        assert all(c.status == "pass" for c in R.checks)

    def test_edgeless_has_trivial_helly(self):
        R = verify_correspondence(Graph(3), 3)
        assert R.passed
        by_name = {c.name: c for c in R.checks}
        assert by_name["star-helly-matches-edges"].value == {
            "helly": 1,
            "expected": 1,
        }

    @given(oracles.graphs(max_n=6, min_n=1), st.integers(3, 5))
    @settings(max_examples=30, deadline=None)
    def test_always_passes(self, G, r):
        assert verify_correspondence(G, r).passed
