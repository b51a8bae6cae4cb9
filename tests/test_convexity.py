import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import ultrafree.setsystems
from ultrafree.budget import BudgetExceeded, SearchBudget
from ultrafree.catalog import connected_graphs, seeded_random_graphs
from ultrafree.convexity import (
    ConvexitySpace,
    Measure,
    _radon_split,
    correspondence_checks,
    explicit_space,
    mis_space,
    radon_number,
    space_helly_number,
    subcube_space,
    weak_eps_net,
)
from ultrafree.errors import ClaimViolation
from ultrafree.graphs import Graph, members
from ultrafree.setsystems import SetSystem, dual

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
            ConvexitySpace("bogus", SetSystem(1, [(0,)]))

    def test_explicit(self):
        S = explicit_space(SetSystem(3, [(0, 1), (1, 2)]))
        assert S.ground_size == 3 and S.tag == "explicit" and S.graph is None
        assert S.hull_mask(0) == 0
        assert S.hull_mask(0b010) == 0b010
        assert S.hull_mask(0b101) == 0b111

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

    @pytest.mark.parametrize(
        "n, sha256",
        [
            (1, "dfd5726d86ed2c8b202855bbea88990ec37a26ab1d2217b55a61b4b6719ff6fd"),
            (2, "1965ab0ee865ca8a4c856e5ce4d556ddfacc8ebda42a7f0b4a9d5f3f77471f6d"),
            (3, "71e46d45c8db78615f9736180a2df773b9b4d22df66092e7594644d8ac0200ec"),
            (4, "9fd810c77d6cbddd354adde6fdfca6a4bc2231d7ea0034605760474c46e4dc52"),
            (5, "daa3eea1d610a0daf6a604deebadc41b7d05979b5f387ae8ee9737ed920bf6e8"),
        ],
    )
    def test_generators_pinned(self, n, sha256):
        # the generators in pattern order: base-3 digit i of the pattern is
        # coordinate i's value, 2 for free
        gens = subcube_space(n).generators.sets
        assert hashlib.sha256(repr(gens).encode()).hexdigest() == sha256

    def test_closure_is_generator_family(self):
        # subcubes meet in subcubes, so the closure adds nothing new
        S = subcube_space(2)
        assert set(S.convex_sets()) == set(S.generators.sets)
        assert S.convex_sets() == (1, 3, 15, 5, 2, 10, 4, 12, 8)

    def test_hulls(self):
        S = subcube_space(2)
        assert S.hull_mask(0b1001) == 0b1111  # antipodal pair spans
        assert S.hull_mask(0b0011) == 0b0011
        assert S.hull_mask(0b0100) == 0b0100

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
        assert dual(S.generators).sets == (5, 9, 10, 18, 20)
        assert S.generators.sets == (3, 12, 17, 6, 24)
        assert S.ground_size == 5

    def test_c5_invariants(self):
        S = mis_space(Graph.cycle(5))
        assert radon_number(S, 4) == 2
        assert space_helly_number(S) == 2

    def test_c5_partitions(self):
        S = mis_space(Graph.cycle(5))
        # the two disjoint stars around MIS 0 and 1 admit no split
        assert _radon_split(S, (0, 1)) is None
        got = _radon_split(S, (0, 1, 2, 3, 4))
        assert got == ((0, 2, 3, 4), (1,))

    def test_hull_cross_check_failure(self, monkeypatch):
        # hulls that never meet contradict the edge reformulation
        S = mis_space(Graph.cycle(5))
        monkeypatch.setattr(ConvexitySpace, "hull_mask", lambda self, mask: 0)
        with pytest.raises(ClaimViolation, match="hull/edge reformulation"):
            radon_number(S, 4)

    def test_partition_contract(self):
        S = subcube_space(2)
        got = _radon_split(S, (0, 1, 2, 3))
        assert got == ((0, 2, 3), (1,))
        y1, y2 = got
        assert set(y1) & set(y2) == set()
        assert sorted(y1 + y2) == [0, 1, 2, 3]
        h1 = S.hull_mask(sum(1 << p for p in y1))
        h2 = S.hull_mask(sum(1 << p for p in y2))
        assert h1 & h2


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


class TestHellyFromGenerators:
    @given(oracles.set_systems(max_ground=6, max_sets=4))
    @settings(max_examples=60, deadline=None)
    def test_explicit_matches_closure(self, F):
        # at most 2^4 closure members, so the subfamily oracle stays small
        closure = oracles.convex_closure(F.ground, F.sets)
        want = oracles.helly_number(SetSystem.from_masks(F.ground, closure))
        assert space_helly_number(explicit_space(F)) == want

    @given(oracles.set_systems(max_ground=6, max_sets=6))
    @settings(max_examples=60, deadline=None)
    def test_explicit_matches_point_oracle(self, F):
        closure = oracles.convex_closure(F.ground, F.sets)
        want = oracles.closure_helly_number(F.ground, closure)
        assert space_helly_number(explicit_space(F)) == want

    @given(oracles.graphs(max_n=8))
    @settings(max_examples=40, deadline=None)
    def test_mis_space_matches_point_oracle(self, G):
        S = mis_space(G)
        closure = oracles.convex_closure(S.ground_size, S.generators.sets)
        want = oracles.closure_helly_number(S.ground_size, closure)
        assert space_helly_number(S) == want

    def test_oracles_agree(self):
        # the point oracle against the subfamily oracle, on closures small
        # enough for the latter
        for d in (1, 2):
            S = subcube_space(d)
            closure = oracles.convex_closure(S.ground_size, S.generators.sets)
            assert oracles.closure_helly_number(S.ground_size, closure) == oracles.helly_number(
                SetSystem.from_masks(S.ground_size, closure)
            )


@st.composite
def _spaces_with_measures(draw):
    F = draw(oracles.set_systems(max_ground=6, max_sets=6).filter(lambda F: F.ground))
    raw = draw(st.lists(st.integers(0, 3), min_size=F.ground, max_size=F.ground))
    if not any(raw):
        raw[0] = 1
    weights = {p: Fraction(w, sum(raw)) for p, w in enumerate(raw)}
    eps = Fraction(draw(st.integers(1, 6)), 6)
    return F, weights, eps


class TestWeakEpsNetGreedy:
    @given(_spaces_with_measures())
    @settings(max_examples=80, deadline=None)
    def test_matches_reference_loop(self, case):
        F, weights, eps = case
        closure = oracles.convex_closure(F.ground, F.sets)
        want = oracles.weak_eps_net(F.ground, closure, weights, eps)
        assert weak_eps_net(explicit_space(F), Measure(weights), eps) == want


class TestCorrespondence:
    def test_c5(self):
        checks = correspondence_checks(Graph.cycle(5), (3,))[3]
        assert sorted(c.name for c in checks) == [
            "chromatic-equals-transversal",
            "clique-equals-matching",
            "clique-free-matches-pq",
            "disjointness-reconstructs-graph",
            "edges-match-disjoint-stars",
            "mis-match-maximal-stars",
            "star-helly-matches-edges",
        ]
        assert all(c.status == "pass" for c in checks)

    def test_edgeless_has_trivial_helly(self):
        checks = correspondence_checks(Graph(3), (3,))[3]
        assert all(c.passed for c in checks)
        by_name = {c.name: c for c in checks}
        assert by_name["star-helly-matches-edges"].value == {
            "helly": 1,
            "expected": 1,
        }

    @given(oracles.graphs(max_n=6, min_n=1), st.integers(3, 5))
    @settings(max_examples=30, deadline=None)
    def test_always_passes(self, G, r):
        assert all(c.passed for c in correspondence_checks(G, (r,))[r])

    def test_checks_match_per_r(self):
        # one shared pass over r = 3, 4, 5 gives each r's checks, check for check
        graphs = connected_graphs(5) + seeded_random_graphs(50, 10, 20260301)
        for G in graphs:
            shared = correspondence_checks(G, (3, 4, 5))
            assert list(shared) == [3, 4, 5]
            for r, checks in shared.items():
                want = correspondence_checks(G, (r,))[r]
                assert [c.to_json() for c in checks] == [c.to_json() for c in want]

    @pytest.mark.parametrize("rs", [(1,), (3, 0), ()])
    def test_rs_checked_before_any_search(self, rs, monkeypatch):
        calls = []
        real = ultrafree.setsystems.mis_family
        monkeypatch.setattr(
            ultrafree.setsystems, "mis_family", lambda G: calls.append(G) or real(G)
        )
        if rs:
            with pytest.raises(ValueError, match=f"r = {min(rs)}"):
                correspondence_checks(Graph.cycle(5), rs)
        else:
            assert correspondence_checks(Graph.cycle(5), rs) == {}
        assert calls == []

    def test_first_bad_pair(self, monkeypatch):
        # a rebuilt graph that differs from C6 on three pairs: the witness
        # is the first of them in (u, v) order
        real = ultrafree.setsystems.disjointness_graph

        def broken(F):
            adj = list(real(F).adj)
            for u, v in ((3, 5), (1, 4), (1, 3)):
                adj[u] ^= 1 << v
                adj[v] ^= 1 << u
            return Graph.from_masks(adj)

        monkeypatch.setattr(ultrafree.setsystems, "disjointness_graph", broken)
        by_name = {c.name: c for c in correspondence_checks(Graph.cycle(6), (3,))[3]}
        assert by_name["edges-match-disjoint-stars"].witness == (1, 3)
        assert by_name["disjointness-reconstructs-graph"].status == "fail"

    @pytest.mark.parametrize("rebuilt_is_g", [True, False])
    def test_matching_searched_only_off_g(self, rebuilt_is_g, monkeypatch):
        # ν is read from ω only when the rebuilt graph is G; a rebuilt
        # graph with one pair flipped gets its own matching search
        real_rebuild = ultrafree.setsystems.disjointness_graph
        real_matching = ultrafree.setsystems.matching_number
        calls = []

        def flipped(F):
            adj = list(real_rebuild(F).adj)
            adj[0] ^= 1 << 1
            adj[1] ^= 1 << 0
            return Graph.from_masks(adj)

        def matching_number(F):
            calls.append(F)
            return real_matching(F)

        if not rebuilt_is_g:
            monkeypatch.setattr(ultrafree.setsystems, "disjointness_graph", flipped)
        monkeypatch.setattr(ultrafree.setsystems, "matching_number", matching_number)
        graphs = [G for G in connected_graphs(5) if G.n >= 2]
        for G in graphs:
            by_name = {c.name: c for c in correspondence_checks(G, (3,))[3]}
            assert by_name["edges-match-disjoint-stars"].witness == (None if rebuilt_is_g else (0, 1))
        assert len(calls) == (0 if rebuilt_is_g else len(graphs))



class TestCompositeMeters:
    def test_readme_example(self, monkeypatch):
        # every sub-solver of a composite call charges the one budget in
        # force: 61 nodes over six meters, and one (r,2) search answers all
        # three r
        meters = []
        meter = SearchBudget.meter

        def recording_meter(budget, op):
            meters.append((op, meter(budget, op)))
            return meters[-1][1]

        monkeypatch.setattr(SearchBudget, "meter", recording_meter)
        with SearchBudget(max_nodes=61):
            correspondence_checks(Graph.cycle(7), (3, 4, 5))
        assert [(op, m.nodes) for op, m in meters] == [
            ("mis_family", 16),
            ("clique_number", 2),
            ("chromatic_number", 6),
            ("transversal_number", 10),
            ("helly_number", 17),
            ("has_pq_property", 10),
        ]
        assert sum(m.nodes for _, m in meters) == 61
        with pytest.raises(BudgetExceeded) as exc, SearchBudget(max_nodes=60):
            correspondence_checks(Graph.cycle(7), (3, 4, 5))
        assert (exc.value.op, exc.value.nodes) == ("has_pq_property", 61)


class TestCliqueFreeFromOmega:
    @given(oracles.graphs(max_n=8), st.sampled_from((3, 4, 5)))
    @settings(max_examples=60, deadline=None)
    def test_kr_free_value(self, G, r):
        by_name = {c.name: c for c in correspondence_checks(G, (r,))[r]}
        assert by_name["clique-free-matches-pq"].value["kr_free"] == (not oracles.cliques(G, r))
