from itertools import combinations

import pytest
from hypothesis import assume, given, settings, strategies as st

import oracles
from ultrafree.constructions import (
    blowup,
    crown,
    half_min,
    hypercube_lb,
    kneser,
    random_graph,
    turan,
    ultra_vc_example,
)
from ultrafree.decompose import twin_quotient
from ultrafree.graphs import (
    Graph,
    chromatic_number,
    clique_number,
    codegree_min,
    is_kr_free,
    is_maximal_kr_free,
)
from ultrafree.ultra import HalfGraphEmbedding
from write_catalog import canonical_form


class TestTuran:
    def test_part_structure(self):
        T = turan(7, 3)
        assert T.n == 7
        # parts of sizes 3,2,2: non-edges exactly inside parts
        non_edges = [(u, v) for u, v in combinations(range(7), 2) if not T.has_edge(u, v)]
        assert non_edges == [(0, 1), (0, 2), (1, 2), (3, 4), (5, 6)]

    def test_matches_definition(self):
        for n in range(1, 13):
            for k in range(1, n + 1):
                assert turan(n, k).edges() == oracles.turan_edges(n, k), (n, k)

    def test_extremes(self):
        assert turan(5, 1).edge_count() == 0
        assert turan(5, 5) == Graph.complete(5)
        assert clique_number(turan(20, 4)) == 4
        assert is_maximal_kr_free(turan(20, 4), 5)

    def test_rejects(self):
        with pytest.raises(ValueError):
            turan(2, 3)
        with pytest.raises(ValueError):
            turan(2, 0)


class TestKneser:
    def test_petersen(self):
        P = kneser(5, 2)
        assert P.n == 10 and P.edge_count() == 15
        assert all(P.degree(v) == 3 for v in range(10))
        assert is_kr_free(P, 3)
        assert chromatic_number(P) == 3

    def test_matching_graph(self):
        K = kneser(4, 2)
        # three disjoint pairs of complementary 2-sets
        assert K.n == 6 and K.edge_count() == 3

    def test_rejects(self):
        with pytest.raises(ValueError):
            kneser(3, 2)
        # a negative k is named, not left to itertools.combinations
        with pytest.raises(ValueError, match="k >= 0"):
            kneser(5, -1)
        assert kneser(5, 0).n == 1


class TestCrown:
    def test_edge_pattern(self):
        C = crown(3)
        assert C.n == 6 and C.edge_count() == 6
        for i in range(3):
            for j in range(3):
                assert C.has_edge(i, 3 + j) == (i != j)

    def test_crown_3_is_hexagon(self):
        assert canonical_form(crown(3)) == canonical_form(Graph.cycle(6))


class TestAnchoredCrown:
    def test_ultra_vc_example(self):
        G = ultra_vc_example(2)
        assert G.n == 16
        assert is_maximal_kr_free(G, 3)
        with pytest.raises(ValueError):
            ultra_vc_example(1)


class TestBlowup:
    def test_origin_and_edges(self):
        G = blowup(Graph.path(3), [2, 1, 3])
        assert G.n == 6
        # part-major: vertex v's copies follow those of 0..v-1
        origin = [v for v, size in enumerate([2, 1, 3]) for _ in range(size)]
        for u, v in combinations(range(G.n), 2):
            expect = Graph.path(3).has_edge(origin[u], origin[v])
            assert G.has_edge(u, v) == expect

    def test_identity_blowup(self):
        G = random_graph(6, 1, 2, 3)
        assert blowup(G, [1] * 6) == G

    @given(oracles.graphs(max_n=7), st.data())
    @settings(max_examples=60, deadline=None)
    def test_twin_quotient_recovers_twin_free_base(self, F, data):
        assume(len(set(F.adj)) == F.n)
        sizes = data.draw(st.lists(st.integers(1, 3), min_size=F.n, max_size=F.n))
        assert twin_quotient(blowup(F, sizes)).quotient == F

    def test_rejects(self):
        with pytest.raises(ValueError):
            blowup(Graph.path(3), [1, 1])
        with pytest.raises(ValueError):
            blowup(Graph.path(3), [1, 0, 1])


class TestHypercubePair:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_shapes(self, d):
        H, G = hypercube_lb(d)
        assert H.n == 2 * d + (1 << d)
        assert G.n == (2 * d + 1) << d

    def test_quotient_structure(self):
        H, G = hypercube_lb(2)
        # coordinate pairs, antipodal cube pairs, and cube-coordinate edges
        assert H.has_edge(0, 1) and H.has_edge(2, 3)
        base = 4
        assert H.has_edge(base + 0, base + 3) and H.has_edge(base + 1, base + 2)
        assert H.has_edge(base + 0b01, 1)  # coordinate 0 reads 1
        assert not H.has_edge(base + 0b01, 0)

    @pytest.mark.parametrize("d", [2, 3])
    def test_maximal_triangle_free_with_codegree(self, d):
        H, G = hypercube_lb(d)
        assert is_maximal_kr_free(G, 3)
        assert codegree_min(G, 2) >= 1 << (d - 2)

    def test_rejects(self):
        with pytest.raises(ValueError):
            hypercube_lb(0)


class TestHalfMin:
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_is_canonical_half_graph(self, k):
        G = half_min(k)
        assert G.n == 2 * k
        HalfGraphEmbedding(tuple(range(k)), tuple(range(k, 2 * k))).validate(G)
        # nothing beyond the forced edges
        assert G.edge_count() == k * (k - 1) // 2


class TestRandomGraph:
    def test_seeded_reproducibility(self):
        assert random_graph(12, 1, 3, 5) == random_graph(12, 1, 3, 5)
        assert random_graph(12, 1, 3, 5) != random_graph(12, 1, 3, 6)

    def test_density_extremes(self):
        assert random_graph(8, 0, 1, 1).edge_count() == 0
        assert random_graph(8, 1, 1, 1) == Graph.complete(8)

    @pytest.mark.parametrize("num, den", [(5, 2), (1, 0), (-1, 3), (0, 0)])
    def test_rejects_a_probability_outside_0_1(self, num, den):
        with pytest.raises(ValueError, match=f"p_num={num}, p_den={den}"):
            random_graph(3, num, den, 1)
