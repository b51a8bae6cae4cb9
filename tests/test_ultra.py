from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import ultrafree.ultra
from ultrafree import _kernels
from ultrafree.budget import BudgetExceeded, SearchBudget
from ultrafree.constructions import blowup, half_min, kneser, random_graph, turan
from ultrafree.errors import ClaimViolation, PreconditionViolated
from ultrafree.graphs import Graph, _blowup_quotient, is_maximal_kr_free, members
from ultrafree.ultra import (
    BiInducedMatching,
    HalfGraphEmbedding,
    UltraCertificate,
    find_half_graph,
    is_eps_ultra,
    nu_bi,
    ultra_parameter,
)

import oracles

C5 = Graph.cycle(5)


def _metered_nu_bi(G):
    """nu_bi(G) with an unlimited budget: value, witness pairs and the
    node count of the one meter it opens."""
    meters = []

    class Recording(SearchBudget):
        __slots__ = ()

        def meter(self, op):
            meters.append(super().meter(op))
            return meters[-1]

    with Recording():
        k, witness = nu_bi(G)
    (meter,) = meters
    return k, witness.pairs, meter.nodes


def _clique_of_oracle_rows(G):
    """The same search run on the pairwise-built compatibility rows: darts
    by descending row popcount, ties by dart, with the dart reversal as
    the mirror, and the witness in dart order."""
    darts, rows = oracles.dart_rows(G)
    degree = {dart: row.bit_count() for dart, row in zip(darts, rows)}
    darts = sorted(darts, key=lambda dart: (-degree[dart], dart))
    _, rows = oracles.dart_rows(G, darts)
    mirror = [darts.index((b, a)) for a, b in darts]
    meter = SearchBudget().meter("nu_bi")
    k, mask = _kernels.max_clique(rows, (1 << len(darts)) - 1, meter, mirror=mirror)
    return k, tuple(sorted(darts[i] for i in members(mask))), meter.nodes


class TestUltraParameter:
    def test_c5(self):
        cert = ultra_parameter(C5, 3)
        assert cert == UltraCertificate(3, Fraction(1, 5), (0, 2, 1))
        assert cert.admits(Fraction(1, 5))
        assert cert.admits(Fraction(1, 6))
        assert not cert.admits(Fraction(1, 4))

    def test_no_nonadjacent_pair(self):
        cert = ultra_parameter(Graph.complete(4), 5)
        assert cert.epsilon_star is None and cert.worst_pair is None
        assert cert.admits(100)

    def test_rejects(self):
        with pytest.raises(ValueError):
            ultra_parameter(C5, 2)
        with pytest.raises(PreconditionViolated, match="3-clique"):
            ultra_parameter(Graph.complete(3), 3)

    @given(oracles.graphs(max_n=7), st.integers(3, 4))
    @settings(max_examples=60, deadline=None)
    def test_match_brute(self, G, r):
        if oracles.cliques(G, r):
            return
        cert = ultra_parameter(G, r)
        assert cert.epsilon_star == oracles.epsilon_star(G, r)
        if cert.worst_pair is not None:
            u, v, count = cert.worst_pair
            assert not G.has_edge(u, v) and u != v
            assert Fraction(count, G.n ** (r - 2)) == cert.epsilon_star
            # report witnesses rely on the tie-break: the first minimizing
            # pair in ascending (u, v) order
            first = min(oracles.pair_clique_counts(G, r), key=lambda pc: pc[1])
            assert ((u, v), count) == first

    def test_one_meter_per_call(self):
        # the K_4 check takes 195 nodes and each of the 105 non-adjacent
        # pairs 6 more: a cap on the whole call is hit, a cap per pair never.
        # K(7,2) is twin-free, so its twin quotient is the graph itself.
        G = kneser(7, 2)
        with pytest.raises(BudgetExceeded) as exc, SearchBudget(max_nodes=195):
            ultra_parameter(G, 4)
        assert exc.value.op == "ultra_parameter"


class TestIsEpsUltra:
    def test_c5(self):
        assert is_eps_ultra(C5, 3, Fraction(1, 5))
        assert not is_eps_ultra(C5, 3, Fraction(1, 4))

    def test_clique_present_is_false(self):
        # not a precondition failure here: the predicate just fails
        assert not is_eps_ultra(Graph.complete(3), 3, Fraction(1, 2))

    def test_half_graph_is_not_ultra(self):
        G = half_min(2)
        assert not is_eps_ultra(G, 3, Fraction(1, 100))

    def test_rejects_nonpositive_eps(self):
        with pytest.raises(ValueError):
            is_eps_ultra(C5, 3, 0)

    @given(oracles.graphs(max_n=6, min_n=1))
    @settings(max_examples=60, deadline=None)
    def test_ultra_implies_maximal(self, G):
        if is_eps_ultra(G, 3, Fraction(1, max(G.n, 1) ** 2)):
            assert is_maximal_kr_free(G, 3)


class TestHalfGraphEmbedding:
    def test_identity_on_half_min(self):
        k = 4
        G = half_min(k)
        emb = HalfGraphEmbedding(tuple(range(k)), tuple(range(k, 2 * k)))
        emb.validate(G)

    def test_rejects(self):
        with pytest.raises(ClaimViolation, match="equal length"):
            HalfGraphEmbedding((0,), (1, 2)).validate(C5)
        with pytest.raises(ClaimViolation, match="distinct"):
            HalfGraphEmbedding((0, 1), (2, 0)).validate(C5)
        with pytest.raises(ClaimViolation, match="non-edge"):
            HalfGraphEmbedding((0,), (1,)).validate(C5)
        with pytest.raises(ClaimViolation, match="must be an edge"):
            HalfGraphEmbedding((0, 1), (3, 4)).validate(C5)

    def test_rejects_negative_vertex(self):
        # -1 and 3 are the same vertex of the 4-vertex path
        with pytest.raises(ClaimViolation, match="must lie in"):
            HalfGraphEmbedding((0, -1), (2, 3)).validate(Graph.path(4))


class TestBiInducedMatching:
    def test_empty_and_single(self):
        BiInducedMatching(()).validate(C5)
        BiInducedMatching(((0, 1),)).validate(C5)

    def test_c5_pair(self):
        BiInducedMatching(((0, 1), (3, 2))).validate(C5)

    def test_rejects(self):
        with pytest.raises(ClaimViolation, match="distinct"):
            BiInducedMatching(((0, 1), (1, 2))).validate(C5)
        with pytest.raises(ClaimViolation, match="pattern"):
            BiInducedMatching(((0, 2),)).validate(C5)  # diagonal must be an edge
        with pytest.raises(ClaimViolation, match="pattern"):
            BiInducedMatching(((0, 1), (2, 3))).validate(C5)  # edge (2,1) off-diagonal

    def test_rejects_negative_vertex(self):
        with pytest.raises(ClaimViolation, match="must lie in"):
            BiInducedMatching(((0, 1), (3, -2))).validate(Graph.path(4))


class TestNuBi:
    def test_c5(self):
        assert nu_bi(C5) == (2, BiInducedMatching(((1, 2), (4, 3))))

    def test_small(self):
        assert nu_bi(Graph(3)) == (0, BiInducedMatching(()))
        assert nu_bi(Graph.complete(4))[0] == 1
        # two parts of size >= 2 allow the swap pattern (a,b),(b',a')
        assert nu_bi(turan(6, 3))[0] == 2
        assert nu_bi(half_min(2))[0] == 1

    def test_blowup_grows_value(self):
        B = blowup(C5, [2] * 5)
        assert nu_bi(B)[0] == 3

    @given(oracles.graphs(max_n=6))
    @settings(max_examples=40, deadline=None)
    def test_match_brute(self, G):
        k, witness = nu_bi(G)
        assert k == oracles.nu_bi(G)
        assert len(witness.pairs) == k
        witness.validate(G)

    @given(oracles.graphs(max_n=12))
    @settings(max_examples=60, deadline=None)
    def test_rows_match_pairwise_oracle(self, G):
        assert _metered_nu_bi(G) == _clique_of_oracle_rows(G)

    def test_rows_match_pairwise_oracle_n28(self):
        G = random_graph(28, 1, 2, 1)
        found = _metered_nu_bi(G)
        assert found == _clique_of_oracle_rows(G)
        assert found[0] == 6
        # 644 nodes in sorted dart order without the mirror
        assert found[2] == 210

    def test_budget(self):
        with pytest.raises(BudgetExceeded) as exc, SearchBudget(max_nodes=2):
            nu_bi(Graph.cycle(9))
        assert exc.value.op == "nu_bi"

    def test_invalid_witness_is_claim_violation(self, monkeypatch):
        # darts 0 and 1 of C5 are (0, 1) and (0, 4): they share vertex 0
        monkeypatch.setattr(_kernels, "max_clique", lambda rows, cand, meter, mirror: (2, 0b11))
        with pytest.raises(ClaimViolation, match="vertices must be distinct"):
            nu_bi(C5)


class TestFindHalfGraph:
    def test_half_min_found(self):
        for k in (1, 2, 3):
            emb = find_half_graph(half_min(k), k)
            assert emb is not None and len(emb.xs) == k
            emb.validate(half_min(k))

    def test_c5(self):
        emb = find_half_graph(C5, 2)
        assert emb is not None
        emb.validate(C5)

    def test_too_large(self):
        assert find_half_graph(C5, 3) is None

    def test_complete_has_none(self):
        assert find_half_graph(Graph.complete(4), 1) is None

    def test_single_nonedge(self):
        assert find_half_graph(Graph(2), 1) == HalfGraphEmbedding((0,), (1,))

    def test_rejects(self):
        with pytest.raises(ValueError):
            find_half_graph(C5, 0)

    def test_node_budget(self):
        # C5 blown up by 3 has no half-graph on 12 vertices; proving so
        # charges 121 nodes
        G = blowup(C5, [3] * 5)
        with pytest.raises(BudgetExceeded) as exc, SearchBudget(max_nodes=10):
            find_half_graph(G, 6)
        assert exc.value.op == "find_half_graph"
        with SearchBudget(max_nodes=121):
            assert find_half_graph(G, 6) is None

    def test_invalid_embedding_is_claim_violation(self, monkeypatch):
        # the search runs on the complement's quotient, so its embedding
        # has the edges and non-edges of C5 swapped
        monkeypatch.setattr(
            ultrafree.ultra, "_blowup_quotient", lambda G: _blowup_quotient(G.complement())
        )
        with pytest.raises(ClaimViolation, match="matched pair 0 must be a non-edge"):
            find_half_graph(C5, 2)

    @given(oracles.graphs(max_n=6), st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_found_embeddings_validate(self, G, k):
        emb = find_half_graph(G, k)
        if emb is not None:
            emb.validate(G)
