from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import ultrafree.graphs
from ultrafree.constructions import blowup, crown, half_min, hypercube_lb, turan
from ultrafree.decompose import (
    E_UP,
    BlowupDecomposition,
    ObstructionCertificate,
    codegree_density_check,
    haussler_partition,
    min_degree_ultra_check,
    p4_obstruction,
    packing_bound,
    twin_quotient,
    vc_chromatic_partition,
    _separate,
)
from ultrafree.errors import ClaimViolation, PreconditionViolated
from ultrafree.graphs import Graph, is_maximal_kr_free

import oracles
from write_catalog import canonical_form

C5 = Graph.cycle(5)


class TestSeparatedSubfamily:
    # the greedy family haussler_partition groups around
    def test_greedy_pin(self):
        masks = (1, 3, 12, 15)
        assert _separate(masks, 1)[0] == [0, 2, 3]
        assert _separate(masks, 0)[0] == [0, 1, 2, 3]
        assert _separate(masks, 4)[0] == [0]

    def test_duplicates_collapse(self):
        assert _separate((5, 5, 5), 1)[0] == [0]

    @given(oracles.set_systems(), st.integers(0, 3))
    def test_separated_and_maximal(self, F, s):
        reps = _separate(F.sets, s)[0]
        for a in reps:
            for b in reps:
                if a != b:
                    assert (F.sets[a] ^ F.sets[b]).bit_count() > s
        for i in range(len(F.sets)):
            assert any(
                (F.sets[i] ^ F.sets[j]).bit_count() <= s for j in reps
            )


class TestPackingBound:
    def test_values(self):
        assert packing_bound(0, 100, 5) == E_UP
        assert packing_bound(1, 10, 2) == 20 * E_UP**2
        assert packing_bound(2, 6, 3) == E_UP * 3 * (4 * E_UP) ** 2

    def test_monotone_in_separation(self):
        assert packing_bound(2, 10, 4) < packing_bound(2, 10, 2)

    def test_rejects(self):
        with pytest.raises(ValueError):
            packing_bound(2, 10, 0)


class TestHausslerPartition:
    def test_c5_splits_to_singletons(self):
        deco = haussler_partition(C5, 3, Fraction(1, 5))
        assert deco == BlowupDecomposition(
            ((0,), (1,), (2,), (3,), (4,)), C5, (0, 1, 2, 3, 4)
        )

    def test_blowup_recovers_parts(self):
        B = blowup(C5, [3] * 5)
        deco = haussler_partition(B, 3, Fraction(1, 5))
        assert len(deco.parts) == 5
        assert all(len(p) == 3 for p in deco.parts)
        assert canonical_form(deco.quotient) == canonical_form(C5)
        assert oracles.is_homomorphism(B, deco.quotient, deco.origin)
        assert is_maximal_kr_free(deco.quotient, 3)
        deco.validate(B)  # idempotent re-check

    def test_preconditions(self):
        with pytest.raises(ValueError):
            haussler_partition(C5, 3, 0)
        with pytest.raises(ValueError):
            haussler_partition(C5, 2, Fraction(1, 5))
        with pytest.raises(PreconditionViolated, match="not eps-ultra"):
            haussler_partition(half_min(3), 3, Fraction(1, 2))


class TestDecompositionValidate:
    def test_partition_mismatch(self):
        deco = BlowupDecomposition(((0,),), Graph(1), (0,))
        with pytest.raises(ClaimViolation, match="partition"):
            deco.validate(Graph(2))

    def test_quotient_size(self):
        deco = BlowupDecomposition(((0,), (1,)), Graph(1), (0, 1))
        with pytest.raises(ClaimViolation, match="quotient size"):
            deco.validate(Graph(2))

    def test_origin_not_total(self):
        deco = BlowupDecomposition(((0,), (1,)), Graph(2), (0,))
        with pytest.raises(ClaimViolation, match="not total"):
            deco.validate(Graph(2))

    def test_origin_disagrees(self):
        deco = BlowupDecomposition(((0,), (1,)), Graph(2), (1, 0))
        with pytest.raises(ClaimViolation, match="disagrees"):
            deco.validate(Graph(2))

    def test_dependent_part(self):
        deco = BlowupDecomposition(((0, 1),), Graph(1), (0, 0))
        with pytest.raises(ClaimViolation, match="independent"):
            deco.validate(Graph.complete(2))

    def test_half_joined_parts(self):
        G = Graph(4, [(0, 2)])
        deco = BlowupDecomposition(((0, 1), (2, 3)), Graph(2), (0, 0, 1, 1))
        with pytest.raises(ClaimViolation, match="anti-complete"):
            deco.validate(G)

    def test_later_member_disagrees(self):
        # the first member of each part matches the quotient; 1 and 3 do not
        G = Graph(4, [(1, 3)])
        deco = BlowupDecomposition(((0, 1), (2, 3)), Graph(2), (0, 0, 1, 1))
        with pytest.raises(ClaimViolation, match="anti-complete"):
            deco.validate(G)

    def test_empty_part(self):
        deco = BlowupDecomposition(((0,), (), (1,)), Graph(3), (0, 2))
        with pytest.raises(ClaimViolation, match="partition"):
            deco.validate(Graph(2))

    def test_quotient_edge_disagrees(self):
        G = Graph(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
        deco = BlowupDecomposition(((0, 1), (2, 3)), Graph(2), (0, 0, 1, 1))
        with pytest.raises(ClaimViolation, match="disagrees with the parts"):
            deco.validate(G)


class TestTwinQuotient:
    def test_c5_blowup(self):
        B = blowup(C5, [2, 1, 3, 1, 2])
        deco = twin_quotient(B)
        assert deco.parts == ((0, 1), (2,), (3, 4, 5), (6,), (7, 8))
        assert deco.quotient == C5
        assert oracles.is_homomorphism(B, deco.quotient, deco.origin)

    def test_twin_free_is_identity(self):
        deco = twin_quotient(C5)
        assert deco.quotient == C5
        assert all(len(p) == 1 for p in deco.parts)

    def test_edgeless_collapses(self):
        deco = twin_quotient(Graph(2))
        assert deco == BlowupDecomposition(((0, 1),), Graph(1), (0, 0))

    def test_lower_bound_construction(self):
        pair = hypercube_lb(2)
        deco = twin_quotient(pair.G)
        assert deco.quotient.n == 8
        assert canonical_form(deco.quotient) == canonical_form(pair.H)


class TestVerifyHom:
    # the homomorphism oracle the decomposition tests verify with
    def test_identity(self):
        assert oracles.is_homomorphism(C5, C5, range(5))

    def test_folding(self):
        # C5 has no homomorphism to an edge
        assert not oracles.is_homomorphism(C5, Graph.complete(2), (0, 1, 0, 1, 0))

    def test_path_folds_to_edge(self):
        assert oracles.is_homomorphism(Graph.path(4), Graph.complete(2), (0, 1, 0, 1))

    def test_rejects(self):
        with pytest.raises(ValueError, match="total"):
            oracles.is_homomorphism(C5, C5, (0, 1, 2))
        with pytest.raises(ValueError, match="range"):
            oracles.is_homomorphism(C5, Graph.complete(2), (0, 1, 2, 0, 1))

    @given(oracles.graphs(max_n=6))
    def test_identity_always_works(self, G):
        assert oracles.is_homomorphism(G, G, range(G.n))


class TestP4Obstruction:
    def test_path(self):
        cert = p4_obstruction(Graph.path(4))
        assert cert.core == (0, 3)
        assert cert.links == {(0, 3): (1, 2)}

    def test_c5(self):
        cert = p4_obstruction(C5)
        assert len(cert.core) == 2
        assert set(cert.links) == {tuple(sorted(cert.core))}
        cert.validate(C5)

    def test_no_paths(self):
        assert p4_obstruction(Graph(3)).links == {}
        assert p4_obstruction(Graph(0)).core == ()

    def test_lower_bound_graph(self):
        cert = p4_obstruction(hypercube_lb(2).G)
        assert len(cert.core) >= 2

    def test_validate_rejects_fakes(self):
        P = Graph.path(4)
        with pytest.raises(ClaimViolation, match="no witness"):
            ObstructionCertificate((0, 3), {}).validate(P)
        with pytest.raises(ClaimViolation, match="not an induced path"):
            ObstructionCertificate((0, 3), {(0, 3): (2, 1)}).validate(P)

    def test_validate_rejects_negative_core_vertex(self):
        # -4 would read vertex 0's row of the 4-vertex path
        with pytest.raises(ClaimViolation, match="outside"):
            ObstructionCertificate((-4, 3), {(-4, 3): (1, 2)}).validate(Graph.path(4))

    def test_validate_rejects_negative_witness_vertex(self):
        with pytest.raises(ClaimViolation, match="not an induced path"):
            ObstructionCertificate((0, 3), {(0, 3): (-3, 2)}).validate(Graph.path(4))

    @pytest.mark.parametrize("link", [(1,), (1.0, 2), None], ids=["short", "float", "none"])
    def test_validate_rejects_malformed_witness(self, link):
        with pytest.raises(ClaimViolation, match="not a pair of vertices"):
            ObstructionCertificate((0, 3), {(0, 3): link}).validate(Graph.path(4))


class TestVcChromaticPartition:
    def test_c5(self):
        colors, checks = vc_chromatic_partition(C5, Fraction(2, 5))
        assert colors == (0, 1, 2, 3, 4)
        assert all(c.passed for c in checks)
        assert [c.name for c in checks] == [
            "colors-within-vc-bound",
            "parts-independent",
        ]
        # Haussler's bound for 5 points, VC dimension 2, separation c*n/3
        assert checks[0].value["bound"] == packing_bound(2, 5, Fraction(2, 3))

    def test_blowup_merges_twins(self):
        B = blowup(C5, [2] * 5)
        colors, checks = vc_chromatic_partition(B, Fraction(2, 5))
        assert colors == (0, 0, 1, 1, 2, 2, 3, 3, 4, 4)
        assert all(c.passed for c in checks)
        for u, v in B.edges():
            assert colors[u] != colors[v]

    def test_preconditions(self):
        with pytest.raises(PreconditionViolated, match="triangle"):
            vc_chromatic_partition(Graph.complete(3), Fraction(2, 3))
        with pytest.raises(PreconditionViolated, match="min degree"):
            vc_chromatic_partition(C5, Fraction(1, 2))
        with pytest.raises(ValueError):
            vc_chromatic_partition(C5, 0)
        with pytest.raises(ValueError):
            vc_chromatic_partition(Graph(0), Fraction(1, 3))


class TestMinDegreeUltra:
    def test_balanced_bipartite(self):
        checks = min_degree_ultra_check(turan(9, 2), 3)
        assert all(c.passed for c in checks)
        ultra = checks[1]
        assert ultra.name == "ultra-parameter-lower-bound"
        assert ultra.value == {
            "epsilon_star": Fraction(4, 9),
            "required": Fraction(1, 9),
        }

    def test_three_parts(self):
        assert all(c.passed for c in min_degree_ultra_check(turan(12, 3), 4))

    def test_no_separate_maximality_scan(self, monkeypatch):
        # maximality is read off the one ultra_parameter scan
        def no_scan(G, r):
            raise AssertionError("min_degree_ultra_check must not call is_maximal_kr_free")

        monkeypatch.setattr(ultrafree.graphs, "is_maximal_kr_free", no_scan)
        self.test_balanced_bipartite()
        self.test_three_parts()
        self.test_preconditions()

    def test_preconditions(self):
        # both have degree slack: K4 holds a triangle, and crown(4) is
        # triangle-free but not maximal
        for G in (Graph.complete(4), crown(4)):
            with pytest.raises(PreconditionViolated, match="not maximal"):
                min_degree_ultra_check(G, 3)
        with pytest.raises(ValueError):
            min_degree_ultra_check(C5, 2)
        # min degree 2/5 of n is below the 3/5 of r = 4: no slack, so skipped
        checks = min_degree_ultra_check(C5, 4)
        assert [(c.status, c.value) for c in checks] == [("skipped", None)] * 2


class TestCodegreeDensity:
    def test_c5(self):
        checks = codegree_density_check(C5)
        assert all(c.passed for c in checks)
        density, hypothesis = checks
        assert hypothesis.value == {"c": Fraction(1, 5), "min_codegree": 1}
        assert density.value == {"density": Fraction(0), "required": -3}

    def test_complete_skips(self):
        checks = codegree_density_check(Graph.complete(4))
        assert all(c.passed for c in checks)
        assert checks[0].status == "skipped"
        assert checks[0].value == {"reason": "no non-adjacent pair"}

    def test_zero_codegree_skips(self):
        checks = codegree_density_check(Graph(4, [(0, 1), (2, 3)]))
        assert checks[0].status == "skipped"
        assert checks[0].value == {"reason": "zero min codegree"}

    def test_blowup(self):
        B = blowup(C5, [2] * 5)
        assert all(c.passed for c in codegree_density_check(B))

    @given(oracles.graphs(max_n=6))
    @settings(max_examples=40, deadline=None)
    def test_never_fails(self, G):
        assert all(c.status != "fail" for c in codegree_density_check(G))


class TestSeparate:
    @given(
        st.lists(st.integers(0, (1 << 7) - 1), max_size=12),
        st.fractions(min_value=0, max_value=8, max_denominator=6),
    )
    @settings(max_examples=200, deadline=None)
    def test_one_scan_matches_two(self, masks, s):
        assert _separate(masks, s) == oracles.separated_partition(masks, s)
