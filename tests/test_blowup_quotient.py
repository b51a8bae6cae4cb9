"""Quantities of a blow-up computed on its twin quotient and lifted back.

Random blow-ups are relabelled by a random permutation, so that twin
classes interleave and a class's first vertex need not come first.
"""

from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

import oracles
import ultrafree._kernels
import ultrafree.decompose
from ultrafree.constructions import blowup, hypercube_lb
from ultrafree.decompose import p4_obstruction, twin_quotient
from ultrafree.errors import PreconditionViolated
from ultrafree.graphs import (
    Graph,
    clique_codensity,
    codegree_min,
    has_induced_p4,
    is_maximal_kr_free,
    max_clique_witness,
)
from ultrafree.ultra import ultra_parameter


@st.composite
def blowups(draw, max_n=8, max_size=5):
    F = draw(oracles.graphs(max_n=max_n))
    sizes = draw(st.lists(st.integers(1, max_size), min_size=F.n, max_size=F.n))
    G = blowup(F, sizes)
    perm = draw(st.permutations(range(G.n)))
    return Graph(G.n, [(perm[u], perm[v]) for u, v in G.edges()])


class TestRandomBlowups:
    @given(blowups())
    @settings(max_examples=40, deadline=None)
    def test_codegree(self, G):
        for a in (1, 2, 3):
            assert codegree_min(G, a) == oracles.codegree_min(G, a)

    @given(blowups())
    @settings(max_examples=40, deadline=None)
    def test_maximality(self, G):
        for r in (3, 4):
            assert is_maximal_kr_free(G, r) == oracles.is_maximal_kr_free(G, r)

    @given(blowups())
    @settings(max_examples=40, deadline=None)
    def test_codensity(self, G):
        for a in (1, 2, 3):
            for b in (2, 3):
                assert clique_codensity(G, a, b) == oracles.clique_codensity(G, a, b)

    @given(blowups(), st.integers(3, 4))
    @settings(max_examples=40, deadline=None)
    def test_ultra_parameter(self, G, r):
        if oracles.cliques(G, r):
            with pytest.raises(PreconditionViolated):
                ultra_parameter(G, r)
            return
        cert = ultra_parameter(G, r)
        assert cert.epsilon_star == oracles.epsilon_star(G, r)
        counts = oracles.pair_clique_counts(G, r)
        if counts:
            (u, v), count = min(counts, key=lambda pc: (pc[1], pc[0]))
            assert cert.worst_pair == (u, v, count)
        else:
            assert cert.worst_pair is None

    @given(blowups(max_n=6, max_size=2))
    @settings(max_examples=40, deadline=None)
    def test_p4_obstruction(self, G):
        cert = p4_obstruction(G)
        assert len(cert.core) == oracles.p4_core_size(G)
        cert.validate(G)
        # each core vertex stands for its twin class: the smallest member
        assert all(min(w for w in range(G.n) if G.adj[w] == G.adj[u]) == u for u in cert.core)
        # each lifted witness is the one the scan on G itself finds
        for (u, v), path in cert.links.items():
            assert path == has_induced_p4(G, u, v)


@pytest.mark.parametrize("d", range(2, 8))
def test_lower_bound_instance_exact(d):
    H, G = hypercube_lb(d)
    assert codegree_min(G, 2) == 2 ** (d - 2)
    assert ultra_parameter(G, 3).epsilon_star == Fraction(1, 8 * d + 4)
    assert len(p4_obstruction(G).core) == 2 ** (d - 1) + 1
    assert twin_quotient(G).quotient == H


def test_codensity_scans_class_pairs(monkeypatch):
    # the twin quotient of hypercube_lb(5).G has 680 non-adjacent class
    # pairs and 10 classes of two or more twins: one clique count each,
    # where a scan of G's own pairs makes 51,520
    calls = []
    count = ultrafree._kernels.count_cliques

    def counted(*args, **kwargs):
        calls.append(args)
        return count(*args, **kwargs)

    monkeypatch.setattr(ultrafree._kernels, "count_cliques", counted)
    clique_codensity(hypercube_lb(5).G, 2, 2)
    assert len(calls) <= 690


def test_p4_core_is_first_vertices():
    # classes {0, 5}, {1, 3}, {2}, {4}: the core is the first vertices of
    # {0, 5} and {2}, and the witness the first vertices of {4} and {1, 3}
    G = Graph(6, [(0, 4), (1, 2), (1, 4), (2, 3), (3, 4), (4, 5)])
    cert = p4_obstruction(G)
    assert cert.core == (0, 2)
    assert cert.links == {(0, 2): (4, 1)} == {(0, 2): has_induced_p4(G, 0, 2)}


def test_p4_obstruction_scans_class_pairs(monkeypatch):
    calls = []

    def counted(G, u, v):
        calls.append((u, v))
        return has_induced_p4(G, u, v)

    monkeypatch.setattr(ultrafree.decompose, "has_induced_p4", counted)
    H, G = hypercube_lb(5)
    assert len(p4_obstruction(G).core) == 17
    assert len(calls) <= comb(H.n, 2) == 861


def test_p4_obstruction_searches_the_quotient(monkeypatch):
    orders = []

    def recorded(A, budget=None):
        orders.append(A.n)
        return max_clique_witness(A, budget)

    monkeypatch.setattr(ultrafree.decompose, "max_clique_witness", recorded)
    assert len(p4_obstruction(hypercube_lb(5).G).core) == 17
    assert orders == [42]
