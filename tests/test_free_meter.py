"""With no budget in force a search charges the shared no-op meter
``budget._FREE``; its answers must be those it gives under an uncapped
``SearchBudget()``, value and witness alike, for every search the CLI
reaches.  A search that raises must raise the same error either way."""

from fractions import Fraction

from hypothesis import given, settings

import oracles
from ultrafree import budget
from ultrafree.budget import SearchBudget
from ultrafree.convexity import Measure, explicit_space, radon_number, space_helly_number, weak_eps_net
from ultrafree.decompose import p4_obstruction, twin_quotient
from ultrafree.graphs import (
    chromatic_number,
    clique_codensity,
    clique_number,
    codegree_min,
    count_cliques,
    is_maximal_kr_free,
    max_clique_witness,
)
from ultrafree.setsystems import (
    fractional_transversal,
    has_pq_property,
    helly_number,
    matching_number,
    mis_family,
    transversal_number,
    vc_dimension,
)
from ultrafree.ultra import find_half_graph, nu_bi, ultra_parameter


def _taustar(F):
    solution = fractional_transversal(F)
    return solution.value, solution.weights, solution.dual.weights


GRAPH_SEARCHES = {
    "chi": chromatic_number,
    "omega": clique_number,
    "max_clique": max_clique_witness,
    "triangles": lambda G: count_cliques(G, 3),
    "codegree": lambda G: codegree_min(G, 2),
    "codensity": lambda G: clique_codensity(G, 2, 2),
    "maximal_k3_free": lambda G: is_maximal_kr_free(G, 3),
    "mis": lambda G: mis_family(G).sets,
    "nubi": nu_bi,
    "ultra": lambda G: ultra_parameter(G, 3),
    "half_graph": lambda G: find_half_graph(G, 2),
    "twin": lambda G: twin_quotient(G)[:2],
    "p4": p4_obstruction,
}

SYSTEM_SEARCHES = {
    "tau": transversal_number,
    "nu": matching_number,
    "taustar": _taustar,
    "vc": vc_dimension,
    "helly": helly_number,
    "pq": lambda F: has_pq_property(F, 3, 2),
    "space_helly": lambda F: space_helly_number(explicit_space(F)),
    "radon": lambda F: radon_number(explicit_space(F), max(F.ground, 1)),
    "weak_net": lambda F: weak_eps_net(explicit_space(F), Measure.uniform(F.ground), Fraction(1, 2)),
}


def _outcome(search, x):
    try:
        return "returned", search(x)
    except Exception as exc:  # a precondition: the same error either way
        return "raised", type(exc), str(exc)


def _assert_free_matches_uncapped(searches, x):
    assert budget._active.get() is None
    for name, search in searches.items():
        free = _outcome(search, x)
        with SearchBudget():
            metered = _outcome(search, x)
        assert free == metered, name


@given(oracles.graphs(max_n=9))
@settings(max_examples=40, deadline=None)
def test_graph_searches(G):
    _assert_free_matches_uncapped(GRAPH_SEARCHES, G)


@given(oracles.set_systems())
@settings(max_examples=60, deadline=None)
def test_set_system_searches(F):
    _assert_free_matches_uncapped(SYSTEM_SEARCHES, F)


def test_only_a_budget_opens_a_counting_meter():
    assert budget._meter("chromatic_number") is budget._FREE
    with SearchBudget():
        assert budget._meter("chromatic_number") is not budget._FREE
    assert budget._meter("chromatic_number") is budget._FREE
