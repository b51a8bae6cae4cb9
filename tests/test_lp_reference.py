"""The condensed tableau against the full one it replaced
(``oracles.max_simplex_full_tableau``): the same pivots give the same
``(value, x, duals)``, the same errors and the same node counts."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ultrafree.budget import SearchBudget
from ultrafree.constructions import hypercube_lb, ultra_vc_example
from ultrafree.lp import max_simplex
from ultrafree.setsystems import mis_star_system


def _solve(solve, c, A, b):
    """The solver's result, or its ValueError's message, and its nodes."""
    meter = SearchBudget().meter("lp")
    try:
        result = solve(c, A, b, meter)
    except ValueError as e:
        result = str(e)
    return result, meter.nodes


def _assert_same(c, A, b):
    got = _solve(max_simplex, c, A, b)
    assert got == _solve(oracles.max_simplex_full_tableau, c, A, b)
    return got


def _packing_lp(F):
    """The LP that ``fractional_transversal`` solves: a row per point, a
    column per set."""
    m = len(F.sets)
    A = [[F.sets[j] >> v & 1 for j in range(m)] for v in range(F.ground)]
    return [1] * m, A, [1] * F.ground


@st.composite
def lps(draw):
    """max c.x s.t. A.x <= b with b >= 0, signed rational entries, maybe a
    zero row, and maybe a private cap on every variable."""
    m, n = draw(st.integers(0, 6)), draw(st.integers(1, 6))
    entry = st.integers(-2, 3) | st.fractions(-2, 3, max_denominator=3)
    A = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(m)]
    if A and draw(st.booleans()):
        A[draw(st.integers(0, m - 1))] = [0] * n
    b = draw(st.lists(st.integers(0, 4), min_size=m, max_size=m))
    c = draw(st.lists(entry, min_size=n, max_size=n))
    if draw(st.booleans()):
        A += [[int(j == k) for j in range(n)] for k in range(n)]
        b += draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    return c, A, b


@given(lps())
@settings(max_examples=250, deadline=None)
def test_random_lps_match_the_full_tableau(lp):
    _assert_same(*lp)


def test_unbounded_message_matches():
    result, _ = _assert_same([1, 1], [[-1, 1]], [1])
    assert result == "LP is unbounded"


def test_catalog_star_systems_match_the_full_tableau(small_catalog):
    for G in small_catalog:
        _assert_same(*_packing_lp(mis_star_system(G)))


@pytest.mark.parametrize(
    "G, value, nodes",
    [(hypercube_lb(3).H, "34/11", 781), (ultra_vc_example(4), "3", 3150)],
    ids=["hypercube_lb(3).H", "ultra_vc_example(4)"],
)
def test_large_star_systems_match_the_full_tableau(G, value, nodes):
    result, got_nodes = _assert_same(*_packing_lp(mis_star_system(G)))
    assert (str(result[0]), got_nodes) == (value, nodes)
