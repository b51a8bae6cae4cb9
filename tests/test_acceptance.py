"""End-to-end acceptance checks, one numbered test per criterion.

Each test re-verifies its claim from first principles (exact rational
arithmetic, independent feasibility re-checks, explicit witnesses); the
terminal summary hook in conftest.py prints one PASS/FAIL line per
criterion.  Runtime ceilings are asserted with time.monotonic().
"""

import math
import time
from fractions import Fraction

from ultrafree.constructions import blowup, hypercube_lb, turan, ultra_vc_example
from ultrafree.convexity import (
    correspondence_checks,
    radon_number,
    space_helly_number,
    subcube_space,
)
from ultrafree.decompose import (
    codegree_density_check,
    haussler_partition,
    min_degree_ultra_check,
    p4_obstruction,
    packing_bound,
    twin_quotient,
    vc_chromatic_partition,
)
from ultrafree.graphs import Graph, codegree_min, is_kr_free, is_maximal_kr_free
from ultrafree.setsystems import (
    fractional_transversal,
    mis_family,
    mis_star_system,
    neighborhood_system,
    vc_dimension,
)
from ultrafree.ultra import find_half_graph, nu_bi, ultra_parameter

import oracles
from write_catalog import canonical_form

C5 = Graph.cycle(5)


def test_criterion_01(small_catalog):
    """Every clique/chromatic/reconstruction/Helly/pq correspondence holds
    on all connected graphs with at most 7 vertices, for r in {3,4,5},
    in under five minutes."""
    start = time.monotonic()
    assert len(small_catalog) == 996
    bad = []
    for G in small_catalog:
        for r in (3, 4, 5):
            failures = [c for c in correspondence_checks(G, (r,))[r] if not c.passed]
            if failures:
                bad.append((G, r, failures))
    assert bad == []
    assert time.monotonic() - start < 300


def _certified_duality_value(F):
    """Solve the covering LP and re-check both optimal solutions from
    scratch; equality of feasible values certifies both by weak duality."""
    sol = fractional_transversal(F)
    assert sum(sol.weights.values(), Fraction(0)) == sol.value
    assert all(w >= 0 for w in sol.weights.values())
    for s in F.sets:
        assert sum(
            (w for p, w in sol.weights.items() if s >> p & 1), Fraction(0)
        ) >= 1
    nu = sol.dual
    assert sum(nu.weights.values(), Fraction(0)) == nu.value == sol.value
    assert all(w >= 0 for w in nu.weights.values())
    for p in range(F.ground):
        assert sum(
            (w for j, w in nu.weights.items() if F.sets[j] >> p & 1), Fraction(0)
        ) <= 1
    return sol.value


def test_criterion_02(small_catalog):
    """Fractional matching equals fractional transversal exactly on every
    catalog star system, and tau*(stars of C5) = 5/2."""
    for G in small_catalog:
        _certified_duality_value(mis_star_system(G))
    assert _certified_duality_value(mis_star_system(C5)) == Fraction(5, 2)


def test_criterion_03():
    """Subcube spaces in dimension 1..3 have Radon number
    floor(log2(n+1)) + 1 and Helly number 2."""
    for n in (1, 2, 3):
        S = subcube_space(n)
        expected_radon = (n + 1).bit_length()  # floor(log2(n+1)) + 1
        assert radon_number(S, min(4, S.ground_size)) == expected_radon
        assert space_helly_number(S) == 2


def test_criterion_04(small_catalog, random_catalog):
    """Whenever the VC dimension of the star system reaches 3, or of the
    independent-set family reaches 1, it is bounded by the bi-induced
    matching number.  Zero violations over the catalog plus 200 seeded
    random graphs."""
    instances = tuple(small_catalog) + tuple(random_catalog)
    assert len(instances) == 996 + 200
    violations = []
    fired = 0
    for G in instances:
        nubi = None
        star_vc = vc_dimension(mis_star_system(G))[0]
        if star_vc >= 3:
            nubi = nu_bi(G)[0]
            fired += 1
            if star_vc > nubi:
                violations.append(("stars", G, star_vc, nubi))
        mis_vc = vc_dimension(mis_family(G))[0]
        if mis_vc >= 1:
            if nubi is None:
                nubi = nu_bi(G)[0]
            fired += 1
            if mis_vc > nubi:
                violations.append(("mis", G, mis_vc, nubi))
    assert violations == []
    assert fired > 0  # the hypothesis side is not vacuous


def test_criterion_05():
    """No half graph of order ceil(1/eps*) + 1 embeds in C5, the d=2
    lower-bound construction, or any C5 blow-up with up to 40 vertices."""
    targets = [C5, hypercube_lb(2).G]
    targets += [blowup(C5, [s] * 5)[0] for s in range(2, 9)]
    for G in targets:
        eps = ultra_parameter(G, 3).epsilon_star
        assert eps is not None and eps > 0
        k = math.ceil(1 / eps) + 1
        assert find_half_graph(G, k) is None


def test_criterion_06():
    """The d=3 lower-bound construction has 56 vertices, minimum codegree
    exactly 2, is maximal triangle-free, collapses to its 14-vertex ridge
    graph under twin contraction, and carries an induced-path core of at
    least 4 vertices, all in under two minutes."""
    start = time.monotonic()
    H, G = hypercube_lb(3)
    assert G.n == 56
    assert codegree_min(G, 2) == 2  # 2^(d-2)
    assert is_maximal_kr_free(G, 3)
    deco = twin_quotient(G)
    assert deco.quotient.n == 14
    assert canonical_form(deco.quotient) == canonical_form(H)
    assert oracles.is_homomorphism(G, deco.quotient, deco.origin)
    assert len(p4_obstruction(G).core) >= 4  # 2^(d-1)
    assert time.monotonic() - start < 120


def test_criterion_07():
    """The m=2 high-VC example on 16 vertices has neighborhood VC
    dimension exactly 3 (independently brute forced) and an induced-path
    core of at least n/4 vertices."""
    G = ultra_vc_example(2)
    assert G.n == 16
    F = neighborhood_system(G)
    dim, shattered = vc_dimension(F)
    assert dim == 3 and dim <= 3
    assert shattered == (0, 1, 2)
    assert oracles.vc_dimension(F) == 3
    cert = p4_obstruction(G)
    assert cert.core == (4, 5, 6, 14)
    assert len(cert.core) >= G.n // 4
    cert.validate(G)


def test_criterion_08():
    """The blow-up decomposition pipeline runs cleanly on four reference
    inputs: the homomorphism verifies, the quotient is maximal
    triangle-free, and the separated neighborhood subfamily obeys the
    packing bound with exact rationals."""
    instances = [
        (hypercube_lb(2).G, Fraction(1, 20)),
        (blowup(C5, [3] * 5)[0], Fraction(1, 5)),
        (ultra_vc_example(2), Fraction(1, 16)),
        (ultra_vc_example(3), Fraction(1, 24)),
    ]
    for G, eps in instances:
        deco = haussler_partition(G, 3, eps)
        deco.validate(G)
        assert oracles.is_homomorphism(G, deco.quotient, deco.origin)
        assert is_maximal_kr_free(deco.quotient, 3)
        F = neighborhood_system(G)
        dim = vc_dimension(F)[0]
        sep = int(eps * G.n / 10)
        reps = oracles.separated_partition(F.sets, sep)[0]
        assert len(reps) <= packing_bound(dim, G.n, sep + 1)


def test_criterion_09(small_catalog):
    """Minimum-degree hypotheses: on Turan graphs the ultra parameter
    dominates eps^(r-2) whenever the degree slack eps is positive, and the
    codegree-density comparison never fails on the catalog."""
    passes = skips = 0
    for r in (3, 4, 5):
        for n in range(r - 1, 31):
            G = turan(n, r - 1)
            eps = Fraction(G.min_degree(), n) - Fraction(2 * r - 5, 2 * r - 3)
            if eps <= 0:
                skips += 1
                continue
            checks = min_degree_ultra_check(G, r, eps)
            assert all(c.passed for c in checks), (r, n, [c.to_json() for c in checks])
            passes += 1
    assert (passes, skips) == (70, 14)

    informative = 0
    for G in small_catalog:
        checks = codegree_density_check(G)
        assert [c for c in checks if not c.passed] == [], [c.to_json() for c in checks]
        if all(c.status == "pass" for c in checks):
            informative += 1
    assert informative > 0


def test_criterion_10(small_catalog):
    """Every triangle-free catalog graph with minimum degree at least c*n
    admits the VC-bounded coloring for c in {1/4, 1/3, 2/5}: color classes
    independent and the class count within the exponential bound."""
    checked = 0
    for c in (Fraction(1, 4), Fraction(1, 3), Fraction(2, 5)):
        for G in small_catalog:
            if not is_kr_free(G, 3) or G.min_degree() < c * G.n:
                continue
            colors, checks = vc_chromatic_partition(G, c)
            assert all(chk.passed for chk in checks), (G, c, [chk.to_json() for chk in checks])
            for u, v in G.edges():
                assert colors[u] != colors[v]
            checked += 1
    assert checked > 0
