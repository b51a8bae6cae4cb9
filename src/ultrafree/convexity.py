"""Abstract convexity spaces over finite point sets.

A space is given by its generating sets; the convex sets are all
intersections of generators, plus the empty set and the full ground by
convention.  Hulls therefore never materialize the closure: conv Y is the
intersection of the generators containing Y.

Three kinds are built in: the space derived from a graph (points are the
maximal independent sets, generators are the per-vertex stars), the
subcube space over {0,1}^n, and explicit spaces from any set system.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .budget import _meter
from .errors import ClaimViolation
from .graphs import Graph, mask_of, members
from . import graphs as _graphs
from . import setsystems as _ss
from .reports import Check, _verdict

__all__ = [
    "ConvexitySpace",
    "Measure",
    "mis_space",
    "subcube_space",
    "explicit_space",
    "radon_number",
    "space_helly_number",
    "weak_eps_net",
    "correspondence_checks",
]


class Measure:
    """Finitely supported probability measure on the points of a space."""

    __slots__ = ("weights",)

    def __init__(self, weights):
        w = {int(p): Fraction(x) for p, x in dict(weights).items()}
        if any(x < 0 for x in w.values()):
            raise ValueError("measure weights must be nonnegative")
        if sum(w.values(), Fraction(0)) != 1:
            raise ValueError("measure must sum to exactly 1")
        self.weights = {p: x for p, x in w.items() if x}

    @classmethod
    def uniform(cls, size: int) -> "Measure":
        if size < 1:
            raise ValueError("need at least one point")
        return cls({p: Fraction(1, size) for p in range(size)})

    def mass(self, mask: int) -> Fraction:
        return sum(
            (x for p, x in self.weights.items() if mask >> p & 1), Fraction(0)
        )


class ConvexitySpace:
    """Points 0..ground_size-1 plus generating sets (as a SetSystem).

    The generators fix the space.  A graph space also keeps its graph;
    its point p is the p-th maximal independent set, whose vertex mask is
    the p-th element cover of the stars.
    """

    __slots__ = ("tag", "generators", "graph")

    def __init__(self, tag: str, generators: _ss.SetSystem, graph=None):
        if tag not in ("from_graph", "subcubes", "explicit"):
            raise ValueError(f"unknown space kind {tag!r}")
        self.tag = tag
        self.generators = generators
        self.graph = graph

    @property
    def ground_size(self) -> int:
        return self.generators.ground

    @property
    def full_mask(self) -> int:
        return (1 << self.ground_size) - 1

    def hull_mask(self, point_mask: int) -> int:
        """conv Y as a bitmask; conv of the empty set is empty."""
        if point_mask == 0:
            return 0
        out = self.full_mask
        for g in self.generators.sets:
            if g & point_mask == point_mask:
                out &= g
        return out

    def convex_sets(self) -> tuple[int, ...]:
        """All distinct nonempty convex sets (closure of the generators
        plus the full ground), sorted by member tuple."""
        meter = _meter("convex_sets")
        gens = [g for g in set(self.generators.sets) if g]
        closure = set(gens)
        closure.add(self.full_mask)
        frontier = list(closure)
        while frontier:
            fresh = []
            for a in frontier:
                for g in gens:
                    if meter is not None:
                        meter.charge()
                    x = a & g
                    if x and x not in closure:
                        closure.add(x)
                        fresh.append(x)
            frontier = fresh
        return tuple(sorted(closure, key=members))


def mis_space(G: Graph) -> ConvexitySpace:
    """The convexity space of a graph: points are its maximal independent
    sets (lex order), generators are the stars of the vertices."""
    return ConvexitySpace("from_graph", _ss.dual(_ss.mis_family(G)), graph=G)


def subcube_space(n: int) -> ConvexitySpace:
    """The space of subcubes of {0,1}^n: points are coordinate codes in
    binary order, one generator per subcube (free/0/1 per coordinate)."""
    if n < 1:
        raise ValueError("need n >= 1")
    npoints = 1 << n
    masks = []
    for pattern in range(3**n):
        # base-3 digit i of the pattern fixes coordinate i to 0 or 1, or
        # leaves it free (2)
        fixed = value = 0
        for i in range(n):
            pattern, want = divmod(pattern, 3)
            if want != 2:
                fixed |= 1 << i
                value |= want << i
        masks.append(sum(1 << p for p in range(npoints) if p & fixed == value))
    return ConvexitySpace("subcubes", _ss.SetSystem.from_masks(npoints, masks))


def explicit_space(F: _ss.SetSystem) -> ConvexitySpace:
    return ConvexitySpace("explicit", F)


def _split_points(pts: tuple[int, ...], selector: int):
    y2 = tuple(p for i, p in enumerate(pts[1:]) if selector >> i & 1)
    y1 = tuple(p for p in pts if p not in y2)
    return y1, y2


def _mis_hulls_cross_check(S: ConvexitySpace, y1, y2, intersects: bool) -> None:
    # Independent reformulation for graph spaces: the two hulls meet
    # exactly when no edge joins the intersections of the chosen sets.
    G = S.graph
    mis = _ss._element_cover_masks(S.generators)
    a = G.full_mask
    for p in y1:
        a &= mis[p]
    b = G.full_mask
    for p in y2:
        b &= mis[p]
    has_edge = any(G.adj[v] & b for v in members(a))
    if intersects != (not has_edge):
        raise ClaimViolation("hull/edge reformulation mismatch on a graph space")


def _radon_split(S: ConvexitySpace, pts: tuple[int, ...]):
    """First bipartition (by binary counter) with intersecting hulls."""
    k = len(pts)
    check = S.tag == "from_graph"
    for selector in range(1, 1 << (k - 1)):
        y1, y2 = _split_points(pts, selector)
        h = S.hull_mask(mask_of(y1)) & S.hull_mask(mask_of(y2))
        if check:
            _mis_hulls_cross_check(S, y1, y2, bool(h))
        if h:
            return y1, y2
    return None


def radon_number(S: ConvexitySpace, cap: int):
    """Least r <= cap such that every set of r+1 points admits a partition
    into two nonempty parts with intersecting hulls; None beyond cap.
    The meter is charged one node per point set tested."""
    if not 1 <= cap <= S.ground_size:
        raise ValueError("cap must be between 1 and the number of points")
    meter = _meter("radon_number")
    for r in range(1, cap + 1):
        for pts in combinations(range(S.ground_size), r + 1):
            if meter is not None:
                meter.charge()
            if _radon_split(S, pts) is None:
                break
        else:
            return r
    return None


def space_helly_number(S: ConvexitySpace) -> int:
    """Helly number over the space's convex sets, computed on the family
    that :meth:`ConvexitySpace.convex_sets` closes: the nonempty
    generators plus the ground.

    The two numbers are equal.  Generators are convex, so theirs is at
    most the closure's.  Conversely, take a minimal non-intersecting
    family C_1..C_k of convex sets and write each C_i as the intersection
    of a family E_i of those generators.  The union of the E_i does not
    intersect, so it holds a minimal non-intersecting subfamily.  That
    subfamily holds, for each i, a generator in E_i and in no other E_j,
    because the C_j with j != i meet; so it has k or more members.
    """
    sets = [g for g in S.generators.sets if g]
    sets.append(S.full_mask)
    return _ss.helly_number(_ss.SetSystem.from_masks(S.ground_size, sets))


def weak_eps_net(S: ConvexitySpace, mu: Measure, eps) -> tuple[int, ...]:
    """A point set meeting every convex set of measure >= eps.

    Greedy over the enumerated heavy convex sets: correct by construction,
    not guaranteed minimum.  Only the enumeration is metered.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    for p in sorted(mu.weights):
        if not 0 <= p < S.ground_size:
            raise ValueError(f"measure point {p} is not in 0..{S.ground_size - 1}")
    heavy = _ss.SetSystem.from_masks(
        S.ground_size, [c for c in S.convex_sets() if mu.mass(c) >= eps]
    )
    # a heavy set has positive mass, so it is nonempty
    covers = _ss._element_cover_masks(heavy)
    return tuple(sorted(_ss._greedy_cover(covers, (1 << len(heavy)) - 1)))


def correspondence_checks(G: Graph, rs) -> dict[int, list[Check]]:
    """Check the dictionary between a graph and its star system, for each
    r in ``rs``: coloring vs covering, cliques vs matchings, edges vs
    disjointness, clique freeness vs the (r,2)-property, and independence
    vs intersection.

    Only the clique-freeness check reads r; the others are computed once
    and shared by every r, and one search answers the (r,2)-property for
    every r.  ω is searched once: χ's search starts from it, and ν is ω
    whenever the disjointness graph is G itself.  Each r must be at least
    2; an empty ``rs`` runs no search.
    """
    rs = tuple(rs)
    for r in rs:
        if r < 2:
            raise ValueError(f"need r >= 2, got r = {r}")
    if not rs:
        return {}
    mis = _ss.mis_family(G)
    stars = _ss.dual(mis)
    omega = _graphs.clique_number(G)
    chi = _graphs.chromatic_number(G, omega=omega)
    tau, tau_witness = _ss.transversal_number(stars)

    # one star per vertex, so the rebuilt graph is on V(G).  The first pair
    # u < v whose adjacency differs: the first differing row u, and its
    # lowest differing bit, which lies above u since earlier rows agree
    rebuilt = _ss.disjointness_graph(stars)
    bad_pair = None
    for u in range(G.n):
        diff = rebuilt.adj[u] ^ G.adj[u]
        if diff:
            bad_pair = (u, (diff & -diff).bit_length() - 1)
            break
    # ν is the clique number of the rebuilt graph, so when its rows are
    # all G's the same deterministic search would return ω again
    if bad_pair is None:
        nu, nu_witness = omega, None
    else:
        nu, nu_witness = _ss.matching_number(stars)
    maximal_stars = _ss.maximal_intersecting_subfamilies(stars)
    mis_ok = sorted(mis.sets) == maximal_stars
    expected_h = 2 if G.edge_count() >= 1 else 1
    h = _ss.helly_number(stars)

    shared = [
        _verdict(
            "chromatic-equals-transversal",
            "chromatic-equals-transversal",
            chi == tau,
            value={"chi": chi, "tau": tau},
            witness={"transversal": tau_witness},
        ),
        _verdict(
            "clique-equals-matching",
            "clique-equals-matching",
            omega == nu,
            value={"omega": omega, "nu": nu},
            witness={"matching": nu_witness},
        ),
        _verdict(
            "disjointness-reconstructs-graph",
            "disjointness-reconstructs-graph",
            bad_pair is None,
            witness=None if bad_pair is None else {"rebuilt_edges": rebuilt.edges()},
        ),
        _verdict(
            "edges-match-disjoint-stars",
            "edges-match-disjoint-stars",
            bad_pair is None,
            witness=bad_pair,
        ),
        _verdict(
            "mis-match-maximal-stars",
            "mis-match-maximal-stars",
            mis_ok,
            witness=None if mis_ok else {
                "mis": [members(s) for s in mis.sets],
                "maximal_stars": sorted(members(s) for s in maximal_stars),
            },
        ),
        _verdict(
            "star-helly-matches-edges",
            "star-helly-matches-edges",
            h == expected_h,
            value={"helly": h, "expected": expected_h},
            witness={"helly": h},
        ),
    ]
    pqs = _ss._pq_properties(stars, rs, 2)
    out = {}
    for r in rs:
        # G is K_r-free exactly when its clique number is below r
        free = omega < r
        pq = pqs[r]
        out[r] = shared + [
            _verdict(
                "clique-free-matches-pq",
                "clique-free-matches-pq",
                free == pq,
                value={"r": r, "kr_free": free, "pq": pq},
                witness={"r": r},
            )
        ]
    return out

