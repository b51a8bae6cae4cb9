"""Blow-up decomposition pipelines.

The centerpiece partitions a clique-rich maximal K_r-free graph into
parts whose neighborhoods are pairwise close, checks the structural
claims the theory predicts (parts complete or anti-complete to each
other, large parts independent), and returns the quotient together with
the origin map.  Every claim is re-verified on the concrete input and a
violation raises instead of being repaired, so a completed run is a
machine-checked certificate for that instance.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import NamedTuple

from .budget import _meter
from .errors import ClaimViolation, PreconditionViolated
from .graphs import Graph, _blowup_quotient, _lift, has_induced_p4, mask_of, max_clique_witness
from . import graphs as _graphs
from .reports import Check, _verdict
from .setsystems import neighborhood_system, vc_dimension
from .ultra import is_eps_ultra, ultra_parameter

__all__ = [
    "E_UP",
    "BlowupDecomposition",
    "ObstructionCertificate",
    "packing_bound",
    "haussler_partition",
    "twin_quotient",
    "p4_obstruction",
    "vc_chromatic_partition",
    "min_degree_ultra_check",
    "codegree_density_check",
]

# rational upper bound on Euler's number; rounding up only weakens bounds
E_UP = Fraction(2718282, 1000000)


class BlowupDecomposition(NamedTuple):
    parts: tuple[tuple[int, ...], ...]
    quotient: Graph
    origin: tuple[int, ...]

    def validate(self, G: Graph) -> None:
        """Re-verify every structural invariant against G; raises
        ClaimViolation with the offending object on failure."""
        flat = sorted(v for p in self.parts for v in p)
        if flat != list(range(G.n)) or not all(self.parts):
            raise ClaimViolation("parts do not partition the vertex set")
        if self.quotient.n != len(self.parts):
            raise ClaimViolation("quotient size differs from part count")
        if len(self.origin) != G.n:
            raise ClaimViolation("origin map is not total")
        masks = []
        for i, part in enumerate(self.parts):
            for v in part:
                if self.origin[v] != i:
                    raise ClaimViolation(f"origin[{v}] disagrees with part {i}")
            masks.append(mask_of(part))
        # G is this blow-up of the quotient iff every member of part i has
        # the neighbourhood mask that lifts quotient row i; with no loops in
        # G, equal masks within a part already make the part independent
        for i, part in enumerate(self.parts):
            row = G.adj[part[0]]
            if row != _lift(self.quotient.adj[i], masks) or any(G.adj[v] != row for v in part):
                raise ClaimViolation(self._mismatch(G, i, masks))

    def _mismatch(self, G: Graph, i: int, masks) -> str:
        """Why part i is not the lift of quotient row i."""
        part = self.parts[i]
        if any(G.adj[v] & masks[i] for v in part):
            return f"part {i} is neither independent nor a singleton"
        for j, m in enumerate(masks):
            seen = {G.adj[v] & m for v in part}
            if len(seen) > 1 or seen - {0, m}:
                return f"parts {i},{j} neither complete nor anti-complete"
            if self.quotient.has_edge(i, j) != (m in seen):
                return f"quotient edge {i},{j} disagrees with the parts"
        return f"part {i} disagrees with the quotient"


class ObstructionCertificate(NamedTuple):
    """Core vertices pairwise joined by induced 4-vertex paths.

    Any edge-preserving map to a triangle-free target must keep the core
    injective, so its size lower-bounds every such image.
    """

    core: tuple[int, ...]
    links: dict

    def validate(self, G: Graph) -> None:
        if any(not 0 <= v < G.n for v in self.core):
            raise ClaimViolation(f"core {self.core} names a vertex outside 0..{G.n - 1}")
        for u, v in combinations(self.core, 2):
            key = (u, v) if u < v else (v, u)
            if key not in self.links:
                raise ClaimViolation(f"core pair {key} has no witness")
            link = self.links[key]
            if not (
                isinstance(link, (tuple, list))
                and len(link) == 2
                and all(isinstance(w, int) for w in link)
            ):
                raise ClaimViolation(f"witness {key} -> {link!r} is not a pair of vertices")
            y, z = link
            a, b = key
            quad = {a, y, z, b}
            ok = (
                0 <= y < G.n
                and 0 <= z < G.n
                and len(quad) == 4
                and G.has_edge(a, y)
                and G.has_edge(y, z)
                and G.has_edge(z, b)
                and not G.has_edge(a, b)
                and not G.has_edge(a, z)
                and not G.has_edge(y, b)
            )
            if not ok:
                raise ClaimViolation(f"witness {key} -> {(y, z)} is not an induced path")


def _separate(masks, s) -> tuple[list[int], list[int]]:
    """``(reps, origin)`` in one ascending scan: a mask joins ``reps``
    unless an earlier representative is within symmetric difference s,
    and its origin is the position of the first such one, or its own."""
    reps: list[int] = []
    origin: list[int] = []
    for i, m in enumerate(masks):
        for pos, j in enumerate(reps):
            if (m ^ masks[j]).bit_count() <= s:
                origin.append(pos)
                break
        else:
            origin.append(len(reps))
            reps.append(i)
    return reps, origin


def packing_bound(d: int, family_size: int, sep_level) -> Fraction:
    """Rational upper bound e(d+1)(2e*|F|/s)^d for an s-separated family
    in a system of VC dimension d; s is any positive rational."""
    if sep_level <= 0:
        raise ValueError("separation level must be positive")
    return E_UP * (d + 1) * (2 * E_UP * family_size / Fraction(sep_level)) ** d


def haussler_partition(G: Graph, r: int, eps) -> BlowupDecomposition:
    """Partition by neighborhood proximity at threshold s = eps*n/10,
    verify the structural claims, split undersized parts into singletons,
    and return the quotient with its origin map."""
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    if r < 3:
        raise ValueError("need r >= 3")
    if not is_eps_ultra(G, r, eps):
        raise PreconditionViolated("graph is not eps-ultra maximal K_r-free")
    s = eps * G.n / 10
    reps, assign = _separate(G.adj, s)
    groups: list[list[int]] = [[] for _ in reps]
    for v, pos in enumerate(assign):
        groups[pos].append(v)

    # cherry claim: outside {v,w} the two neighborhoods agree.  It makes
    # any two classes complete or anti-complete; _quotient's validate
    # re-checks that and the independence of the parts.
    for gi, group in enumerate(groups):
        for v, w in combinations(group, 2):
            if G.adj[v] & ~(1 << w) != G.adj[w] & ~(1 << v):
                raise ClaimViolation(
                    f"class {gi}: vertices {v},{w} have an outside distinguisher"
                )

    final: list[tuple[int, ...]] = []
    for group in groups:
        if len(group) < r:
            final.extend((v,) for v in group)
        else:
            final.append(tuple(group))
    final.sort(key=lambda p: p[0])
    if len(final) > (r - 1) * max(1, len(reps)):
        raise ClaimViolation("quotient larger than (r-1) times the family size")
    return _quotient(G, final, G.induced([part[0] for part in final]))


def _quotient(G: Graph, parts, quotient: Graph) -> BlowupDecomposition:
    """Decomposition of G into ``parts`` (ordered by first vertex), whose
    quotient was read off the parts' first vertices; validated against G."""
    origin = [0] * G.n
    for i, part in enumerate(parts):
        for v in part:
            origin[v] = i
    deco = BlowupDecomposition(tuple(parts), quotient, tuple(origin))
    deco.validate(G)
    return deco


def twin_quotient(G: Graph) -> BlowupDecomposition:
    """Coarsest blow-up decomposition: classes of equal open
    neighborhoods.  The quotient is twin-free.  Grouping charges one node
    per vertex to a meter named ``twin_quotient``."""
    deco = _quotient(G, *_blowup_quotient(G, _meter("twin_quotient")))
    if len(set(deco.quotient.adj)) != len(deco.parts):
        raise ClaimViolation("twin quotient still contains twins")
    return deco


def p4_obstruction(G: Graph) -> ObstructionCertificate:
    """Largest vertex set pairwise joined by induced 4-vertex paths.

    Maximum clique of the auxiliary graph whose edges are the pairs
    admitting such a path, with per-pair witnesses kept for audit.

    Everything runs on the twin quotient F.  Twins admit no such path,
    and u, v in classes i, j admit one iff classes i, j do in F, so G's
    auxiliary graph is a blow-up of F's and its cliques take at most one
    vertex per class: F's maximum clique has the size of G's.  A class
    stands for its first vertex: the core is the first vertex of each
    class in the clique, and a witness (y, z) of F lifts to the first
    vertices of the classes y and z, the path ``has_induced_p4`` finds on G.
    Each class pair tested charges one node to a meter named
    ``p4_obstruction``.
    """
    classes, F, _ = twin_quotient(G)
    meter = _meter("p4_obstruction")
    aux = [0] * F.n
    paths: dict[tuple[int, int], tuple[int, int]] = {}
    for i, j in combinations(range(F.n), 2):
        if meter is not None:
            meter.charge()
        w = has_induced_p4(F, i, j)
        if w is not None:
            aux[i] |= 1 << j
            aux[j] |= 1 << i
            paths[(i, j)] = w
    _, clique = max_clique_witness(Graph.from_masks(aux))
    # classes are ordered by first vertex, so i < j iff first[i] < first[j]
    first = [c[0] for c in classes]
    links = {}
    for i, j in combinations(clique, 2):
        y, z = paths[(i, j)]
        links[(first[i], first[j])] = (first[y], first[z])
    cert = ObstructionCertificate(tuple(first[i] for i in clique), links)
    cert.validate(G)
    return cert


def vc_chromatic_partition(G: Graph, c):
    """Proper coloring from the neighborhood-proximity partition at
    threshold c*n/3 on a triangle-free graph of min degree >= c*n.

    Returns (colors, checks); independence of the parts raises
    ClaimViolation on failure, while the color-count bound is recorded
    as a check.
    """
    c = Fraction(c)
    if c <= 0:
        raise ValueError("c must be positive")
    if G.n == 0:
        raise ValueError("graph must be nonempty")
    if not _graphs.is_kr_free(G, 3):
        raise PreconditionViolated("graph has a triangle")
    if Fraction(G.min_degree()) < c * G.n:
        raise PreconditionViolated(
            f"min degree {G.min_degree()} below c*n = {c * G.n}"
        )
    s = c * G.n / 3
    reps, colors = _separate(G.adj, s)
    for u, v in G.edges():
        if colors[u] == colors[v]:
            raise ClaimViolation(f"part {colors[u]} contains the edge {u},{v}")
    d, _ = vc_dimension(neighborhood_system(G))
    m = len(reps)
    bound = packing_bound(d, G.n, s)
    return tuple(colors), [
        _verdict(
            "colors-within-vc-bound",
            "color-count-bounded-by-vc",
            Fraction(m) <= bound,
            value={"colors": m, "vc": d, "bound": bound, "c": c},
            witness={"colors": m, "bound": bound},
        ),
        _verdict("parts-independent", "close-neighborhoods-forbid-edges", True, value={"parts": m}),
    ]


def min_degree_ultra_check(G: Graph, r: int) -> list[Check]:
    """Degree hypothesis ((2r-5)/(2r-3) + eps)*n forces the clique
    density parameter up to eps^(r-2); checked exactly.  The slack eps
    is read off G's min degree, and an instance with none is skipped."""
    if r < 3:
        raise ValueError("need r >= 3")
    delta = G.min_degree()
    eps = Fraction(delta, G.n) - Fraction(2 * r - 5, 2 * r - 3) if G.n else 0
    if eps <= 0:
        return [
            _verdict("degree-hypothesis", "min-degree-meets-threshold", None),
            _verdict("ultra-parameter-lower-bound", "degree-implies-clique-density", None),
        ]
    try:
        cert = ultra_parameter(G, r)
    except PreconditionViolated:  # G holds a K_r
        cert = None
    # a K_r-free graph is maximal iff every non-adjacent pair sees a K_{r-2}
    if cert is None or cert.epsilon_star == 0:
        raise PreconditionViolated("graph is not maximal K_r-free")
    target = eps ** (r - 2)
    return [
        _verdict(
            "degree-hypothesis",
            "min-degree-meets-threshold",
            True,
            # ((2r-5)/(2r-3) + eps)*n is delta itself, reported as a Fraction
            value={"min_degree": delta, "threshold": Fraction(delta), "r": r, "eps": eps},
        ),
        _verdict(
            "ultra-parameter-lower-bound",
            "degree-implies-clique-density",
            cert.epsilon_star is None or cert.epsilon_star >= target,
            value={"epsilon_star": cert.epsilon_star, "required": target},
            witness={"worst_pair": cert.worst_pair},
        ),
    ]


def codegree_density_check(G: Graph) -> list[Check]:
    """Min codegree c*n over non-adjacent pairs forces co-neighborhood
    edge density at least 2 - 1/c; vacuous instances are skipped."""
    delta2 = _graphs.codegree_min(G, 2)
    if delta2 is None or delta2 == 0:
        reason = "no non-adjacent pair" if delta2 is None else "zero min codegree"
        return [
            _verdict(
                "co-neighborhood-density", "codegree-forces-density", None, value={"reason": reason}
            )
        ]
    c = Fraction(delta2, G.n)
    dens = _graphs.clique_codensity(G, 2, 2)
    required = 2 - 1 / c
    return [
        _verdict(
            "co-neighborhood-density",
            "codegree-forces-density",
            dens >= required,
            value={"density": dens, "required": required},
            witness={"density": dens, "required": required},
        ),
        _verdict(
            "codegree-hypothesis",
            "codegree-constant-computed",
            True,
            value={"c": c, "min_codegree": delta2},
        ),
    ]
