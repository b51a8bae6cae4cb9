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

from .budget import SearchBudget
from .errors import ClaimViolation, PreconditionViolated
from .graphs import Graph, has_induced_p4, max_clique_witness
from . import graphs as _graphs
from .reports import Check, Report, _graph_digest
from .setsystems import SetSystem, neighborhood_system, vc_dimension
from .ultra import _twin_classes, is_eps_ultra, ultra_parameter

__all__ = [
    "E_UP",
    "BlowupDecomposition",
    "ObstructionCertificate",
    "separated_subfamily",
    "packing_bound",
    "haussler_partition",
    "twin_quotient",
    "verify_hom",
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
        if flat != list(range(G.n)):
            raise ClaimViolation("parts do not partition the vertex set")
        if self.quotient.n != len(self.parts):
            raise ClaimViolation("quotient size differs from part count")
        if len(self.origin) != G.n:
            raise ClaimViolation("origin map is not total")
        masks = []
        for i, part in enumerate(self.parts):
            m = 0
            for v in part:
                if self.origin[v] != i:
                    raise ClaimViolation(f"origin[{v}] disagrees with part {i}")
                m |= 1 << v
            masks.append(m)
            if len(part) > 1 and any(G.adj[v] & m for v in part):
                raise ClaimViolation(f"part {i} is neither independent nor a singleton")
        for i, j in combinations(range(len(self.parts)), 2):
            between = sum((G.adj[v] & masks[j]).bit_count() for v in self.parts[i])
            if between not in (0, len(self.parts[i]) * len(self.parts[j])):
                raise ClaimViolation(f"parts {i},{j} neither complete nor anti-complete")
            if self.quotient.has_edge(i, j) != (between > 0):
                raise ClaimViolation(f"quotient edge {i},{j} disagrees with the parts")


class ObstructionCertificate(NamedTuple):
    """Core vertices pairwise joined by induced 4-vertex paths.

    Any edge-preserving map to a triangle-free target must keep the core
    injective, so its size lower-bounds every such image.
    """

    core: tuple[int, ...]
    links: dict

    def validate(self, G: Graph) -> None:
        for u, v in combinations(self.core, 2):
            key = (u, v) if u < v else (v, u)
            if key not in self.links:
                raise ClaimViolation(f"core pair {key} has no witness")
            y, z = self.links[key]
            a, b = key
            quad = {a, y, z, b}
            ok = (
                len(quad) == 4
                and G.has_edge(a, y)
                and G.has_edge(y, z)
                and G.has_edge(z, b)
                and not G.has_edge(a, b)
                and not G.has_edge(a, z)
                and not G.has_edge(y, b)
            )
            if not ok:
                raise ClaimViolation(f"witness {key} -> {(y, z)} is not an induced path")


def _separated_reps(masks, s) -> list[int]:
    # greedy ascending scan; pairwise symmetric difference stays > s
    reps: list[int] = []
    for i, m in enumerate(masks):
        if all((m ^ masks[j]).bit_count() > s for j in reps):
            reps.append(i)
    return reps


def separated_subfamily(F: SetSystem, s: int) -> tuple[int, ...]:
    """Greedy maximal subfamily with pairwise symmetric difference > s."""
    if s < 0:
        raise ValueError("separation must be nonnegative")
    reps = _separated_reps(F.sets, s)
    chosen = set(reps)
    for i, m in enumerate(F.sets):
        if i not in chosen and all(
            (m ^ F.sets[j]).bit_count() > s for j in reps
        ):
            raise ClaimViolation(f"set {i} could extend the family")
    return tuple(reps)


def packing_bound(d: int, family_size: int, sep_level: int) -> Fraction:
    """Rational upper bound e(d+1)(2e*|F|/s)^d for an s-separated family
    in a system of VC dimension d."""
    if sep_level < 1:
        raise ValueError("separation level must be positive")
    return E_UP * (d + 1) * (2 * E_UP * family_size / Fraction(sep_level)) ** d


def _assign_to_reps(masks, reps, s) -> list[int]:
    origin = []
    for m in masks:
        for pos, j in enumerate(reps):
            if (m ^ masks[j]).bit_count() <= s:
                origin.append(pos)
                break
        else:
            raise ClaimViolation("maximality broke: a vertex fits no class")
    return origin


def haussler_partition(
    G: Graph, r: int, eps, budget: SearchBudget | None = None
) -> BlowupDecomposition:
    """Partition by neighborhood proximity at threshold s = eps*n/10,
    verify the structural claims, split undersized parts into singletons,
    and return the quotient with its origin map."""
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    if r < 3:
        raise ValueError("need r >= 3")
    if not is_eps_ultra(G, r, eps, budget):
        raise PreconditionViolated("graph is not eps-ultra maximal K_r-free")
    s = eps * G.n / 10
    reps = _separated_reps(G.adj, s)
    assign = _assign_to_reps(G.adj, reps, s)
    groups: list[list[int]] = [[] for _ in reps]
    for v, pos in enumerate(assign):
        groups[pos].append(v)

    for gi, group in enumerate(groups):
        for v, w in combinations(group, 2):
            # cherry claim: outside {v,w} the two neighborhoods agree
            if G.adj[v] & ~(1 << w) != G.adj[w] & ~(1 << v):
                raise ClaimViolation(
                    f"class {gi}: vertices {v},{w} have an outside distinguisher"
                )
        if len(group) >= r:
            gmask = 0
            for v in group:
                gmask |= 1 << v
            if any(G.adj[v] & gmask for v in group):
                raise ClaimViolation(f"class {gi} of size >= r is not independent")
    for gi, gj in combinations(range(len(groups)), 2):
        mask_j = 0
        for v in groups[gj]:
            mask_j |= 1 << v
        between = sum((G.adj[v] & mask_j).bit_count() for v in groups[gi])
        if between not in (0, len(groups[gi]) * len(groups[gj])):
            raise ClaimViolation(f"classes {gi},{gj} neither complete nor anti-complete")

    final: list[tuple[int, ...]] = []
    for group in groups:
        if len(group) < r:
            final.extend((v,) for v in group)
        else:
            final.append(tuple(group))
    final.sort(key=lambda p: p[0])
    if len(final) > (r - 1) * max(1, len(reps)):
        raise ClaimViolation("quotient larger than (r-1) times the family size")
    return _quotient(G, final)


def _quotient(G: Graph, parts) -> BlowupDecomposition:
    """Decomposition of G into ``parts`` (ordered by first vertex), with the
    quotient read off the parts' first vertices; validated against G."""
    origin = [0] * G.n
    for i, part in enumerate(parts):
        for v in part:
            origin[v] = i
    k = len(parts)
    adj = [0] * k
    for i, j in combinations(range(k), 2):
        if G.has_edge(parts[i][0], parts[j][0]):
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    deco = BlowupDecomposition(tuple(parts), Graph.from_masks(adj), tuple(origin))
    deco.validate(G)
    return deco


def twin_quotient(G: Graph) -> BlowupDecomposition:
    """Coarsest blow-up decomposition: classes of equal open
    neighborhoods.  The quotient is twin-free."""
    deco = _quotient(G, [tuple(c) for c in _twin_classes(G)])
    if len(set(deco.quotient.adj)) != len(deco.parts):
        raise ClaimViolation("twin quotient still contains twins")
    return deco


def verify_hom(G: Graph, F: Graph, phi) -> bool:
    """Whether phi maps every edge of G to an edge of F."""
    phi = tuple(phi)
    if len(phi) != G.n:
        raise ValueError("map must be total on the vertices")
    if any(not 0 <= x < F.n for x in phi):
        raise ValueError("map value out of range")
    return all(F.has_edge(phi[u], phi[v]) for u, v in G.edges())


def p4_obstruction(G: Graph, budget: SearchBudget | None = None) -> ObstructionCertificate:
    """Largest vertex set pairwise joined by induced 4-vertex paths.

    Maximum clique of the auxiliary graph whose edges are the pairs
    admitting such a path, with per-pair witnesses kept for audit.
    """
    aux = [0] * G.n
    pairs: dict[tuple[int, int], tuple[int, int]] = {}
    for u, v in combinations(range(G.n), 2):
        w = has_induced_p4(G, u, v)
        if w is not None:
            aux[u] |= 1 << v
            aux[v] |= 1 << u
            pairs[(u, v)] = w
    size, core = max_clique_witness(Graph.from_masks(aux), budget)
    links = {
        (u, v): pairs[(u, v)] for u, v in combinations(core, 2)
    }
    cert = ObstructionCertificate(core, links)
    cert.validate(G)
    return cert


def vc_chromatic_partition(G: Graph, c, budget: SearchBudget | None = None):
    """Proper coloring from the neighborhood-proximity partition at
    threshold c*n/3 on a triangle-free graph of min degree >= c*n.

    Returns (colors, report); independence of the parts raises
    ClaimViolation on failure, while the color-count bound is recorded
    in the report.
    """
    c = Fraction(c)
    if c <= 0:
        raise ValueError("c must be positive")
    if G.n == 0:
        raise ValueError("graph must be nonempty")
    if not _graphs.is_kr_free(G, 3, budget):
        raise PreconditionViolated("graph has a triangle")
    if Fraction(G.min_degree()) < c * G.n:
        raise PreconditionViolated(
            f"min degree {G.min_degree()} below c*n = {c * G.n}"
        )
    s = c * G.n / 3
    reps = _separated_reps(G.adj, s)
    colors = _assign_to_reps(G.adj, reps, s)
    for u, v in G.edges():
        if colors[u] == colors[v]:
            raise ClaimViolation(f"part {colors[u]} contains the edge {u},{v}")
    d, _ = vc_dimension(neighborhood_system(G), budget)
    m = len(reps)
    bound = E_UP * (d + 1) * (2 * E_UP / (3 * c)) ** d
    ok = Fraction(m) <= bound
    checks = [
        Check(
            "parts-independent",
            "close-neighborhoods-forbid-edges",
            "pass",
            value={"parts": m},
        ),
        Check(
            "colors-within-vc-bound",
            "color-count-bounded-by-vc",
            "pass" if ok else "fail",
            value={"colors": m, "vc": d, "bound": bound, "c": c},
            witness=None if ok else {"colors": m, "bound": bound},
        ),
    ]
    report = Report(_graph_digest(G, {"c": c}), checks)
    return tuple(colors), report


def min_degree_ultra_check(
    G: Graph, r: int, eps, budget: SearchBudget | None = None
) -> Report:
    """Degree hypothesis ((2r-5)/(2r-3) + eps)*n forces the clique
    density parameter up to eps^(r-2); checked exactly."""
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    if r < 3:
        raise ValueError("need r >= 3")
    threshold = (Fraction(2 * r - 5, 2 * r - 3) + eps) * G.n
    if not _graphs.is_maximal_kr_free(G, r, budget):
        raise PreconditionViolated("graph is not maximal K_r-free")
    delta = G.min_degree()
    if Fraction(delta) < threshold:
        raise PreconditionViolated(f"min degree {delta} below {threshold}")
    cert = ultra_parameter(G, r, budget)
    target = eps ** (r - 2)
    ok = cert.epsilon_star is None or cert.epsilon_star >= target
    checks = [
        Check(
            "degree-hypothesis",
            "min-degree-meets-threshold",
            "pass",
            value={"min_degree": delta, "threshold": threshold, "r": r, "eps": eps},
        ),
        Check(
            "ultra-parameter-lower-bound",
            "degree-implies-clique-density",
            "pass" if ok else "fail",
            value={"epsilon_star": cert.epsilon_star, "required": target},
            witness=None if ok else {"worst_pair": cert.worst_pair},
        ),
    ]
    return Report(_graph_digest(G, {"r": r, "eps": eps}), checks)


def codegree_density_check(G: Graph, budget: SearchBudget | None = None) -> Report:
    """Min codegree c*n over non-adjacent pairs forces co-neighborhood
    edge density at least 2 - 1/c; vacuous instances are skipped."""
    digest = _graph_digest(G)
    delta2 = _graphs.codegree_min(G, 2)
    if delta2 is None or delta2 == 0:
        reason = "no non-adjacent pair" if delta2 is None else "zero min codegree"
        return Report(
            digest,
            [
                Check(
                    "co-neighborhood-density",
                    "codegree-forces-density",
                    "skipped",
                    value={"reason": reason},
                )
            ],
        )
    c = Fraction(delta2, G.n)
    dens = _graphs.clique_codensity(G, 2, 2, budget)
    required = 2 - 1 / c
    ok = dens >= required
    checks = [
        Check(
            "codegree-hypothesis",
            "codegree-constant-computed",
            "pass",
            value={"c": c, "min_codegree": delta2},
        ),
        Check(
            "co-neighborhood-density",
            "codegree-forces-density",
            "pass" if ok else "fail",
            value={"density": dens, "required": required},
            witness=None if ok else {"density": dens, "required": required},
        ),
    ]
    return Report(digest, checks)
