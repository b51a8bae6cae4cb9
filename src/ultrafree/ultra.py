"""Ultra-freeness: the clique-multiplicity parameter of a maximal
K_r-free graph, half-graph search, the greedy construction turning a
bipartite induced matching into a half graph, and the exact bipartite
induced matching number.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional

from . import _kernels
from .budget import SearchBudget, _meter
from .errors import InternalContradiction, PreconditionViolated
from .graphs import Graph, list_cliques, members
from . import graphs as _graphs
from .reports import Check, Report, _graph_digest
from .setsystems import neighborhood_system, vc_dimension

__all__ = [
    "UltraCertificate",
    "HalfGraphEmbedding",
    "BiInducedMatching",
    "ultra_parameter",
    "is_eps_ultra",
    "find_half_graph",
    "build_half_from_matching",
    "nu_bi",
    "check_vc_clique_bound",
]


class UltraCertificate(NamedTuple):
    """Exact worst-case clique density over the non-adjacent pairs.

    ``epsilon_star`` is None when the graph has no non-adjacent pair
    (the parameter is then unbounded); ``worst_pair`` is the first
    minimizing pair together with its clique count.
    """

    r: int
    epsilon_star: Optional[Fraction]
    worst_pair: Optional[tuple[int, int, int]]

    def admits(self, eps) -> bool:
        return self.epsilon_star is None or Fraction(eps) <= self.epsilon_star


class HalfGraphEmbedding(NamedTuple):
    """xs[i]ys[i] are non-edges and xs[i]ys[j] are edges for j < i.

    Pairs with j > i and same-side pairs are unconstrained.
    """

    xs: tuple[int, ...]
    ys: tuple[int, ...]

    def validate(self, G: Graph) -> None:
        k = len(self.xs)
        if len(self.ys) != k:
            raise ValueError("sides must have equal length")
        seen = set(self.xs) | set(self.ys)
        if len(seen) != 2 * k:
            raise ValueError("vertices must be distinct")
        for i in range(k):
            if G.has_edge(self.xs[i], self.ys[i]):
                raise ValueError(f"matched pair {i} must be a non-edge")
            for j in range(i):
                if not G.has_edge(self.xs[i], self.ys[j]):
                    raise ValueError(f"xs[{i}]ys[{j}] must be an edge")


class BiInducedMatching(NamedTuple):
    """Ordered pairs with cross edges exactly along the diagonal.

    Same-side adjacency is unconstrained; that is what distinguishes
    this from an induced matching.
    """

    pairs: tuple[tuple[int, int], ...]

    def validate(self, G: Graph) -> None:
        flat = [v for p in self.pairs for v in p]
        if len(set(flat)) != len(flat):
            raise ValueError("vertices must be distinct")
        for i, (a, b) in enumerate(self.pairs):
            for j, (c, d) in enumerate(self.pairs):
                if G.has_edge(a, d) != (i == j):
                    raise ValueError(
                        f"cross pair ({i},{j}) violates the matching pattern"
                    )


def ultra_parameter(G: Graph, r: int, budget: SearchBudget | None = None) -> UltraCertificate:
    """Minimum over non-adjacent pairs u,v of the number of (r-2)-cliques
    in the common neighborhood, divided by n^(r-2).  Exact."""
    if r < 3:
        raise ValueError("need r >= 3")
    if not _graphs.is_kr_free(G, r, budget):
        raise PreconditionViolated(f"graph contains a {r}-clique")
    denom = G.n ** (r - 2)
    best = None
    worst = None
    for u, v in G.non_edges():
        count = _graphs.count_cliques(
            G, r - 2, within=G.common_neighbors((u, v)), budget=budget
        )
        val = Fraction(count, denom)
        if best is None or val < best:
            best = val
            worst = (u, v, count)
    return UltraCertificate(r, best, worst)


def is_eps_ultra(G: Graph, r: int, eps, budget: SearchBudget | None = None) -> bool:
    """Whether G is an eps-ultra maximal K_r-free graph.

    For eps > 0 this is just eps <= epsilon_star: a positive clique count
    behind every non-adjacent pair already forces maximality.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    if not _graphs.is_kr_free(G, r, budget):
        return False
    return ultra_parameter(G, r, budget).admits(eps)


def _twin_classes(G: Graph):
    by_mask: dict[int, list[int]] = {}
    for v in range(G.n):
        by_mask.setdefault(G.adj[v], []).append(v)
    return sorted(by_mask.values())


def find_half_graph(G: Graph, k: int, budget: SearchBudget | None = None):
    """First half-graph embedding on 2k distinct vertices, or None.

    Exhaustive search choosing x_i then y_i in index order.  Vertices
    with identical neighborhoods are interchangeable in any embedding,
    so the search runs over twin classes with per-class capacities.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    if 2 * k > G.n:
        return None
    meter = _meter(budget, "find_half_graph")
    classes = _twin_classes(G)
    nc = len(classes)
    caps = [len(c) for c in classes]
    cls_adj = []
    for ci in range(nc):
        rep = classes[ci][0]
        m = 0
        for cj in range(nc):
            if G.adj[rep] >> classes[cj][0] & 1:
                m |= 1 << cj
        cls_adj.append(m)
    full = (1 << nc) - 1
    xs_cls = [0] * k
    ys_cls = [0] * k

    def rec(i: int, x_cand: int) -> bool:
        if meter is not None:
            meter.charge()
        if i == k:
            return True
        for cx in range(nc):
            if not x_cand >> cx & 1 or caps[cx] == 0:
                continue
            caps[cx] -= 1
            xs_cls[i] = cx
            for cy in range(nc):
                if cls_adj[cx] >> cy & 1 or caps[cy] == 0:
                    continue
                if meter is not None:
                    meter.charge()
                nxt = x_cand & cls_adj[cy]
                need = k - i - 1
                if need and sum(
                    caps[c] - (1 if c == cy else 0) for c in members(nxt)
                ) < need:
                    continue
                caps[cy] -= 1
                ys_cls[i] = cy
                if rec(i + 1, nxt):
                    return True
                caps[cy] += 1
            caps[cx] += 1
        return False

    if not rec(0, full):
        return None
    used = [0] * nc
    xs = [0] * k
    ys = [0] * k
    for i in range(k):
        for seq, cls in ((xs, xs_cls[i]), (ys, ys_cls[i])):
            seq[i] = classes[cls][used[cls]]
            used[cls] += 1
    emb = HalfGraphEmbedding(tuple(xs), tuple(ys))
    emb.validate(G)
    return emb


def _qualifying_cliques(G, cliques, conbrs, threshold):
    """(clique, covered-pair-positions) for every clique contained in at
    least ``threshold`` of the given co-neighborhoods, in input order."""
    out = []
    for K in cliques:
        covered = tuple(i for i, cn in conbrs if K & ~cn == 0)
        if len(covered) >= threshold:
            out.append((K, covered))
    return out


def build_half_from_matching(
    G: Graph,
    M,
    r: int,
    eps,
    budget: SearchBudget | None = None,
    trust_ultra: bool = False,
) -> HalfGraphEmbedding:
    """Greedy half-graph construction from a bipartite induced matching.

    Each round pigeonholes an (r-2)-clique shared by enough of the
    current co-neighborhoods and picks a non-neighbor of the head vertex
    inside it.  Runs max{j >= 0 : (2/eps)^j <= t} rounds for a matching
    of size t.  ``trust_ultra=True`` skips the ultra check; if the input
    was not in fact ultra the construction may then run out of qualifying
    cliques or expose a genuine r-clique, reported as
    InternalContradiction.
    """
    eps = Fraction(eps)
    if not 0 < eps < 2:
        raise ValueError("need 0 < eps < 2")
    if r < 3:
        raise ValueError("need r >= 3")
    if not isinstance(M, BiInducedMatching):
        M = BiInducedMatching(tuple((int(a), int(b)) for a, b in M))
    try:
        M.validate(G)
    except ValueError as exc:
        raise PreconditionViolated(f"not a bipartite induced matching: {exc}")
    if not trust_ultra and not is_eps_ultra(G, r, eps, budget):
        raise PreconditionViolated("graph is not eps-ultra maximal K_r-free")
    t = len(M.pairs)
    if Fraction(t) < 2 / eps:
        raise PreconditionViolated(f"matching size {t} below 2/eps = {2 / eps}")

    ratio = 2 / eps
    rounds = 0
    power = Fraction(1)
    while power * ratio <= t:
        power *= ratio
        rounds += 1

    cliques = list_cliques(G, r - 2, budget=budget)
    remaining = list(M.pairs)
    xs: list[int] = []
    ys: list[int] = []
    q = Fraction(t)
    for _ in range(rounds):
        a1, b1 = remaining[0]
        m = min(int(q), len(remaining))
        if m < 2:
            raise InternalContradiction(
                "round shrank below two pairs", witness=tuple(remaining)
            )
        conbrs = [
            (i, G.common_neighbors((remaining[i][0], b1))) for i in range(1, m)
        ]
        threshold = eps * q / 2
        qualified = _qualifying_cliques(G, cliques, conbrs, threshold)
        if not qualified:
            raise InternalContradiction(
                "no clique reaches the pigeonhole multiplicity",
                witness=(a1, b1),
            )
        # max() keeps the first maximum, so this is the lex-least clique
        # achieving the top multiplicity; the rest follow in lex order.
        best = max(qualified, key=lambda kc: len(kc[1]))
        ordered = [best] + [kc for kc in qualified if kc is not best]
        pick = None
        for K, covered in ordered:
            cands = [c for c in members(K) if c != a1 and not G.has_edge(a1, c)]
            if cands:
                pick = (min(cands), covered)
                break
            if not K >> a1 & 1:
                # a1 completes the clique through b1: a genuine K_r
                raise InternalContradiction(
                    "head vertex dominates a shared clique",
                    witness=members(K | 1 << a1 | 1 << b1),
                )
        if pick is None:
            raise InternalContradiction(
                "no valid pick in any qualifying clique", witness=(a1, b1)
            )
        c1, covered = pick
        xs.append(a1)
        ys.append(c1)
        remaining = [remaining[i] for i in covered]
        q = eps * q / 2

    emb = HalfGraphEmbedding(tuple(xs), tuple(ys))
    try:
        emb.validate(G)
    except ValueError as exc:
        raise InternalContradiction(f"constructed embedding invalid: {exc}")
    return emb


def nu_bi(G: Graph, budget: SearchBudget | None = None):
    """Exact bipartite induced matching number with a witness.

    Maximum clique of the compatibility graph on ordered adjacent pairs;
    two pairs are compatible when vertex-disjoint with both cross pairs
    non-adjacent.
    """
    cands: list[tuple[int, int]] = []
    for u, v in G.edges():
        cands.append((u, v))
        cands.append((v, u))
    cands.sort()
    m = len(cands)
    compat = [0] * m
    for i in range(m):
        a, b = cands[i]
        for j in range(i + 1, m):
            c, d = cands[j]
            if len({a, b, c, d}) == 4 and not G.has_edge(a, d) and not G.has_edge(c, b):
                compat[i] |= 1 << j
                compat[j] |= 1 << i
    best, mask = _kernels.max_clique(compat, (1 << m) - 1, _meter(budget, "nu_bi"))
    witness = BiInducedMatching(tuple(cands[i] for i in members(mask)))
    witness.validate(G)
    return best, witness


def check_vc_clique_bound(
    G: Graph, r: int, eps, budget: SearchBudget | None = None
) -> Report:
    """VC-dimension of the neighborhood system against the clique-driven
    bound (1/eps + 1) + r - 4, all rational and exact."""
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    cert = ultra_parameter(G, r, budget)
    if not cert.admits(eps):
        raise PreconditionViolated(
            f"eps = {eps} exceeds the graph parameter {cert.epsilon_star}"
        )
    d, shattered = vc_dimension(neighborhood_system(G), budget)
    bound = 1 / eps + 1 + r - 4
    ok = Fraction(d) <= bound
    checks = [
        Check(
            "ultra-precondition",
            "clique-density-admits-eps",
            "pass",
            value={"eps": eps, "epsilon_star": cert.epsilon_star},
        ),
        Check(
            "neighborhood-vc-bound",
            "vc-at-most-inverse-eps-plus-clique-slack",
            "pass" if ok else "fail",
            value={"vc": d, "bound": bound, "r": r},
            witness=None if ok else {"shattered": shattered},
        ),
    ]
    return Report(_graph_digest(G, {"r": r, "eps": eps}), checks)
