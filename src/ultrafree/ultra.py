"""Ultra-freeness: the clique-multiplicity parameter of a maximal
K_r-free graph, half-graph search, and the exact bipartite induced
matching number.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional

from . import _kernels
from .budget import _meter
from .errors import ClaimViolation, PreconditionViolated
from .graphs import Graph, _blowup_quotient, _coneighborhood_counts, members

__all__ = [
    "UltraCertificate",
    "HalfGraphEmbedding",
    "BiInducedMatching",
    "ultra_parameter",
    "is_eps_ultra",
    "find_half_graph",
    "nu_bi",
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

    Pairs with j > i and same-side pairs are unconstrained.  ``validate``
    raises ClaimViolation on the first pair that breaks the pattern.
    """

    xs: tuple[int, ...]
    ys: tuple[int, ...]

    def validate(self, G: Graph) -> None:
        k = len(self.xs)
        if len(self.ys) != k:
            raise ClaimViolation("sides must have equal length")
        seen = set(self.xs) | set(self.ys)
        if any(not 0 <= v < G.n for v in seen):
            raise ClaimViolation(f"vertices must lie in 0..{G.n - 1}")
        if len(seen) != 2 * k:
            raise ClaimViolation("vertices must be distinct")
        for i in range(k):
            if G.has_edge(self.xs[i], self.ys[i]):
                raise ClaimViolation(f"matched pair {i} must be a non-edge")
            for j in range(i):
                if not G.has_edge(self.xs[i], self.ys[j]):
                    raise ClaimViolation(f"xs[{i}]ys[{j}] must be an edge")


class BiInducedMatching(NamedTuple):
    """Ordered pairs with cross edges exactly along the diagonal.

    Same-side adjacency is unconstrained; that is what distinguishes
    this from an induced matching.  ``validate`` raises ClaimViolation
    on the first pair that breaks the pattern.
    """

    pairs: tuple[tuple[int, int], ...]

    def validate(self, G: Graph) -> None:
        flat = [v for p in self.pairs for v in p]
        if any(not 0 <= v < G.n for v in flat):
            raise ClaimViolation(f"vertices must lie in 0..{G.n - 1}")
        if len(set(flat)) != len(flat):
            raise ClaimViolation("vertices must be distinct")
        for i, (a, b) in enumerate(self.pairs):
            for j, (c, d) in enumerate(self.pairs):
                if G.has_edge(a, d) != (i == j):
                    raise ClaimViolation(f"cross pair ({i},{j}) violates the matching pattern")


def ultra_parameter(G: Graph, r: int) -> UltraCertificate:
    """Minimum over non-adjacent pairs u,v of the number of (r-2)-cliques
    in the common neighborhood, divided by n^(r-2).  Exact.  The K_r check
    and the co-neighbourhood counts charge one meter, named
    ``ultra_parameter``.

    Computed on the twin quotient F, with the class sizes as clique
    weights.  Every pair of G lies in a non-adjacent pair of classes, or
    inside one class, and shares its count; the lexicographically first
    G-pair of a class pair is (first_i, first_j), and of a class
    (first_i, second_i)."""
    if r < 3:
        raise ValueError("need r >= 3")
    meter = _meter("ultra_parameter")
    classes, F = _blowup_quotient(G)
    if F.n >= r and _kernels.count_cliques(F.adj, r, F.full_mask, meter=meter):
        raise PreconditionViolated(f"graph contains a {r}-clique")
    worst = None
    for S, _, count in _coneighborhood_counts(classes, F, 2, r - 2, meter):
        i, *j = members(S)
        u, v = (classes[i][0], classes[j[0]][0]) if j else classes[i][:2]
        if worst is None or (count, u, v) < worst:
            worst = count, u, v
    if worst is None:
        return UltraCertificate(r, None, None)
    least, u, v = worst
    return UltraCertificate(r, Fraction(least, G.n ** (r - 2)), (u, v, least))


def is_eps_ultra(G: Graph, r: int, eps) -> bool:
    """Whether G is an eps-ultra maximal K_r-free graph.

    For eps > 0 this is just eps <= epsilon_star: a positive clique count
    behind every non-adjacent pair already forces maximality.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    try:
        return ultra_parameter(G, r).admits(eps)
    except PreconditionViolated:  # G holds a K_r
        return False


def find_half_graph(G: Graph, k: int):
    """First half-graph embedding on 2k distinct vertices, or None.

    Exhaustive search choosing x_i then y_i in index order.  Vertices
    with identical neighborhoods are interchangeable in any embedding,
    so the search runs over twin classes with per-class capacities.
    The embedding is validated on G; an invalid one raises ClaimViolation.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    if 2 * k > G.n:
        return None
    meter = _meter("find_half_graph")
    classes, F = _blowup_quotient(G)
    nc = len(classes)
    caps = [len(c) for c in classes]
    cls_adj = F.adj
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

    try:
        found = rec(0, full)
    finally:
        del rec
    if not found:
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


def _compatibility_rows(G: Graph, darts) -> list[int]:
    """Row i: the mask of the darts compatible with ``darts[i]``, bit j
    standing for ``darts[j]``."""
    tails = [0] * G.n
    heads = [0] * G.n
    for i, (a, b) in enumerate(darts):
        tails[a] |= 1 << i
        heads[b] |= 1 << i
    # far_*[v]: the darts whose first / second vertex lies outside N[v]
    far_tails = []
    far_heads = []
    for v in range(G.n):
        t = h = 0
        for u in members(G.full_mask & ~(G.adj[v] | 1 << v)):
            t |= tails[u]
            h |= heads[u]
        far_tails.append(t)
        far_heads.append(h)
    return [far_tails[b] & far_heads[a] for a, b in darts]


def nu_bi(G: Graph):
    """Exact bipartite induced matching number with a witness.

    Maximum clique of the compatibility graph on darts (ordered adjacent
    pairs); two darts are compatible when vertex-disjoint with both cross
    pairs non-adjacent.  Dart (a, b) is compatible with (c, d) exactly
    when c is outside N(b) | {a, b} and d is outside N(a) | {a, b}; since
    ab is an edge these are the closed neighbourhoods N[b] and N[a].  So
    with ``tails[v]`` (``heads[v]``) the mask of darts whose first
    (second) vertex is v, the row of (a, b) is the OR of ``tails[c]`` over
    c outside N[b], ANDed with the OR of ``heads[d]`` over d outside N[a].

    The clique search numbers the darts by descending compatibility
    degree, ties by dart (the initial order of Tomita and Seki's MCQ),
    and takes the reversal (a, b) -> (b, a), an automorphism of the
    compatibility graph, as its mirror.  The witness lists its pairs in
    dart order, so it does not depend on the search order.  It is
    validated on G; an invalid one raises ClaimViolation.
    """
    darts = sorted(dart for u, v in G.edges() for dart in ((u, v), (v, u)))
    degree = dict(zip(darts, map(int.bit_count, _compatibility_rows(G, darts))))
    darts.sort(key=lambda dart: -degree[dart])  # stable: ties stay in dart order
    index = {dart: i for i, dart in enumerate(darts)}
    mirror = [index[b, a] for a, b in darts]
    compat = _compatibility_rows(G, darts)
    best, mask = _kernels.max_clique(compat, (1 << len(darts)) - 1, _meter("nu_bi"), mirror=mirror)
    witness = BiInducedMatching(tuple(sorted(darts[i] for i in members(mask))))
    witness.validate(G)
    return best, witness
