"""Immutable graphs over bitmask adjacency, and the core invariants.

Vertices are 0..n-1.  A vertex set is either a sorted tuple of ints (API
boundary) or an int bitmask (internal).  All operations are pure and
deterministic.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from . import _kernels
from ._kernels import members
from .budget import _meter

__all__ = [
    "Graph",
    "mask_of",
    "members",
    "count_cliques",
    "clique_number",
    "chromatic_number",
    "codegree_min",
    "clique_codensity",
    "has_induced_p4",
    "is_kr_free",
    "is_maximal_kr_free",
]


def mask_of(vertices) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def _check_edge(n: int, u: int, v: int) -> None:
    if not (0 <= u < n and 0 <= v < n):
        raise ValueError(f"edge ({u},{v}) out of range for n={n}")
    if u == v:
        raise ValueError(f"loop at vertex {u}")


class Graph:
    """Simple undirected graph: no loops, no multi-edges."""

    __slots__ = ("n", "adj")

    def __init__(self, n: int, edges=()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        adj = [0] * n
        for u, v in edges:
            _check_edge(n, u, v)
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.n = n
        self.adj = tuple(adj)

    @classmethod
    def from_masks(cls, masks) -> "Graph":
        g = object.__new__(cls)
        g.n = len(masks)
        g.adj = tuple(masks)
        return g

    @classmethod
    def empty(cls, n: int) -> "Graph":
        return cls(n)

    @classmethod
    def complete(cls, n: int) -> "Graph":
        return cls(n).complement()

    @classmethod
    def cycle(cls, n: int) -> "Graph":
        if n < 3:
            raise ValueError("cycle needs at least 3 vertices")
        return cls(n, [(i, (i + 1) % n) for i in range(n)])

    @classmethod
    def path(cls, n: int) -> "Graph":
        return cls(n, [(i, i + 1) for i in range(n - 1)])

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self):
        return hash((self.n, self.adj))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.edge_count()})"

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def min_degree(self) -> int:
        return min((self.degree(v) for v in range(self.n)), default=0)

    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self.adj) // 2

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in members(self.adj[u] >> (u + 1) << (u + 1))]

    def complement(self) -> "Graph":
        full = self.full_mask
        return Graph.from_masks([full & ~self.adj[v] & ~(1 << v) for v in range(self.n)])

    def induced(self, vertices) -> "Graph":
        """Induced subgraph on ``vertices`` (sorted), relabeled 0..k-1;
        ValueError on a repeated or out-of-range vertex."""
        vs = sorted(vertices)
        k = len(vs)
        if len(set(vs)) != k or (vs and (vs[0] < 0 or vs[-1] >= self.n)):
            raise ValueError(f"induced vertices must be distinct and in 0..{self.n - 1}")
        masks = [0] * k
        for i, v in enumerate(vs):
            row = self.adj[v]
            for j in range(i + 1, k):
                if row >> vs[j] & 1:
                    masks[i] |= 1 << j
                    masks[j] |= 1 << i
        return Graph.from_masks(masks)

    def is_connected(self) -> bool:
        if self.n <= 1:
            return True
        seen = 1
        frontier = 1
        while frontier:
            nxt = 0
            m = frontier
            while m:
                low = m & -m
                nxt |= self.adj[low.bit_length() - 1]
                m ^= low
            frontier = nxt & ~seen
            seen |= nxt
        return seen == self.full_mask


def count_cliques(G: Graph, b: int) -> int:
    """Number of unlabeled b-cliques in G."""
    if b < 1:
        raise ValueError("clique size must be at least 1")
    return _kernels.count_cliques(G.adj, b, G.full_mask, meter=_meter("count_cliques"))


def clique_number(G: Graph) -> int:
    return _kernels.max_clique(G.adj, G.full_mask, _meter("clique_number"))[0]


def max_clique_witness(G: Graph) -> tuple[int, tuple[int, ...]]:
    size, mask = _kernels.max_clique(G.adj, G.full_mask, _meter("max_clique"))
    return size, members(mask)


def chromatic_number(G: Graph, *, omega: int | None = None) -> int:
    """χ(G), searched upward from ω.  ``omega`` is G's clique number, for
    a caller that already has it; without it, χ searches for ω first,
    and its meter is charged for that search too."""
    return _kernels.chromatic_number(G.adj, G.n, _meter("chromatic_number"), omega)


def _lift(row: int, masks) -> int:
    """The union of the classes ``masks[j]`` over the quotient vertices j
    in ``row``: a quotient row read as a vertex mask of its blow-up."""
    m = 0
    for j in members(row):
        m |= masks[j]
    return m


def _blowup_quotient(G: Graph, meter=None):
    """``(classes, F)``: G's twin classes (vertices with one neighbourhood
    mask), each ascending and ordered by first vertex, and the twin-free
    quotient ``F = G.induced(first vertices)``.  G is the blow-up of F
    with ``len(classes[i])`` independent copies of vertex i, so a quantity
    of G can be computed on F with the class sizes as weights.  A meter,
    if given, is charged one node per vertex grouped."""
    by_mask: dict[int, list[int]] = {}
    for v, m in enumerate(G.adj):
        if meter is not None:
            meter.charge()
        by_mask.setdefault(m, []).append(v)
    classes = tuple(map(tuple, by_mask.values()))
    # a twin-free G is its own quotient: the first vertices are 0..n-1
    return classes, G if len(classes) == G.n else G.induced([c[0] for c in classes])


def _coneighborhood_counts(classes, F: Graph, a: int, b: int, meter):
    """``(S, size, count)`` for every class set S met by the independent
    a-sets I of G, where ``classes, F = _blowup_quotient(G)``.

    ``size`` is |N(I)| and ``count`` the number of b-cliques of G[N(I)]:
    0 when size < b, size itself at b = 1.  G's independent a-sets, up to
    twins, are F's independent class sets S with |S| <= a <= weight(S),
    and N(I) is the union of the classes in N_F(S); so the count runs on
    F, each clique weighted by the product of its class sizes.  Larger S
    come first, each size lexicographic.  The meter is charged one node
    per co-neighbourhood, plus the nodes of its clique count."""
    biggest = max(map(len, classes), default=1)
    if biggest == 1:
        weight = int.bit_count
    else:
        # one popcount per distinct class size, and a blow-up has few
        by_size: dict[int, int] = {}
        for i, c in enumerate(classes):
            by_size[len(c)] = by_size.get(len(c), 0) | 1 << i
        groups = tuple(by_size.items())

        def weight(mask: int) -> int:
            total = 0
            for size, m in groups:
                total += size * (mask & m).bit_count()
            return total

    # s classes hold at least s and at most s * biggest vertices
    for s in range(a, -(-a // biggest) - 1, -1):
        for S, nbhd in _kernels._independent_sets(F.adj, s, F.full_mask):
            if s == a or weight(S) >= a:
                if meter is not None:
                    meter.charge()
                size = weight(nbhd)
                if b == 1 or size < b:  # a popcount, or no b-clique
                    yield S, size, size if b == 1 else 0
                else:
                    yield S, size, _kernels.count_cliques(F.adj, b, nbhd, weight, meter)


def codegree_min(G: Graph, a: int):
    """Minimum |N(I)| over independent a-sets I; None when no such I."""
    if a < 1:
        raise ValueError("set size must be at least 1")
    meter = _meter("codegree_min")
    counts = _coneighborhood_counts(*_blowup_quotient(G), a, 1, meter)
    return min((size for _, size, _ in counts), default=None)


def clique_codensity(G: Graph, a: int, b: int):
    """Minimum b-clique density of G[N(I)] over independent a-sets I.

    Density is k_b(G[N(I)]) / C(|N(I)|, b), exact; a co-neighborhood with
    fewer than b vertices contributes density 0.  None when no independent
    a-set exists.
    """
    if a < 1 or b < 2:
        raise ValueError("need a >= 1 and b >= 2")
    meter = _meter("clique_codensity")
    counts = _coneighborhood_counts(*_blowup_quotient(G), a, b, meter)
    # below b vertices the count is 0 and C(size, b) is 0 too
    return min((Fraction(count, comb(size, b) or 1) for _, size, count in counts), default=None)


def has_induced_p4(G: Graph, u: int, v: int):
    """First (y, z) such that u-y-z-v is an induced 4-vertex path, else None."""
    if u == v:
        raise ValueError("endpoints must differ")
    if G.has_edge(u, v):
        return None
    ys = G.adj[u] & ~G.adj[v] & ~(1 << v)
    zs_base = G.adj[v] & ~G.adj[u] & ~(1 << u)
    my = ys
    while my:
        low = my & -my
        y = low.bit_length() - 1
        my ^= low
        mz = zs_base & G.adj[y] & ~low
        if mz:
            return y, (mz & -mz).bit_length() - 1
    return None


def is_kr_free(G: Graph, r: int) -> bool:
    if r < 2:
        raise ValueError("r must be at least 2")
    return count_cliques(G, r) == 0 if G.n >= r else True


def is_maximal_kr_free(G: Graph, r: int) -> bool:
    """K_r-free, and adding any non-edge creates a K_r.

    G+uv holds a K_r through u,v iff N(u,v) holds a K_{r-2}; for r=2 the
    empty clique always exists, so any edge completes a K_2.  Checked on
    the twin quotient F, whose cliques are G's up to the choice of copies:
    F is K_r-free, and every co-neighbourhood of a non-adjacent pair holds
    a K_{r-2}."""
    classes, F = _blowup_quotient(G)
    if not is_kr_free(F, r):
        return False
    meter = _meter("is_maximal_kr_free")
    return all(count for _, _, count in _coneighborhood_counts(classes, F, 2, r - 2, meter))
