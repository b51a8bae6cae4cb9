"""Immutable graphs over bitmask adjacency, and the core invariants.

Vertices are 0..n-1.  A vertex set is either a sorted tuple of ints (API
boundary) or an int bitmask (internal).  All operations are pure and
deterministic.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb

from . import _kernels
from ._kernels import members
from .budget import SearchBudget, _meter

__all__ = [
    "Graph",
    "mask_of",
    "members",
    "count_cliques",
    "clique_number",
    "chromatic_number",
    "enumerate_mis",
    "codegree_min",
    "clique_codensity",
    "clique_density_threshold",
    "has_induced_p4",
    "is_kr_free",
    "is_maximal_kr_free",
]


def mask_of(vertices) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


class Graph:
    """Simple undirected graph: no loops, no multi-edges."""

    __slots__ = ("n", "adj")

    def __init__(self, n: int, edges=()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"loop at vertex {u}")
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
        full = (1 << n) - 1
        return cls.from_masks([full & ~(1 << v) for v in range(n)])

    @classmethod
    def cycle(cls, n: int) -> "Graph":
        if n < 3:
            raise ValueError("cycle needs at least 3 vertices")
        return cls(n, [(i, (i + 1) % n) for i in range(n)])

    @classmethod
    def path(cls, n: int) -> "Graph":
        return cls(n, [(i, i + 1) for i in range(n - 1)])

    @classmethod
    def complete_multipartite(cls, sizes) -> "Graph":
        n = sum(sizes)
        masks = []
        start = 0
        full = (1 << n) - 1
        for s in sizes:
            part = ((1 << s) - 1) << start
            masks.extend([full & ~part] * s)
            start += s
        return cls.from_masks(masks)

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
        out = []
        for u in range(self.n):
            m = self.adj[u] >> (u + 1) << (u + 1)
            while m:
                low = m & -m
                out.append((u, low.bit_length() - 1))
                m ^= low
        return out

    def non_edges(self):
        """Unordered non-adjacent pairs (u, v), u < v, ascending."""
        for u in range(self.n):
            m = self.full_mask & ~self.adj[u] & ~((1 << (u + 1)) - 1)
            while m:
                low = m & -m
                yield (u, low.bit_length() - 1)
                m ^= low

    def neighbors(self, v: int) -> tuple[int, ...]:
        return members(self.adj[v])

    def common_neighbors(self, vertices) -> int:
        """Bitmask of vertices adjacent to everything in ``vertices``."""
        m = self.full_mask
        for v in vertices:
            m &= self.adj[v]
        return m

    def complement(self) -> "Graph":
        full = self.full_mask
        return Graph.from_masks([full & ~self.adj[v] & ~(1 << v) for v in range(self.n)])

    def induced(self, vertices) -> "Graph":
        """Induced subgraph on ``vertices`` (sorted), relabeled 0..k-1."""
        vs = sorted(vertices)
        pos = {v: i for i, v in enumerate(vs)}
        masks = [0] * len(vs)
        for i, v in enumerate(vs):
            m = self.adj[v]
            while m:
                low = m & -m
                w = low.bit_length() - 1
                m ^= low
                j = pos.get(w)
                if j is not None:
                    masks[i] |= 1 << j
        return Graph.from_masks(masks)

    def with_edge(self, u: int, v: int) -> "Graph":
        if u == v:
            raise ValueError("loop")
        masks = list(self.adj)
        masks[u] |= 1 << v
        masks[v] |= 1 << u
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


def _within_mask(G: Graph, within) -> int:
    """Vertex bitmask of ``within``: all of G when None, else a mask or an
    iterable of vertices."""
    if within is None:
        return G.full_mask
    return within if isinstance(within, int) else mask_of(within)


def count_cliques(G: Graph, b: int, within=None, budget: SearchBudget | None = None) -> int:
    """Number of unlabeled b-cliques in G, or in G[within]."""
    if b < 1:
        raise ValueError("clique size must be at least 1")
    return _kernels.count_cliques(G.adj, b, _within_mask(G, within), _meter(budget, "count_cliques"))


def list_cliques(G: Graph, b: int, within=None, budget: SearchBudget | None = None) -> list[int]:
    """All b-cliques as bitmasks, lexicographic by member tuple."""
    if b < 0:
        raise ValueError("clique size must be nonnegative")
    return _kernels.list_cliques(G.adj, b, _within_mask(G, within), _meter(budget, "list_cliques"))


def clique_number(G: Graph, budget: SearchBudget | None = None) -> int:
    return _kernels.max_clique(G.adj, G.full_mask, _meter(budget, "clique_number"))[0]


def max_clique_witness(G: Graph, budget: SearchBudget | None = None) -> tuple[int, tuple[int, ...]]:
    size, mask = _kernels.max_clique(G.adj, G.full_mask, _meter(budget, "max_clique"))
    return size, members(mask)


def chromatic_number(G: Graph, budget: SearchBudget | None = None) -> int:
    return _kernels.chromatic_number(G.adj, G.n, _meter(budget, "chromatic_number"))


def enumerate_mis(G: Graph, budget: SearchBudget | None = None) -> list[tuple[int, ...]]:
    """All maximal independent sets, each sorted, in lexicographic order."""
    masks = _kernels.enumerate_mis(G.adj, G.n, _meter(budget, "enumerate_mis"))
    return [members(m) for m in masks]


def _independent_sets(G: Graph, a: int):
    for I in combinations(range(G.n), a):
        if all(not G.has_edge(u, v) for u, v in combinations(I, 2)):
            yield I


def codegree_min(G: Graph, a: int):
    """Minimum |N(I)| over independent a-sets I; None when no such I."""
    if a < 1:
        raise ValueError("set size must be at least 1")
    best = None
    for I in _independent_sets(G, a):
        size = G.common_neighbors(I).bit_count()
        if best is None or size < best:
            best = size
    return best


def clique_codensity(G: Graph, a: int, b: int, budget: SearchBudget | None = None):
    """Minimum b-clique density of G[N(I)] over independent a-sets I.

    Density is k_b(G[N(I)]) / C(|N(I)|, b), exact; a co-neighborhood with
    fewer than b vertices contributes density 0.  None when no independent
    a-set exists.
    """
    if a < 1 or b < 2:
        raise ValueError("need a >= 1 and b >= 2")
    meter = _meter(budget, "clique_codensity")
    best = None
    for I in _independent_sets(G, a):
        nbhd = G.common_neighbors(I)
        size = nbhd.bit_count()
        if size < b:
            dens = Fraction(0)
        else:
            dens = Fraction(_kernels.count_cliques(G.adj, b, nbhd, meter), comb(size, b))
        if best is None or dens < best:
            best = dens
    return best


def clique_density_threshold(s: int, t: int) -> Fraction:
    """Co-density threshold of the complete graph target: prod (t-1-i)/(t-1)."""
    if not 2 <= s <= t:
        raise ValueError("need 2 <= s <= t")
    out = Fraction(1)
    for i in range(1, s):
        out *= Fraction(t - 1 - i, t - 1)
    return out


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


def is_kr_free(G: Graph, r: int, budget: SearchBudget | None = None) -> bool:
    if r < 2:
        raise ValueError("r must be at least 2")
    return count_cliques(G, r, budget=budget) == 0 if G.n >= r else True


def is_maximal_kr_free(G: Graph, r: int, budget: SearchBudget | None = None) -> bool:
    """K_r-free, and adding any non-edge creates a K_r."""
    if not is_kr_free(G, r, budget):
        return False
    meter = _meter(budget, "is_maximal_kr_free")
    for u, v in G.non_edges():
        nbhd = G.adj[u] & G.adj[v]
        # G+uv holds a K_r through u,v iff N(u,v) holds a K_{r-2};
        # for r=2 the empty clique always exists, so any edge completes a K_2
        if _kernels.count_cliques(G.adj, r - 2, nbhd, meter) == 0:
            return False
    return True
