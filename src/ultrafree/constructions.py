"""Deterministic graph generators used as evidence throughout the package.

Every generator fixes its vertex layout (part-major order) so downstream
reports are reproducible.
"""

from __future__ import annotations

import random
from itertools import combinations
from typing import NamedTuple

from .errors import ClaimViolation
from .graphs import Graph, _lift, is_maximal_kr_free

__all__ = [
    "turan",
    "kneser",
    "crown",
    "hypercube_lb",
    "HypercubePair",
    "blowup",
    "half_min",
    "ultra_vc_example",
    "random_graph",
]


def turan(n: int, parts: int) -> Graph:
    """Complete multipartite graph on n vertices with near-equal parts."""
    if parts < 1 or n < parts:
        raise ValueError("need 1 <= parts <= n")
    q, r = divmod(n, parts)
    sizes = [q + 1] * r + [q] * (parts - r)
    return blowup(Graph.complete(parts), sizes)


def kneser(m: int, k: int) -> Graph:
    """Vertices are the k-subsets of [m] in lexicographic order; edges join
    disjoint subsets."""
    if not m >= 2 * k >= 0:
        raise ValueError("need k >= 0 and m >= 2k")
    subsets = list(combinations(range(m), k))
    edges = [
        (i, j)
        for i, j in combinations(range(len(subsets)), 2)
        if not set(subsets[i]) & set(subsets[j])
    ]
    return Graph(len(subsets), edges)


def crown(t: int) -> Graph:
    """K_{t,t} minus a perfect matching: x_i ~ y_j iff i != j.

    Vertices: x_i = i, y_i = t + i for i in 0..t-1.
    """
    if t < 1:
        raise ValueError("need t >= 1")
    return Graph(2 * t, [(i, t + j) for i in range(t) for j in range(t) if i != j])


class HypercubePair(NamedTuple):
    H: Graph
    G: Graph


def hypercube_lb(d: int) -> HypercubePair:
    """Hypercube-based pair (H, G): G is a blow-up of H with large
    neighborhood diversity but a small homomorphic image.

    H lives on D u Q where D carries coordinate pairs a_i^(0), a_i^(1)
    (vertices 2i and 2i+1) and Q = {0,1}^d (vertex 2d + binary index).
    Edges: each coordinate pair; each antipodal cube pair; and u ~ a_i^(u_i)
    for every cube vertex u and coordinate i.  G blows every D-vertex into
    2^d copies and keeps Q as is.
    """
    if d < 1:
        raise ValueError("need d >= 1")
    edges = []
    for i in range(d):
        edges.append((2 * i, 2 * i + 1))
    base = 2 * d
    for u in range(1 << d):
        ubar = u ^ ((1 << d) - 1)
        if u < ubar:
            edges.append((base + u, base + ubar))
        for i in range(d):
            edges.append((base + u, 2 * i + (u >> i & 1)))
    H = Graph(base + (1 << d), edges)
    G = blowup(H, [1 << d] * base + [1] * (1 << d))
    return HypercubePair(H, G)


def blowup(F: Graph, sizes) -> Graph:
    """Replace vertex v of F by sizes[v] independent copies, laid out
    part-major in F's order.

    Copies of adjacent vertices are completely joined; copies of one vertex
    or of non-adjacent vertices are non-adjacent.
    """
    sizes = list(sizes)
    if len(sizes) != F.n:
        raise ValueError("one size per vertex required")
    if any(s < 1 for s in sizes):
        raise ValueError("all sizes must be positive")
    start = []
    acc = 0
    for v in range(F.n):
        start.append(acc)
        acc += sizes[v]
    class_mask = [((1 << sizes[v]) - 1) << start[v] for v in range(F.n)]
    masks = []
    for v in range(F.n):
        masks.extend([_lift(F.adj[v], class_mask)] * sizes[v])
    return Graph.from_masks(masks)


def half_min(k: int) -> Graph:
    """Minimal half graph on x_1..x_k (vertices 0..k-1) and y_1..y_k
    (vertices k..2k-1): exactly the forced edges x_i y_j for j < i."""
    if k < 1:
        raise ValueError("need k >= 1")
    return Graph(2 * k, [(i, k + j) for i in range(k) for j in range(i)])


def ultra_vc_example(m: int) -> Graph:
    """Maximal triangle-free graph on 8m vertices with positive ultra
    parameter whose maximal-independent-set system still has VC dimension
    growing with m: the anchored crown.

    With t = 2m, take crown(t) plus a copy z_0..z_{t-1} of K_{m,m}, add
    the edges x_i z_i and y_i z_i, and double every z vertex.  Vertex
    layout: x, then y, then the z copies.  The output is maximal
    triangle-free (checked).
    """
    if m < 2:
        raise ValueError("need m >= 2")
    t = 2 * m
    # z_i = 2t + i; K_{m,m} joins z_i and z_j across the halves i < m <= j
    edges = crown(t).edges()
    edges += [(2 * t + i, 2 * t + j) for i in range(m) for j in range(m, t)]
    edges += [(i, 2 * t + i) for i in range(t)]
    edges += [(t + i, 2 * t + i) for i in range(t)]
    out = blowup(Graph(3 * t, edges), [1] * (2 * t) + [2] * t)
    if not is_maximal_kr_free(out, 3):
        raise ClaimViolation("anchored crown lost maximal triangle-freeness")
    return out


def random_graph(n: int, p_num: int, p_den: int, seed: int) -> Graph:
    """Seeded Erdos-Renyi-style test fodder: edge iff rng < p_num/p_den."""
    if not (p_den >= 1 and 0 <= p_num <= p_den):
        raise ValueError(f"need p_den >= 1 and 0 <= p_num <= p_den, got p_num={p_num}, p_den={p_den}")
    rng = random.Random(seed)
    edges = [(u, v) for u, v in combinations(range(n), 2) if rng.randrange(p_den) < p_num]
    return Graph(n, edges)
