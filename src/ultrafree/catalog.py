"""Exhaustive small-graph catalogs and canonical forms.

Graphs are canonicalized by iterated neighborhood-color refinement with
individualization on the first non-singleton cell; the certificate is
the minimum relabeled adjacency tuple over the search leaves.  The
search prunes by automorphisms (McKay and Piperno, *Practical graph
isomorphism II*, 2014): two leaves with equal certificates give an
automorphism, and a child of a node is skipped when an automorphism
found so far that fixes the node's individualized vertices maps an
already explored sibling onto it.  Refinement and the choice of target
cell commute with relabeling, so such an automorphism maps the sibling's
subtree onto the child's with the same leaf certificates, and the
minimum is the one the unpruned search returns.  The catalog generates
all graphs up to isomorphism level by level (every n-vertex graph is an
(n-1)-vertex graph plus one vertex) and keeps the connected ones.

The connected graphs on at most 7 vertices are stored in graph6
(``connected7.g6``, one graph per line, in generator order) and read
instead of generated; ``tools/write_catalog.py`` rewrites the file from
the generator, and a test regenerates it and compares the bytes.
"""

from __future__ import annotations

import random
from pathlib import Path

from .constructions import random_graph
from .errors import ClaimViolation
from .graphs import Graph

__all__ = [
    "canonical_form",
    "is_isomorphic",
    "all_graphs",
    "connected_graphs",
    "seeded_random_graphs",
]


def _refine(adj, colors):
    n = len(adj)
    while True:
        keys = []
        for v in range(n):
            seen: dict[int, int] = {}
            nb = adj[v]
            while nb:
                low = nb & -nb
                nb ^= low
                c = colors[low.bit_length() - 1]
                seen[c] = seen.get(c, 0) + 1
            keys.append((colors[v], tuple(sorted(seen.items()))))
        rank = {k: i for i, k in enumerate(sorted(set(keys)))}
        new = [rank[k] for k in keys]
        if new == colors:
            return colors
        colors = new


def _certificate(adj, colors):
    # discrete coloring: colors is a bijection onto 0..n-1
    n = len(adj)
    out = [0] * n
    for v in range(n):
        nb = adj[v]
        m = 0
        while nb:
            low = nb & -nb
            nb ^= low
            m |= 1 << colors[low.bit_length() - 1]
        out[colors[v]] = m
    return tuple(out)


def _automorphism(a, b):
    # a, b: discrete colorings with equal certificates; the vertex colored
    # c under b maps to the vertex colored c under a
    vertex_of = [0] * len(a)
    for v, c in enumerate(a):
        vertex_of[c] = v
    return [vertex_of[c] for c in b]


def _orbit(seeds, gens):
    orbit = set(seeds)
    todo = list(seeds)
    while todo:
        v = todo.pop()
        for g in gens:
            w = g[v]
            if w not in orbit:
                orbit.add(w)
                todo.append(w)
    return orbit


def canonical_form(G: Graph) -> tuple[int, ...]:
    """Adjacency masks of a canonical relabeling; equal for isomorphic
    graphs and distinct otherwise."""
    n = G.n
    if n == 0:
        return ()
    adj = G.adj
    leaves = []  # (certificate, coloring) of the first leaf and the best leaf
    autos: list[list[int]] = []

    def dfs(colors, prefix):
        colors = _refine(adj, colors)
        cells: dict[int, list[int]] = {}
        for v, c in enumerate(colors):
            cells.setdefault(c, []).append(v)
        target = None
        for c in sorted(cells):
            if len(cells[c]) > 1:
                target = cells[c]
                break
        if target is None:
            cert = _certificate(adj, colors)
            if not leaves:
                leaves[:] = [(cert, colors)] * 2
                return
            for other, other_colors in leaves:
                if cert == other:
                    autos.append(_automorphism(colors, other_colors))
                    break
            if cert < leaves[1][0]:
                leaves[1] = (cert, colors)
            return
        explored: list[int] = []
        for v in target:
            if explored:
                fixing = [g for g in autos if all(g[u] == u for u in prefix)]
                if v in _orbit(explored, fixing):
                    continue
            explored.append(v)
            child = list(colors)
            child[v] = n  # fresh color, renormalized by the next refine
            dfs(child, prefix + [v])

    dfs([0] * n, [])
    return leaves[1][0]


def is_isomorphic(G: Graph, H: Graph) -> bool:
    if G.n != H.n or G.edge_count() != H.edge_count():
        return False
    if sorted(m.bit_count() for m in G.adj) != sorted(m.bit_count() for m in H.adj):
        return False
    return canonical_form(G) == canonical_form(H)


_LEVELS: list[list[Graph]] = [[Graph(0)]]


def all_graphs(n: int) -> list[Graph]:
    """All graphs on n vertices up to isomorphism, canonical labels."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    while len(_LEVELS) <= n:
        m = len(_LEVELS)
        seen: dict[tuple[int, ...], Graph] = {}
        for G in _LEVELS[m - 1]:
            for nb in range(1 << (m - 1)):
                adj = list(G.adj) + [nb]
                for v in range(m - 1):
                    if nb >> v & 1:
                        adj[v] |= 1 << (m - 1)
                cert = canonical_form(Graph.from_masks(adj))
                if cert not in seen:
                    seen[cert] = Graph.from_masks(cert)
        _LEVELS.append([seen[c] for c in sorted(seen)])
    return list(_LEVELS[n])


def _generated_connected(max_n: int) -> list[Graph]:
    out = []
    for n in range(1, max_n + 1):
        out.extend(G for G in all_graphs(n) if G.is_connected())
    return out


def _encode(G: Graph) -> str:
    """graph6 (n <= 62): chr(63 + n), then the upper triangle column by
    column, six bits per character, zero-padded."""
    bits = "".join(str(G.adj[j] >> i & 1) for j in range(1, G.n) for i in range(j))
    bits += "0" * (-len(bits) % 6)
    words = [G.n] + [int(bits[k : k + 6], 2) for k in range(0, len(bits), 6)]
    return "".join(chr(63 + w) for w in words)


def _decode(line: str) -> Graph:
    """Inverse of ``_encode``; raises ValueError on any other string."""
    words = [ord(ch) - 63 for ch in line]
    if not words or not all(0 <= w < 64 for w in words) or words[0] > 62:
        raise ValueError(f"not a graph6 line: {line!r}")
    n = words[0]
    pairs = n * (n - 1) // 2
    if len(words) != 1 + (pairs + 5) // 6:
        raise ValueError(f"graph6 line of wrong length for n = {n}: {line!r}")
    # the data characters as one integer, six bits each, first ones highest
    x = 0
    for w in words[1:]:
        x = x << 6 | w
    pad = 6 * (len(words) - 1) - pairs
    if x & ((1 << pad) - 1):
        raise ValueError(f"graph6 padding bits set: {line!r}")
    # column j holds the pairs (0, j)..(j - 1, j), with (i, j) at bit j - 1 - i
    adj = [0] * n
    shift = len(words) * 6 - 6
    for j in range(1, n):
        shift -= j
        col = x >> shift & ((1 << j) - 1)
        while col:
            low = col & -col
            col ^= low
            i = j - low.bit_length()
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return Graph.from_masks(adj)


_STORED_PATH = Path(__file__).with_name("connected7.g6")
# https://oeis.org/A001349: connected graphs on n = 1..7 vertices
_STORED_COUNTS = (1, 1, 2, 6, 21, 112, 853)
_stored: list[Graph] | None = None


def _load_stored(path: Path) -> list[Graph]:
    """The graphs stored at ``path``, after the cheap checks: every line
    decodes, every graph is connected, the graphs ascend strictly by
    (n, masks), and the per-n counts are A001349's.  That the graphs are
    canonical and complete is proved by regenerating the file in the
    tests, not here."""
    try:
        text = path.read_text(encoding="ascii")
    except UnicodeDecodeError as e:
        raise ClaimViolation(f"{path.name}: {e}") from None
    graphs = []
    for num, line in enumerate(text.splitlines(), 1):
        try:
            G = _decode(line)
        except ValueError as e:
            raise ClaimViolation(f"{path.name} line {num}: {e}") from None
        if not G.is_connected():
            raise ClaimViolation(f"{path.name} line {num}: graph is not connected")
        if graphs and (G.n, G.adj) <= (graphs[-1].n, graphs[-1].adj):
            raise ClaimViolation(f"{path.name} line {num}: not after the line before it")
        graphs.append(G)
    expected = [n for n, count in enumerate(_STORED_COUNTS, 1) for _ in range(count)]
    if [G.n for G in graphs] != expected:
        raise ClaimViolation(f"{path.name}: per-n counts are not {_STORED_COUNTS}")
    return graphs


def connected_graphs(max_n: int) -> list[Graph]:
    """All connected graphs with 1 <= n <= max_n, up to isomorphism, in
    canonical labels, by n and then by adjacency masks.  For max_n <= 7
    they are read from the stored catalog (once per process)."""
    global _stored
    if max_n > len(_STORED_COUNTS):
        return _generated_connected(max_n)
    if _stored is None:
        _stored = _load_stored(_STORED_PATH)
    return [G for G in _stored if G.n <= max_n]


def seeded_random_graphs(count: int, max_n: int, seed: int) -> list[Graph]:
    """Reproducible random graphs with 1 <= n <= max_n."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randrange(1, max_n + 1)
        num, den = rng.choice(((1, 4), (1, 2), (3, 4)))
        out.append(random_graph(n, num, den, rng.randrange(1 << 30)))
    return out
