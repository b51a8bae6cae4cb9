"""Rewrite src/ultrafree/connected7.g6 from the catalog generator.

Usage (from the repository root):
    PYTHONPATH=src python tools/write_catalog.py

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
minimum is the one the unpruned search returns.  The generator lists
all graphs up to isomorphism level by level (every n-vertex graph is an
(n-1)-vertex graph plus one vertex) and keeps the connected ones.

The package never runs this code: it reads the file this tool writes.
"""

from ultrafree import catalog
from ultrafree.graphs import Graph


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


def main() -> None:
    text = "".join(catalog._encode(G) + "\n" for G in _generated_connected(7))
    catalog._STORED_PATH.write_text(text, encoding="ascii")
    print(f"wrote {catalog._STORED_PATH}: {text.count(chr(10))} graphs, {len(text)} bytes")


if __name__ == "__main__":
    main()
