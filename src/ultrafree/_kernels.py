"""Pure-Python search kernels over bitmask adjacency.

``adj`` is a list where ``adj[v]`` is the neighbor bitmask of vertex ``v``
(no self-bit).  Vertex subsets are bitmasks too.  These are the hot inner
loops of the package.  ``count_cliques`` takes an additive ``weigh`` of
vertex masks, so one recursion counts the cliques of a graph and, on its
twin quotient with the class sizes as weights, those of a blow-up.
``_independent_sets`` is the one walk over independent sets.

A nested function that calls itself holds its own name in a closure
cell, a reference cycle that only the cyclic garbage collector frees.
So each such helper, here and in ``setsystems`` and ``ultra``, is
deleted in a ``finally``: no search leaves a cycle, even one that raises.
"""

from __future__ import annotations

__all__ = [
    "count_cliques",
    "max_clique",
    "chromatic_number",
    "enumerate_mis",
]


def members(mask: int) -> tuple[int, ...]:
    """Set bits of ``mask`` in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def count_cliques(adj, b, mask, weigh=int.bit_count, meter=None):
    """Number of b-vertex cliques (as vertex subsets) inside ``mask``.

    ``weigh`` maps a vertex bitmask to its total weight and is additive
    over bits; each clique counts as the product of its vertices'
    weights.  With weights the class sizes of a blow-up, this counts the
    blow-up's b-cliques on its quotient."""
    if b < 0:
        raise ValueError("clique size must be nonnegative")
    if b == 0:
        return 1
    return _count(adj, b, mask, weigh, meter)


def _count(adj, b, mask, weigh, meter):
    if b == 1:
        return weigh(mask)
    total = 0
    m = mask
    while m:
        low = m & -m
        m ^= low
        if meter is not None:
            meter.charge()
        # cliques whose lowest vertex is low: rest lives among later vertices
        sub = adj[low.bit_length() - 1] & m
        if sub.bit_count() >= b - 1:
            total += weigh(low) * _count(adj, b - 1, sub, weigh, meter)
    return total


def _independent_sets(adj, a, mask):
    """``(I, N(I))`` as bitmasks for every independent a-set I inside
    ``mask`` (a >= 1), lexicographic by I's member tuple, where N(I) is
    the common neighbourhood of I."""
    return _walk(adj, 0, mask, -1, a)


def _walk(adj, I, cand, common, need):
    # cand: the vertices of mask after max(I) adjacent to nothing in I
    if need == 1:
        while cand:
            low = cand & -cand
            cand ^= low
            yield I | low, common & adj[low.bit_length() - 1]
        return
    while cand:
        low = cand & -cand
        cand ^= low
        row = adj[low.bit_length() - 1]
        sub = cand & ~row
        if sub.bit_count() >= need - 1:
            yield from _walk(adj, I | low, sub, common & row, need - 1)


def max_clique(adj, mask, meter=None, classes=None, mirror=None):
    """Largest clique inside ``mask``: returns ``(size, witness_mask)``.

    Branch and bound with a greedy-coloring upper bound.  ``classes`` is
    ``_color_order(adj, mask)`` when the caller has already computed it.

    ``mirror``, if given, is an involutive automorphism of the graph on
    ``mask`` (``mirror[mirror[v]] == v``).  Once the root has branched on
    v it drops ``mirror[v]`` too: a clique through ``mirror[v]`` that
    avoids v mirrors one through v, already searched.  What is left
    stays mirror-invariant, so the search stays exact, and it only
    shrinks, so the root's colour bounds stay valid.
    """
    best = [0, 0]
    if mask:
        _expand(adj, mask, 0, 0, best, meter, *(classes or _color_order(adj, mask)), mirror)
    return best[0], best[1]


def _color_order(adj, cand):
    # Greedy color classes; vertices listed class by class with the class
    # index as an upper bound on the clique extension through that vertex.
    order = []
    bounds = []
    color = 0
    rem = cand
    while rem:
        color += 1
        avail = rem
        while avail:
            low = avail & -avail
            v = low.bit_length() - 1
            avail &= ~adj[v]
            avail ^= low
            rem ^= low
            order.append(v)
            bounds.append(color)
    return order, bounds


def _expand(adj, cand, cur, size, best, meter, order, bounds, mirror=None):
    # only the root gets a mirror; its cand loses each branched vertex's image
    for i in range(len(order) - 1, -1, -1):
        if size + bounds[i] <= best[0]:
            return
        v = order[i]
        bit = 1 << v
        if mirror is not None and not cand >> v & 1:
            continue
        if meter is not None:
            meter.charge()
        sub = cand & adj[v]
        if sub:
            _expand(adj, sub, cur | bit, size + 1, best, meter, *_color_order(adj, sub))
        elif size + 1 > best[0]:
            best[0] = size + 1
            best[1] = cur | bit
        cand &= ~bit
        if mirror is not None:
            cand &= ~(1 << mirror[v])


def _dsatur_order(adj, n):
    """The order in which DSATUR colours the vertices, and how many colours
    it uses: next the uncoloured vertex with the most distinct neighbour
    colours, then the highest degree, then the lowest index, each with the
    least colour free at it."""
    # key[u] = distinct neighbour colours * n + degree, which orders as the
    # pair since a degree is below n; -1 once u is coloured.  max() returns
    # the first maximum, so the lowest vertex wins ties.
    key = [adj[u].bit_count() for u in range(n)]
    sat = [0] * n  # bitmask of colors seen on neighbors
    uncolored = (1 << n) - 1
    order = []
    used = 0
    for _ in range(n):
        v = max(range(n), key=key.__getitem__)
        order.append(v)
        key[v] = -1
        uncolored ^= 1 << v
        free = ~sat[v]
        bit = free & -free
        used = max(used, bit.bit_length())
        m = adj[v] & uncolored
        while m:
            low = m & -m
            u = low.bit_length() - 1
            m ^= low
            if not sat[u] & bit:
                sat[u] |= bit
                key[u] += n
    return order, used


def _kcolorable(adj, order, k, meter):
    color_masks = [0] * k
    n = len(order)

    def rec(i, used):
        if i == n:
            return True
        v = order[i]
        bit = 1 << v
        nb = adj[v]
        for c in range(min(used + 1, k)):
            if color_masks[c] & nb:
                continue
            if meter is not None:
                meter.charge()
            color_masks[c] |= bit
            if rec(i + 1, used if c < used else c + 1):
                return True
            color_masks[c] &= ~bit
        return False

    try:
        return rec(0, 0)
    finally:
        del rec


def chromatic_number(adj, n, meter=None, omega=None):
    """Exact chromatic number of the graph on vertices 0..n-1: the clique
    number when the greedy colour classes are that many, else the least
    k from the clique number up to DSATUR's colour count for which a
    k-colouring search in DSATUR's order succeeds.  ``omega`` is the
    graph's clique number when the caller has it; None searches for it."""
    if n == 0:
        return 0
    if not any(adj):
        return 1
    full = (1 << n) - 1
    # the greedy classes are a proper colouring with bounds[-1] colours,
    # and the root of the clique search bounds by the same classes
    classes = _color_order(adj, full)
    k = max_clique(adj, full, meter, classes)[0] if omega is None else omega
    if classes[1][-1] == k:
        return k
    # DSATUR has coloured with `used` colours, so k stops there unsearched,
    # and a graph whose clique number meets it runs no search.
    # _kcolorable tries the least free colour first, so in DSATUR's order
    # its first path is the DSATUR colouring.
    order, used = _dsatur_order(adj, n)
    while k < used and not _kcolorable(adj, order, k, meter):
        k += 1
    return k


def enumerate_mis(adj, n, meter=None):
    """All maximal independent sets as bitmasks, sorted by member tuple.

    Bron-Kerbosch with pivoting, run on the complement adjacency.
    """
    full = (1 << n) - 1
    cadj = [full & ~adj[v] & ~(1 << v) for v in range(n)]
    out = []

    def bk(r, p, x):
        if meter is not None:
            meter.charge()
        if p == 0 and x == 0:
            out.append(r)
            return
        # pivot: maximize candidates eliminated; lowest such vertex on ties
        px = p | x
        best_u = -1
        best_cnt = -1
        m = px
        while m:
            low = m & -m
            u = low.bit_length() - 1
            m ^= low
            cnt = (p & cadj[u]).bit_count()
            if cnt > best_cnt:
                best_cnt = cnt
                best_u = u
        m = p & ~cadj[best_u]
        while m:
            low = m & -m
            v = low.bit_length() - 1
            m ^= low
            bk(r | low, p & cadj[v], x & cadj[v])
            p ^= low
            x |= low

    try:
        bk(0, full, 0)
    finally:
        del bk
    out.sort(key=members)
    return out
