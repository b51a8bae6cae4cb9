"""Pure-Python search kernels over bitmask adjacency.

``adj`` is a list where ``adj[v]`` is the neighbor bitmask of vertex ``v``
(no self-bit).  Vertex subsets are bitmasks too.  These are the hot inner
loops of the package.  ``count_cliques`` takes an additive ``weigh`` of
vertex masks, so one recursion counts the cliques of a graph and, on its
twin quotient with the class sizes as weights, those of a blow-up.
``_independent_sets`` is the one walk over independent sets, and
``_kcolour``, DSATUR on an explicit stack, the one colouring search.
"""

from __future__ import annotations

from .budget import _FREE

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


def count_cliques(adj, b, mask, weigh=int.bit_count, meter=_FREE):
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


def max_clique(adj, mask, meter=_FREE, classes=None, mirror=None):
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


def _kcolour(adj, k, uncol, meter):
    """Whether the graph on ``uncol`` is k-colourable: DSATUR with
    forward checking, on an explicit stack.  It branches on an uncoloured
    vertex adjacent to the most classes, then with the most uncoloured
    neighbours, then the lowest.  It tries each class free at it, least
    first, and at most one new class, one meter node each, and it drops a
    child as soon as an uncoloured vertex is adjacent to all k classes."""
    # a colouring: the uncoloured mask; each open class's neighbourhood
    # mask; levels[j], the vertices adjacent to at least j classes
    # (bit-sliced as in setsystems._pq_properties; levels[0] is all, and
    # no uncoloured vertex reaches k)
    nbrs, levels = (), [-1] + [0] * (k - 1)
    shifts = range(k - 1, 0, -1)
    stack = []  # frames: a colouring, its branch vertex, its next class
    while uncol:
        for level in reversed(levels):
            cand = level & uncol
            if cand:
                break
        v = cand.bit_length() - 1
        if cand & cand - 1:
            most = -1
            while cand:
                low = cand & -cand
                cand ^= low
                d = (adj[low.bit_length() - 1] & uncol).bit_count()
                if d > most:
                    most, v = d, low.bit_length() - 1
        c = 0
        # the next free class at v whose child lives, else the frame below
        while True:
            used = len(nbrs)
            while c < used and nbrs[c] >> v & 1:
                c += 1
            if c == k or c > used:
                if not stack:
                    return False
                uncol, nbrs, levels, v, c = stack.pop()
                continue
            meter.charge()
            row = adj[v]
            rest = uncol ^ 1 << v
            # the uncoloured neighbours of v that class c is new to
            old = nbrs[c] if c < used else 0
            s = row & rest & ~old
            if levels[k - 1] & s:
                c += 1
                continue
            stack.append((uncol, nbrs, levels, v, c + 1))
            if s:
                levels = levels[:]
                for i in shifts:
                    levels[i] |= levels[i - 1] & s
            uncol, nbrs = rest, nbrs[:c] + (old | row,) + nbrs[c + 1 :]
            break
    return True


def chromatic_number(adj, n, meter=_FREE, omega=None):
    """Exact chromatic number of the graph on vertices 0..n-1: the least
    k from the clique number up to the greedy colour count that
    ``_kcolour`` finds a colouring for.  ``omega`` is the graph's clique
    number when the caller has it; None searches for it."""
    if n == 0:
        return 0
    if not any(adj):
        return 1
    full = (1 << n) - 1
    # the greedy classes are a proper colouring with bounds[-1] colours,
    # and the root of the clique search bounds by the same classes
    classes = _color_order(adj, full)
    k = max_clique(adj, full, meter, classes)[0] if omega is None else omega
    while k < classes[1][-1] and not _kcolour(adj, k, full, meter):
        k += 1
    return k


def enumerate_mis(adj, n, meter=_FREE):
    """All maximal independent sets as bitmasks, sorted by member tuple.

    Bron-Kerbosch with pivoting, run on the complement adjacency.
    """
    full = (1 << n) - 1
    cadj = [full & ~adj[v] & ~(1 << v) for v in range(n)]
    out = []
    _bk(cadj, 0, full, 0, out, meter)
    out.sort(key=members)
    return out


def _bk(cadj, r, p, x, out, meter):
    # appends to out the maximal independent sets that hold r, meet only
    # p outside it and miss x, pivoting on the vertex of p | x that
    # eliminates the most candidates (the lowest on ties)
    meter.charge()
    if p == 0 and x == 0:
        out.append(r)
        return
    best_u = -1
    best_cnt = -1
    m = p | x
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
        _bk(cadj, r | low, p & cadj[v], x & cadj[v], out, meter)
        p ^= low
        x |= low
