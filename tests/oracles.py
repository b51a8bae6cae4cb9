"""Independent brute-force references for the exact solvers.

Everything here recomputes from the definitions with itertools and no
pruning, sharing no code with the package internals.  The one exception
is :func:`canonical_form_reference`, which reuses the refinement and
certificate of the catalog generator (``tools/write_catalog.py``) so
that its output is comparable tuple for tuple.  Slow on purpose; keep
the inputs small.
"""

from fractions import Fraction
from itertools import combinations, permutations
from math import comb

from hypothesis import strategies as st

from ultrafree.graphs import Graph
from write_catalog import _certificate, _refine


def is_clique(G, vs):
    return all(G.has_edge(u, v) for u, v in combinations(vs, 2))


def is_independent(G, vs):
    return all(not G.has_edge(u, v) for u, v in combinations(vs, 2))


def cliques(G, b, within=None):
    pool = range(G.n) if within is None else sorted(within)
    return [vs for vs in combinations(pool, b) if is_clique(G, vs)]


def clique_number(G):
    return max((b for b in range(1, G.n + 1) if cliques(G, b)), default=0)


def chromatic_number(G):
    """Fewest blocks over every partition of V(G) into independent sets.
    Each partition is walked once, as a colouring in which vertex v takes
    a colour already used by an earlier vertex or the next new one, so
    the walk has at most Bell(n) leaves (21,147 at n = 9)."""
    colors = []

    def fewest(used):
        v = len(colors)
        if v == G.n:
            return used
        best = G.n
        for c in range(used + 1):
            if all(colors[u] != c for u in range(v) if G.has_edge(u, v)):
                colors.append(c)
                best = min(best, fewest(max(used, c + 1)))
                colors.pop()
        return best

    return fewest(0)


def maximal_independent_sets(G):
    out = []
    for r in range(G.n + 1):
        for vs in combinations(range(G.n), r):
            if not is_independent(G, vs):
                continue
            chosen = set(vs)
            if any(
                is_independent(G, vs + (w,)) for w in range(G.n) if w not in chosen
            ):
                continue
            out.append(vs)
    return sorted(out)


def transversal_number(F):
    if any(s == 0 for s in F.sets):
        raise ValueError("empty member admits no transversal")
    for k in range(F.ground + 1):
        for pts in combinations(range(F.ground), k):
            m = 0
            for p in pts:
                m |= 1 << p
            if all(s & m for s in F.sets):
                return k
    raise AssertionError("the whole ground is always a transversal")


def matching_number(F):
    best = 0
    for k in range(len(F.sets) + 1):
        for idxs in combinations(range(len(F.sets)), k):
            union = 0
            for i in idxs:
                if F.sets[i] & union:
                    break
                union |= F.sets[i]
            else:
                best = k
    return best


def vc_dimension(F):
    best = 0
    for k in range(1, F.ground + 1):
        for pts in combinations(range(F.ground), k):
            m = 0
            for p in pts:
                m |= 1 << p
            if len({s & m for s in F.sets}) == 1 << k:
                best = k
    return best


def max_shattered_sets(F):
    """All shattered point tuples of maximum size."""
    d = vc_dimension(F)
    if d == 0:
        return [()]
    out = []
    for pts in combinations(range(F.ground), d):
        m = 0
        for p in pts:
            m |= 1 << p
        if len({s & m for s in F.sets}) == 1 << d:
            out.append(pts)
    return out


def helly_number(F):
    # conventions match the library: 0 for the empty family, 1 when the
    # whole family shares a point
    if not F.sets:
        return 0
    full = (1 << F.ground) - 1

    def inter(idxs):
        x = full
        for i in idxs:
            x &= F.sets[i]
        return x

    if inter(range(len(F.sets))):
        return 1
    best = 0
    for k in range(1, len(F.sets) + 1):
        for idxs in combinations(range(len(F.sets)), k):
            if inter(idxs):
                continue
            # a singleton is minimal by convention even over an empty
            # ground, where inter(()) == 0 would deny it
            if k == 1 or all(inter(idxs[:j] + idxs[j + 1:]) for j in range(k)):
                best = max(best, k)
    return best


def pq_property(F, p, q):
    full = (1 << F.ground) - 1

    def inter(idxs):
        x = full
        for i in idxs:
            x &= F.sets[i]
        return x

    return all(
        any(inter(sub) for sub in combinations(idxs, q))
        for idxs in combinations(range(len(F.sets)), p)
    )


def maximal_intersecting(F):
    full = (1 << F.ground) - 1
    good = []
    for k in range(1, len(F.sets) + 1):
        for idxs in combinations(range(len(F.sets)), k):
            x = full
            for i in idxs:
                x &= F.sets[i]
            if x:
                good.append(frozenset(idxs))
    maximal = [g for g in good if not any(g < h for h in good)]
    return sorted(tuple(sorted(g)) for g in maximal)


def nu_bi(G):
    darts = [(u, v) for u, v in G.edges()] + [(v, u) for u, v in G.edges()]
    best = 0
    for k in range(1, G.n // 2 + 1):
        found = False
        for sel in combinations(darts, k):
            flat = [x for pair in sel for x in pair]
            if len(set(flat)) != 2 * k:
                continue
            if all(
                G.has_edge(sel[i][0], sel[j][1]) == (i == j)
                for i in range(k)
                for j in range(k)
            ):
                found = True
                break
        if not found:
            break
        best = k
    return best


def dart_rows(G, darts=None):
    """The darts (ordered adjacent pairs), sorted unless given in an order,
    and, per dart, the mask of the darts compatible with it: the four
    vertices distinct and both cross pairs non-adjacent.  Tested pair by
    pair, from the definition."""
    if darts is None:
        darts = sorted([(u, v) for u, v in G.edges()] + [(v, u) for u, v in G.edges()])
    rows = []
    for a, b in darts:
        row = 0
        for j, (c, d) in enumerate(darts):
            if len({a, b, c, d}) == 4 and not G.has_edge(a, d) and not G.has_edge(c, b):
                row |= 1 << j
        rows.append(row)
    return darts, rows


def pair_clique_counts(G, r):
    """[((u, v), number of (r-2)-cliques in N(u) & N(v))] over the
    non-adjacent pairs u < v, ascending."""
    out = []
    for u, v in combinations(range(G.n), 2):
        if G.has_edge(u, v):
            continue
        common = [
            w for w in range(G.n) if G.has_edge(u, w) and G.has_edge(v, w)
        ]
        out.append(((u, v), len(cliques(G, r - 2, within=common))))
    return out


def epsilon_star(G, r):
    counts = pair_clique_counts(G, r)
    return min((Fraction(c, G.n ** (r - 2)) for _, c in counts), default=None)


def codegree_min(G, a):
    sizes = [
        sum(1 for w in range(G.n) if all(G.has_edge(v, w) for v in I))
        for I in combinations(range(G.n), a)
        if is_independent(G, I)
    ]
    return min(sizes, default=None)


def is_maximal_kr_free(G, r):
    """K_r-free, and G + uv holds a K_r for every non-edge uv: a K_r of
    G + uv holds u and v, so it is u, v and an (r-2)-clique of common
    neighbours."""
    if cliques(G, r):
        return False
    return all(
        any(all(G.has_edge(u, w) and G.has_edge(v, w) for w in K) for K in cliques(G, r - 2))
        for u, v in combinations(range(G.n), 2)
        if not G.has_edge(u, v)
    )


def p4_core_size(G):
    """Size of a largest vertex set whose every pair u, v is joined by an
    induced path u-y-z-v, by exhaustive search over paths and sets."""

    def joined(u, v):
        return not G.has_edge(u, v) and any(
            len({u, y, z, v}) == 4
            and G.has_edge(u, y)
            and G.has_edge(y, z)
            and G.has_edge(z, v)
            and not G.has_edge(u, z)
            and not G.has_edge(y, v)
            for y, z in permutations(range(G.n), 2)
        )

    linked = {p for p in combinations(range(G.n), 2) if joined(*p)}
    return max(
        k
        for k in range(G.n + 1)
        for S in combinations(range(G.n), k)
        if all(p in linked for p in combinations(S, 2))
    )


def clique_codensity(G, a, b):
    best = None
    for I in combinations(range(G.n), a):
        if not is_independent(G, I):
            continue
        common = [w for w in range(G.n) if all(G.has_edge(v, w) for v in I)]
        if len(common) < b:
            dens = Fraction(0)
        else:
            dens = Fraction(len(cliques(G, b, within=common)), comb(len(common), b))
        if best is None or dens < best:
            best = dens
    return best


def induced_edges(G, vs):
    """Edges of G[vs] relabeled by position in sorted(vs)."""
    vs = sorted(vs)
    return [
        (i, j) for i, j in combinations(range(len(vs)), 2) if G.has_edge(vs[i], vs[j])
    ]


def turan_edges(n, k):
    """Edges of the Turán graph: k parts, the first n % k of them one vertex
    larger, filled in vertex order; u ~ v iff their parts differ."""
    q, extra = divmod(n, k)
    part = []
    for p in range(k):
        part += [p] * (q + 1 if p < extra else q)
    return [(u, v) for u, v in combinations(range(n), 2) if part[u] != part[v]]


def isomorphic(G, H):
    if G.n != H.n or G.edge_count() != H.edge_count():
        return False
    return any(
        all(
            G.has_edge(u, v) == H.has_edge(perm[u], perm[v])
            for u, v in combinations(range(G.n), 2)
        )
        for perm in permutations(range(G.n))
    )


def is_homomorphism(G, F, phi):
    """Whether phi, a map from the vertices of G to those of F, sends
    every edge of G to an edge of F."""
    phi = tuple(phi)
    if len(phi) != G.n:
        raise ValueError("map must be total on the vertices")
    if not all(0 <= x < F.n for x in phi):
        raise ValueError("map value out of range")
    return all(
        F.has_edge(phi[u], phi[v])
        for u, v in combinations(range(G.n), 2)
        if G.has_edge(u, v)
    )


def canonical_form_reference(G):
    """write_catalog.canonical_form without automorphism pruning: the minimum
    certificate over every leaf of the individualization-refinement tree."""
    n = G.n
    if n == 0:
        return ()
    adj = G.adj
    best = None

    def dfs(colors):
        nonlocal best
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
            if best is None or cert < best:
                best = cert
            return
        for v in target:
            child = list(colors)
            child[v] = n  # fresh color, renormalized by the next refine
            dfs(child)

    dfs([0] * n)
    return best


@st.composite
def graphs(draw, max_n=8, min_n=0):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    pairs = list(combinations(range(n), 2))
    flags = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [p for p, f in zip(pairs, flags) if f])


@st.composite
def set_systems(draw, max_ground=6, max_sets=6):
    ground = draw(st.integers(min_value=0, max_value=max_ground))
    masks = draw(
        st.lists(
            st.integers(min_value=0, max_value=(1 << ground) - 1),
            min_size=0,
            max_size=max_sets,
        )
    )
    from ultrafree.setsystems import SetSystem

    return SetSystem.from_masks(ground, tuple(masks))


def convex_closure(ground, masks):
    """All nonempty intersections of nonempty subfamilies of ``masks``,
    plus the ground, as a sorted list of distinct bitmasks."""
    full = (1 << ground) - 1
    out = {full}
    for k in range(1, len(masks) + 1):
        for sub in combinations(masks, k):
            x = full
            for s in sub:
                x &= s
            if x:
                out.add(x)
    return sorted(out)


def closure_helly_number(ground, closure):
    """Helly number of an intersection-closed family holding the ground,
    by Levi's point characterisation, under the library's conventions:
    1 when the family shares a point or the ground is empty, else the
    largest point set Y, |Y| >= 2, whose hulls conv(Y - y) share no point.
    Checks 2^ground point sets, not 2^len(closure) subfamilies.

    Witnesses y_i, one per member C_i of a minimal non-intersecting
    family (in every C_j but C_i), form such a Y, since conv(Y - y_i) lies
    in C_i.  Conversely such a Y makes the hulls conv(Y - y) a minimal
    non-intersecting family of |Y| distinct members: all but conv(Y - y)
    contain y."""
    full = (1 << ground) - 1

    def hull(Y):
        x = full
        for c in closure:
            if all(c >> p & 1 for p in Y):
                x &= c
        return x

    common = full
    for c in closure:
        common &= c
    if ground == 0 or common:
        return 1
    best = 0
    for k in range(2, ground + 1):
        for Y in combinations(range(ground), k):
            x = full
            for y in Y:
                x &= hull([p for p in Y if p != y])
            if not x:
                best = k
    return best


def weak_eps_net(ground, closure, weights, eps):
    """Greedy net over the convex sets of mass >= eps: pick the point in
    the most of them still unhit, the lowest point on ties."""
    heavy = [c for c in closure if sum(w for p, w in weights.items() if c >> p & 1) >= eps]
    net = []
    while heavy:
        best_p = min(range(ground), key=lambda p: (-sum(1 for c in heavy if c >> p & 1), p))
        net.append(best_p)
        heavy = [c for c in heavy if not c >> best_p & 1]
    return tuple(sorted(net))


def independent_sets(G, a, mask):
    """``(I, N(I))`` as bitmasks for every independent a-subset I of the
    vertices in ``mask`` (a >= 1), lexicographic by member tuple, where
    N(I) is the set of vertices adjacent to all of I."""
    out = []
    pool = [v for v in range(G.n) if mask >> v & 1]
    for vs in combinations(pool, a):
        if is_independent(G, vs):
            common = [w for w in range(G.n) if all(G.has_edge(w, v) for v in vs)]
            out.append((sum(1 << v for v in vs), sum(1 << w for w in common)))
    return out


def list_cliques(adj, b, mask):
    """The b-cliques inside ``mask`` (b >= 1) by a direct lexicographic
    recursion: the reference list for the kernels' generator of
    independent sets run on the complement."""
    out = []

    def rec(need, cand, cur):
        if need == 1:
            m = cand
            while m:
                low = m & -m
                m ^= low
                out.append(cur | low)
            return
        m = cand
        while m:
            low = m & -m
            m ^= low
            sub = adj[low.bit_length() - 1] & m
            if sub.bit_count() >= need - 1:
                rec(need - 1, sub, cur | low)

    rec(b, mask, 0)
    return out


def separated_partition(masks, s):
    """``(reps, origin)`` by two scans: the greedy ascending family of
    masks pairwise more than s apart in symmetric difference, then each
    mask's first representative within s."""
    reps = []
    for i, m in enumerate(masks):
        if all(bin(m ^ masks[j]).count("1") > s for j in reps):
            reps.append(i)
    origin = []
    for m in masks:
        origin.append(
            next(pos for pos, j in enumerate(reps) if bin(m ^ masks[j]).count("1") <= s)
        )
    return reps, origin


def max_simplex_full_tableau(c, A, b, meter):
    """``lp.max_simplex`` as it once ran on the full tableau, one column
    per variable, basic ones included: the same Bland pivots, charging
    ``meter`` one node per row built and per row rewritten.  The reference
    for the condensed tableau's results and node counts."""
    m = len(A)
    n = len(c)
    if any(bi < 0 for bi in b):
        raise ValueError("b must be nonnegative for the slack basis")

    def row_done():
        meter.charge()
        meter.check_time()

    tab = []
    for i in range(m):
        row = [Fraction(x) for x in A[i]]
        row += [Fraction(1) if j == i else Fraction(0) for j in range(m)]
        row.append(Fraction(b[i]))
        tab.append(row)
        row_done()
    obj = [Fraction(x) for x in c] + [Fraction(0)] * (m + 1)
    basis = list(range(n, n + m))

    while True:
        enter = next((j for j in range(n + m) if obj[j] > 0), None)
        if enter is None:
            break
        leave = None
        best = None
        for i in range(m):
            a = tab[i][enter]
            if a > 0:
                ratio = tab[i][-1] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            raise ValueError("LP is unbounded")
        piv = tab[leave][enter]
        tab[leave] = [x / piv for x in tab[leave]]
        row_done()
        for i in range(m):
            if i != leave and tab[i][enter]:
                f = tab[i][enter]
                tab[i] = [x - f * y for x, y in zip(tab[i], tab[leave])]
                row_done()
        if obj[enter]:
            f = obj[enter]
            obj = [x - f * y for x, y in zip(obj, tab[leave])]
            row_done()
        basis[leave] = enter

    x = [Fraction(0)] * n
    for i, var in enumerate(basis):
        if var < n:
            x[var] = tab[i][-1]
    value = sum((Fraction(ci) * xi for ci, xi in zip(c, x)), Fraction(0))
    duals = [-obj[n + i] for i in range(m)]
    return value, x, duals


def vc_dimension_metered(F, meter):
    """``vc_dimension`` as it once ran, each level holding (tuple, mask)
    pairs, charging ``meter`` one node per shattering test.  It extends a
    set only by the least point of each column (the tuple of set indices
    holding the point) that lies above the set's largest point."""
    distinct = sorted(set(F.sets))
    if not distinct:
        return 0, ()
    cap = len(distinct).bit_length() - 1
    columns = [tuple(i for i, s in enumerate(F.sets) if s >> x & 1) for x in range(F.ground)]
    points = [x for x in range(F.ground) if columns[x] not in columns[:x]]

    def shattered(s_mask, size):
        meter.charge()
        return len({d & s_mask for d in distinct}) == 1 << size

    level = [((), 0)]
    depth = 0
    while depth < cap:
        nxt = []
        for pts, s_mask in level:
            start = pts[-1] + 1 if pts else 0
            for x in [p for p in points if p >= start]:
                m2 = s_mask | (1 << x)
                if shattered(m2, depth + 1):
                    nxt.append((pts + (x,), m2))
        if not nxt:
            break
        level = nxt
        depth += 1
    return depth, level[0][0]


def _jsonable(value):
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def digest_of(*parts):
    """``reports.digest_of`` as it once ran: each part rebuilt with its
    rationals as 'P/Q' strings, then dumped."""
    import hashlib
    import json

    h = hashlib.sha256()
    for p in parts:
        h.update(json.dumps(_jsonable(p), sort_keys=True).encode())
        h.update(b"\x00")
    return h.hexdigest()[:12]


json_parts = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.text(max_size=4)
    | st.fractions(max_denominator=50),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)
