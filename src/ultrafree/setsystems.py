"""Finite set systems with multiset semantics, and their exact invariants.

A system is an ordered sequence of subsets of ``range(ground)``; duplicate
sets are distinct members (the sequence order is part of identity).  All
invariants are exact: integer search for transversal/matching/VC/Helly,
rational simplex for the fractional pair.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import combinations

from . import _kernels
from .budget import _meter
from .errors import ClaimViolation, PreconditionViolated
from .graphs import Graph, members
from .lp import max_simplex

__all__ = [
    "SetSystem",
    "dual",
    "disjointness_graph",
    "transversal_number",
    "matching_number",
    "fractional_transversal",
    "vc_dimension",
    "helly_number",
    "has_pq_property",
    "mis_family",
    "mis_star_system",
    "neighborhood_system",
]


class Infeasible(PreconditionViolated):
    """No transversal exists (the system contains an empty set)."""


class SetSystem:
    """Ordered family of subsets of range(ground); duplicates allowed."""

    # _covers: the incidence transpose, filled on first use (or by dual,
    # which knows it); it is not part of identity
    __slots__ = ("ground", "sets", "_covers")

    def __init__(self, ground: int, sets):
        if ground < 0:
            raise ValueError("ground size must be nonnegative")
        masks = []
        for s in sets:
            m = 0
            for x in s:
                if not 0 <= x < ground:
                    raise ValueError("set element out of ground range")
                m |= 1 << x
            masks.append(m)
        self.ground = ground
        self.sets = tuple(masks)
        self._covers = None

    @classmethod
    def from_masks(cls, ground: int, masks) -> "SetSystem":
        f = object.__new__(cls)
        f.ground = ground
        f.sets = tuple(masks)
        f._covers = None
        return f

    def __len__(self):
        return len(self.sets)

    def __eq__(self, other):
        return (
            isinstance(other, SetSystem)
            and self.ground == other.ground
            and self.sets == other.sets
        )

    def __hash__(self):
        return hash((self.ground, self.sets))

    def __repr__(self):
        return f"SetSystem(ground={self.ground}, m={len(self.sets)})"


class FractionalSolution:
    """Rational weights plus their total; ``dual`` holds the certified
    optimal solution of the opposite problem when available."""

    __slots__ = ("weights", "value", "dual")

    def __init__(self, weights, value, dual=None):
        self.weights = dict(weights)
        self.value = value
        self.dual = dual

    def __repr__(self):
        return f"FractionalSolution(value={self.value})"

    def validate(self, F: SetSystem) -> None:
        """Certify these weights as an optimal fractional transversal of F
        by the fractional matching ``dual``: both are nonnegative, the
        matching loads no point above 1, the transversal gives every set
        at least 1, and both totals are ``value``.  Raises ClaimViolation
        on the first check that fails."""
        x, y = self.weights, self.dual.weights
        if any(w < 0 for w in y.values()) or any(w < 0 for w in x.values()):
            raise ClaimViolation("LP certification failed: negative weight")
        for v in range(F.ground):
            if sum(w for j, w in y.items() if F.sets[j] >> v & 1) > 1:
                raise ClaimViolation("LP certification failed: matching overloads a point")
        for s in F.sets:
            if sum(x.get(v, 0) for v in members(s)) < 1:
                raise ClaimViolation("LP certification failed: transversal misses a set")
        if not sum(x.values()) == sum(y.values()) == self.value:
            raise ClaimViolation("LP certification failed: duality gap")


def dual(F: SetSystem) -> SetSystem:
    """Transpose the incidence matrix: one set per original ground element.
    The dual's own transpose is ``F.sets``, so it is born with it."""
    D = SetSystem.from_masks(len(F.sets), _element_cover_masks(F))
    D._covers = F.sets
    return D


def disjointness_graph(F: SetSystem) -> Graph:
    sets = F.sets
    m = len(sets)
    adj = [0] * m
    for i, j in combinations(range(m), 2):
        if not sets[i] & sets[j]:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return Graph.from_masks(adj)


def _element_cover_masks(F: SetSystem) -> tuple[int, ...]:
    """For each ground element, the bitmask of set indices it hits.
    Computed once per system and kept."""
    if F._covers is not None:
        return F._covers
    covers = [0] * F.ground
    for i, s in enumerate(F.sets):
        bit = 1 << i
        m = s
        while m:
            low = m & -m
            covers[low.bit_length() - 1] |= bit
            m ^= low
    F._covers = covers = tuple(covers)
    return covers


def _greedy_cover(covers, unhit: int) -> list[int]:
    """Greedy hitting set, in pick order: while a set in ``unhit`` is
    unhit, pick the point ``p`` whose ``covers[p]`` holds the most of them,
    the lowest point on ties.  Every set in ``unhit`` must be nonempty."""
    picks = []
    while unhit:
        p, most = 0, -1
        for v, c in enumerate(covers):
            hit = (c & unhit).bit_count()
            if hit > most:
                p, most = v, hit
        picks.append(p)
        unhit &= ~covers[p]
    return picks


def transversal_number(F: SetSystem):
    """Exact minimum hitting set: ``(size, witness_elements)``.

    Branch and bound between two combinatorial bounds: a greedy cover gives
    the initial upper bound, and a greedy pairwise-disjoint packing of the
    unhit sets lower-bounds the cost of each node.  No LP is solved."""
    if 0 in F.sets:
        raise Infeasible("system contains an empty set")
    sets = F.sets
    m = len(sets)
    if m == 0:
        return 0, ()
    meter = _meter("transversal_number")
    covers = _element_cover_masks(F)
    all_sets = (1 << m) - 1
    greedy = _greedy_cover(covers, all_sets)
    return _hit(sets, covers, all_sets, [], (len(greedy), tuple(sorted(greedy))), meter)


def _hit(sets, covers, unhit: int, chosen: list[int], best, meter):
    """The best ``(size, witness)`` of ``best`` and the hitting sets that
    extend ``chosen`` to hit the sets in ``unhit``."""
    meter.charge()
    if unhit == 0:
        return (len(chosen), tuple(sorted(chosen))) if len(chosen) < best[0] else best
    # one ascending scan of the unhit sets.  A greedy pairwise-disjoint
    # packing of them lower-bounds the remaining cost, since each needs
    # its own element; the branch is on the set with fewest elements
    # (lowest index on ties)
    packing = taken = 0
    pick = pick_size = None
    mm = unhit
    while mm:
        low = mm & -mm
        mm ^= low
        s = sets[low.bit_length() - 1]
        if not s & taken:
            taken |= s
            packing += 1
        size = s.bit_count()
        if pick_size is None or size < pick_size:
            pick, pick_size = s, size
    if len(chosen) + packing >= best[0]:
        return best
    # members ascend and the sort is stable, so ties keep the lowest first
    elems = sorted(members(pick), key=lambda v: -(covers[v] & unhit).bit_count())
    for e in elems:
        chosen.append(e)
        best = _hit(sets, covers, unhit & ~covers[e], chosen, best, meter)
        chosen.pop()
    return best


def matching_number(F: SetSystem):
    """Maximum clique of the disjointness graph, that is, a largest
    pairwise-disjoint subfamily: ``(size, witness_indices)``."""
    D = disjointness_graph(F)
    size, mask = _kernels.max_clique(D.adj, D.full_mask, _meter("matching_number"))
    return size, members(mask)


def fractional_transversal(F: SetSystem) -> FractionalSolution:
    """Optimal fractional transversal, with the optimal fractional matching
    attached as ``.dual`` and the equality of their values certified.
    The meter's nodes are the simplex's tableau rows built and rewritten."""
    from fractions import Fraction

    if 0 in F.sets:
        raise Infeasible("system contains an empty set")
    m = len(F.sets)
    if m == 0:
        return FractionalSolution({}, Fraction(0), FractionalSolution({}, Fraction(0)))
    # packing LP over set weights: rows are ground elements
    A = [[1 if F.sets[j] >> v & 1 else 0 for j in range(m)] for v in range(F.ground)]
    b = [1] * F.ground
    c = [1] * m
    value, y, x = max_simplex(c, A, b, _meter("fractional_transversal"))
    matching = FractionalSolution({j: w for j, w in enumerate(y) if w}, value)
    solution = FractionalSolution({v: w for v, w in enumerate(x) if w}, value, matching)
    solution.validate(F)
    return solution


def vc_dimension(F: SetSystem):
    """Exact VC dimension with the lexicographically first maximum shattered
    set as witness.  Convention: the empty family has dimension 0."""
    meter = _meter("vc_dimension")
    distinct = sorted(set(F.sets))
    if not distinct:
        return 0, ()
    cap = len(distinct).bit_length() - 1  # need 2^d distinct traces

    def shattered(s_mask: int, size: int) -> bool:
        meter.charge()
        traces = {d & s_mask for d in distinct}
        return len(traces) == 1 << size

    # twins (points in exactly the same sets) are never both in a
    # shattered set, and swapping one for its least twin keeps a set
    # shattered and moves it earlier: only the least of each is tried
    least: dict[int, int] = {}
    for x, column in enumerate(_element_cover_masks(F)):
        least.setdefault(column, x)
    points = tuple(least.values())  # ascending, by first occurrence

    # each level holds the shattered sets of its size as masks, in
    # lexicographic order, so level[0] is the witness
    level = [0]
    depth = 0
    while depth < cap:
        nxt = []
        for s_mask in level:
            for x in points[bisect_left(points, s_mask.bit_length()) :]:
                m2 = s_mask | (1 << x)
                if shattered(m2, depth + 1):
                    nxt.append(m2)
        if not nxt:
            break
        level = nxt
        depth += 1
    return depth, members(level[0])


def helly_number(F: SetSystem) -> int:
    """Largest inclusion-minimal non-intersecting subfamily.

    Conventions: 0 for the empty family; 1 when all members share a point.
    A subfamily is non-intersecting when its common intersection is empty,
    and minimal when every proper subfamily intersects.
    """
    if not F.sets:
        return 0
    full = (1 << F.ground) - 1
    inter_all = full
    for s in F.sets:
        inter_all &= s
    if inter_all:
        return 1
    meter = _meter("helly_number")
    best = 1 if 0 in F.sets else 0
    return _helly(0, [], full, sorted({s for s in F.sets if s and full & ~s}), best, meter)


def _helly(size: int, witnesses: list[int], inter: int, eligible: list[int], best: int, meter) -> int:
    """The larger of ``best`` and the largest minimal non-intersecting
    family that extends the ``size`` chosen members by sets of
    ``eligible``.

    The search is a DFS over index-increasing subfamilies of the distinct
    nonempty sets.  In a minimal non-intersecting family every member has
    a private witness: a point in all the other members but not in it.
    ``witnesses`` holds each chosen member's candidates, and ``eligible``
    the later sets that leave every chosen member a candidate and have one
    of their own in ``inter``.  Adding a set only shrinks these, so the
    eligible sets of a child are a sublist of its parent's.  The private
    witnesses of the members still to come are distinct points of
    ``inter``, so at most popcount(inter) more can join.  A later set
    that misses a child's ``new_inter`` closes that family one member
    on, and no minimal family holds more, so the child carries such a
    set only while size + 2 members would be a new best."""
    meter.charge()
    room = inter.bit_count()
    left = len(eligible)
    for t, s in enumerate(eligible):
        if size + room <= best or size + left - t <= best:
            return best
        new_inter = inter & s
        if not new_inter:
            # s ends the family; visit it only if that is a new best
            if size + 1 > best:
                meter.charge()
                best = size + 1
            continue
        ws = [w & s for w in witnesses]
        ws.append(inter & ~s)
        keep_closing = size + 2 > best
        later = []
        for x in eligible[t + 1 :]:
            if new_inter & ~x and (keep_closing or new_inter & x):
                for w in ws:
                    if not w & x:
                        break
                else:
                    later.append(x)
        best = _helly(size + 1, ws, new_inter, later, best, meter)
    return best


def has_pq_property(F: SetSystem, p: int, q: int) -> bool:
    """Every p of the sets (by index) include q with a common point.

    The property fails exactly when some p members cover no point q times.
    A depth-first search over index-increasing families looks for such p
    members, keeping ``levels[i]``, the points covered more than i times,
    for i < q - 1; a set that meets the top level is never added.  The
    search uses an explicit stack, so p is not limited by recursion depth.
    Each member it adds to a family costs one meter node.
    """
    return _pq_properties(F, (p,), q)[p]


def _pq_properties(F: SetSystem, ps, q: int) -> dict[int, bool]:
    """``{p: has_pq_property(F, p, q)}`` for every p in ``ps``, from one
    search under one ``has_pq_property`` meter.

    Members dropped from a family that covers no point q times leave such
    a family, so the property fails for each p up to the size of the
    largest one and holds above it.  The search prunes for the least p
    it has not reached yet, and moves on to the next p when it adds the
    member that makes a family of that size.
    """
    ps = sorted(set(ps))
    if not all(p >= q >= 2 for p in ps):
        raise ValueError("need p >= q >= 2")
    sets = F.sets
    m = len(sets)
    out = dict.fromkeys(ps, True)
    # a p above m holds with no search
    targets = iter([p for p in ps if p <= m])
    p = next(targets, None)
    if p is None:
        return out
    meter = _meter("has_pq_property")
    top = q - 2
    shifts = range(top, 0, -1)
    # stack[d]: the levels of the family of the first d chosen members,
    # and ``levels`` is stack[d] at depth d; nxt[d]: the next index to try
    # as its (d+1)-th member
    levels = [0] * (q - 1)
    stack = [levels]
    nxt = [0]
    d = 0
    while True:
        # the next index whose set meets no point of the top level; one
        # past ``last`` leaves too few indices to reach p members
        j = nxt[d]
        last = m - p + d
        saturated = levels[top]
        while j <= last and sets[j] & saturated:
            j += 1
        if j > last:
            if not d:
                break
            nxt.pop()
            stack.pop()
            d -= 1
            levels = stack[d]
            continue
        nxt[d] = j + 1
        s = sets[j]
        meter.charge()
        if d + 1 == p:
            out[p] = False
            p = next(targets, None)
            if p is None:
                break
        levels = levels[:]
        for i in shifts:
            levels[i] |= levels[i - 1] & s
        levels[0] |= s
        stack.append(levels)
        nxt.append(j + 1)
        d += 1
    return out


def maximal_intersecting_subfamilies(F: SetSystem) -> list[int]:
    """All inclusion-maximal intersecting subfamilies, as bitmasks of set
    indices, in ascending order.

    Every intersecting subfamily lives inside the family of sets through
    some common point, so the maximal ones are the maximal point stars.
    """
    # a star inside another has fewer members, so largest first, a star is
    # maximal unless a kept one contains it
    kept = []
    for c in sorted({c for c in _element_cover_masks(F) if c}, key=int.bit_count, reverse=True):
        for t in kept:
            if c & t == c:
                break
        else:
            kept.append(c)
    return sorted(kept)


def mis_family(G: Graph) -> SetSystem:
    """The maximal independent sets of G, as a system over V(G)."""
    masks = _kernels.enumerate_mis(G.adj, G.n, _meter("mis_family"))
    return SetSystem.from_masks(G.n, masks)


def mis_star_system(G: Graph) -> SetSystem:
    """One set per vertex v: the indices of the maximal independent sets
    containing v, over the ground of all maximal independent sets."""
    return dual(mis_family(G))


def neighborhood_system(G: Graph) -> SetSystem:
    """The open neighborhoods of G, one per vertex, as a multiset."""
    return SetSystem.from_masks(G.n, G.adj)
