"""Finite set systems with multiset semantics, and their exact invariants.

A system is an ordered sequence of subsets of ``range(ground)``; duplicate
sets are distinct members (the sequence order is part of identity).  All
invariants are exact: integer search for transversal/matching/VC/Helly,
rational simplex for the fractional pair.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb

from . import _kernels
from .budget import SearchBudget, _meter
from .errors import ClaimViolation
from .graphs import Graph, mask_of, members
from .lp import max_simplex

__all__ = [
    "SetSystem",
    "Infeasible",
    "FractionalSolution",
    "dual",
    "disjointness_graph",
    "transversal_number",
    "matching_number",
    "fractional_transversal",
    "vc_dimension",
    "helly_number",
    "has_pq_property",
    "frac_helly_witness",
    "maximal_intersecting_subfamilies",
    "mis_family",
    "mis_star_system",
    "neighborhood_system",
]


class Infeasible(ValueError):
    """No transversal exists (the system contains an empty set)."""


class SetSystem:
    """Ordered family of subsets of range(ground); duplicates allowed."""

    __slots__ = ("ground", "sets", "labels")

    def __init__(self, ground: int, sets, labels=None):
        if ground < 0:
            raise ValueError("ground size must be nonnegative")
        masks = []
        for s in sets:
            m = mask_of(s)
            if m >> ground:
                raise ValueError("set element out of ground range")
            masks.append(m)
        self.ground = ground
        self.sets = tuple(masks)
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != len(masks):
                raise ValueError("one label per set required")
        self.labels = labels

    @classmethod
    def from_masks(cls, ground: int, masks, labels=None) -> "SetSystem":
        f = object.__new__(cls)
        f.ground = ground
        f.sets = tuple(masks)
        f.labels = tuple(labels) if labels is not None else None
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

    def set_members(self, i: int) -> tuple[int, ...]:
        return members(self.sets[i])


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


def dual(F: SetSystem) -> SetSystem:
    """Transpose the incidence matrix: one set per original ground element."""
    return SetSystem.from_masks(len(F.sets), _element_cover_masks(F))


def disjointness_graph(F: SetSystem) -> Graph:
    m = len(F.sets)
    adj = [0] * m
    for i, j in combinations(range(m), 2):
        if not F.sets[i] & F.sets[j]:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return Graph.from_masks(adj)


def _element_cover_masks(F: SetSystem) -> list[int]:
    """For each ground element, the bitmask of set indices it hits."""
    covers = [0] * F.ground
    for i, s in enumerate(F.sets):
        bit = 1 << i
        m = s
        while m:
            low = m & -m
            covers[low.bit_length() - 1] |= bit
            m ^= low
    return covers


def _disjoint_packing_bound(F: SetSystem, unhit: int) -> int:
    """Greedy pairwise-disjoint subfamily of the unhit sets: each needs its
    own transversal element, so the count lower-bounds the remaining cost."""
    taken_union = 0
    count = 0
    m = unhit
    while m:
        low = m & -m
        i = low.bit_length() - 1
        m ^= low
        if not F.sets[i] & taken_union:
            taken_union |= F.sets[i]
            count += 1
    return count


def transversal_number(F: SetSystem, budget: SearchBudget | None = None):
    """Exact minimum hitting set: ``(size, witness_elements)``.

    Branch and bound between two combinatorial bounds: a greedy cover gives
    the initial upper bound, and a greedy pairwise-disjoint packing of the
    unhit sets lower-bounds the cost of each node.  No LP is solved."""
    if any(s == 0 for s in F.sets):
        raise Infeasible("system contains an empty set")
    m = len(F.sets)
    if m == 0:
        return 0, ()
    meter = _meter(budget, "transversal_number")
    covers = _element_cover_masks(F)
    all_sets = (1 << m) - 1

    # greedy cover for the initial upper bound
    unhit = all_sets
    greedy: list[int] = []
    while unhit:
        e = max(range(F.ground), key=lambda v: ((covers[v] & unhit).bit_count(), -v))
        greedy.append(e)
        unhit &= ~covers[e]
    best_size = len(greedy)
    best = tuple(sorted(greedy))

    def rec(unhit: int, chosen: list[int]):
        nonlocal best_size, best
        if meter is not None:
            meter.charge()
        if unhit == 0:
            if len(chosen) < best_size:
                best_size = len(chosen)
                best = tuple(sorted(chosen))
            return
        if len(chosen) + _disjoint_packing_bound(F, unhit) >= best_size:
            return
        # branch on the unhit set with fewest elements (lowest index on ties)
        pick = None
        pick_size = None
        mm = unhit
        while mm:
            low = mm & -mm
            i = low.bit_length() - 1
            mm ^= low
            sz = F.sets[i].bit_count()
            if pick_size is None or sz < pick_size:
                pick, pick_size = i, sz
        elems = sorted(
            members(F.sets[pick]),
            key=lambda v: (-(covers[v] & unhit).bit_count(), v),
        )
        for e in elems:
            chosen.append(e)
            rec(unhit & ~covers[e], chosen)
            chosen.pop()

    rec(all_sets, [])
    return best_size, best


def matching_number(F: SetSystem, budget: SearchBudget | None = None):
    """Maximum clique of the disjointness graph, that is, a largest
    pairwise-disjoint subfamily: ``(size, witness_indices)``."""
    D = disjointness_graph(F)
    size, mask = _kernels.max_clique(D.adj, D.full_mask, _meter(budget, "matching_number"))
    return size, members(mask)


def fractional_transversal(F: SetSystem) -> FractionalSolution:
    """Optimal fractional transversal, with the optimal fractional matching
    attached as ``.dual`` and the equality of their values certified."""
    if any(s == 0 for s in F.sets):
        raise Infeasible("system contains an empty set")
    m = len(F.sets)
    if m == 0:
        return FractionalSolution({}, Fraction(0), FractionalSolution({}, Fraction(0)))
    # packing LP over set weights: rows are ground elements
    A = [[1 if F.sets[j] >> v & 1 else 0 for j in range(m)] for v in range(F.ground)]
    b = [1] * F.ground
    c = [1] * m
    value, y, x = max_simplex(c, A, b)

    if any(w < 0 for w in y) or any(w < 0 for w in x):
        raise ClaimViolation("LP certification failed: negative weight")
    for v in range(F.ground):
        if sum((y[j] for j in range(m) if F.sets[j] >> v & 1), Fraction(0)) > 1:
            raise ClaimViolation("LP certification failed: matching overloads a point")
    for j in range(m):
        if sum((x[v] for v in members(F.sets[j])), Fraction(0)) < 1:
            raise ClaimViolation("LP certification failed: transversal misses a set")
    total_x = sum(x, Fraction(0))
    total_y = sum(y, Fraction(0))
    if not (total_x == total_y == value):
        raise ClaimViolation("LP certification failed: duality gap")

    matching = FractionalSolution({j: w for j, w in enumerate(y) if w}, value)
    return FractionalSolution({v: w for v, w in enumerate(x) if w}, value, matching)


def vc_dimension(F: SetSystem, budget: SearchBudget | None = None):
    """Exact VC dimension with the lexicographically first maximum shattered
    set as witness.  Convention: the empty family has dimension 0."""
    meter = _meter(budget, "vc_dimension")
    distinct = sorted(set(F.sets))
    if not distinct:
        return 0, ()
    cap = len(distinct).bit_length() - 1  # need 2^d distinct traces

    def shattered(s_mask: int, size: int) -> bool:
        if meter is not None:
            meter.charge()
        traces = {d & s_mask for d in distinct}
        return len(traces) == 1 << size

    level: list[tuple[tuple[int, ...], int]] = [((), 0)]
    depth = 0
    while depth < cap:
        nxt = []
        for pts, s_mask in level:
            start = pts[-1] + 1 if pts else 0
            for x in range(start, F.ground):
                m2 = s_mask | (1 << x)
                if shattered(m2, depth + 1):
                    nxt.append((pts + (x,), m2))
        if not nxt:
            break
        level = nxt
        depth += 1
    return depth, level[0][0]


def helly_number(F: SetSystem, budget: SearchBudget | None = None) -> int:
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
    meter = _meter(budget, "helly_number")
    distinct = sorted({s for s in F.sets if s}, key=members)
    best = 1 if any(s == 0 for s in F.sets) else 0
    k = len(distinct)

    # DFS over index-increasing subfamilies.  State keeps, for each chosen
    # set, the intersection of the others; a chosen set stays eligible only
    # while some point of that intersection avoids it (its private witness).
    def rec(chosen: list[int], others: list[int], inter: int, start: int):
        nonlocal best
        if meter is not None:
            meter.charge()
        if inter == 0:
            if len(chosen) > best:
                best = len(chosen)
            return
        for j in range(start, k):
            s = distinct[j]
            if inter & ~s == 0:
                continue  # no private witness for the newcomer, ever
            new_others = [o & s for o in others]
            if any(no & ~c == 0 for no, c in zip(new_others, chosen)):
                continue  # an old member just lost its private witness
            new_others.append(inter)
            chosen.append(s)
            rec(chosen, new_others, inter & s, j + 1)
            chosen.pop()

    rec([], [], full, 0)
    return best


def has_pq_property(F: SetSystem, p: int, q: int) -> bool:
    """Every p of the sets (by index) include q with a common point."""
    if not p >= q >= 2:
        raise ValueError("need p >= q >= 2")
    m = len(F.sets)
    if m < p:
        return True
    full = (1 << F.ground) - 1
    for idxs in combinations(range(m), p):
        if not any(
            _intersection(F.sets, sub, full) for sub in combinations(idxs, q)
        ):
            return False
    return True


def _intersection(sets, idxs, full: int) -> int:
    m = full
    for i in idxs:
        m &= sets[i]
        if not m:
            return 0
    return m


def frac_helly_witness(F: SetSystem, k: int):
    """Finite fractional-Helly data: (alpha, beta) where alpha is the
    fraction of intersecting k-subfamilies and beta the largest intersecting
    subfamily's share of the whole family."""
    m = len(F.sets)
    if k < 2 or m < k:
        raise ValueError("need k >= 2 and at least k sets")
    full = (1 << F.ground) - 1
    good = sum(
        1 for idxs in combinations(range(m), k) if _intersection(F.sets, idxs, full)
    )
    alpha = Fraction(good, comb(m, k))
    max_deg = max((c.bit_count() for c in _element_cover_masks(F)), default=0)
    beta = Fraction(max_deg, m)
    return alpha, beta


def maximal_intersecting_subfamilies(F: SetSystem) -> list[tuple[int, ...]]:
    """All inclusion-maximal intersecting subfamilies, as sorted index
    tuples, in lexicographic order.

    Every intersecting subfamily lives inside the family of sets through
    some common point, so the maximal ones are the maximal point stars.
    """
    stars = {c for c in _element_cover_masks(F) if c}
    maximal = [s for s in stars if not any(s != t and s & t == s for t in stars)]
    return sorted(members(s) for s in maximal)


def mis_family(G: Graph, budget: SearchBudget | None = None) -> SetSystem:
    """The maximal independent sets of G, as a system over V(G)."""
    masks = _kernels.enumerate_mis(G.adj, G.n, _meter(budget, "mis_family"))
    return SetSystem.from_masks(G.n, masks)


def mis_star_system(G: Graph, budget: SearchBudget | None = None) -> SetSystem:
    """One set per vertex v: the indices of the maximal independent sets
    containing v, over the ground of all maximal independent sets."""
    return dual(mis_family(G, budget))


def neighborhood_system(G: Graph) -> SetSystem:
    """The open neighborhoods of G, one per vertex, as a multiset."""
    return SetSystem.from_masks(G.n, G.adj)
