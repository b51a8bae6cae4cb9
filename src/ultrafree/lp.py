"""Exact rational linear programming, just enough for covering duality.

A dense simplex over ``fractions.Fraction`` with Bland's rule, so it
terminates on every input and never sees a rounding error.  Problems are
posed in the form  max c.x  subject to  A.x <= b, x >= 0  with b >= 0,
which makes the all-slack basis feasible and removes any phase-1 step.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = ["max_simplex"]


def max_simplex(c, A, b, meter=None):
    """Maximize c.x subject to A.x <= b, x >= 0 (all entries rational,
    b >= 0).

    Returns ``(value, x, duals)`` where ``duals`` are the optimal
    multipliers of the row constraints (the solution of the dual LP).
    Raises ValueError on unbounded problems or negative entries of b.
    ``meter`` (a budget meter, or None) is charged one node per tableau
    row built and per row rewritten by a pivot, and reads its clock after
    each such row, since one row can take far longer than a search node.
    """
    m = len(A)
    n = len(c)
    if any(bi < 0 for bi in b):
        raise ValueError("b must be nonnegative for the slack basis")

    def row_done():
        if meter is not None:
            meter.charge()
            meter.check_time()

    # variables 0..n-1 are structural, n..n+m-1 slack.  The tableau is
    # condensed: row i < m holds basic variable basis[i] and row m the
    # reduced costs; column j < n holds nonbasic variable free[j] and the
    # last column the right-hand side.  A basic variable's column would be
    # a unit vector that no pivot reads, so none is stored.
    tab = []
    for i in range(m):
        tab.append([Fraction(x) for x in A[i]] + [Fraction(b[i])])
        row_done()
    cost = [Fraction(x) for x in c] + [Fraction(0)]
    tab.append(cost)
    basis = list(range(n, n + m))
    free = list(range(n))

    while True:
        # Bland: the entering variable is the lowest-index one with a
        # positive reduced cost; a basic one's is 0, so it is a column
        enter = min((j for j in range(n) if cost[j] > 0), key=free.__getitem__, default=None)
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
        # the entering column comes to hold the leaving variable, whose
        # unit column is 1 in the pivot row and 0 elsewhere
        pivot = tab[leave]
        piv, pivot[enter] = pivot[enter], 1
        pivot[:] = [x / piv for x in pivot]
        row_done()
        support = [j for j, y in enumerate(pivot) if y]
        for i, row in enumerate(tab):
            f = row[enter]
            if i != leave and f:
                row[enter] = 0
                for j in support:
                    row[j] -= f * pivot[j]
                row_done()
        basis[leave], free[enter] = free[enter], basis[leave]

    # a nonbasic variable is 0, and a basic slack's dual is 0
    rhs = {var: tab[i][-1] for i, var in enumerate(basis)}
    price = {var: -cost[j] for j, var in enumerate(free)}
    x = [rhs.get(v, Fraction(0)) for v in range(n)]
    duals = [price.get(n + i, Fraction(0)) for i in range(m)]
    value = sum((Fraction(ci) * xi for ci, xi in zip(c, x)), Fraction(0))
    return value, x, duals
