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

    # columns: 0..n-1 structural, n..n+m-1 slack, last = RHS
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
        # Bland: entering = lowest-index column with positive reduced cost
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
