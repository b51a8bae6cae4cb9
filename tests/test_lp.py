from fractions import Fraction
from types import SimpleNamespace

import pytest

from ultrafree import budget
from ultrafree.budget import BudgetExceeded, SearchBudget
from ultrafree.lp import max_simplex


def test_box():
    value, x, duals = max_simplex([1, 1], [[1, 0], [0, 1]], [1, 2])
    assert value == 3 and x == [1, 2]
    assert duals == [1, 1]


def test_meter_counts_rows():
    # 2 rows built; each of the 2 pivots rewrites its pivot row and the
    # objective row, and no other row has a nonzero entering coefficient
    meter = SearchBudget().meter("lp")
    assert max_simplex([1, 1], [[1, 0], [0, 1]], [1, 2], meter)[0] == 3
    assert meter.nodes == 6
    with pytest.raises(BudgetExceeded):
        max_simplex([1, 1], [[1, 0], [0, 1]], [1, 2], SearchBudget(max_nodes=5).meter("lp"))


def test_clock_read_per_row(monkeypatch):
    # the clock reads 0 when the meter sets its deadline and 1 after that,
    # so the deadline has passed by the first row; a meter that read the
    # clock only every 1,024 nodes would let the 6-node solve finish
    ticks = iter([0.0])
    monkeypatch.setattr(budget, "time", SimpleNamespace(monotonic=lambda: next(ticks, 1.0)))
    meter = SearchBudget(max_millis=0).meter("lp")
    with pytest.raises(BudgetExceeded) as exc:
        max_simplex([1, 1], [[1, 0], [0, 1]], [1, 2], meter)
    assert exc.value.reason == "time"
    assert exc.value.nodes == 1


def test_rational_optimum():
    # max x+y s.t. 2x+y <= 2, x+2y <= 2
    value, x, duals = max_simplex([1, 1], [[2, 1], [1, 2]], [2, 2])
    assert value == Fraction(4, 3)
    assert x == [Fraction(2, 3), Fraction(2, 3)]
    assert duals == [Fraction(1, 3), Fraction(1, 3)]
    assert duals[0] * 2 + duals[1] * 2 == value


def test_zero_objective():
    value, x, duals = max_simplex([0, 0], [[1, 1]], [5])
    assert value == 0 and x == [0, 0] and duals == [0]


def test_degenerate_terminates():
    # classic cycling-prone instance; Bland's rule must terminate
    A = [
        [Fraction(1, 4), -8, -1, 9],
        [Fraction(1, 2), -12, Fraction(-1, 2), 3],
        [0, 0, 1, 0],
    ]
    b = [0, 0, 1]
    c = [Fraction(3, 4), -20, Fraction(1, 2), -6]
    value, x, duals = max_simplex(c, A, b)
    assert value == Fraction(5, 4)
    assert sum(c[j] * x[j] for j in range(4)) == value
    for i in range(3):
        assert sum(A[i][j] * x[j] for j in range(4)) <= b[i]
    # optimality certificate: dual multipliers price out every column
    for j in range(4):
        reduced = c[j] - sum(duals[i] * A[i][j] for i in range(3))
        assert reduced <= 0
    assert sum(duals[i] * b[i] for i in range(3)) == value


def test_unbounded():
    with pytest.raises(ValueError, match="unbounded"):
        max_simplex([1], [[-1]], [1])


def test_negative_rhs_rejected():
    with pytest.raises(ValueError):
        max_simplex([1], [[1]], [-1])


def test_duality_equality_random():
    import random

    rng = random.Random(4)
    for _ in range(25):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        A = [[rng.randint(0, 3) for _ in range(n)] for _ in range(m)]
        b = [rng.randint(0, 4) for _ in range(m)]
        c = [rng.randint(0, 3) for _ in range(n)]
        # keep it bounded: every variable gets a private cap
        A += [[1 if j == k else 0 for j in range(n)] for k in range(n)]
        b += [5] * n
        value, x, duals = max_simplex(c, A, b)
        assert all(xi >= 0 for xi in x)
        for i in range(len(A)):
            assert sum(A[i][j] * x[j] for j in range(n)) <= b[i]
        assert sum(c[j] * x[j] for j in range(n)) == value
        # strong duality, checked as two certificates
        assert all(d >= 0 for d in duals)
        for j in range(n):
            assert sum(duals[i] * A[i][j] for i in range(len(A))) >= c[j]
        assert sum(duals[i] * b[i] for i in range(len(A))) == value
