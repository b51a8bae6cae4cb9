"""Search budgets for the exponential-time solvers.

Every exact solver in this package walks a search tree.  A
:class:`SearchBudget` caps that walk by node count and/or wall time; when
the cap is hit the solver raises :class:`BudgetExceeded` instead of
returning a wrong answer.
"""

from __future__ import annotations

import time

__all__ = ["SearchBudget", "BudgetExceeded", "UNLIMITED"]

# Wall-clock reads are comparatively expensive; amortize them.
_TIME_CHECK_MASK = 0x3FF


class BudgetExceeded(RuntimeError):
    """Raised when a solver runs out of nodes or time.

    Attributes:
        op: name of the operation that gave up.
        nodes: search nodes expanded before giving up.
        reason: "nodes" or "time".
    """

    def __init__(self, op: str, nodes: int, reason: str):
        super().__init__(f"{op}: budget exceeded after {nodes} nodes ({reason})")
        self.op = op
        self.nodes = nodes
        self.reason = reason


class SearchBudget:
    """Immutable cap on the solver invocations it is passed to.

    ``max_nodes`` counts search-tree nodes (solver-specific but stable for
    a given input) and caps each invocation on its own.  ``max_millis`` is
    wall time counted from the budget's creation: its deadline is fixed
    then and shared by every invocation, so a time cap bounds them all
    together.  ``None`` means no cap.  Budgets compare, hash and print by
    their two caps; assigning to either raises AttributeError.  Unpickling
    makes a new budget, whose deadline counts from then.
    """

    __slots__ = ("max_nodes", "max_millis", "_deadline")

    def __init__(self, max_nodes: int | None = None, max_millis: int | None = None):
        for name, value in (("max_nodes", max_nodes), ("max_millis", max_millis)):
            if value is not None and value < 0:
                raise ValueError(f"{name} must be nonnegative, got {value}")
            object.__setattr__(self, name, value)
        deadline = None if max_millis is None else time.monotonic() + max_millis / 1000.0
        object.__setattr__(self, "_deadline", deadline)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), (self.max_nodes, self.max_millis)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.max_nodes, self.max_millis) == (other.max_nodes, other.max_millis)

    def __hash__(self):
        return hash((self.max_nodes, self.max_millis))

    def __repr__(self):
        return f"SearchBudget(max_nodes={self.max_nodes!r}, max_millis={self.max_millis!r})"

    def meter(self, op: str) -> "_Meter":
        return _Meter(op, self.max_nodes, self._deadline)


def _meter(budget: SearchBudget | None, op: str):
    """A meter for one invocation of ``op``, or None without a budget.
    It reads the clock once as it opens, so an invocation that starts
    after the budget's deadline raises before its first node."""
    if budget is None:
        return None
    meter = budget.meter(op)
    meter.check_time()
    return meter


class _Meter:
    """Per-invocation counter; cheap enough to charge in inner loops.
    ``deadline`` is its budget's, on the ``time.monotonic`` clock."""

    __slots__ = ("op", "nodes", "_max_nodes", "_deadline")

    def __init__(self, op: str, max_nodes: int | None, deadline: float | None):
        self.op = op
        self.nodes = 0
        self._max_nodes = max_nodes
        self._deadline = deadline

    def charge(self, n: int = 1) -> None:
        self.nodes += n
        if self._max_nodes is not None and self.nodes > self._max_nodes:
            raise BudgetExceeded(self.op, self.nodes, "nodes")
        if self._deadline is not None and (self.nodes & _TIME_CHECK_MASK) == 0:
            self.check_time()

    def check_time(self) -> None:
        """Raise BudgetExceeded if the deadline has passed.  ``charge``
        calls this every 1,024 nodes; a solver whose node is costly (a
        tableau row) calls it after every node."""
        if self._deadline is not None and time.monotonic() > self._deadline:
            raise BudgetExceeded(self.op, self.nodes, "time")


UNLIMITED = SearchBudget()
