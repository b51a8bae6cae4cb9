"""Search budgets for the exponential-time solvers.

Every exact solver in this package walks a search tree and charges its
nodes to the :class:`SearchBudget` in force.  When a cap is hit the
solver raises :class:`BudgetExceeded` instead of returning a wrong
answer; with no budget in force it charges a meter that counts nothing.
"""

from __future__ import annotations

import time
from contextvars import ContextVar

__all__ = ["SearchBudget", "BudgetExceeded"]

# Wall-clock reads are comparatively expensive; amortize them.
_TIME_CHECK_MASK = 0x3FF

# the budget in force, or None: set by ``with budget:``, read by _meter
_active = ContextVar("ultrafree_budget", default=None)


class BudgetExceeded(RuntimeError):
    """Raised when a solver runs out of nodes or time.

    Attributes:
        op: name of the operation that gave up.
        nodes: search nodes charged to the budget, by every call made
            while it was in force, before giving up.
        reason: "nodes" or "time".
    """

    def __init__(self, op: str, nodes: int, reason: str):
        super().__init__(f"{op}: budget exceeded after {nodes} nodes ({reason})")
        self.op = op
        self.nodes = nodes
        self.reason = reason


class SearchBudget:
    """One account for all the solver calls made while it is in force:
    ``with budget:`` puts it in force, and a nested ``with`` replaces it
    until the inner block ends.  ``max_nodes`` caps the search-tree nodes
    (solver-specific but stable for a given input) that those calls
    charge together; ``nodes`` is the running total.  ``max_millis`` caps
    the wall time since the budget's creation, one deadline for them
    all.  ``None`` means no cap; each check reads the caps anew.
    """

    __slots__ = ("max_nodes", "max_millis", "nodes", "_start", "_tokens")

    def __init__(self, max_nodes: int | None = None, max_millis: int | None = None):
        for name, value in (("max_nodes", max_nodes), ("max_millis", max_millis)):
            if value is not None and value < 0:
                raise ValueError(f"{name} must be nonnegative, got {value}")
        self.max_nodes = max_nodes
        self.max_millis = max_millis
        self.nodes = 0
        self._start = time.monotonic()
        self._tokens = []

    def __repr__(self):
        return f"SearchBudget(max_nodes={self.max_nodes!r}, max_millis={self.max_millis!r})"

    def __enter__(self) -> "SearchBudget":
        self._tokens.append(_active.set(self))
        return self

    def __exit__(self, *exc) -> None:
        _active.reset(self._tokens.pop())

    def meter(self, op: str) -> "_Meter":
        return _Meter(op, self)


class _Free:
    """The meter of every search run with no budget in force: it counts nothing."""

    __slots__ = ()

    def charge(self) -> None:
        pass

    check_time = charge


_FREE = _Free()


def _meter(op: str):
    """A meter for one invocation of ``op`` on the budget in force, else
    ``_FREE``.  It reads the clock once as it opens, so an invocation that
    starts after the budget's deadline raises before its first node."""
    budget = _active.get()
    if budget is None:
        return _FREE
    meter = budget.meter(op)
    meter.check_time()
    return meter


class _Meter:
    """One invocation's counter; cheap enough to charge in inner loops.
    ``nodes`` counts this invocation's nodes, and every charge is also
    added to its budget's total, against which ``max_nodes`` is checked."""

    __slots__ = ("op", "nodes", "_budget")

    def __init__(self, op: str, budget: SearchBudget):
        self.op = op
        self.nodes = 0
        self._budget = budget

    def charge(self) -> None:
        self.nodes += 1
        budget = self._budget
        budget.nodes += 1
        if budget.max_nodes is not None and budget.nodes > budget.max_nodes:
            raise BudgetExceeded(self.op, budget.nodes, "nodes")
        if budget.max_millis is not None and (budget.nodes & _TIME_CHECK_MASK) == 0:
            self.check_time()

    def check_time(self) -> None:
        """Raise BudgetExceeded past the budget's deadline.  ``charge``
        calls this every 1,024 nodes the budget is charged; a solver whose
        node is costly (a tableau row) calls it after every node."""
        budget = self._budget
        millis = budget.max_millis
        if millis is not None and (time.monotonic() - budget._start) * 1000 > millis:
            raise BudgetExceeded(self.op, budget.nodes, "time")
