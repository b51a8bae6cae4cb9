"""Shared failure modes for the self-checking pipelines."""

__all__ = ["PreconditionViolated", "ClaimViolation"]


class PreconditionViolated(ValueError):
    """The input does not satisfy the operation's stated hypothesis."""


class ClaimViolation(RuntimeError):
    """A pipeline postcondition failed on this input.

    Surfaced, never silently repaired: it signals either a bug or an input
    that does not satisfy the theory the pipeline encodes.
    """

