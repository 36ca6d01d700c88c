"""Shared exception types."""

from __future__ import annotations

__all__ = [
    "ZfreeError",
    "ParseError",
    "NotOneHotError",
    "NotCompletableError",
    "BudgetExceededError",
    "InvariantError",
]


class ZfreeError(Exception):
    """Base class for errors raised by this package."""


class ParseError(ZfreeError, ValueError):
    """Malformed instance or matrix document."""


class NotOneHotError(ZfreeError, ValueError):
    """A 0/1 vector expected to select exactly one value per variable does not."""


class NotCompletableError(ZfreeError):
    """The partial matrix admits no anti-ultrametric completion.

    Carries the refuting evidence: violation, the Violation that
    completion.validate_partial reports (a negative entry, or a chordless
    cycle of defined entries with a unique minimum), and cycle, that cycle's
    vertices in order (None for a negative entry).
    """

    def __init__(self, message: str, violation=None, cycle=None):
        super().__init__(message)
        self.violation = violation
        self.cycle = cycle


class BudgetExceededError(ZfreeError):
    """An exhaustive oracle was asked to enumerate more than its budget."""


class InvariantError(ZfreeError):
    """An internal invariant that should be unconditionally true failed.

    Raised instead of assert so the checks survive python -O; any occurrence
    is a bug in this package, not in the caller's data.
    """
