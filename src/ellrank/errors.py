"""Shared exception types for the counting pipeline."""

from __future__ import annotations


class BudgetExceededError(RuntimeError):
    """An enumeration would exceed the configured iteration budget.

    Carries the budget that would have been required, so callers can report
    exactly how far short the configuration fell.
    """

    def __init__(self, required: int, budget: int, what: str = "enumeration"):
        self.required = required
        self.budget = budget
        super().__init__(
            f"{what} needs {required} iterations but the budget is {budget}; "
            f"rerun with a budget of at least {required}"
        )


def charge(required: int, budget: int | None, what: str):
    """Refuse (BudgetExceededError) when ``required`` iterations exceed
    ``budget``; a budget of None sets no cap."""
    if budget is not None and required > budget:
        raise BudgetExceededError(required=required, budget=budget, what=what)


class ConsistencyError(RuntimeError):
    """An internal cross-check failed; indicates an implementation bug."""


class InconclusiveResult(Exception):
    """The integer feasibility problem did not pin down a unique value."""

    def __init__(self, message: str, feasible: tuple[int, ...]):
        self.feasible = feasible
        super().__init__(message)
