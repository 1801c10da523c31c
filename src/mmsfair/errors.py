"""Exception types shared across the package."""


class FairDivisionError(Exception):
    """Base class for errors raised by this package."""


class InvalidInstanceError(FairDivisionError, ValueError):
    """An instance, allocation or parameter violates a documented precondition."""


class NotOrderedError(InvalidInstanceError):
    """An operation that requires an ordered instance received an unordered one."""


class BudgetExceededError(FairDivisionError, RuntimeError):
    """An exact enumeration would exceed the configured search budget.

    The message names the offending size and the limit so callers can decide
    whether to raise the budget or fall back to an approximate routine.
    """

    def __init__(self, what: str, size: int, budget: int):
        super().__init__(f"{what}: search size {_num(size)} exceeds budget {_num(budget)}")
        self.what = what
        self.size = size
        self.budget = budget


def _num(x: int) -> str:
    # Python prints no int of more than 4,300 digits, and n^m can get there
    return str(x) if x.bit_length() <= 1024 else f"at least 2^{x.bit_length() - 1}"
