"""Argument checks and the one symbol budget, with no numpy: every module
reads them from here, so ``import rectbal`` and the pure-integer commands
load only this module until a name of another is used.

The budget caps the length of every generated word and the size of every
table.  It is read from the RECTBAL_BUDGET environment variable (default
10**7) when this module is imported, so a bad value fails ``import
rectbal``.  Read it as ``limits.BUDGET``: ``set_budget`` rebinds it here,
and a copy taken by ``from .limits import BUDGET`` would go stale.
"""
from __future__ import annotations

import operator
import os


class LimitReached(RuntimeError):
    """A request stopped at one of the package's limits: the symbol budget,
    a search limit, or a distinguishing depth too shallow for its sample.
    The CLI reports each in one line with exit status 1."""


class BudgetExceeded(LimitReached):
    """A request would grow a word beyond the configured symbol budget."""


MAX_BUDGET = 2**31 - 1  # prefix counts fit int32


def as_integer(name: str, value: int) -> int:
    """value as an int by operator.index, so Python and NumPy integers pass;
    ValueError naming the argument for anything else (3.5, 2.0, "7")."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def check_at_least(bound: int, /, **values: int) -> None:
    """Raise ValueError naming the first argument that is not an integer or
    is below bound.  Plain ints at or above it, the hot case, pass on one
    type test each; anything else (bools, NumPy ints) takes the checked
    loop."""
    for value in values.values():
        if type(value) is not int or value < bound:
            break
    else:
        return
    for name, value in values.items():
        if as_integer(name, value) < bound:
            raise ValueError(f"{name} must be >= {bound}, got {value}")


def _checked_budget(budget: int, name: str = "budget") -> int:
    budget = as_integer(name, budget)
    if not 1 <= budget <= MAX_BUDGET:
        raise ValueError(f"{name} must be between 1 and {MAX_BUDGET}, got {budget}")
    return budget


def _env_budget() -> int:
    text = os.environ.get("RECTBAL_BUDGET", "10000000")
    try:
        budget = int(text)
    except ValueError:
        raise ValueError(f"RECTBAL_BUDGET must be an integer, got {text!r}") from None
    return _checked_budget(budget, "RECTBAL_BUDGET")


# The one symbol budget: every word and every table is held to it by
# check_budget, which reads it here, so set_budget reaches them all.
BUDGET = _env_budget()


def set_budget(budget: int) -> None:
    """Cap word generation length, and the size of every table."""
    global BUDGET
    BUDGET = _checked_budget(budget)


def check_budget(size: int, what: str) -> None:
    """Raise BudgetExceeded, naming `what`, if `size` passes the symbol
    budget."""
    if size > BUDGET:
        raise BudgetExceeded(f"{size} {what} requested, budget is {BUDGET}")
