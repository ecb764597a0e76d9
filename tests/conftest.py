import pytest

from rectbal import words


@pytest.fixture
def budget():
    """``words.set_budget`` for one test; the budget in force before the test
    is set again after it."""
    old = words.BUDGET
    yield words.set_budget
    words.set_budget(old)
