import pytest
from hypothesis import settings

from rectbal import limits

# Every property test runs the same examples on every run, with no deadline;
# each test sets only its own example count.
settings.register_profile("rectbal", derandomize=True, deadline=None)
settings.load_profile("rectbal")


@pytest.fixture
def budget():
    """``limits.set_budget`` for one test; the budget in force before the test
    is set again after it."""
    old = limits.BUDGET
    yield limits.set_budget
    limits.set_budget(old)
