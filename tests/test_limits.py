import numpy as np
import pytest

from rectbal.limits import check_at_least
from rectbal.rectangles import scan_stop
from rectbal.tm_balance import default_horizon
from rectbal.words import SequenceKind, Word, cover_bound


@pytest.mark.parametrize(
    "bound, value, message",
    [
        (0, 0, None),
        (0, 7, None),
        (0, True, None),
        (0, np.int64(5), None),
        (0, -1, "x must be >= 0, got -1"),
        (1, False, "x must be >= 1, got False"),
        (0, np.int64(-2), "x must be >= 0, got -2"),
        (0, 3.5, "x must be an integer, got 3.5"),
        (0, 2.0, "x must be an integer, got 2.0"),
        (0, "7", "x must be an integer, got '7'"),
    ],
)
def test_check_at_least_fast_path_keeps_every_answer(bound, value, message):
    # a plain int beside the value takes the fast path's first test, and the
    # message still names the first bad argument
    if message is None:
        check_at_least(bound, a=5, x=value)
    else:
        with pytest.raises(ValueError, match=f"^{message}$"):
            check_at_least(bound, a=5, x=value, z=-9)


def test_set_budget_reaches_scan_stop_and_default_horizon(budget):
    # m = n = 3: every factor of length 5 starts below B, and the exhaustive
    # scan reads B + 4 symbols; a reader that copied the budget at import
    # would keep the default's answers
    kind = SequenceKind.THUE_MORSE
    bound = cover_bound(kind, 5)
    assert scan_stop(kind, 3, 3, 10**6) == (bound, True)
    assert default_horizon(3, 3) == 100_000
    budget(bound + 3)
    assert scan_stop(kind, 3, 3, 10**6) == (10**6, False)
    assert default_horizon(3, 3) == bound - 3
    budget(bound + 4)
    assert scan_stop(kind, 3, 3, 10**6) == (bound, True)


def test_set_budget_caps_how_far_a_word_grows(budget):
    # a word grows in blocks of at least 4096 symbols, cut at the budget
    budget(1000)
    w = Word(SequenceKind.FIBONACCI)
    w.ensure(10)
    assert len(w) == 1000
