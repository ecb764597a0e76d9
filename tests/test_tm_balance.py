import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rectbal import tm_balance
from rectbal.tm_balance import default_horizon, excess_class_parity_check, excess_profile
from rectbal.tm_closed import (
    ParityViolation,
    excess,
    excess_even_even,
    excess_parity_reduced,
    factor_sum,
)
from rectbal.rectangles import word_counts
from rectbal.limits import BudgetExceeded
from rectbal.words import SequenceKind, Word, cover_bound, word
from oracles import excess_sign_symmetry, excess_vector, factor_cover


def test_excess_single_cells():
    assert excess(0, 1, 1) == -1
    assert excess(1, 1, 1) == 1


def test_excess_rejects_negative_index():
    with pytest.raises(ValueError, match="i must be >= 0, got -1"):
        excess(-1, 3, 3)
    # the parity formulas name the argument the caller passed
    for call, message in [
        (lambda: excess(-5, 0, 3), "i must be >= 0, got -5"),
        (lambda: excess_parity_reduced(-5, 0, 3), "i must be >= 0, got -5"),
        (lambda: excess_even_even(-2, 0, 2), "i must be >= 0, got -2"),
        (lambda: excess_parity_reduced(1, -2, 2), "m must be >= 0, got -2"),
        (lambda: excess_even_even(-2, 2, 2), "i must be >= 0, got -2"),
        (lambda: excess_even_even(0, 2, -4), "n must be >= 0, got -4"),
    ]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()


def test_excess_bound_sampled():
    for m in range(1, 33):
        for n in range(m, 33):
            v = excess_vector(m, n, 10_000)
            assert int(np.abs(v).max()) <= 4


def test_excess_parity_matches_area():
    rng = random.Random(40)
    for _ in range(2000):
        i, m, n = rng.randrange(5000), rng.randrange(1, 30), rng.randrange(1, 30)
        assert (excess(i, m, n) - m * n) % 2 == 0


def test_pairing_bound_for_even_area():
    rng = random.Random(41)
    for _ in range(2000):
        m = rng.randrange(1, 30)
        n = rng.randrange(1, 30)
        if (m * n) % 2:
            n += 1
        i = rng.randrange(5000)
        t = (excess(i, m, n) + m * n) // 2
        assert m * n // 2 - 2 <= t <= m * n // 2 + 2


def test_even_even_formula():
    assert excess_even_even(0, 2, 2) == excess(0, 2, 2)
    assert excess_even_even(4, 4, 8) == excess(4, 4, 8)
    assert excess_even_even(2, 0, 6) == 0
    with pytest.raises(ParityViolation):
        excess_even_even(1, 2, 2)
    with pytest.raises(ParityViolation):
        excess_even_even(0, 3, 2)


def test_parity_reduced_examples():
    assert excess_parity_reduced(0, 2, 3) == excess(0, 2, 3)
    assert excess_parity_reduced(0, 3, 2) == excess(0, 3, 2)
    assert excess_parity_reduced(1, 3, 3) == excess(1, 3, 3)


def test_parity_reduced_empty_rectangles():
    # an odd i peels a first row only when there is one
    for i in range(9):
        for k in range(6):
            assert excess_parity_reduced(i, 0, k) == excess_parity_reduced(i, k, 0) == 0


def test_parity_reduced_random():
    rng = random.Random(42)
    for _ in range(1000):
        i, m, n = rng.randrange(4000), rng.randrange(0, 33), rng.randrange(0, 33)
        assert excess_parity_reduced(i, m, n) == excess(i, m, n)


def test_profile_examples():
    p = excess_profile(1, 1, horizon=1000)
    assert p.balance == 1
    assert (p.min_s, p.max_s) == (-1, 1)
    assert excess_profile(3, 3, horizon=100_000).balance == 3
    assert excess_profile(4, 4, horizon=100_000).balance in (2, 4)


def test_profile_classes_in_range():
    for m in range(1, 17):
        for n in range(m, 17):
            assert excess_profile(m, n, horizon=100_000).balance in (1, 2, 3, 4)


def test_default_horizon_scales():
    assert default_horizon(1, 1) == 100_000
    assert default_horizon(64, 64) == 1 << 18


def test_sign_symmetry_examples():
    assert excess_sign_symmetry(3, 3)
    assert excess_sign_symmetry(2, 5)
    assert excess_sign_symmetry(1, 1, horizon=1000)


def test_class_three_parity_small():
    assert excess_class_parity_check(5, horizon=100_000)
    assert excess_class_parity_check(15, horizon=100_000)


def test_counts_symmetric_under_transpose():
    for m in range(1, 20):
        for n in range(m + 1, 40):
            assert np.array_equal(tm_balance._ones(m, n, 0, 3000), tm_balance._ones(n, m, 0, 3000))


def test_parity_check_scans_each_shape_once(monkeypatch):
    shapes = []
    profile = tm_balance.excess_profile

    def counted(m, n, horizon):
        shapes.append((m, n))
        return profile(m, n, horizon)

    monkeypatch.setattr(tm_balance, "excess_profile", counted)
    assert excess_class_parity_check(9, 2000)
    assert shapes == [(m, n) for m in range(3, 10) for n in range(m, 10)]


def test_degenerate_shapes_rejected():
    with pytest.raises(ValueError):
        excess_profile(0, 3)
    with pytest.raises(ValueError):
        excess_class_parity_check(2)


def test_sign_symmetry_rejects_empty_horizon():
    with pytest.raises(ValueError, match="horizon must be >= 1, got 0"):
        excess_sign_symmetry(3, 3, 0)


def test_factor_sum_rejects_negative_arguments():
    assert factor_sum(0, 4) == 2
    with pytest.raises(ValueError, match="start must be >= 0, got -3"):
        factor_sum(-3, 2)
    with pytest.raises(ValueError, match="length must be >= 0, got -2"):
        factor_sum(3, -2)


def test_scans_never_build_the_letter_0_sum(monkeypatch):
    tm = Word(SequenceKind.THUE_MORSE)
    monkeypatch.setattr(tm_balance, "word", lambda kind: tm)
    assert excess_class_parity_check(5, 2000)
    excess_profile(4, 6, 3000)
    assert excess(7, 3, 5) == excess_parity_reduced(7, 3, 5)
    assert set(tm._sums) == {1}


@settings(max_examples=30)
@given(st.integers(1, 40), st.integers(1, 40), st.integers(0, 40_000))
def test_profile_to_the_cover_equals_the_full_scan(m, n, extra):
    length = m + n - 1
    horizon = factor_cover(SequenceKind.THUE_MORSE, length) + extra
    profile = excess_profile(m, n, horizon)
    v = excess_vector(m, n, horizon)
    assert (profile.min_s, profile.max_s) == (int(v.min()), int(v.max()))
    assert (profile.m, profile.n, profile.horizon) == (m, n, horizon)
    assert profile.exhaustive == (horizon >= cover_bound(SequenceKind.THUE_MORSE, length))


def test_profiles_answer_within_a_budget_below_the_horizon(budget):
    shapes = [(3, 3), (4, 6), (99, 101)]
    profiles = [excess_profile(m, n, 4_000_000) for m, n in shapes]
    assert all(p.exhaustive for p in profiles)
    assert not excess_profile(3, 3, 10).exhaustive  # B(5) > 10
    budget(100_000)
    assert [excess_profile(m, n, 4_000_000) for m, n in shapes] == profiles
    assert excess_class_parity_check(9, 1_000_000)
    with pytest.raises(BudgetExceeded, match="budget is 100000"):
        excess_profile(20_000, 20_000, 4_000_000)


def test_newly_exhaustive_profile_is_a_decision():
    # every factor of length 40000 starts below B = 7 * 2^16 - 39999
    profile = excess_profile(20000, 20001)
    assert profile.exhaustive and (profile.min_s, profile.max_s) == (-4, 4)


@settings(max_examples=300)
@given(st.integers(0, 2**20 - 1), st.integers(0, 300), st.integers(0, 300))
def test_word_free_queries_match_the_stored_sums(i, m, n):
    tm = word(SequenceKind.THUE_MORSE)
    ones = int(word_counts(tm, 1, m, n, i, i + 1)[0])
    assert excess(i, m, n) == excess_parity_reduced(i, m, n) == 2 * ones - m * n
    assert factor_sum(i, n) == int(word_counts(tm, 1, 1, n, i, i + 1)[0])


@settings(max_examples=300)
@given(st.integers(0, 10**30), st.integers(0, 300), st.integers(0, 300))
def test_excess_at_any_index(i, m, n):
    s = excess(i, m, n)
    assert abs(s) <= 4 and (s - m * n) % 2 == 0
    assert s == excess_parity_reduced(i, m, n)


def test_scalar_queries_read_no_word(budget):
    budget(1)
    assert excess(10**30, 3, 5) == excess_parity_reduced(10**30, 3, 5)
    assert factor_sum(10**30 - 1, 2) == 1
