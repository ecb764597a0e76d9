import os
import subprocess
import sys

import numpy as np
import pytest

from rectbal.words import (
    BudgetExceeded,
    SequenceKind,
    Word,
    fib_symbol,
    sturmian_a_symbol,
    sturmian_a_word,
    tm_symbol,
    trib2_symbol,
    trib_symbol,
    word,
)


def test_fibonacci_prefix():
    assert [fib_symbol(i) for i in range(8)] == [0, 1, 0, 0, 1, 0, 1, 0]
    assert fib_symbol(1) == 1
    assert fib_symbol(12) == 1


def test_fibonacci_floor_formula_matches_morphism_bulk():
    # vectorized version of the per-symbol cross-check, first 10^6 symbols
    from rectbal.fib_balance import _floor_sums

    limit = 1_000_000
    g = np.diff(_floor_sums(limit + 2))
    syms = word(SequenceKind.FIBONACCI).symbols(limit)
    assert np.array_equal(g[2 : limit + 2] - g[1 : limit + 1], syms)


def test_sturmian_a_examples():
    assert sturmian_a_symbol(0) == 0
    assert sturmian_a_symbol(1) == 0
    assert sturmian_a_symbol(3) == 0
    assert [sturmian_a_symbol(i) for i in range(9)] == [0, 0, 1, 0, 0, 1, 0, 1, 0]


def test_a_word_is_zero_prefixed_f_word():
    a = sturmian_a_word().symbols(2001)
    f = word(SequenceKind.FIBONACCI).symbols(2000)
    assert a[0] == 0
    assert np.array_equal(a[1:], f)


def test_tribonacci_prefix():
    assert [trib_symbol(i) for i in range(7)] == [0, 1, 0, 2, 0, 1, 0]
    assert trib2_symbol(3) == 2
    assert trib2_symbol(1) == 0


def test_trib2_is_recoding():
    tr = word(SequenceKind.TRIBONACCI).symbols(10_000)
    tr2 = word(SequenceKind.TRIBONACCI_RECODED).symbols(10_000)
    assert np.array_equal(np.where(tr == 2, 2, 0), tr2)


def test_thue_morse_prefix():
    assert [tm_symbol(i) for i in range(8)] == [0, 1, 1, 0, 1, 0, 0, 1]
    assert tm_symbol(0) == 0


def test_thue_morse_pair_identities():
    t = word(SequenceKind.THUE_MORSE).symbols(1_000_000).astype(np.int16)
    even, odd = t[0::2], t[1::2]
    assert np.all(even[: len(odd)] + odd == 1)
    q0, q2 = t[0::4], t[2::4]
    assert np.all(q0[: len(q2)] + q2 == 1)
    q1, q3 = t[1::4], t[3::4]
    assert np.all(q1[: len(q3)] + q3 == 1)


def test_prefix_counts_examples():
    fib = word(SequenceKind.FIBONACCI)
    assert fib.count_table(1, 10)[8] == 3
    assert fib.count_table(0, 10)[0] == 0 and fib.count_table(1, 10)[0] == 0
    tr = word(SequenceKind.TRIBONACCI)
    assert tuple(tr.count_table(c, 10)[7] for c in (0, 1, 2)) == (4, 2, 1)


def test_prefix_counts_sum_to_length():
    tr = word(SequenceKind.TRIBONACCI)
    for k in (0, 1, 17, 4999):
        assert sum(int(tr.count_table(c, 5000)[k]) for c in (0, 1, 2)) == k


def test_count_tables_are_int32():
    w = Word(SequenceKind.TRIBONACCI)
    assert all(w.count_table(c, 0).dtype == np.int32 for c in w.alphabet)
    w.ensure(5000)
    for c in w.alphabet:
        table = w.count_table(c, 5000)
        assert table.dtype == np.int32
        assert np.array_equal(table[1:], np.cumsum(w.symbols(5000) == c))


def test_tribonacci_word_is_two_balanced():
    # over the first 10^5 symbols, factor counts of each letter at every
    # length <= 500 spread by at most 2
    w = word(SequenceKind.TRIBONACCI)
    limit = 100_000
    for letter in (0, 1, 2):
        table = w.count_table(letter, limit)
        for length in range(1, 501):
            window = table[length:] - table[: limit + 1 - length]
            assert int(window.max()) - int(window.min()) <= 2


def test_a_and_f_words_share_factors():
    limit = 10_000
    a = sturmian_a_word().symbols(limit).tobytes()
    f = word(SequenceKind.FIBONACCI).symbols(limit).tobytes()
    for length in range(1, 31):
        fa = {a[i : i + length] for i in range(limit - length)}
        ff = {f[i : i + length] for i in range(limit - length)}
        assert fa == ff


def test_budget_enforced():
    small = Word(SequenceKind.FIBONACCI, budget=100)
    small.ensure(100)
    with pytest.raises(BudgetExceeded):
        small.ensure(101)


def test_prefix_counts_over_budget():
    with pytest.raises(BudgetExceeded):
        word(SequenceKind.FIBONACCI).count_table(0, 10**9)


def test_set_budget_applies_to_shared_words():
    from rectbal import words as words_mod

    old = words_mod.DEFAULT_BUDGET
    try:
        words_mod.set_budget(500)
        with pytest.raises(BudgetExceeded):
            word(SequenceKind.FIBONACCI).ensure(9_999_999)
        with pytest.raises(ValueError):
            words_mod.set_budget(0)
    finally:
        words_mod.set_budget(old)


def test_budget_limited_to_int32_counts():
    from rectbal import words as words_mod

    old = words_mod.DEFAULT_BUDGET
    try:
        words_mod.set_budget(2**31 - 1)
        with pytest.raises(ValueError, match="budget must be between 1 and 2147483647"):
            words_mod.set_budget(2**31)
        assert words_mod.DEFAULT_BUDGET == 2**31 - 1
    finally:
        words_mod.set_budget(old)
    with pytest.raises(ValueError):
        Word(SequenceKind.FIBONACCI, budget=2**31)


def test_oversized_budget_variable_rejected():
    import rectbal

    src = os.path.dirname(os.path.dirname(rectbal.__file__))
    env = dict(os.environ, RECTBAL_BUDGET=str(2**31), PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", "import rectbal"], env=env, capture_output=True, text=True
    )
    assert proc.returncode != 0
    assert "RECTBAL_BUDGET must be between 1 and 2147483647" in proc.stderr


def test_non_integer_budget_variable_rejected():
    import rectbal

    src = os.path.dirname(os.path.dirname(rectbal.__file__))
    env = dict(os.environ, RECTBAL_BUDGET="abc", PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", "import rectbal"], env=env, capture_output=True, text=True
    )
    assert proc.returncode != 0
    assert "RECTBAL_BUDGET must be an integer, got 'abc'" in proc.stderr
