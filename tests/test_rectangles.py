import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rectbal.rectangles import (
    rect_counts,
    word_counts,
    word_letter_counts,
    word_rect_sum,
)
from rectbal.tm_closed import excess
from rectbal.words import SequenceKind, Word, sturmian_a_word, word
from oracles import delta

FIB = SequenceKind.FIBONACCI
TRIB = SequenceKind.TRIBONACCI


def _running_sum(counts: np.ndarray) -> np.ndarray:
    """s[j] = counts[0] + ... + counts[j-1] modulo 2**32, as uint32."""
    s = np.zeros(len(counts) + 1, dtype=np.uint32)
    np.cumsum(counts, dtype=np.uint32, out=s[1:])
    return s


def naive_rect_sum(kind: SequenceKind, i: int, m: int, n: int) -> int:
    w = word(kind)
    return sum(w.symbol(i + k + l) for k in range(m) for l in range(n))


def naive_letter_count(kind, letter, i, m, n) -> int:
    w = word(kind)
    return sum(
        1 for k in range(m) for l in range(n) if w.symbol(i + k + l) == letter
    )


def test_rect_sum_examples():
    assert word_rect_sum(word(FIB), 1, 4, 4) == 7
    assert word_rect_sum(word(FIB), 0, 0, 7) == 0
    assert word_rect_sum(word(FIB), 5, 4, 4) == 5


def test_rect_sum_matches_naive_on_random_queries():
    rng = random.Random(10)
    for _ in range(10_000):
        kind = rng.choice([FIB, TRIB, SequenceKind.THUE_MORSE])
        i = rng.randrange(0, 3000)
        m = rng.randrange(0, 12)
        n = rng.randrange(0, 12)
        assert word_rect_sum(word(kind), i, m, n) == naive_rect_sum(kind, i, m, n)


def test_letter_counts_examples():
    counts = word_letter_counts(word(TRIB), 0, 2, 2)
    # entries are (0,1;1,0): two 0s, two 1s, no 2s
    assert counts == {0: 2, 1: 2, 2: 0}
    zero = word_letter_counts(word(TRIB), 0, 0, 5)
    assert zero == {0: 0, 1: 0, 2: 0}
    fib = word_letter_counts(word(FIB), 1, 4, 4)
    assert fib[1] == word_rect_sum(word(FIB), 1, 4, 4) == 7


_WORDS = [word(kind) for kind in SequenceKind] + [sturmian_a_word()]


@settings(max_examples=300)
@given(
    st.sampled_from(_WORDS),
    st.integers(0, 50_000),
    st.integers(1, 3) | st.integers(0, 300),
    st.integers(0, 3000),
    st.booleans(),
)
def test_letter_counts_match_the_stored_sums(w, i, m, n, transpose):
    # thin shapes too: m = 1 with n up to 3000, either way round
    if transpose:
        m, n = n, m
    counts = word_letter_counts(w, i, m, n)
    assert counts == {c: int(word_counts(w, c, m, n, i, i + 1)[0]) for c in w.alphabet}
    assert word_rect_sum(w, i, m, n) == sum(c * k for c, k in counts.items())


def test_letter_counts_sum_to_area():
    rng = random.Random(11)
    for _ in range(500):
        i, m, n = rng.randrange(2000), rng.randrange(1, 15), rng.randrange(1, 15)
        counts = word_letter_counts(word(TRIB), i, m, n)
        assert sum(counts.values()) == m * n
        for letter in (0, 1, 2):
            assert counts[letter] == naive_letter_count(TRIB, letter, i, m, n)


def test_delta_examples():
    # the f-word rectangle at i corresponds to the 0-prefixed word at i+1
    assert delta(2, 4, 4) == -1  # T_f(2,4,4) - T_f(1,4,4) = 6 - 7
    assert delta(0, 0, 9) == 0


def test_delta_range_and_offset_identity():
    a = sturmian_a_word()
    f = word(FIB)
    rng = random.Random(12)
    for _ in range(400):
        i = rng.randrange(0, 5000)
        m = rng.randrange(1, 60)
        n = rng.randrange(1, 60)
        d = delta(i, m, n)
        assert d in (-1, 0, 1)
        assert word_rect_sum(a, i + 1, m, n) == word_rect_sum(f, i, m, n)


def _transposed_counts_agree(kind: SequenceKind, i: int, m: int, n: int) -> bool:
    w = word(kind)
    return word_letter_counts(w, i, m, n) == word_letter_counts(w, i, n, m)


def test_transpose_examples():
    assert word_rect_sum(word(FIB), 0, 4, 3) == 4
    assert word_rect_sum(word(FIB), 0, 3, 4) == 4
    assert _transposed_counts_agree(FIB, 0, 4, 3)
    assert _transposed_counts_agree(TRIB, 3, 5, 5)


def test_transpose_on_random_queries():
    rng = random.Random(13)
    for _ in range(1000):
        kind = rng.choice([FIB, TRIB, SequenceKind.THUE_MORSE])
        i, m, n = rng.randrange(4000), rng.randrange(20), rng.randrange(20)
        assert _transposed_counts_agree(kind, i, m, n)
        assert word_rect_sum(word(kind), i, m, n) == word_rect_sum(word(kind), i, n, m)


def test_negative_parameters_rejected():
    with pytest.raises(ValueError, match="i must be >= 0"):
        word_rect_sum(word(FIB), -1, 2, 2)
    with pytest.raises(ValueError, match="m must be >= 0"):
        word_rect_sum(word(FIB), 2, -3, 5)
    with pytest.raises(ValueError, match="i must be >= 0"):
        word_letter_counts(word(TRIB), -1, 2, 2)


def test_window_counts_matches_naive_row_sums():
    rng = random.Random(14)
    for q in range(300):
        length = rng.randrange(30, 200)
        symbols = [rng.randrange(3) for _ in range(length)]
        counts = np.concatenate([[0], np.cumsum(np.array(symbols) == 1)])
        m, n = rng.randrange(12), rng.randrange(12)
        if q % 10 == 0:
            m = 0
        elif q % 10 == 1:
            n = 0
        start = rng.randrange(length - m - n + 1)
        stop = rng.randint(start, length - m - n + 1)
        want = [
            sum(symbols[i + k + l] == 1 for k in range(m) for l in range(n))
            for i in range(start, stop)
        ]
        # the stored form (uint32, modulo 2**32) and an exact int64 sum
        exact = np.concatenate([[0], np.cumsum(counts)])
        for sums in (_running_sum(counts), exact):
            got = rect_counts(sums, m, n, start, stop)
            assert got.dtype == np.int32 and got.tolist() == want
    # the running sum wraps modulo 2**32: a table lifted by 2**30 passes
    # 2**32 within a few entries, and every count holds
    symbols = np.array([rng.randrange(3) for _ in range(100_000)])
    counts = np.concatenate([[0], np.cumsum(symbols == 1)])
    lifted = (counts + 2**30).astype(np.int32)
    assert int(np.sum(lifted, dtype=np.int64)) > 2**32
    m, n = 37, 52
    horizon = len(counts) - m - n + 1
    got = rect_counts(_running_sum(lifted), m, n, 0, horizon)
    want = sum(counts[k + n : k + n + horizon] - counts[k : k + horizon] for k in range(m))
    assert got.dtype == np.int32 and np.array_equal(got, want)
    assert got[77] == sum(symbols[77 + k + l] == 1 for k in range(m) for l in range(n))
    # all-ones symbols, every count m*n: just below 2**31 in int32, and from
    # m*n >= 2**31 on through the int64 route, also where m*n is 2**32 or
    # more, so that its residue modulo 2**32 is 0 or small
    for side, dtype in ((46_340, np.int32), (50_000, np.int64), (65_536, np.int64), (70_000, np.int64)):
        sums = _running_sum(np.arange(2 * side + 1, dtype=np.int32))
        got = rect_counts(sums, side, side, 0, 2)
        assert got.dtype == dtype and got.tolist() == [side * side] * 2
        assert rect_counts(sums, side, side, 1, 2).tolist() == [side * side]


def test_empty_rectangle_at_zero():
    for kind in SequenceKind:
        w = word(kind)
        assert word_letter_counts(w, 0, 0, 0) == {c: 0 for c in w.alphabet}
        assert word_rect_sum(w, 0, 0, 0) == 0
    assert delta(0, 0, 0) == 0
    assert excess(0, 0, 0) == 0
    # an unbuilt word answers without growing
    fresh = Word(FIB)
    assert word_letter_counts(fresh, 0, 0, 0) == {0: 0, 1: 0} and len(fresh) == 0
