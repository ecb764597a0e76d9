"""Word rectangles: m x n blocks whose entry (k, l) is the word symbol at
index i + k + l, constant along antidiagonals.

Every rectangle count is a windowed sum of a prefix-count table C: the
count at i is sum_{k<m} C[i+k+n] - C[i+k], which telescopes twice over the
running sum of C.  `rect_counts` is that kernel, O(m + n) per query.

The running sum outgrows 32 bits, but the kernel only adds and subtracts
and each count lies in [0, m*n]: taken modulo 2**32 in uint32, its result
read as int32 is exact while m*n < 2**31.  Larger shapes use int64.
"""
from __future__ import annotations

import numpy as np

from .words import Word, check_nonnegative, sturmian_a_word


def telescope(s2: np.ndarray, m: int, n: int, start: int, stop: int) -> np.ndarray:
    """sum_{k<m} C[i+k+n] - C[i+k] for start <= i < stop, where s2 is the
    running sum of C (s2[j] = C[0] + ... + C[j-1])."""
    check_nonnegative(m=m, n=n, i=start, horizon=stop - start)
    return (
        s2[start + m + n : stop + m + n]
        - s2[start + n : stop + n]
        - s2[start + m : stop + m]
        + s2[start:stop]
    )


def rect_counts(counts: np.ndarray, m: int, n: int, start: int, stop: int) -> np.ndarray:
    """The m x n rectangle counts at start <= i < stop of the letter whose
    prefix-count table is `counts` (counts[t] = occurrences in [0, t)), as
    int32 when m*n < 2**31 and as int64 otherwise.

    Only counts[start : stop+m+n-1] is read; it must be there.
    """
    check_nonnegative(m=m, n=n, i=start, horizon=stop - start)
    window = counts[start : stop + m + n - 1]
    narrow = m * n < 2**31
    s2 = np.zeros(len(window) + 1, dtype=np.uint32 if narrow else np.int64)
    np.cumsum(window, dtype=s2.dtype, out=s2[1:])
    out = telescope(s2, m, n, 0, stop - start)
    return out.view(np.int32) if narrow else out


def window_counts(counts: np.ndarray, m: int, n: int, start: int, stop: int) -> np.ndarray:
    """`rect_counts` as int64."""
    return rect_counts(counts, m, n, start, stop).astype(np.int64)


def _letter_count(w: Word, letter: int, i: int, m: int, n: int) -> int:
    table = w.count_table(letter, i + m + n - 1)
    return int(rect_counts(table, m, n, i, i + 1)[0])


def word_rect_sum(w: Word, i: int, m: int, n: int) -> int:
    """Sum of all entries of the rectangle at (i, m, n) over word w."""
    return sum(c * _letter_count(w, c, i, m, n) for c in w.alphabet if c)


def word_letter_counts(w: Word, i: int, m: int, n: int) -> dict[int, int]:
    """Per-letter occurrence counts in the rectangle; they sum to m*n."""
    return {c: _letter_count(w, c, i, m, n) for c in w.alphabet}


def delta(i: int, m: int, n: int) -> int:
    """T(i+1, m, n) - T(i, m, n) on the 0-prefixed Fibonacci word; lies in
    {-1, 0, 1}."""
    w = sturmian_a_word()
    return word_rect_sum(w, i + 1, m, n) - word_rect_sum(w, i, m, n)
