"""Word rectangles: m x n blocks whose entry (k, l) is the word symbol at
index i + k + l, constant along antidiagonals.

Every rectangle count is a windowed sum of a prefix-count table C: the
count at i is sum_{k<m} C[i+k+n] - C[i+k], which telescopes twice over the
running sum s of C (s[j] = C[0] + ... + C[j-1]).  Each `Word` stores s per
letter, so `rect_counts` is four slices of it, O(1) per position.

The stored s outgrows 32 bits and is kept modulo 2**32 in uint32.  The
telescope only adds and subtracts, and each count lies in [0, m*n]: taken
in uint32 and read as int32, the count is exact while m*n < 2**31.  Larger
shapes recover C from s (exact, as C < 2**31) and sum it again in int64.

The rectangle at i is a function of the length-(m+n-1) factor at i, so a
scan over i can stop at that length's cover bound (`scan_stop`): past it
every rectangle repeats one at a smaller i, and the scan's ranges and first
extremes are those of any longer horizon.

Scalar queries read no running sum: symbol d of the length-(m+n-1) factor
at i fills min(d+1, m, n, m+n-1-d) cells of the rectangle, so
`word_letter_counts` and `word_rect_sum` weigh that factor, in int64.
Scans keep `word_counts` on the stored sums.
"""
from __future__ import annotations

import numpy as np

from . import limits
from .limits import check_at_least
from .words import SequenceKind, Word, cover_bound


def telescope(s2: np.ndarray, m: int, n: int, start: int, stop: int) -> np.ndarray:
    """sum_{k<m} C[i+k+n] - C[i+k] for start <= i < stop, where s2 is the
    running sum of C (s2[j] = C[0] + ... + C[j-1])."""
    check_at_least(0, m=m, n=n, i=start, horizon=stop - start)
    return (
        s2[start + m + n : stop + m + n]
        - s2[start + n : stop + n]
        - s2[start + m : stop + m]
        + s2[start:stop]
    )


def rect_counts(sums: np.ndarray, m: int, n: int, start: int, stop: int) -> np.ndarray:
    """The m x n rectangle counts at start <= i < stop of the letter whose
    running sum of prefix counts is `sums` (exact or modulo 2**32, as
    `Word.running_sum` returns it), as int32 when m*n < 2**31 and as int64
    otherwise; the int64 route needs the prefix counts below 2**31.

    Only sums[start : stop+m+n] is read; it must be there.
    """
    sums = sums.astype(np.uint32, copy=False)
    if m * n < 2**31:
        return telescope(sums, m, n, start, stop).view(np.int32)
    check_at_least(0, m=m, n=n, i=start, horizon=stop - start)
    counts = np.diff(sums[start : stop + m + n]).view(np.int32)
    s2 = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=s2[1:])
    return telescope(s2, m, n, 0, stop - start)


def scan_stop(kind: SequenceKind, m: int, n: int, horizon: int) -> tuple[int, bool]:
    """(stop, exhaustive) for a scan of the m x n rectangles of word(kind)
    over i < horizon: B = `words.cover_bound` of length m + n - 1 and True
    when B is at most the horizon and the B + m + n - 2 symbols its scan
    reads fit the budget, else the horizon and False."""
    bound = cover_bound(kind, m + n - 1)
    if bound <= horizon and bound + m + n - 2 <= limits.BUDGET:
        return bound, True
    return horizon, False


def word_counts(w: Word, letter: int, m: int, n: int, start: int, stop: int) -> np.ndarray:
    """`rect_counts` of one letter of word w."""
    check_at_least(0, m=m, n=n, i=start, horizon=stop - start)
    return rect_counts(w.running_sum(letter, stop + m + n), m, n, start, stop)


def _factor_weights(m: int, n: int) -> np.ndarray:
    """w[d] = min(d+1, m, n, m+n-1-d) for d < m + n - 1, in int64: the
    number of cells (k, l) of an m x n rectangle with k + l = d, all of
    which hold symbol d of the length-(m+n-1) factor at the rectangle's i."""
    weights = np.arange(1, m + n, dtype=np.int64)
    np.minimum(weights, weights[::-1], out=weights)
    return np.minimum(weights, min(m, n), out=weights)


def word_rect_sum(w: Word, i: int, m: int, n: int) -> int:
    """Sum of all entries of the rectangle at (i, m, n) over word w."""
    check_at_least(0, m=m, n=n, i=i)
    if not m or not n:
        return 0
    return int(_factor_weights(m, n) @ w.symbols(i + m + n - 1)[i:])


def word_letter_counts(w: Word, i: int, m: int, n: int) -> dict[int, int]:
    """Per-letter occurrence counts in the rectangle, read off the
    weighted factor at i; no running sum is built.  They sum to m*n, so
    letter 0's is the rest."""
    check_at_least(0, m=m, n=n, i=i)
    if not m or not n:
        return dict.fromkeys(w.alphabet, 0)
    weights, factor = _factor_weights(m, n), w.symbols(i + m + n - 1)[i:]
    counts = {c: int(weights @ (factor == c)) for c in w.alphabet if c}
    return {0: m * n - sum(counts.values()), **counts}
