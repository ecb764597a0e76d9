"""Thue-Morse rectangle balance via the signed excess s = 2*count_1 - m*n.

Adjacent positions pair to sum 1 (t at 2k and 2k+1 differ), so all but at
most four entries of any rectangle cancel and |s| <= 4.  The same pairing
gives the prefix count C(y) = floor(y/2) + [y odd] * t_{y-1} (Allouche and
Shallit, *Automatic Sequences*, 2003) and its running sum S(x) in closed
form, so the scalar queries `factor_sum`, `excess` and the parity-split
formulas built on `factor_sum` read no word and answer at any i.
`excess_profile` scans the stored running sums of the generated word
instead, a route of its own that the tests check the closed forms against.

Extremes come from horizon scans that stop at the cover bound B of length
m + n - 1 (`words.cover_bound`) when it fits (`rectangles.scan_stop`): every
factor of that length starts below B, so an exhaustive scan's extremes are
those over all i, and any other scan's are reported with their horizon.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import words
from .rectangles import scan_stop, word_counts
from .words import SequenceKind, check_at_least, word


class ParityViolation(ValueError):
    """An even-index-only formula was fed an odd argument."""


@dataclass(frozen=True)
class ExcessProfile:
    m: int
    n: int
    horizon: int
    min_s: int
    max_s: int
    exhaustive: bool = False  # the scan saw every factor of length m + n - 1

    @property
    def balance(self) -> int:
        """Largest count_1 difference seen between two same-shape rectangles."""
        return (self.max_s - self.min_s) // 2


def _ones(m: int, n: int, start: int, stop: int) -> np.ndarray:
    """Counts of 1 in the m x n rectangles at start <= i < stop."""
    return word_counts(word(SequenceKind.THUE_MORSE), 1, m, n, start, stop)


def _ones_before(y: int) -> int:
    """C(y), the number of 1s among t_0 .. t_{y-1}: each pair t_{2k} t_{2k+1}
    holds one 1, so C(y) = floor(y/2) + [y odd] * t_{y-1}, with t_j the
    parity of popcount(j)."""
    return y // 2 + (y % 2) * ((y - 1).bit_count() % 2)


def _ones_sum(x: int) -> int:
    """S(x) = C(0) + ... + C(x-1) = a(a-1) + b*a + C(a), a = floor(x/2) and
    b = x mod 2: C(2k) + C(2k+1) = 2k + t_{2k}, and t_{2k} = t_k."""
    a, b = divmod(x, 2)
    return a * (a - 1) + b * a + _ones_before(a)


def factor_sum(start: int, length: int) -> int:
    """Number of 1s among t_start .. t_{start+length-1}; reads no word."""
    check_at_least(0, start=start, length=length)
    return _ones_before(int(start) + int(length)) - _ones_before(int(start))


def excess(i: int, m: int, n: int) -> int:
    """2 * count_1(rectangle at i) - m*n, the count telescoped over S; reads
    no word, so it answers at any i."""
    check_at_least(0, i=i, m=m, n=n)
    i, m, n = int(i), int(m), int(n)
    ones = _ones_sum(i + m + n) - _ones_sum(i + n) - _ones_sum(i + m) + _ones_sum(i)
    return 2 * ones - m * n


def excess_even_even(i: int, m: int, n: int) -> int:
    """s = 2*(b - a) for i, m, n all even, where a sums t over
    [i/2, (i+m)/2) and b over [(i+n)/2, (i+m+n)/2)."""
    check_at_least(0, i=i, m=m, n=n)
    if i % 2 or m % 2 or n % 2:
        raise ParityViolation(f"all of i, m, n must be even: ({i}, {m}, {n})")
    a = factor_sum(i // 2, (i + m) // 2 - i // 2)
    b = factor_sum((i + n) // 2, (i + m + n) // 2 - (i + n) // 2)
    return 2 * (b - a)


def excess_parity_reduced(i: int, m: int, n: int) -> int:
    """Excess via the parity-case formulas; odd i peels the first row."""
    check_at_least(0, i=i, m=m, n=n)
    if m == 0 or n == 0:
        return 0
    if i % 2:
        # removing the first row: s(i,m,n) = s(i+1,m-1,n) + 2*row - n
        row = factor_sum(i, n)
        return excess_parity_reduced(i + 1, m - 1, n) + 2 * row - n
    if m % 2 == 0 and n % 2 == 0:
        return excess_even_even(i, m, n)
    if n % 2:  # strip the last column
        a = excess_parity_reduced(i, m, n - 1)
        b = factor_sum(i + n - 1, m)
        return a + 2 * b - m
    # m odd, n even: strip the last row
    a = excess_parity_reduced(i, m - 1, n)
    b = factor_sum(i + m - 1, n)
    return a + 2 * b - n


def default_horizon(m: int, n: int) -> int:
    """10^5, scaled up to 2**(ceil(log2(m*n)) + 6) for large rectangles,
    and capped so that the scan stays within the symbol budget."""
    check_at_least(1, m=m, n=n)
    scaled = 1 << (int(m * n - 1).bit_length() + 6)
    return min(max(100_000, scaled), max(1, words.BUDGET - (m + n)))


def excess_profile(m: int, n: int, horizon: int | None = None) -> ExcessProfile:
    """Min/max excess over i < horizon, scanned up to the cover bound when
    it fits (`scan_stop`).  The derived balance class is the true supremum
    spread when the scan was exhaustive, and a horizon-bounded estimate
    otherwise."""
    check_at_least(1, m=m, n=n)
    if horizon is None:
        horizon = default_horizon(m, n)
    check_at_least(1, horizon=horizon)
    stop, exhaustive = scan_stop(SequenceKind.THUE_MORSE, m, n, horizon)
    counts = _ones(m, n, 0, stop)
    lo, hi = (2 * int(c) - m * n for c in (counts.min(), counts.max()))
    return ExcessProfile(m, n, horizon, lo, hi, exhaustive)


def excess_class_parity_check(max_dim: int, horizon: int = 100_000) -> bool:
    """Balance class equals 3 exactly for odd m and odd n, 3 <= m, n <= max_dim.

    Odd m*n makes the excess odd (so at most 3 in absolute value); the scan
    confirms both that 3 is achieved there and never elsewhere.  Each shape
    is decided when its profile is exhaustive, as every shape with
    max_dim <= 4096 is at the default horizon and budget.  Counts are
    symmetric under transpose, so only n >= m is scanned.
    """
    check_at_least(3, max_dim=max_dim)
    check_at_least(1, horizon=horizon)
    for m in range(3, max_dim + 1):
        for n in range(m, max_dim + 1):
            profile = excess_profile(m, n, horizon)
            if (profile.balance == 3) != (m % 2 == 1 and n % 2 == 1):
                return False
    return True
