"""The Thue-Morse closed forms, with no numpy: the prefix count C(y), its
running sum S(x), and the scalar queries built on them, which read no word
and answer at any i.

Adjacent positions pair to sum 1 (t at 2k and 2k+1 differ), so C(y) =
floor(y/2) + [y odd] * t_{y-1} (Allouche and Shallit, *Automatic
Sequences*, 2003), and S(x) telescopes over the pairs too.  ``excess`` is
the signed excess s = 2*count_1 - m*n of the rectangle at i telescoped over
S; ``excess_even_even`` and ``excess_parity_reduced`` are the parity-split
formulas built on ``factor_sum``'s counts, each checking its arguments
once.  ``tm_balance``, whose horizon scans the tests check these against,
imports ``excess`` and ``excess_parity_reduced``; ``rectbal tm excess``
loads no numpy.
"""
from __future__ import annotations

from .limits import check_at_least


class ParityViolation(ValueError):
    """An even-index-only formula was fed an odd argument."""


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


def _ones_in(start: int, stop: int) -> int:
    """Number of 1s among t_start .. t_{stop-1}, for 0 <= start <= stop."""
    return _ones_before(stop) - _ones_before(start)


def factor_sum(start: int, length: int) -> int:
    """Number of 1s among t_start .. t_{start+length-1}; reads no word."""
    check_at_least(0, start=start, length=length)
    return _ones_in(int(start), int(start) + int(length))


def excess(i: int, m: int, n: int) -> int:
    """2 * count_1(rectangle at i) - m*n, the count telescoped over S; reads
    no word, so it answers at any i."""
    check_at_least(0, i=i, m=m, n=n)
    i, m, n = int(i), int(m), int(n)
    ones = _ones_sum(i + m + n) - _ones_sum(i + n) - _ones_sum(i + m) + _ones_sum(i)
    return 2 * ones - m * n


def _even_even(i: int, m: int, n: int) -> int:
    """s = 2*(b - a) for i, m, n all even, where a sums t over
    [i/2, (i+m)/2) and b over [(i+n)/2, (i+m+n)/2)."""
    return 2 * (_ones_in((i + n) // 2, (i + m + n) // 2) - _ones_in(i // 2, (i + m) // 2))


def excess_even_even(i: int, m: int, n: int) -> int:
    """The excess s for i, m, n all even; ``ParityViolation`` otherwise."""
    check_at_least(0, i=i, m=m, n=n)
    if i % 2 or m % 2 or n % 2:
        raise ParityViolation(f"all of i, m, n must be even: ({i}, {m}, {n})")
    return _even_even(int(i), int(m), int(n))


def excess_parity_reduced(i: int, m: int, n: int) -> int:
    """Excess via the parity-case formulas: an odd i peels the first row, an
    odd n then the last column and an odd m the last row, each peel adding
    2*ones - length, and the even rest is ``excess_even_even``'s."""
    check_at_least(0, i=i, m=m, n=n)
    i, m, n = int(i), int(m), int(n)
    s = 0
    if i % 2 and m:  # s(i, m, n) = s(i+1, m-1, n) + 2*row - n
        s += 2 * _ones_in(i, i + n) - n
        i, m = i + 1, m - 1
    if n % 2:  # the last column, m cells from t_{i+n-1}
        s += 2 * _ones_in(i + n - 1, i + n - 1 + m) - m
        n -= 1
    if m % 2:  # the last row, n cells from t_{i+m-1}
        s += 2 * _ones_in(i + m - 1, i + m - 1 + n) - n
        m -= 1
    return s + _even_even(i, m, n)
