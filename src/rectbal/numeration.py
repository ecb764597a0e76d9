"""Zeckendorf, Tribonacci and base-(-2) numeration systems.

Digit strings are ASCII '0'/'1', most significant digit first; zero is the
empty string.  Zeckendorf digit positions j >= 2 carry Fibonacci weights
with F_2 = 1, F_3 = 2, so e.g. 4 = F_4 + F_2 = "101" and 18 = "101000".
"""
from __future__ import annotations

from bisect import bisect_right
from collections.abc import Callable

from .limits import as_integer, check_at_least


class InvalidRepresentation(ValueError):
    """Digit string violates the numeration system's digit constraints."""


class EmptyExpansion(ValueError):
    """Requested the summand indices of zero, which has none."""


_FIBS = [0, 1]  # _FIBS[j] = F_j, grown only by _fibs_past


def _fibs_past(n: int) -> list[int]:
    """The cached Fibonacci list, grown until its last entry exceeds n."""
    while _FIBS[-1] <= n:
        _FIBS.append(_FIBS[-1] + _FIBS[-2])
    return _FIBS


def fibonacci(j: int) -> int:
    """F_j with F_0 = 0, F_1 = F_2 = 1, F_3 = 2."""
    if type(j) is not int or j < 0:  # a plain natural index, the hot case, is valid
        check_at_least(0, j=j)
    while len(_FIBS) <= j:
        _fibs_past(_FIBS[-1])
    return _FIBS[j]


_TRIBS = [1, 2, 4]  # _TRIBS[j] = weight of digit position j


def tribonacci(j: int) -> int:
    """Tribonacci weight of position j: 1, 2, 4, 7, 13, 24, ..."""
    if type(j) is not int or j < 0:  # a plain natural index, the hot case, is valid
        check_at_least(0, j=j)
    while len(_TRIBS) <= j:
        _TRIBS.append(_TRIBS[-1] + _TRIBS[-2] + _TRIBS[-3])
    return _TRIBS[j]


def fib_index_list(n: int) -> tuple[int, ...]:
    """Descending Zeckendorf summand indices a_1 > a_2 > ... >= 2 of n >= 1,
    no two consecutive (greedy): each is found by bisection in the cached
    Fibonacci list."""
    n = as_integer("n", n)
    if n <= 0:
        raise EmptyExpansion("n must be >= 1")
    fibs = _fibs_past(n)
    out = []
    while n:
        j = bisect_right(fibs, n) - 1  # the last F_j <= n; for n = 1 that is F_2
        out.append(j)
        n -= fibs[j]
    return tuple(out)


def zeck_encode(n: int) -> str:
    """Canonical Zeckendorf digits of n: its track of pair_encode(0, n)."""
    return "".join("1" if b else "0" for _, b in pair_encode(0, n))


def _decode(digits: str, weight: Callable[[int], int], run: str = "", rule: str = "") -> int:
    """Sum of weight(pos) over the 1 digits of a binary string, pos counted
    from the least significant digit; rejects the forbidden run of 1s."""
    if not isinstance(digits, str):
        raise ValueError(f"digits must be a string, got {digits!r}")
    if any(c not in "01" for c in digits):
        raise InvalidRepresentation(f"not a binary digit string: {digits!r}")
    if run and run in digits:
        raise InvalidRepresentation(f"{rule}: {digits!r}")
    return sum(weight(pos) for pos, c in enumerate(reversed(digits)) if c == "1")


def zeck_decode(digits: str) -> int:
    """Value of a Zeckendorf digit string; rejects adjacent 1 digits."""
    return _decode(digits, lambda pos: fibonacci(pos + 2), "11", "adjacent 1 digits")


def zeck_shift(n: int) -> int:
    """Value of the Zeckendorf digits of n moved one position up (F_j -> F_{j+1})."""
    check_at_least(0, n=n)
    if n == 0:
        return 0
    fibs = _fibs_past(n)  # holds F_{top+1}
    return sum(fibs[j + 1] for j in fib_index_list(n))


def trib_encode(n: int) -> str:
    """Greedy Tribonacci digits of n (no three consecutive 1 digits)."""
    check_at_least(0, n=n)
    length = 0
    while tribonacci(length) <= n:
        length += 1
    digits = []
    rem = n
    for pos in range(length - 1, -1, -1):
        w = tribonacci(pos)
        if w <= rem:
            digits.append("1")
            rem -= w
        else:
            digits.append("0")
    return "".join(digits)


def trib_decode(digits: str) -> int:
    """Value of a Tribonacci digit string; rejects three consecutive 1 digits."""
    return _decode(digits, tribonacci, "111", "three consecutive 1 digits")


def negabin_encode(n: int) -> str:
    """Base-(-2) digits of any integer (canonical, no leading zeros)."""
    n = as_integer("n", n)
    digits = []
    while n:
        n, r = divmod(n, -2)
        if r < 0:
            n, r = n + 1, r + 2
        digits.append(str(r))
    return "".join(reversed(digits))


def negabin_decode(digits: str) -> int:
    """Value of a base-(-2) digit string."""
    return _decode(digits, lambda pos: (-2) ** pos)


SYMBOLS: tuple[tuple[int, int], ...] = ((0, 0), (0, 1), (1, 0), (1, 1))
_S00, _S01, _S10, _S11 = SYMBOLS
_PAIRS = frozenset(SYMBOLS)


def pair_encode(m: int, n: int) -> list[tuple[int, int]]:
    """The Zeckendorf digits of m and n, zipped msd-first, the shorter padded
    with 0s.

    One greedy pass over the positions top, ..., 2 of the larger value takes
    F_j from each track that is still at least F_j; every element is one of
    the four shared SYMBOLS tuples.
    """
    check_at_least(0, m=m, n=n)
    top = m if m > n else n
    fibs = _fibs_past(top)
    word: list[tuple[int, int]] = []
    append = word.append
    for f in fibs[bisect_right(fibs, top) - 1 : 1 : -1]:  # empty for top = 0
        if m >= f:
            m -= f
            if n >= f:
                n -= f
                append(_S11)
            else:
                append(_S10)
        elif n >= f:
            n -= f
            append(_S01)
        else:
            append(_S00)
    return word


def check_pair_word(word) -> tuple[tuple[int, int], ...]:
    """The symbols of ``word`` as a tuple of pairs, read once; ValueError
    naming ``word`` unless each is one of the four SYMBOLS pairs."""
    try:
        pairs = tuple(map(tuple, word))
        if _PAIRS.issuperset(pairs):
            return pairs
    except TypeError:  # word, or one of its symbols, is not iterable or hashable
        pass
    raise ValueError(f"word must be a list of digit pairs, got {word!r}")


def pair_decode(word: list[tuple[int, int]]) -> tuple[int, int]:
    """Values of both tracks of a padded pair word; each track is validated."""
    pairs = check_pair_word(word)
    dm, dn = ("".join(str(pair[track]) for pair in pairs) for track in (0, 1))
    return zeck_decode(dm), zeck_decode(dn)


def format_pair_word(word: list[tuple[int, int]]) -> str:
    """Render a pair word as [0,1][0,0]... matching the digit-pair convention."""
    return "".join(f"[{a},{b}]" for a, b in check_pair_word(word))
