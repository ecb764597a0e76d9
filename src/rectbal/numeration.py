"""Zeckendorf, Tribonacci and base-(-2) numeration systems.

Digit strings are ASCII '0'/'1', most significant digit first; zero is the
empty string.  Zeckendorf digit positions j >= 2 carry Fibonacci weights
with F_2 = 1, F_3 = 2, so e.g. 4 = F_4 + F_2 = "101" and 18 = "101000".
"""
from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from .words import check_nonnegative


class InvalidRepresentation(ValueError):
    """Digit string violates the numeration system's digit constraints."""


class EmptyExpansion(ValueError):
    """Requested the summand indices of zero, which has none."""


_FIBS = [0, 1]  # _FIBS[j] = F_j


def fibonacci(j: int) -> int:
    """F_j with F_0 = 0, F_1 = F_2 = 1, F_3 = 2."""
    while len(_FIBS) <= j:
        _FIBS.append(_FIBS[-1] + _FIBS[-2])
    return _FIBS[j]


_TRIBS = [1, 2, 4]  # _TRIBS[j] = weight of digit position j


def tribonacci(j: int) -> int:
    """Tribonacci weight of position j: 1, 2, 4, 7, 13, 24, ..."""
    while len(_TRIBS) <= j:
        _TRIBS.append(_TRIBS[-1] + _TRIBS[-2] + _TRIBS[-3])
    return _TRIBS[j]


@dataclass(frozen=True)
class DigitRep:
    """A digit string (most significant first) and the value it encodes."""

    digits: str
    value: int

    def __str__(self) -> str:
        return self.digits or "0"


@dataclass(frozen=True)
class FibIndexList:
    """Zeckendorf summand indices a_1 > a_2 > ... >= 2, no two consecutive."""

    indices: tuple[int, ...]

    def __post_init__(self) -> None:
        idx = self.indices
        for prev, nxt in zip(idx, idx[1:]):
            if nxt >= prev - 1:
                raise InvalidRepresentation(f"indices not sparse-decreasing: {idx}")
        if idx and idx[-1] < 2:
            raise InvalidRepresentation(f"indices must be >= 2: {idx}")


def fib_index_list(n: int) -> FibIndexList:
    """Descending Zeckendorf summand indices of n >= 1 (greedy)."""
    if n <= 0:
        raise EmptyExpansion("n must be >= 1")
    j = 2
    while fibonacci(j + 1) <= n:
        j += 1
    out = []
    while n > 0:
        while fibonacci(j) > n:
            j -= 1
        out.append(j)
        n -= fibonacci(j)
        j -= 2
    return FibIndexList(tuple(out))


def zeck_encode(n: int) -> DigitRep:
    """Canonical Zeckendorf digits of n (greedy; empty string for 0)."""
    if n < 0:
        raise ValueError("n must be a natural number")
    if n == 0:
        return DigitRep("", 0)
    idx = fib_index_list(n).indices
    top = idx[0]
    digits = ["0"] * (top - 1)  # positions top, top-1, ..., 2
    for j in idx:
        digits[top - j] = "1"
    return DigitRep("".join(digits), n)


def _decode(
    digits: str | DigitRep, weight: Callable[[int], int], run: str = "", rule: str = ""
) -> int:
    """Sum of weight(pos) over the 1 digits of a binary string, pos counted
    from the least significant digit; rejects the forbidden run of 1s."""
    if isinstance(digits, DigitRep):
        digits = digits.digits
    if any(c not in "01" for c in digits):
        raise InvalidRepresentation(f"not a binary digit string: {digits!r}")
    if run and run in digits:
        raise InvalidRepresentation(f"{rule}: {digits!r}")
    return sum(weight(pos) for pos, c in enumerate(reversed(digits)) if c == "1")


def zeck_decode(digits: str | DigitRep) -> int:
    """Value of a Zeckendorf digit string; rejects adjacent 1 digits."""
    return _decode(digits, lambda pos: fibonacci(pos + 2), "11", "adjacent 1 digits")


def zeck_shift(n: int) -> int:
    """Value of the Zeckendorf digits of n moved one position up (F_j -> F_{j+1})."""
    if n < 0:
        raise ValueError("n must be a natural number")
    if n == 0:
        return 0
    return sum(fibonacci(j + 1) for j in fib_index_list(n).indices)


def trib_encode(n: int) -> DigitRep:
    """Greedy Tribonacci digits of n (no three consecutive 1 digits)."""
    if n < 0:
        raise ValueError("n must be a natural number")
    if n == 0:
        return DigitRep("", 0)
    j = 0
    while tribonacci(j + 1) <= n:
        j += 1
    digits = []
    rem = n
    for pos in range(j, -1, -1):
        w = tribonacci(pos)
        if w <= rem:
            digits.append("1")
            rem -= w
        else:
            digits.append("0")
    return DigitRep("".join(digits), n)


def trib_decode(digits: str | DigitRep) -> int:
    """Value of a Tribonacci digit string; rejects three consecutive 1 digits."""
    return _decode(digits, tribonacci, "111", "three consecutive 1 digits")


def negabin_encode(n: int) -> DigitRep:
    """Base-(-2) digits of any integer (canonical, no leading zeros)."""
    if n == 0:
        return DigitRep("", 0)
    value = n
    digits = []
    while n != 0:
        n, r = divmod(n, -2)
        if r < 0:
            n, r = n + 1, r + 2
        digits.append(str(r))
    return DigitRep("".join(reversed(digits)), value)


def negabin_decode(digits: str | DigitRep) -> int:
    """Value of a base-(-2) digit string."""
    return _decode(digits, lambda pos: (-2) ** pos)


def pair_encode(m: int, n: int) -> list[tuple[int, int]]:
    """Zip the Zeckendorf digits of m and n msd-first, padding the shorter with 0s."""
    check_nonnegative(m=m, n=n)
    dm, dn = zeck_encode(m).digits, zeck_encode(n).digits
    width = max(len(dm), len(dn))
    return [(int(a), int(b)) for a, b in zip(dm.rjust(width, "0"), dn.rjust(width, "0"))]


def pair_decode(word: list[tuple[int, int]]) -> tuple[int, int]:
    """Values of both tracks of a padded pair word; each track is validated."""
    dm = "".join(str(a) for a, _ in word)
    dn = "".join(str(b) for _, b in word)
    return zeck_decode(dm), zeck_decode(dn)


def format_pair_word(word: list[tuple[int, int]]) -> str:
    """Render a pair word as [0,1][0,0]... matching the digit-pair convention."""
    return "".join(f"[{a},{b}]" for a, b in word)
