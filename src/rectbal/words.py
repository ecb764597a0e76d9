"""Generators for the Fibonacci, Tribonacci (plus its 0/2 recoding) and
Thue-Morse words, with exact per-letter prefix counts.

The prefixes S_k = phi^k(0) = S_(k-1) phi^(k-1)(1) of the Fibonacci
(0 -> 01, 1 -> 0) and Tribonacci (0 -> 01, 1 -> 02, 2 -> 0) words are
concatenations: S_k = S_(k-1) S_(k-2) from "0", "01", and
S_k = S_(k-1) S_(k-2) S_(k-3) from "0", "01", "0102".

Words grow lazily in geometric blocks up to a configurable symbol budget
(RECTBAL_BUDGET environment variable, default 10**7).  For each letter that
is read, a word stores the running sum of its prefix counts C[t] (the
occurrences among the first t symbols), s[j] = C[0] + ... + C[j-1] modulo
2**32 in uint32, built over the whole built prefix on the first read and
again after each growth.  Every rectangle count is a telescope of s (see
`rectangles`), and any prefix count is an O(1) difference: the budget keeps
C below 2**31, so C[t] = s[t+1] - s[t] modulo 2**32 is exact.
"""
from __future__ import annotations

import operator
import os
from enum import Enum
from functools import lru_cache

import numpy as np


class BudgetExceeded(RuntimeError):
    """A request would grow a word beyond the configured symbol budget."""


MAX_BUDGET = 2**31 - 1  # prefix counts fit int32


def as_integer(name: str, value: int) -> int:
    """value as an int by operator.index, so Python and NumPy integers pass;
    ValueError naming the argument for anything else (3.5, 2.0, "7")."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def check_at_least(bound: int, /, **values: int) -> None:
    """Raise ValueError naming the first argument that is not an integer or
    is below bound."""
    for name, value in values.items():
        if as_integer(name, value) < bound:
            raise ValueError(f"{name} must be >= {bound}, got {value}")


def _checked_budget(budget: int, name: str = "budget") -> int:
    budget = as_integer(name, budget)
    if not 1 <= budget <= MAX_BUDGET:
        raise ValueError(f"{name} must be between 1 and {MAX_BUDGET}, got {budget}")
    return budget


def _env_budget() -> int:
    text = os.environ.get("RECTBAL_BUDGET", "10000000")
    try:
        budget = int(text)
    except ValueError:
        raise ValueError(f"RECTBAL_BUDGET must be an integer, got {text!r}") from None
    return _checked_budget(budget, "RECTBAL_BUDGET")


# The one symbol budget: every word and every table is held to it by
# check_budget, which reads it here, so set_budget reaches them all.
BUDGET = _env_budget()


def set_budget(budget: int) -> None:
    """Cap word generation length, and the size of every table."""
    global BUDGET
    BUDGET = _checked_budget(budget)


def check_budget(size: int, what: str) -> None:
    """Raise BudgetExceeded, naming `what`, if `size` passes the symbol
    budget."""
    if size > BUDGET:
        raise BudgetExceeded(f"{size} {what} requested, budget is {BUDGET}")


class SequenceKind(Enum):
    FIBONACCI = "fibonacci"
    TRIBONACCI = "tribonacci"
    TRIBONACCI_RECODED = "tribonacci2"
    THUE_MORSE = "thue-morse"


ALPHABETS = {
    SequenceKind.FIBONACCI: (0, 1),
    SequenceKind.TRIBONACCI: (0, 1, 2),
    SequenceKind.TRIBONACCI_RECODED: (0, 2),
    SequenceKind.THUE_MORSE: (0, 1),
}

_SEEDS = {
    SequenceKind.FIBONACCI: ("0", "01"),
    SequenceKind.TRIBONACCI: ("0", "01", "0102"),
}
_TM_COMPLEMENT = {ord("0"): "1", ord("1"): "0"}
_TRIB2_RECODE = {ord("1"): "0"}


def _generate(kind: SequenceKind, length: int) -> str:
    if kind is SequenceKind.THUE_MORSE:
        s = "0"
        while len(s) < length:
            s = s + s.translate(_TM_COMPLEMENT)
        return s[:length]
    if kind is SequenceKind.TRIBONACCI_RECODED:
        return _generate(SequenceKind.TRIBONACCI, length).translate(_TRIB2_RECODE)
    blocks = _SEEDS[kind]  # S_(k-r+1), ..., S_k
    while len(blocks[-1]) < length:
        blocks = blocks[1:] + ("".join(reversed(blocks)),)
    return blocks[-1][:length]


class Word:
    """Lazily materialized word.

    Immutable once a prefix is built; growing only appends.  Symbol arrays
    are uint8; each letter read has its uint32 running sum of prefix counts.
    """

    def __init__(self, kind: SequenceKind, prefix: str = ""):
        self.kind = kind
        self._prefix = prefix  # fixed symbols glued before the generated word
        self._syms = np.zeros(0, dtype=np.uint8)
        self._sums: dict[int, np.ndarray] = {}  # letter -> s over the built prefix

    def __len__(self) -> int:
        return len(self._syms)

    @property
    def alphabet(self) -> tuple[int, ...]:
        return ALPHABETS[self.kind]

    def ensure(self, length: int) -> None:
        # checked first, so a request's fate does not depend on what was built
        check_budget(length, "symbols")
        if length <= len(self._syms):
            return
        target = min(BUDGET, max(length, 2 * len(self._syms), 1 << 12))
        body = _generate(self.kind, max(target - len(self._prefix), 0))
        text = (self._prefix + body)[:target]
        self._syms = np.frombuffer(text.encode("ascii"), dtype=np.uint8) - ord("0")
        self._sums.clear()

    def symbols(self, length: int) -> np.ndarray:
        check_at_least(0, length=length)
        self.ensure(length)
        return self._syms[:length]

    def symbol(self, i: int) -> int:
        check_at_least(0, i=i)
        self.ensure(i + 1)
        return int(self._syms[i])

    def running_sum(self, letter: int, size: int) -> np.ndarray:
        """s[:size] as uint32, s[j] = C[0] + ... + C[j-1] modulo 2**32 with
        C[t] the occurrences of `letter` in [0, t), so it needs the first
        size - 2 symbols.  Built over the whole built prefix on first read."""
        check_at_least(0, size=size)
        if letter not in self.alphabet:
            raise ValueError(f"letter must be one of {self.alphabet}, got {letter}")
        self.ensure(size - 2)
        s = self._sums.get(letter)
        if s is None:
            s = np.zeros(len(self._syms) + 2, dtype=np.uint32)
            np.cumsum(self._syms == letter, dtype=np.uint32, out=s[2:])  # C[1:]
            np.cumsum(s[2:], out=s[2:])
            self._sums[letter] = s
        return s[:size]

    def count_table(self, letter: int, length: int) -> np.ndarray:
        """Cumulative count array t -> occurrences of letter in [0, t), t <= length."""
        check_at_least(0, length=length)
        return np.diff(self.running_sum(letter, length + 2)).view(np.int32)


@lru_cache(maxsize=None)
def word(kind: SequenceKind) -> Word:
    return Word(kind)


@lru_cache(maxsize=None)
def sturmian_a_word() -> Word:
    """The Fibonacci word prefixed with a 0: a_0 = 0, a_i = f_{i-1}."""
    return Word(SequenceKind.FIBONACCI, prefix="0")
