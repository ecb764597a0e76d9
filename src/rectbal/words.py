"""Generators for the Fibonacci, Tribonacci (plus its 0/2 recoding) and
Thue-Morse words, with exact per-letter prefix-count tables.

The prefixes S_k = phi^k(0) = S_(k-1) phi^(k-1)(1) of the Fibonacci
(0 -> 01, 1 -> 0) and Tribonacci (0 -> 01, 1 -> 02, 2 -> 0) words are
concatenations: S_k = S_(k-1) S_(k-2) from "0", "01", and
S_k = S_(k-1) S_(k-2) S_(k-3) from "0", "01", "0102".

Words grow lazily in geometric blocks up to a configurable symbol budget
(RECTBAL_BUDGET environment variable, default 10**7).  Cumulative count
tables are maintained alongside the symbols so any prefix count is an O(1)
lookup.
"""
from __future__ import annotations

import os
from enum import Enum
from functools import lru_cache

import numpy as np


class BudgetExceeded(RuntimeError):
    """A request would grow a word beyond the configured symbol budget."""


MAX_BUDGET = 2**31 - 1  # count tables are int32


def check_nonnegative(**values: int) -> None:
    """Raise ValueError naming the first argument that is negative."""
    for name, value in values.items():
        if value < 0:
            raise ValueError(f"{name} must be >= 0, got {value}")


def _checked_budget(budget: int, name: str = "budget") -> int:
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


DEFAULT_BUDGET = _env_budget()


def set_budget(budget: int) -> None:
    """Cap word generation length for new and already-built words."""
    global DEFAULT_BUDGET
    DEFAULT_BUDGET = _checked_budget(budget)
    for w in _live_words():
        w.budget = budget


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
    """Lazily materialized word with O(1) prefix-count queries.

    Immutable once a prefix is built; growing only appends.  Symbol arrays
    are uint8, count tables int32 cumulative sums of per-letter indicators
    (the budget keeps every count below 2**31).
    """

    def __init__(self, kind: SequenceKind, budget: int | None = None, prefix: str = ""):
        self.kind = kind
        self.budget = DEFAULT_BUDGET if budget is None else _checked_budget(budget)
        self._prefix = prefix  # fixed symbols glued before the generated word
        self._syms = np.zeros(0, dtype=np.uint8)
        self._counts = {c: np.zeros(1, dtype=np.int32) for c in self.alphabet}

    def __len__(self) -> int:
        return len(self._syms)

    @property
    def alphabet(self) -> tuple[int, ...]:
        return ALPHABETS[self.kind]

    def ensure(self, length: int) -> None:
        if length <= len(self._syms):
            return
        if length > self.budget:
            raise BudgetExceeded(
                f"{length} symbols requested, budget is {self.budget}"
            )
        target = min(self.budget, max(length, 2 * len(self._syms), 1 << 12))
        body = _generate(self.kind, max(target - len(self._prefix), 0))
        text = (self._prefix + body)[:target]
        self._syms = np.frombuffer(text.encode("ascii"), dtype=np.uint8) - ord("0")
        for c in self.alphabet:
            table = np.zeros(len(self._syms) + 1, dtype=np.int32)
            np.cumsum(self._syms == c, dtype=np.int32, out=table[1:])
            self._counts[c] = table

    def symbols(self, length: int) -> np.ndarray:
        check_nonnegative(length=length)
        self.ensure(length)
        return self._syms[:length]

    def symbol(self, i: int) -> int:
        check_nonnegative(i=i)
        self.ensure(i + 1)
        return int(self._syms[i])

    def prefix_count(self, letter: int, k: int) -> int:
        """Occurrences of `letter` among the first k symbols."""
        check_nonnegative(k=k)
        self.ensure(k)
        return int(self._counts[letter][k])

    def count_table(self, letter: int, length: int) -> np.ndarray:
        """Cumulative count array t -> occurrences of letter in [0, t), t <= length."""
        check_nonnegative(length=length)
        self.ensure(length)
        return self._counts[letter][: length + 1]


@lru_cache(maxsize=None)
def word(kind: SequenceKind) -> Word:
    return Word(kind)


@lru_cache(maxsize=None)
def sturmian_a_word() -> Word:
    """The Fibonacci word prefixed with a 0: a_0 = 0, a_i = f_{i-1}."""
    return Word(SequenceKind.FIBONACCI, prefix="0")


def _live_words() -> list[Word]:
    built = [word(kind) for kind in SequenceKind]
    built.append(sturmian_a_word())
    return built


def fib_symbol(i: int) -> int:
    """f_i, cross-checked: floor((i+2)*gamma) - floor((i+1)*gamma) vs the morphism."""
    from .exact_quadratic import floor_n_gamma

    check_nonnegative(i=i)
    via_floor = floor_n_gamma(i + 2) - floor_n_gamma(i + 1)
    via_morphism = word(SequenceKind.FIBONACCI).symbol(i)
    assert via_floor == via_morphism, f"fibonacci word routes disagree at i={i}"
    return via_floor


def sturmian_a_symbol(i: int) -> int:
    """a_0 = 0 and a_i = f_{i-1} for i >= 1."""
    return sturmian_a_word().symbol(i)


def trib_symbol(i: int) -> int:
    return word(SequenceKind.TRIBONACCI).symbol(i)


def trib2_symbol(i: int) -> int:
    """Tribonacci word with 0,1 -> 0 and 2 -> 2."""
    return word(SequenceKind.TRIBONACCI_RECODED).symbol(i)


def tm_symbol(i: int) -> int:
    """Thue-Morse t_i: parity of popcount(i), cross-checked against the morphism."""
    via_popcount = bin(i).count("1") & 1
    via_morphism = word(SequenceKind.THUE_MORSE).symbol(i)
    assert via_popcount == via_morphism, f"thue-morse routes disagree at i={i}"
    return via_popcount

