"""Generators for the Fibonacci, Tribonacci (plus its 0/2 recoding) and
Thue-Morse words, with exact per-letter prefix counts and a bound below
which every factor of a given length starts.

The prefixes S_k = phi^k(0) = S_(k-1) phi^(k-1)(1) of the Fibonacci
(0 -> 01, 1 -> 0) and Tribonacci (0 -> 01, 1 -> 02, 2 -> 0) words are
concatenations: S_k = S_(k-1) S_(k-2) from "0", "01", and
S_k = S_(k-1) S_(k-2) S_(k-3) from "0", "01", "0102".  Each S_j is a
prefix of the word, so `_generate` builds it in one preallocated uint8
array by copying the array's own prefixes.  Thue-Morse doubles by
t_(k+j) = 1 - t_j for j < k, k a power of two, and the 0/2 recoding of
Tribonacci masks its symbols with 2.

Words grow lazily in geometric blocks up to the symbol budget
(`limits.BUDGET`).  For each letter that is read, a word stores the running
sum of its prefix counts C[t] (the occurrences among the first t symbols),
s[j] = C[0] + ... + C[j-1] modulo 2**32 in uint32.  The stored s grows
geometrically and only as far as it is read, and a growing word only
appends, so a stored s stays valid.  Every rectangle count is a telescope
of s (see `rectangles`), and any prefix count is an O(1) difference: the
budget keeps C below 2**31, so C[t] = s[t+1] - s[t] modulo 2**32 is exact.

`cover_bound` gives, for the Tribonacci and Thue-Morse words, a B(L) such
that every factor of length L starts below B(L), by a lemma on the word's
morphism in O(log L) integer operations; it reads no word.  A horizon scan
of a function of the length-L factor at i sees every value once it passes
B(L).
"""
from __future__ import annotations

from enum import Enum
from functools import lru_cache

import numpy as np

from . import limits
from .limits import check_at_least, check_budget


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

_SEEDS = {  # the seed S_k and the lengths |S_(k-r+1)|, ..., |S_k|
    SequenceKind.FIBONACCI: ((0, 1), (1, 2)),
    SequenceKind.TRIBONACCI: ((0, 1, 0, 2), (1, 2, 4)),
}


def _generate(kind: SequenceKind, length: int) -> np.ndarray:
    """The first `length` symbols of word(kind) as uint8, built in place:
    each step appends copies of the word's own prefixes."""
    out = np.empty(length, dtype=np.uint8)
    if kind is SequenceKind.THUE_MORSE:
        # t_(k+j) = 1 - t_j for j < k, k a power of two
        out[:1] = 0
        k = 1
        while k < length:
            size = min(k, length - k)
            np.bitwise_xor(out[:size], 1, out=out[k : k + size])
            k *= 2
        return out
    if kind is SequenceKind.TRIBONACCI_RECODED:
        out = _generate(SequenceKind.TRIBONACCI, length)
        return np.bitwise_and(out, 2, out=out)  # 1 -> 0, 0 and 2 stay
    seed, sizes = _SEEDS[kind]
    done = min(len(seed), length)
    out[:done] = seed[:done]
    while done < length:
        # S_(k+1) = S_k S_(k-1) (S_(k-2)), and each S_j is a prefix of the word
        for size in reversed(sizes[:-1]):
            size = min(size, length - done)
            out[done : done + size] = out[:size]
            done += size
        sizes = sizes[1:] + (sum(sizes),)
    return out


class Word:
    """Lazily materialized word.

    Immutable once a prefix is built; growing only appends.  Symbol arrays
    are uint8; each letter read has its uint32 running sum of prefix counts.
    """

    def __init__(self, kind: SequenceKind, prefix: str = ""):
        self.kind = kind
        # fixed symbols glued before the generated word
        self._prefix = np.array([int(c) for c in prefix], dtype=np.uint8)
        self._syms = np.zeros(0, dtype=np.uint8)
        self._sums: dict[int, np.ndarray] = {}  # letter -> s as far as it was read

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
        target = min(limits.BUDGET, max(length, 2 * len(self._syms), 1 << 12))
        body = _generate(self.kind, max(target - len(self._prefix), 0))
        self._syms = np.concatenate((self._prefix[:target], body)) if len(self._prefix) else body

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
        size - 2 symbols.  The stored s of length k grows to at least twice
        k, within the built word, by continuing both cumsums from C[k-2] =
        s[k-1] - s[k-2] and s[k-1], in uint32 array arithmetic (it wraps
        modulo 2**32 without a warning on every numpy version)."""
        check_at_least(0, size=size)
        if letter not in self.alphabet:
            raise ValueError(f"letter must be one of {self.alphabet}, got {letter}")
        self.ensure(size - 2)
        s = self._sums.setdefault(letter, np.zeros(2, dtype=np.uint32))
        k = len(s)
        if size > k:
            grown = np.empty(min(max(size, 2 * k, 1 << 12), len(self._syms) + 2), dtype=np.uint32)
            grown[:k] = s
            tail = grown[k:]  # tail[x]: C[k-1+x] - C[k-2], then C[k-1+x], then s[k+x]
            np.cumsum(self._syms[k - 2 : len(grown) - 2] == letter, dtype=np.uint32, out=tail)
            tail += s[k - 1 :] - s[k - 2 : k - 1]
            np.cumsum(tail, dtype=np.uint32, out=tail)
            tail += s[k - 1 :]
            self._sums[letter] = s = grown
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


@lru_cache(maxsize=None)
def _factor_ranks(kind: SequenceKind, limit: int, length: int) -> np.ndarray:
    """r[x] = rank of the factor of word(kind) of the given power-of-two
    length at x among those inside the first `limit` symbols (prefix
    doubling: a factor of length 2L is the pair of its two halves)."""
    if length == 1:
        keys = word(kind).symbols(limit)
    else:
        half = _factor_ranks(kind, limit, length // 2)
        keys = half[: len(half) - length // 2] * (int(half.max()) + 1) + half[length // 2 :]
    return np.unique(keys, return_inverse=True)[1]


def factor_keys(kind: SequenceKind, limit: int, length: int, starts: np.ndarray) -> np.ndarray:
    """Integer keys, equal exactly when the length-`length` factors of
    word(kind) at `starts`, all inside the first `limit` symbols, are: a
    factor of length L <= length < 2L is fixed by its first and last L
    symbols."""
    if length == 0:
        return np.zeros(len(starts), dtype=np.int64)
    half = 1 << (length.bit_length() - 1)
    r = _factor_ranks(kind, limit, half)
    return r[starts] * (int(r.max()) + 1) + r[starts + length - half]


# Each scanned word u = sigma(u) by its morphism, as the image of each
# letter, and the shortest prefix of u that holds every length-2 factor
_MORPHISMS = {
    SequenceKind.TRIBONACCI: ((0, 1), (0, 2), (0,)),
    SequenceKind.THUE_MORSE: ((0, 1), (1, 0)),
}
_PAIR_PREFIXES = {
    SequenceKind.TRIBONACCI: (0, 1, 0, 2, 0, 1, 0, 0),
    SequenceKind.THUE_MORSE: (0, 1, 1, 0, 1, 0, 0),
}


def cover_bound(kind: SequenceKind, length: int) -> int:
    """B(L) for L = length >= 1: every factor of length L of word(kind), the
    Tribonacci or the Thue-Morse word, starts below B(L).

    Lemma.  Let u = sigma(u), k the least integer with |sigma^k(a)| >= L
    for every letter a, and p_xy the first start of each length-2 factor xy
    of u.  Every length-L factor of u starts below
    B(L) = max over xy of |sigma^k(u[:p_xy])| + |sigma^k(xy)| - L + 1.

    Proof.  u = sigma^k(u) is the concatenation of the blocks sigma^k(u_j).
    A length-L factor that starts in block j, at offset r < |sigma^k(u_j)|,
    ends within block j + 1, which is at least L long.  So it is the factor
    of sigma^k(xy), xy = u_j u_(j+1), at offset r <= |sigma^k(xy)| - L; and
    as sigma^k(u[:p_xy]) sigma^k(xy) = sigma^k(u[:p_xy + 2]) is a prefix of
    u, it also starts at |sigma^k(u[:p_xy])| + r < B(L).

    Each term is |sigma^k(u[:p_xy + 2])| - L + 1, so B(L) = |sigma^k(w)| -
    L + 1 for w the shortest prefix of u that holds every length-2 factor
    (`_PAIR_PREFIXES`; the tests check that its pairs are closed under
    sigma, hence all of u's).  The letter lengths follow |sigma^(k+1)(a)| =
    the sum of |sigma^k(b)| over the letters b of sigma(a): O(k) integer
    operations, cached per (kind, L).  B(L) is an upper bound, at most 7
    times the least one for L < 400.
    """
    check_at_least(1, length=length)
    if kind not in _MORPHISMS:
        raise ValueError(f"kind must be tribonacci or thue-morse, got {kind.value}")
    return _cover_bound(kind, int(length))


@lru_cache(maxsize=None)
def _cover_bound(kind: SequenceKind, length: int) -> int:
    images = _MORPHISMS[kind]
    sizes = [1] * len(images)  # |sigma^k(a)| for each letter a, from k = 0
    while min(sizes) < length:
        sizes = [sum(sizes[b] for b in image) for image in images]
    return sum(sizes[a] for a in _PAIR_PREFIXES[kind]) - length + 1
