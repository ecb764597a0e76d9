"""2-balance of Tribonacci-word rectangles.

For each letter c, the count of c in the rectangle at i is an O(1)
combination of double prefix sums, so a horizon scan over i is a handful of
vectorized array operations.  Unbalance verdicts are definitive certificates
(two concrete rectangles whose counts differ by 3); balance verdicts are
semi-decisions labeled with the horizon.

For m, n >= 3 the unbalance witness comes from a corner pattern in the 0/2
recoding of the word: two equal factors of length p followed by 00200 and
00000 respectively force a letter-2 count gap of exactly 3 between the two
rectangles with p = m + n - 6.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .rectangles import window_counts, word_letter_counts
from .words import SequenceKind, word


class NotFoundWithinLimit(RuntimeError):
    """Search bound reached without a match; says nothing about existence."""


@dataclass(frozen=True)
class TwoBalanceReport:
    m: int
    n: int
    horizon: int
    letter_ranges: dict[int, tuple[int, int]]  # letter -> (min, max) count
    unbalanced_letter: int | None = None
    witness: tuple[int, int, int, int] | None = None  # (i, j, count_i, count_j)

    @property
    def two_balanced(self) -> bool:
        """2-balanced as far as the scan saw; definitive only when False."""
        return self.unbalanced_letter is None

    @property
    def definitive(self) -> bool:
        return self.unbalanced_letter is not None


@dataclass(frozen=True)
class CornerWitness:
    p: int
    i: int
    j: int


def two_balance_scan(m: int, n: int, horizon: int = 1_000_000) -> TwoBalanceReport:
    """Per-letter count ranges of the m x n rectangles over i < horizon."""
    if m < 1 or n < 1:
        raise ValueError("m and n must be >= 1")
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    ranges: dict[int, tuple[int, int]] = {}
    bad_letter = None
    witness = None
    w = word(SequenceKind.TRIBONACCI)
    for letter in (0, 1, 2):
        counts = window_counts(w.count_table(letter, horizon + m + n), m, n, 0, horizon)
        lo, hi = int(counts.min()), int(counts.max())
        ranges[letter] = (lo, hi)
        if hi - lo > 2 and bad_letter is None:
            i = int(np.argmax(counts))
            j = int(np.argmin(counts))
            bad_letter = letter
            witness = (i, j, hi, lo)
    return TwoBalanceReport(m, n, horizon, ranges, bad_letter, witness)


def balanced_2xn_list(limit: int, horizon: int = 1_000_000) -> list[int]:
    """All n <= limit whose 2 x n rectangles stay 2-balanced up to the horizon.

    The comparison against the known classification is certified only for
    limit <= 48; larger limits are exploratory scans.
    """
    return [
        n
        for n in range(1, limit + 1)
        if two_balance_scan(2, n, horizon).two_balanced
    ]


_CORNER_HI = np.array([0, 0, 2, 0, 0], dtype=np.uint8)
_CORNER_LO = np.array([0, 0, 0, 0, 0], dtype=np.uint8)


def _five_gram_positions(syms: np.ndarray, pattern: np.ndarray) -> np.ndarray:
    hits = np.ones(len(syms) - 4, dtype=bool)
    for off, val in enumerate(pattern):
        hits &= syms[off : len(syms) - 4 + off] == val
    return np.flatnonzero(hits)


@lru_cache(maxsize=None)
def find_corner_witness(p: int, search_limit: int = 200_000) -> CornerWitness:
    """Smallest (i, j), lexicographically, with equal length-p recoded factors
    followed by 00200 at i+p and 00000 at j+p."""
    if p < 0:
        raise ValueError("p must be >= 0")
    w = word(SequenceKind.TRIBONACCI_RECODED)
    syms = w.symbols(search_limit)
    raw = syms.tobytes()
    starts_hi = _five_gram_positions(syms, _CORNER_HI)
    starts_lo = _five_gram_positions(syms, _CORNER_LO)
    prefix_to_j: dict[bytes, int] = {}
    for b in starts_lo:
        if b >= p:
            key = raw[b - p : b]
            if key not in prefix_to_j:
                prefix_to_j[key] = int(b) - p
    for a in starts_hi:
        if a >= p:
            j = prefix_to_j.get(raw[a - p : a])
            if j is not None:
                return CornerWitness(p, int(a) - p, j)
    raise NotFoundWithinLimit(
        f"no corner witness for p={p} within {search_limit} symbols"
    )


def corner_count_gap(witness: CornerWitness, m: int, n: int) -> tuple[int, int]:
    """Letter-2 counts of the two m x n rectangles anchored at the witness."""
    if m + n - 6 != witness.p:
        raise ValueError("rectangle shape does not match the witness length")
    w = word(SequenceKind.TRIBONACCI)
    ci = word_letter_counts(w, witness.i, m, n)[2]
    cj = word_letter_counts(w, witness.j, m, n)[2]
    return ci, cj


def verify_no_2balance_3plus(max_dim: int) -> bool:
    """For every 3 <= m <= n <= max_dim, produce a corner witness whose two
    rectangles differ by exactly 3 in their letter-2 counts."""
    if max_dim < 3:
        raise ValueError("max_dim must be >= 3")
    for m in range(3, max_dim + 1):
        for n in range(m, max_dim + 1):
            wit = find_corner_witness(m + n - 6)
            ci, cj = corner_count_gap(wit, m, n)
            if ci - cj != 3:
                return False
    return True
