"""2-balance of Tribonacci-word rectangles.

For each letter c, the count of c in the rectangle at i is an O(1)
combination of double prefix sums, so a horizon scan over i is a handful of
vectorized array operations, up to the cover bound of length m + n - 1
(`words.cover_bound`) when it fits under the horizon and the budget
(`rectangles.scan_stop`).  Unbalance verdicts are definitive certificates
(two concrete rectangles whose counts differ by 3); balance verdicts are
decisions when the scan was exhaustive, and semi-decisions labeled with the
horizon otherwise.

For m, n >= 3 the unbalance witness comes from a corner pattern in the 0/2
recoding of the word: two equal factors of length p followed by 00200 and
00000 respectively force a letter-2 count gap of exactly 3 between the two
rectangles with p = m + n - 6.  Equal factors are found by their
prefix-doubling ranks (`words.factor_keys`), in prefixes that double from
8(p + 5) symbols until one holds a witness.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .limits import LimitReached, check_at_least
from .rectangles import scan_stop, word_counts, word_rect_sum
from .words import SequenceKind, factor_keys, word


class NotFoundWithinLimit(LimitReached):
    """Search bound reached without a match; says nothing about existence."""


@dataclass(frozen=True)
class TwoBalanceReport:
    m: int
    n: int
    horizon: int
    letter_ranges: dict[int, tuple[int, int]]  # letter -> (min, max) count
    unbalanced_letter: int | None = None
    witness: tuple[int, int, int, int] | None = None  # (i, j, count_i, count_j)
    exhaustive: bool = False  # the scan saw every factor of length m + n - 1

    @property
    def two_balanced(self) -> bool:
        """2-balanced as far as the scan saw; a decision when False, or when
        the scan was exhaustive."""
        return self.unbalanced_letter is None


@dataclass(frozen=True)
class CornerWitness:
    p: int
    i: int
    j: int


def two_balance_scan(m: int, n: int, horizon: int = 1_000_000) -> TwoBalanceReport:
    """Per-letter count ranges of the m x n rectangles over i < horizon,
    and the first argmax and argmin of the first letter whose range passes
    2.  The scan stops at the cover bound when it fits (`scan_stop`), with
    the same ranges and first extremes as a scan of the whole horizon."""
    check_at_least(1, m=m, n=n, horizon=horizon)
    stop, exhaustive = scan_stop(SequenceKind.TRIBONACCI, m, n, horizon)
    w = word(SequenceKind.TRIBONACCI)
    c1, c2 = (word_counts(w, letter, m, n, 0, stop) for letter in (1, 2))
    extremes = [_extremes(c1), _extremes(c2)]
    # letter 0 counts m*n - (c1 + c2): the extremes of c1 + c2, swapped
    c1 += c2
    lo, hi, first_lo, first_hi = _extremes(c1)
    extremes.insert(0, (m * n - hi, m * n - lo, first_hi, first_lo))
    ranges = {letter: (lo, hi) for letter, (lo, hi, _, _) in enumerate(extremes)}
    for letter, (lo, hi, j, i) in enumerate(extremes):
        if hi - lo > 2:
            return TwoBalanceReport(m, n, horizon, ranges, letter, (i, j, hi, lo), exhaustive)
    return TwoBalanceReport(m, n, horizon, ranges, exhaustive=exhaustive)


def _extremes(counts: np.ndarray) -> tuple[int, int, int, int]:
    """(min, max, first argmin, first argmax)."""
    first_lo, first_hi = int(np.argmin(counts)), int(np.argmax(counts))
    return int(counts[first_lo]), int(counts[first_hi]), first_lo, first_hi


def balanced_2xn_list(limit: int, horizon: int = 1_000_000) -> list[int]:
    """All n <= limit whose 2 x n rectangles stay 2-balanced up to the horizon.

    Each n is decided when its scan is exhaustive
    (``two_balance_scan(2, n, horizon).exhaustive``), as it is for every
    n <= 66011 at the default horizon and budget; an n whose cover bound
    does not fit is listed as far as its scan saw.
    """
    check_at_least(0, limit=limit)
    check_at_least(1, horizon=horizon)
    return [
        n
        for n in range(1, limit + 1)
        if two_balance_scan(2, n, horizon).two_balanced
    ]


@lru_cache(maxsize=None)
def _corner_starts(search_limit: int) -> tuple[np.ndarray, np.ndarray]:
    """Positions of 00200 and of 00000 in the first search_limit recoded
    symbols."""
    syms = word(SequenceKind.TRIBONACCI_RECODED).symbols(search_limit)
    grams = [syms[off : len(syms) - 4 + off] for off in range(5)]
    zeros = np.logical_and.reduce([gram == 0 for k, gram in enumerate(grams) if k != 2])
    return np.flatnonzero(zeros & (grams[2] == 2)), np.flatnonzero(zeros & (grams[2] == 0))


def _corner_pair(p: int, size: int) -> tuple[int, int] | None:
    """The least (i, j) with equal length-p factors followed by 00200 at
    i+p and 00000 at j+p, all inside the first size >= p + 5 recoded
    symbols, or None."""
    his, los = (starts[starts >= p] - p for starts in _corner_starts(size))
    if not len(los):
        return None
    kind = SequenceKind.TRIBONACCI_RECODED
    hi_keys, lo_keys = (factor_keys(kind, size, p, x) for x in (his, los))
    # a stable sort keeps equal keys in order of j, and searchsorted finds
    # the first of them; np.isin would import numpy.ma on its first call
    # under numpy 2.4, about 6 ms on one CPU
    order = np.argsort(lo_keys, kind="stable")
    at = np.searchsorted(lo_keys[order], hi_keys).clip(max=len(los) - 1)
    found = np.flatnonzero(lo_keys[order[at]] == hi_keys)
    if not len(found):
        return None
    a = found[0]
    return int(his[a]), int(los[order[at[a]]])


@lru_cache(maxsize=None)
def find_corner_witness(p: int, search_limit: int = 200_000) -> CornerWitness:
    """The lexicographically least (i, j) with equal length-p recoded factors
    followed by 00200 at i+p and 00000 at j+p, where "least" means least
    within the first prefix searched that holds a witness.

    Prefixes start at 8(p + 5) symbols rounded up to a power of two and
    double up to the cap search_limit, which is searched last; every p < 400
    finds its witness in the first prefix.  Power-of-two prefixes share
    their pattern starts and rank tables across p."""
    check_at_least(0, p=p, search_limit=search_limit)
    p, search_limit = int(p), int(search_limit)
    size = 1 << (8 * (p + 5) - 1).bit_length()
    while True:
        size = min(size, search_limit)
        found = _corner_pair(p, size) if size >= p + 5 else None
        if found is not None:
            return CornerWitness(p, *found)
        if size == search_limit:
            raise NotFoundWithinLimit(f"no corner witness for p={p} within {search_limit} symbols")
        size *= 2


def corner_count_gap(witness: CornerWitness, m: int, n: int) -> tuple[int, int]:
    """Letter-2 counts of the two m x n rectangles anchored at the witness:
    half their entry sums in the 0/2 recoding, the word the witness was
    found in."""
    check_at_least(0, m=m, n=n)
    if m + n - 6 != witness.p:
        raise ValueError("rectangle shape does not match the witness length")
    w = word(SequenceKind.TRIBONACCI_RECODED)
    return word_rect_sum(w, witness.i, m, n) // 2, word_rect_sum(w, witness.j, m, n) // 2


def verify_no_2balance_3plus(max_dim: int) -> bool:
    """For every 3 <= m <= n <= max_dim, produce a corner witness whose two
    rectangles differ by exactly 3 in their letter-2 counts."""
    check_at_least(3, max_dim=max_dim)
    for m in range(3, max_dim + 1):
        for n in range(m, max_dim + 1):
            wit = find_corner_witness(m + n - 6)
            ci, cj = corner_count_gap(wit, m, n)
            if ci - cj != 3:
                return False
    return True
