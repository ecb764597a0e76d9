"""Thue-Morse rectangle balance via the signed excess s = 2*count_1 - m*n.

Adjacent positions pair to sum 1 (t at 2k and 2k+1 differ), so all but at
most four entries of any rectangle cancel and |s| <= 4.  The same pairing
gives the closed forms of ``tm_closed``, which read no word and answer at
any i; ``excess`` and ``excess_parity_reduced`` are imported here from it.
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

from . import limits
from .limits import check_at_least
from .rectangles import scan_stop, word_counts
from .tm_closed import excess, excess_parity_reduced  # noqa: F401 -- bench/ reads them here
from .words import SequenceKind, word


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


def default_horizon(m: int, n: int) -> int:
    """10^5, scaled up to 2**(ceil(log2(m*n)) + 6) for large rectangles,
    and capped so that the scan stays within the symbol budget."""
    check_at_least(1, m=m, n=n)
    scaled = 1 << (int(m * n - 1).bit_length() + 6)
    return min(max(100_000, scaled), max(1, limits.BUDGET - (m + n)))


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
