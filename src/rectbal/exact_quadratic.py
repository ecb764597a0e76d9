"""Exact arithmetic in Q(sqrt5).

Every quantity that drives a balance decision is an element of the ring
Z[phi] written as (a + b*sqrt5)/2 with a == b (mod 2).  Floors, fractional
parts and comparisons are computed from integer arithmetic only; no float
ever enters a decision path.
"""
from __future__ import annotations

from functools import total_ordering
from math import isqrt

from .limits import check_at_least
from .numeration import zeck_shift


@total_ordering
class QuadraticValue:
    """The real number (num_rational + num_surd*sqrt5)/2, coefficients doubled.

    The parity constraint num_rational == num_surd (mod 2) makes the set
    closed under addition and multiplication and lets gamma = (3-sqrt5)/2
    and phi = (1+sqrt5)/2 live on integer fields.
    """

    __slots__ = ("num_rational", "num_surd")

    def __init__(self, num_rational: int, num_surd: int) -> None:
        if (num_rational - num_surd) % 2 != 0:
            raise ValueError(
                f"coefficients must have equal parity, got ({num_rational}, {num_surd})"
            )
        self.num_rational = num_rational
        self.num_surd = num_surd

    @classmethod
    def from_int(cls, k: int) -> QuadraticValue:
        return cls(2 * k, 0)

    def __repr__(self) -> str:
        return f"QuadraticValue({self.num_rational}, {self.num_surd})"

    def __str__(self) -> str:
        return f"({self.num_rational}{self.num_surd:+}*sqrt5)/2"

    def __hash__(self) -> int:
        return hash((self.num_rational, self.num_surd))

    def __eq__(self, other: object) -> bool:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return (
            self.num_rational == other.num_rational
            and self.num_surd == other.num_surd
        )

    def __lt__(self, other: object) -> bool:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return (self - other).sign() < 0

    def __add__(self, other: int | QuadraticValue) -> QuadraticValue:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return QuadraticValue(
            self.num_rational + other.num_rational, self.num_surd + other.num_surd
        )

    __radd__ = __add__

    def __neg__(self) -> QuadraticValue:
        return QuadraticValue(-self.num_rational, -self.num_surd)

    def __sub__(self, other: int | QuadraticValue) -> QuadraticValue:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: int | QuadraticValue) -> QuadraticValue:
        return (-self) + other

    def __mul__(self, other: int | QuadraticValue) -> QuadraticValue:
        if isinstance(other, int):
            return QuadraticValue(self.num_rational * other, self.num_surd * other)
        if isinstance(other, QuadraticValue):
            a1, b1 = self.num_rational, self.num_surd
            a2, b2 = other.num_rational, other.num_surd
            # closure: a1*a2 + 5*b1*b2 and a1*b2 + b1*a2 are both even
            return QuadraticValue((a1 * a2 + 5 * b1 * b2) // 2, (a1 * b2 + b1 * a2) // 2)
        return NotImplemented

    __rmul__ = __mul__

    def sign(self) -> int:
        """Sign of the represented real number: -1, 0 or +1, computed exactly.
        A nonzero value is positive exactly when its floor is >= 0."""
        if self.num_rational == self.num_surd == 0:
            return 0
        return 1 if self.floor() >= 0 else -1

    def floor(self) -> int:
        """Largest integer <= self, by one integer square root.

        r = floor(b*sqrt5) is isqrt(5b^2) for b >= 0 and -isqrt(5b^2) - 1
        for b < 0, as 5b^2 is a square only at b = 0.  With a + b*sqrt5 in
        [a + r, a + r + 1), the floor of its half is (a + r) // 2.
        """
        b = self.num_surd
        r = isqrt(5 * b * b)
        return (self.num_rational + (r if b >= 0 else -r - 1)) // 2

    def frac(self) -> QuadraticValue:
        """self - floor(self), always in [0, 1)."""
        r = self - self.floor()
        assert r.sign() >= 0 and (r - 1).sign() < 0
        return r


def _coerce(x: object) -> QuadraticValue | None:
    if isinstance(x, QuadraticValue):
        return x
    if isinstance(x, int):
        return QuadraticValue.from_int(x)
    return None


GAMMA = QuadraticValue(3, -1)  # (3 - sqrt5)/2 ~ 0.3820
PHI = QuadraticValue(1, 1)  # (1 + sqrt5)/2 ~ 1.6180
ZERO = QuadraticValue(0, 0)
ONE = QuadraticValue(2, 0)


def floor_n_phi(n: int) -> int:
    """floor(n*phi) computed two independent ways that must agree.

    Route one is the exact quadratic floor of n*phi; route two lifts the
    Zeckendorf digits of n-1 one position and adds 1.
    """
    check_at_least(0, n=n)
    if n == 0:
        return 0
    via_floor = (PHI * n).floor()
    via_shift = zeck_shift(n - 1) + 1
    assert via_floor == via_shift, f"floor(n*phi) routes disagree at n={n}"
    return via_floor


def floor_n_gamma(n: int) -> int:
    """floor(n*gamma), evaluated on the exact quadratic value."""
    check_at_least(0, n=n)
    return (GAMMA * n).floor()
