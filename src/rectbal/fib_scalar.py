"""The table-free Fibonacci routes, with no numpy: the verdict types, T(i,
m, n) as two floor sums on a convergent of gamma, and the Zeckendorf digit
rule.  ``fib_balance`` builds its tables on these and re-exports them, so
``fib_balance.zeck_characterization`` and ``fib_scalar``'s are one
function; ``rectbal fib bal --method zeck`` loads no numpy.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .limits import check_at_least
from .numeration import fib_index_list


class BalanceStatus(Enum):
    BALANCED = "balanced"
    UNBALANCED = "unbalanced"
    UNKNOWN_UP_TO_HORIZON = "unknown-up-to-horizon"


@dataclass(frozen=True)
class BalanceVerdict:
    status: BalanceStatus
    method: str
    value_set: tuple[int, ...] | None = None
    witness: tuple[int, int, int, int] | None = None  # (i, j, T(i), T(j))
    horizon: int | None = None

    @property
    def balanced(self) -> bool:
        return self.status is BalanceStatus.BALANCED


def _convergent(bound: int) -> tuple[int, int]:
    """(p, q) = (F_{k-2}, F_k) for the smallest Fibonacci number q > bound:
    a convergent of gamma (see ``fib_balance``)."""
    p, r, q = 0, 1, 1  # F_0, F_1, F_2
    while q <= bound:
        p, r, q = r, q, r + q
    return p, q


def _floor_sum(n: int, m: int, a: int, b: int) -> int:
    """sum_{k<n} floor((a*k + b)/m) on Python ints in O(log m) steps, for
    n, a, b >= 0 and m >= 1: the Euclid-like reduction of floor_sum in the
    AtCoder Library (https://github.com/atcoder/ac-library)."""
    total = 0
    while True:
        if a >= m:
            total += n * (n - 1) // 2 * (a // m)
            a %= m
        if b >= m:
            total += n * (b // m)
            b %= m
        top = a * n + b
        if top < m:
            return total
        # count the lattice points under the line from the other axis
        n, b, m, a = top // m, top % m, a, m


def t_value(i: int, m: int, n: int) -> int:
    """T(i, m, n) = sum_{k<m} floor((i+k+n)*gamma) - floor((i+k)*gamma) on
    the 0-prefixed Fibonacci word, as two floor sums; no table is built."""
    check_at_least(0, m=m, n=n, i=i)
    p, q = _convergent(i + m + n)
    return _floor_sum(m, q, p, (i + n) * p) - _floor_sum(m, q, p, i * p)


def zeck_characterization(m: int, n: int) -> bool:
    """Digit-level balance rule on the Zeckendorf expansions, for m <= n
    (larger m handled by the transpose symmetry):

    (a) m <= 1; or with m = F_a1 + ... (a1 largest) and n = F_b1 + ... + F_bl:
    (b) m = F_a1, a1 not among the b's, and the smallest b above a1 has the
        parity of a1;
    (c) m = F_a1 and a1 is among the b's;
    (d) a1 equals the smallest b and the two smallest b's differ in parity;
    (e) a1 is below the smallest b.
    """
    check_at_least(0, m=m, n=n)
    if m > n:
        m, n = n, m
    if m <= 1:
        return True
    a = fib_index_list(m)
    b = fib_index_list(n)
    a1 = a[0]
    b_smallest = b[-1]
    if len(a) == 1 and a1 in b:
        return True
    if a1 < b_smallest:
        return True
    if len(a) == 1 and a1 not in b:
        # m = F_a1 <= n forces some b above a1
        if (min(x for x in b if x > a1) - a1) % 2 == 0:
            return True
    if a1 == b_smallest and len(b) >= 2 and (b[-2] - b[-1]) % 2 == 1:
        return True
    return False
