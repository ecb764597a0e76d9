"""The table-free Fibonacci routes, with no numpy: the verdict statuses,
T(i, m, n) as two floor sums on a convergent of gamma, the arc-cover
verdict and the Zeckendorf digit rule.  ``fib_balance`` builds its tables
and its ``BalanceVerdict`` records on these and re-exports them, so
``fib_balance.zeck_characterization`` and ``fib_scalar``'s are one
function; ``rectbal fib bal --method zeck`` loads neither numpy nor
``dataclasses``.
"""
from __future__ import annotations

from enum import Enum

from .limits import check_at_least
from .numeration import fib_index_list


class BalanceStatus(Enum):
    BALANCED = "balanced"
    UNBALANCED = "unbalanced"
    UNKNOWN_UP_TO_HORIZON = "unknown-up-to-horizon"


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


def _first(a: int, m: int, l: int, r: int) -> int | None:
    """The least x >= 0 with l <= (a*x) mod m <= r, for 0 <= l <= r < m, or
    None if there is none, in O(log m) steps.  With a reduced mod m and k =
    ceil(l/a), x = k unless a*k > r; then x = ceil((l + m*y)/a) for the
    least y >= 0 whose (m*y) mod a lies in [a*k - r, a*k - l], the same
    question on modulus a: a*x lies in [m*y + l, m*y + r] exactly when x =
    (m*y - (m*y) mod a)/a + k does, and x grows with y.  The reductions are
    kept on a list, not the call stack, so no recursion limit binds."""
    reductions = []
    while l:
        a %= m
        if a == 0:
            return None
        k = -(-l // a)
        if a * k <= r:
            x = k
            break
        reductions.append((a, m, l))
        a, m, l, r = m % a, a, a * k - r, a * k - l
    else:
        x = 0
    for a, m, l in reversed(reductions):
        x = -(-(l + m * x) // a)
    return x


def arc_balanced(m: int, n: int) -> bool:
    """Exact verdict by the arc cover in O(log(m + n)) integer steps, with
    no table and no budget: it answers at any size.

    Take 1 < mu <= nu, p/q = ``_convergent(mu + nu)``, key(d) = d*p mod q,
    s = key(nu) and K = key(mu).  By the lemma in ``fib_balance.
    balance_table``'s docstring, (mu, nu) is unbalanced iff s lies strictly
    inside the arc between x = key(e) and key(e - mu) = x - K mod q for some
    1 <= e < mu (s is never an endpoint).  When x >= K the arc is (x - K, x),
    and when x < K it is (x, x - K + q), so that holds iff x lies in [max(s
    + 1, K), min(s + K - 1, q - 1)] or in [max(s - q + K + 1, 1), min(s - 1,
    K - 1)]; key(e) = 0 only at e = 0 mod q, past mu.  The pair is unbalanced
    iff the least e >= 1 with key(e) in either interval, ``_first`` on a =
    p, is below mu.  With mu <= 1 there is no such e."""
    check_at_least(0, m=m, n=n)
    mu, nu = sorted((int(m), int(n)))
    p, q = _convergent(mu + nu)
    s, K = nu * p % q, mu * p % q
    above = max(s + 1, K), min(s + K - 1, q - 1)  # key(e) >= K
    below = max(s - q + K + 1, 1), min(s - 1, K - 1)  # key(e) < K
    for l, r in (above, below):
        if l <= r and _first(p, q, l, r) < mu:  # p is prime to q: some e < q hits
            return False
    return True


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
