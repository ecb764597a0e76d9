"""The table-free Fibonacci routes, with no numpy: the verdict statuses,
T(i, m, n) as two floor sums on a convergent of gamma, the period walk
that gives T's extremes and their first indices, the arc-cover verdict and
the Zeckendorf digit rule.  ``fib_balance`` builds its tables and its
``BalanceVerdict`` records on these and re-exports them, so
``fib_balance.zeck_characterization`` and ``fib_scalar``'s are one
function; ``rectbal fib bal --method zeck`` loads neither numpy nor
``dataclasses``.
"""
from __future__ import annotations

from bisect import bisect_right
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
    i, m, n = int(i), int(m), int(n)
    p, q = _convergent(i + m + n)
    return _floor_sum(m, q, p, (i + n) * p) - _floor_sum(m, q, p, i * p)


def _steps(mu: int, nu: int, p: int, q: int) -> tuple[int, int, int, int]:
    """(d0, up, down1, down2): T_q's step at i is d0 + [key(i) >= up] -
    [key(i) >= down1] - [key(i) >= down2].

    T_q(i+1) - T_q(i) = g_q(i+mu+nu) - g_q(i+nu) - g_q(i+mu) + g_q(i), and
    g_q(i+s) = g_q(i) + g_q(s) + [key(i) + key(s) >= q], so the step is d0 +
    [key(i) >= q - key(mu+nu)] - [key(i) >= q - key(nu)] - [key(i) >= q -
    key(mu)], d0 = g_q(mu+nu) - g_q(nu) - g_q(mu)."""
    d0 = (mu + nu) * p // q - nu * p // q - mu * p // q
    return (d0, *(q - s * p % q for s in (mu + nu, nu, mu)))


def _join(
    u: tuple[int, int, int, int, int, int], v: tuple[int, int, int, int, int, int]
) -> tuple[int, int, int, int, int, int]:
    """The walk value of the steps of u followed by those of v.  A walk
    value is (length, sum, least prefix sum, its first index, greatest
    prefix sum, its first index), over the prefixes of lengths 0 to length -
    1; one step d is (1, d, 0, 0, 0, 0)."""
    n, s, lo, i_lo, hi, i_hi = u
    m, t, v_lo, v_i_lo, v_hi, v_i_hi = v
    if s + v_lo < lo:
        lo, i_lo = s + v_lo, n + v_i_lo
    if s + v_hi > hi:
        hi, i_hi = s + v_hi, n + v_i_hi
    return n + m, s + t, lo, i_lo, hi, i_hi


def _period_walk(mu: int, nu: int, p: int, q: int) -> tuple[int, int, int, int]:
    """(low, i_low, high, i_high): the least and the greatest T_q(i) - T_q(0)
    over one period 0 <= i < q, and the first i at each, for p/q = F_{K-2}/F_K
    (``_convergent``), in O(log q) integer steps with no table.

    T_q's step at i is d0 + W(key(i)) (``_steps``), W(y) = [y >= up] - [y >=
    down1] - [y >= down2] on Z_q, and key(i + 1) = key(i) + p mod q: the
    steps read W along the orbit of 0 under x -> x + p, and one period is
    the word read from 0 until the orbit returns there.  Its walk value
    (``_join``) holds the answer.

    The walk renormalizes the rotation (Rauzy, Acta Arith. 34, 1979).  Take
    J = [0, l) and on it R(x) = x + a mod l, the first return of x -> x + p
    to J, with V(x) the walk value of the steps x reads until it returns.
    At the start J = Z_q, a = p and V(x) is one step.  With b = l - a, R(x)
    = x + a below b and x - b from b on.  If a <= b, the first return to [0,
    b) is x + a below b - a; from b - a on it passes x + a in [b, l) and
    lands on x + a - b in [0, a), so V'(x) = V(x)V(x + a).  That is x -> x +
    a mod b, again a rotation.  Else the first return to [0, a) passes x + a
    in [a, l) and lands on x + a - b below b, so V'(x) = V(x)V(x + a) there,
    and is x - b from b on: x -> x + (a - b) mod a, again a rotation.  For
    p/q the levels run (l, a) = (F_K, F_{K-2}), (F_{K-1}, F_{K-2}),
    (F_{K-2}, F_{K-4}), ..., one per Fibonacci index, to l = 1, where J =
    {0} and V(0) is the period.

    V is held as pieces, the intervals of J between its starts, each with
    one value, and at most five exist.  The towers x, x + p, ... up to each
    return, x in J, tile Z_q.  The return time is r1 below l - a and r2 from
    there: at the start r1 = r2 = 1, and the case a <= b gives r1 below b -
    a and r1 + r2 from there, the other r1 + r2 below b and r2 from there,
    each split at the new l - a.  Within one return time, V(x) changes only
    where a tower point crosses a cut of W: 0, up, down1 or down2.  Each cut
    lies on one tower at one height, so it starts at most one piece, and the
    cut 0 starts the piece at 0.  So the starts are 0, l - a and at most
    three tower bases; a level's starts are the old starts below the new l,
    0 among them, those of V(x + a) moved by -a, and the new l - a, so it
    holds no others.
    """
    d0, up, down1, down2 = _steps(mu, nu, p, q)
    starts = sorted({0, up, down1, down2})
    values = [(1, d0 + (y >= up) - (y >= down1) - (y >= down2), 0, 0, 0, 0) for y in starts]
    l, a = q, p
    while l > 1:
        b = l - a
        # the new J = [0, l) with rotation next_a returns twice on [u, u + w)
        u, w, l, next_a = (b - a, a, b, a) if a <= b else (0, b, a, a - b)
        cuts = {s for s in starts if s < l} | {s - a for s in starts if u + a <= s < u + w + a}
        cuts = sorted(cuts | {l - next_a})
        new = []
        for x in cuts:
            v = values[bisect_right(starts, x) - 1]
            if u <= x < u + w:
                v = _join(v, values[bisect_right(starts, x + a) - 1])
            new.append(v)
        starts, values, a = cuts, new, next_a
    return values[0][2:]


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
