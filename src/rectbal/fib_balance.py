"""Balance of Fibonacci-word rectangles.

Three mutually independent routes decide whether the m x n rectangle sums
T(i, m, n) take at most two distinct values over all i:

* ``exact_balance`` reduces the quantifier over all i to finitely many arcs
  of the unit circle cut by the points frac(-j*gamma), via the identity
  T(i, m, n) = m*floor(n*gamma) + #{k < m : frac((i+k)*gamma) >= beta} with
  beta = 1 - frac(n*gamma).  This is a true decision procedure.  It asks
  ``fib_scalar.arc_balanced`` first, the arc cover of ``balance_table``
  searched in O(log q) integer steps; an unbalanced pair's value set and
  witness come from the period walk below, also O(log q) with no table, so
  every pair answers at any size.  ``is_balanced`` reads the walk, a route
  that shares no lemma with the arc cover.
* ``delta_block_scan`` streams the difference sequence T(i+1)-T(i) in
  {-1, 0, 1} looking for two equal nonzero entries separated only by zeros,
  which certifies a T-gap of 2; a semi-decision run to a horizon.
* ``zeck_characterization`` evaluates a digit-level rule on the Zeckendorf
  expansions of m and n; it lives in the numpy-free ``fib_scalar``, with
  the verdict statuses, scalar ``t_value`` and ``arc_balanced``, and is
  imported here.

The circle route is exact integer arithmetic on one convergent p/q of
gamma, with q a Fibonacci number above the index range: floor(j*gamma) is
(j*p) // q and the circle order of frac(j*gamma) is the order of the keys
(j*p) mod q.  T_q, T with (j*p) // q in place of floor(j*gamma) on a
Fibonacci q > m + n, takes only values of T, and every value of T is taken
below F_{k+2}, F_k <= m + n - 1 < F_{k+1} (three-gap theorem).  So a
verdict reads one period of T_q on a convergent past F_{k+2} + m + n,
where T_q = T below F_{k+2}: its extremes are T's, and its first i at each
is T's.  T_q's steps code the rotation x -> x + p of Z_q, cut at four
points, and ``fib_scalar._period_walk`` renormalizes it (Rauzy 1979): the
first return to [0, l) is again a rotation, the return words' walk values
(sum, least and greatest prefix sums and their first indices) hold on at
most five intervals, and one level per Fibonacci index shrinks l to 1,
where one word is the whole period.  Scalar T needs no table either: its
floor sums come from a Euclid-like recursion.  A table past the symbol
budget raises ``BudgetExceeded``.

``balance_table`` decides every pair by an arc cover: (mu, nu) is balanced
iff key(nu) lies in none of the mu - 1 arcs between key(e) and key(e - mu),
0 < e < mu, so a row of verdicts reads one cumsum of arc ends over Z_q and
the table costs O(limit**2).  ``row_value_bounds`` and ``rectbal fib sweep``
need the value sets, not only verdicts, and run the circle route one row mu
at a time with no sort per window, the sweep's rows all on the tables of
its last row: the window j in [nu, nu+mu) is the block [0, mu) rotated by
frac(nu*gamma), so its circle order is a cyclic shift of the block's (Sos
1957), starting at the rank of q - key(nu) among the block's keys.  The
two are independent routes to the same verdicts.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .exact_quadratic import GAMMA, ONE
from .fib_scalar import BalanceStatus, _convergent, _period_walk, arc_balanced, t_value
from .fib_scalar import zeck_characterization  # noqa: F401 -- one of the three routes
from .limits import BudgetExceeded, check_at_least, check_budget
from .numeration import fibonacci
from .rectangles import word_counts, word_rect_sum
from .words import SequenceKind, sturmian_a_word, word


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


# ---------------------------------------------------------------------------
# convergent arithmetic: floor(j*gamma) and the circle order of frac(j*gamma)
#
# p/q = F_{k-2}/F_k is a convergent of gamma = [0; 2, 1, 1, ...] with next
# denominator F_{k+1}, so eps = gamma - p/q has |eps| < 1/(q*F_{k+1})
# (Khinchin, Continued Fractions).  For |j| < q, j*eps is below 1/q while
# j*p/q is an integer (j = 0) or at least 1/q from one (gcd(p, q) = 1).  So
# over any index range shorter than q, floor(j*gamma) = (j*p) // q and
# frac(j*gamma) = key(j)/q + j*eps with key(j) = (j*p) mod q: two fractional
# parts differ by their key difference over q plus less than 1/q, and their
# circle order is the order of the distinct integer keys.


def _floor_sums(size: int) -> np.ndarray:
    """G[j] = sum_{k<j} floor(k*gamma) for j <= size, exact in int64: the
    one table that forms j*p, which its size + 1 entries, held to the
    budget, keep below 2**62, as j < MAX_BUDGET < F_47, so q = F_K <= F_47
    and both j and p = F_{K-2} <= F_45 are below 2**31."""
    check_budget(size + 1, "table entries")
    p, q = _convergent(size)
    G = np.zeros(size + 1, dtype=np.int64)
    np.cumsum(np.arange(size, dtype=np.int64) * p // q, out=G[1:])
    return G


def _doubled_keys(L: int, p: int, q: int) -> np.ndarray:
    """key(r) = (r*p) mod q for r < L by doubling, key(r + n) = key(r) +
    key(n) less q past it, with no branch: in unsigned ints the sum s < 2q
    less q wraps above s exactly when s < q, so the key is min(s, s - q).
    Built in uint32 while 2q < 2^31 and uint64 past it, and returned as the
    int32 or int64 view; both operands of every pass share the unsigned
    dtype, so numpy's promotion rules, before NEP 50 and after, agree.

    The int64 view holds q < 2**63, and then s < 2q < 2**64; past it the
    keys raise ``BudgetExceeded`` before anything is built.  That frontier
    binds no verdict: the exact verdicts read no keys (``_extremes``), and
    the budget holds ``_circle_keys``' q below 2**31."""
    if q >= 1 << 63:
        raise BudgetExceeded(f"keys mod q = {q} requested, int64 keys hold q < 2**63")
    wide = 2 * q >= 1 << 31
    dtype = np.uint64 if wide else np.uint32
    key = np.zeros(L, dtype=dtype)
    n = 1
    while n < L:
        part = key[n : 2 * n]
        np.add(key[: len(part)], dtype(n * p % q), out=part)
        np.minimum(part, part - dtype(q), out=part)
        n *= 2
    return key.view(np.int64 if wide else np.int32)


# ---------------------------------------------------------------------------
# the exact verdict: one walk over a period of T on the cover convergent


def _cover(mu: int, nu: int) -> tuple[int, int]:
    """(p', q') = _convergent(F_{k+2} + mu + nu), the cover convergent of a
    pair with mu >= 1, where F_k <= mu + nu - 1 < F_{k+1}: below the cover
    F_{k+2}, T = T_q', and T takes every one of its values there (k >= 2).

    T = T_q' below the cover: T(i) = G(i+mu+nu) - G(i+nu) - G(i+mu) + G(i)
    with G(j) = sum_{x<j} floor(x*gamma), so for i < F_{k+2} it sums
    floor(x*gamma) only at x < F_{k+2} + mu + nu < q', where floor(x*gamma)
    = (x*p') // q' (see above).

    Every value of T is taken below the cover.  For i >= 1, T(i) is fixed by
    the open arc between event points frac(j*gamma), j in [0, mu) u [nu,
    nu+mu), that holds frac(-i*gamma).  Each arc is at least min_{0<d<m+n}
    ||d*gamma|| = ||F_k*gamma|| long, and the orbit points i < F_{k+2} leave
    gaps of at most ||F_k*gamma|| (three-gap theorem): the orbit's largest
    gap is not above the partition's smallest arc, so an arc holding no
    orbit point would be a gap with orbit points at both ends, but the two
    point sets share only 0."""
    p, q = _convergent(mu + nu - 1)  # F_{k-1}, F_{k+1}
    return _convergent(2 * q - p + mu + nu)  # 2q - p = F_{k+2}


def _extremes(mu: int, nu: int) -> tuple[int, int, int, int]:
    """(low, i_low, high, i_high): the min and max of T - t0 over all i, t0 =
    T(0, mu, nu), for mu >= 1, and the first i at each: one
    ``fib_scalar._period_walk`` over a period of T_q' on the cover
    convergent p'/q' (``_cover``), O(log(mu + nu)) integer steps and no
    table, so it answers at any size.

    Let c(y) = #{nu <= j < nu+mu : key(j) <= y} - #{j < mu : key(j) <= y}
    on Z_q, q a Fibonacci number > mu + nu: window points minus block points
    up to y.  Let T_q be T on g_q(j) = (j*p) // q in place of
    floor(j*gamma): g_q(i+j) = g_q(i) + g_q(j) + [key(j) >= key(-i)] for i
    not 0 mod q, so T_q(i) = t0 - c((key(-i) - 1) mod q) at every i of Z_q,
    and T_q(i) = T(i) for i < q - mu - nu.  T_q has period q and i ->
    key(-i) - 1 is a bijection of Z_q, so one period of T_q takes exactly
    the values t0 - c(y).  The event keys keep the circle order of the
    frac(j*gamma) on every such q, so these are the arc values of T's
    circle partition, each taken by T (``_cover``).  So one period of T_q'
    takes exactly T's values, and its first i at each lies below the cover,
    where T_q' = T: it is T's first i there.
    """
    return _period_walk(mu, nu, *_cover(mu, nu))


def is_balanced(m: int, n: int) -> bool:
    """Exact verdict without the witness, off one period walk
    (``_extremes``), so it answers at any size; ``arc_balanced`` answers by
    the arc lemma, which the walk does not use."""
    check_at_least(0, m=m, n=n)
    mu, nu = sorted((int(m), int(n)))
    if mu == 0:  # no events: T is 0 everywhere
        return True
    low, _, high, _ = _extremes(mu, nu)
    return high - low <= 1


def exact_balance(m: int, n: int) -> BalanceVerdict:
    """Decide balance exactly at any size, with the value set, and with a
    witness pair of rectangle indices when unbalanced.

    ``arc_balanced`` decides first.  A balanced pair with mu >= 1 takes
    exactly the values (t0, t0 + 1), t0 = T(0, mu, nu): c (see
    ``_extremes``) has c(0) = -1, as key(0) = 0 is a block point and no
    window key is 0, and c(q - 1) = 0; so lo <= -1 < 0 <= hi, and hi - lo <=
    1 leaves lo = -1, hi = 0.  An unbalanced pair reads its value set and
    witness, the first argmin and the first argmax of T, off one period walk
    (``_extremes``); their spread, at least 2, checks the arc verdict, and
    ``t_value`` re-checks the witness.  Neither route builds a table."""
    check_at_least(0, m=m, n=n)
    mu, nu = sorted((int(m), int(n)))
    if mu == 0:  # no events: T is 0 everywhere
        return BalanceVerdict(BalanceStatus.BALANCED, "exact", value_set=(0,))
    t0 = t_value(0, mu, nu)
    if arc_balanced(mu, nu):
        return BalanceVerdict(BalanceStatus.BALANCED, "exact", value_set=(t0, t0 + 1))
    low, i, high, j = _extremes(mu, nu)
    assert high - low >= 2, (mu, nu)
    i, j = sorted((i, j))
    ti, tj = t_value(i, mu, nu), t_value(j, mu, nu)
    assert {ti, tj} == {t0 + low, t0 + high}, (mu, nu)
    return BalanceVerdict(
        BalanceStatus.UNBALANCED,
        "exact",
        value_set=tuple(range(t0 + low, t0 + high + 1)),
        witness=(i, j, ti, tj),
    )


def t_counting_form(i: int, m: int, n: int) -> int:
    """T(i, m, n) = m*floor(n*gamma) + #{k < m : frac((i+k)*gamma) >= beta}.

    Evaluated on exact quadratic values.  Equality with beta is impossible
    for i + k + n >= 1; a defensive assertion guards that.
    """
    check_at_least(0, m=m, n=n, i=i)
    beta = ONE - (GAMMA * n).frac()
    count = 0
    for k in range(m):
        s = ((GAMMA * (i + k)).frac() - beta).sign()
        assert s != 0 or i + k + n == 0, "threshold hit exactly off the origin"
        if s >= 0:
            count += 1
    return m * (GAMMA * n).floor() + count


# ---------------------------------------------------------------------------
# difference-sequence scan (independent of the floor tables: runs on the
# morphism-generated word)


def delta_block_scan(m: int, n: int, horizon: int = 100_000) -> BalanceVerdict:
    """Scan T(i+1)-T(i) for i < horizon for a block a,0,...,0,a with a = +-1.

    Such a block forces T(j+1) = T(i) + 2a, an unbalance certificate; its
    absence up to the horizon is reported as unknown, not as balanced.
    """
    check_at_least(0, m=m, n=n)
    check_at_least(1, horizon=horizon)
    if m == 0 or n == 0:
        return BalanceVerdict(
            BalanceStatus.UNKNOWN_UP_TO_HORIZON, "scan", horizon=horizon
        )
    w = sturmian_a_word()
    w.ensure(horizon + m + n - 1)  # the whole scan's budget, checked first
    # Scan prefixes growing geometrically: every block inside a prefix is a
    # block of the full scan, so the first one found is the first overall.
    stop = 0
    while stop < horizon:
        stop = min(horizon, 4 * stop + 1024)
        t = word_counts(w, 1, m, n, 0, stop + 1)
        d = np.diff(t)
        assert int(d.min()) >= -1 and int(d.max()) <= 1
        nz = np.flatnonzero(d)
        hits = np.flatnonzero(d[nz[:-1]] == d[nz[1:]])
        if len(hits):
            u = int(hits[0])
            i, j = int(nz[u]), int(nz[u + 1]) + 1
            ti, tj = int(t[i]), int(t[j])
            assert abs(tj - ti) == 2
            return BalanceVerdict(
                BalanceStatus.UNBALANCED,
                "scan",
                witness=(i, j, ti, tj),
                horizon=horizon,
            )
    return BalanceVerdict(
        BalanceStatus.UNKNOWN_UP_TO_HORIZON, "scan", horizon=horizon
    )


# ---------------------------------------------------------------------------
# square-rectangle growth identities (direct word computation)


def diverse_identities_check(k: int) -> bool:
    """Verify the two square-rectangle sum gaps at the k-th scale by direct
    computation on the plain Fibonacci word: the gap at side F_{6k}/2 is 2k
    and at side F_{6k+3}/2 is 2k+1."""
    check_at_least(1, k=k)
    f = word(SequenceKind.FIBONACCI)
    i1 = (fibonacci(6 * k - 1) - 1) // 4
    i2 = (fibonacci(6 * k + 2) - 1) // 4
    side = fibonacci(6 * k) // 2
    j1 = (fibonacci(6 * k + 5) - 1) // 4
    side2 = fibonacci(6 * k + 3) // 2
    check_budget(max(i1, i2, j1) + 2 * max(side, side2), "symbols")
    gap1 = word_rect_sum(f, i1, side, side) - word_rect_sum(f, i2, side, side)
    gap2 = word_rect_sum(f, j1, side2, side2) - word_rect_sum(f, i2, side2, side2)
    return gap1 == 2 * k and gap2 == 2 * k + 1


# ---------------------------------------------------------------------------
# batched sweeps: one row mu, every nu, no sort per window


# The row kernel holds positions, counts and counting-function values of a
# row in int16 lanes; each lies in [-mu, mu].
_ROW_MU_MAX = (1 << 15) - 1
_ROW_BLOCK = 1 << 20  # window entries per block of a row


def _row_extrema(
    keys: np.ndarray, q: int, mu: int, nu_hi: int
) -> tuple[np.ndarray, np.ndarray]:
    """(min, max) of the key sweep's counting function, nu in [mu, nu_hi].

    ``keys`` holds the int32 keys (j*p) mod q of j < nu_hi + mu, distinct
    and in the circle order of frac(j*gamma).  The window j in [nu, nu+mu)
    is the block A = [0, mu) rotated by frac(nu*gamma), and a rotation keeps
    cyclic order, so the window's sorted order is A's sorted order shifted
    to start at the window's smallest point, whose position in A's order is
    p.  The k-th window point is then the t-th smallest, t = (inv[k] - p)
    mod mu, and the counting function right after it is
    c = t + 1 - below_A(keys[nu+k]), where below_A over Z_q counts the keys
    of A under each key.  With s = key(nu), key(nu+k) = key(k) + s less q
    when key(k) >= q - s, so the window's smallest point comes from the
    least key(k) >= q - s, of rank p = below_A(q - s), or from A's least
    key, of rank 0 = mu mod mu, when there is none.  The function
    is 0 at both ends and rises only at window points, so its max is max c
    and its min min(c - 1).  Keys of j >= nu_hi + mu, if any, are not read.
    """
    a = keys[:mu]
    below = np.zeros(q + 1, dtype=np.int16)  # below[y] = #{a < y}
    below[a + 1] = 1
    np.cumsum(below, out=below)
    inv = below[a]  # the rank of each key of A, which are distinct
    ranks = below[keys[: nu_hi + mu]]
    below_windows = as_strided(  # sliding_window_view(ranks, mu), less its checks
        ranks, (len(ranks) - mu + 1, mu), ranks.strides * 2, writeable=False
    )
    lo = np.empty(nu_hi - mu + 1, dtype=np.int32)
    hi = np.empty_like(lo)
    step = max(1, _ROW_BLOCK // mu)
    wrap = np.int16(mu)
    for nu in range(mu, nu_hi + 1, step):
        block = slice(nu, min(nu + step, nu_hi + 1))
        p = below[q - keys[block]]  # mu stands for 0: t is taken mod mu
        t = inv - p[:, None]
        t += (t >> 15) & wrap  # t mod mu without a division
        t -= below_windows[block]  # c - 1
        out = slice(nu - mu, block.stop - mu)
        hi[out] = t.max(axis=1)
        lo[out] = t.min(axis=1)
    return lo, hi + 1


def _circle_keys(size: int) -> tuple[np.ndarray, int]:
    """The int32 keys (j*p) mod q of j < size, and q, which the budget holds
    below 2**31."""
    p, q = _convergent(size)
    check_budget(q, "table entries")
    return _doubled_keys(size, p, q).astype(np.int32, copy=False), q


def _row_tables(mu: int, nu_hi: int) -> tuple[np.ndarray, tuple[np.ndarray, int] | None]:
    """The floor sums and the circle keys (None when row mu has no events)
    of nu + mu <= nu_hi + mu: the tables of row mu, and of every row below
    it, so a sweep builds them once for its last row."""
    if mu > _ROW_MU_MAX:
        raise BudgetExceeded(
            f"row kernel requested at mu = {mu}, int16 lanes hold mu <= {_ROW_MU_MAX}"
        )
    circle = _circle_keys(nu_hi + mu) if mu and nu_hi >= mu else None
    return _floor_sums(nu_hi + mu), circle


def _row_bounds(
    mu: int, nu_hi: int, G: np.ndarray, circle: tuple[np.ndarray, int] | None
) -> tuple[np.ndarray, np.ndarray]:
    """``row_value_bounds(mu, nu_hi)`` on tables from ``_row_tables``."""
    lo = hi = 0
    if mu and nu_hi >= mu:
        lo, hi = _row_extrema(*circle, mu, nu_hi)
    nu = np.arange(mu, nu_hi + 1)
    t0 = G[mu + nu] - G[nu] - G[mu]  # T(0, mu, nu)
    return t0 - hi, t0 - lo


def row_value_bounds(mu: int, nu_hi: int) -> tuple[np.ndarray, np.ndarray]:
    """(min, max) of T(i, mu, nu) over i for all nu in [mu, nu_hi]; the value
    set of each pair is every integer between the two.  Empty when
    nu_hi < mu; for mu = 0 the counting function has no events and T = 0."""
    check_at_least(0, mu=mu, nu_hi=nu_hi)
    return _row_bounds(mu, nu_hi, *_row_tables(mu, nu_hi))


def _sweep_rows(limit: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """``row_value_bounds(mu, limit)`` for mu = 0, ..., limit, all read off
    the last row's tables, which are the largest: a budget that holds them
    holds every row's."""
    tables = _row_tables(limit, limit)
    return [_row_bounds(mu, limit, *tables) for mu in range(limit + 1)]


_TABLE = np.zeros((0, 0), dtype=bool)  # the largest verdict table built so far
_TABLE_BLOCK = 1 << 15  # cover counts per block of table rows, q per row


def balance_table(limit: int) -> np.ndarray:
    """Symmetric boolean matrix of exact balance verdicts for m, n <= limit.

    Built once per process by an arc cover on the circle keys of q >
    2*limit, with no work per window; smaller limits are read from it.  Its
    (limit+1)**2 entries are held to the symbol budget even when cached, so
    a request's fate does not depend on what was built.

    Take 1 <= mu <= nu <= limit and s = key(nu) on q > 2*limit, so key(d) =
    (d*p) mod q is additive and keeps the circle order for -mu < d <= nu.
    The row kernel (``_row_extrema``) calls (mu, nu) balanced when max c -
    min(c - 1) <= 1 over the values c of its counting function right after
    the window points key(j) + s mod q, j < mu: when c is the same after
    each.  Counting the block keys below that point from key(j), c = mu + 1
    - p - N(j), with p the rank of the window's least point (fixed by the
    pair) and N(j) the number of block keys in the arc [key(j), key(j) + s)
    of Z_q.  As key(k) - key(j) = key(k - j), N(j) = sum_{d=-j}^{mu-1-j}
    chi(d) with chi(d) = [key(d) < s], and N(j+1) - N(j) = chi(e - mu) -
    chi(e) for e = mu - 1 - j.  So (mu, nu) is balanced iff chi(e) = chi(e
    - mu) for every 1 <= e < mu: iff s lies in none of the mu - 1 arcs
    [min, max) of key(e) and key(e - mu) = key(e) - key(mu) mod q.  Keys of
    indices less than q apart are distinct, and nu - e, nu - e + mu lie in
    (0, q), so s is never an endpoint.

    Row mu's cover count, the number of its arcs over each y of Z_q, is the
    cumsum of +1 at each arc's start and -1 at its end, and the row's
    verdicts read it at key(nu) for nu >= mu: O(q + limit) per row and
    O(limit**2) in all, as q < 4*limit.  A block of _TABLE_BLOCK // q rows
    (at least one) holds row mu's counts at offset (mu - m0)*q, so it is one
    bincount and one cumsum, each row's arcs inside its own q counts; it
    writes its rows and, transposed, its columns.
    """
    global _TABLE
    check_at_least(0, limit=limit)
    check_budget((limit + 1) ** 2, "table entries")
    table = _TABLE
    if len(table) > limit:
        return table[: limit + 1, : limit + 1]
    out = np.zeros((limit + 1, limit + 1), dtype=bool)
    out[0, :] = True
    out[:, 0] = True
    keys, q = _circle_keys(2 * limit)
    rows = max(1, _TABLE_BLOCK // q)
    for m0 in range(1, limit + 1, rows):
        m1 = min(m0 + rows, limit + 1)
        mu = np.arange(m0, m1)[:, None]
        a = keys[1:m1]  # key(e), 1 <= e < m1
        b = a - keys[m0:m1, None]  # key(e - mu)
        b += (b >> 31) & np.int32(q)
        start = np.minimum(a, b)
        # a row's arcs at e >= mu are empty
        end = np.where(np.arange(1, m1) < mu, np.maximum(a, b), start)
        offset = ((mu - m0) * q).astype(np.int32)
        start += offset
        end += offset
        size = (m1 - m0) * q
        cover = np.bincount(start.ravel(), minlength=size)
        cover -= np.bincount(end.ravel(), minlength=size)
        np.cumsum(cover, out=cover)
        # nu in [m0, limit]; the arcs decide nu >= mu only
        verdict = np.triu(cover[keys[m0 : limit + 1] + offset] == 0)
        out[m0:m1, m0:] = verdict
        out[m0:, m0:m1] |= verdict.T
    out.flags.writeable = False
    _TABLE = out
    return out
