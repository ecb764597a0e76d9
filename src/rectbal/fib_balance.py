"""Balance of Fibonacci-word rectangles.

Three mutually independent routes decide whether the m x n rectangle sums
T(i, m, n) take at most two distinct values over all i:

* ``exact_balance`` reduces the quantifier over all i to finitely many arcs
  of the unit circle cut by the points frac(-j*gamma), via the identity
  T(i, m, n) = m*floor(n*gamma) + #{k < m : frac((i+k)*gamma) >= beta} with
  beta = 1 - frac(n*gamma).  This is a true decision procedure.
* ``delta_block_scan`` streams the difference sequence T(i+1)-T(i) in
  {-1, 0, 1} looking for two equal nonzero entries separated only by zeros,
  which certifies a T-gap of 2; a semi-decision run to a horizon.
* ``zeck_characterization`` evaluates a digit-level rule on the Zeckendorf
  expansions of m and n.

The circle route runs on two integer tables, both built in numpy from
float64 guesses and certified exactly in int64 arithmetic.  The floor table
g[j] = floor(j*gamma) takes floor(j*gamma_f) and fixes it by one exactly
decided +-1 step.  The circle ranks of frac(j*gamma) come from an argsort of
the float64 fractional parts, whose order is checked exactly on every
adjacent pair.  Past the sizes where int64 or float64 can no longer
guarantee either table, a request raises ``BudgetExceeded``.
"""
from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .exact_quadratic import GAMMA, ONE, QuadraticValue
from .numeration import fib_index_list, fibonacci
from .rectangles import check_nonnegative, telescope, window_counts, word_rect_sum
from .words import BudgetExceeded, SequenceKind, sturmian_a_word, word


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


@dataclass(frozen=True)
class CirclePartition:
    """Breakpoints frac(-j*gamma), j in [0, m) u [n, n+m), with the value of
    the arc counting function immediately to the right of each breakpoint."""

    breakpoints: tuple[QuadraticValue, ...]
    arc_values: tuple[int, ...]


# ---------------------------------------------------------------------------
# integer tables for floor(j*gamma) and the cyclic order of frac(j*gamma)


# float64 nearest to gamma (a literal is rounded correctly; the expression
# (3 - sqrt(5)) / 2 is not), so |_GAMMA_F - gamma| <= 2**-55
_GAMMA_F = 0.38196601125010515
_CHUNK = 1 << 16
# _fill_floor_gamma squares u = 3j - 2k < j*sqrt5 + 4 and takes 5*j*j; both
# stay below 2**63 for j <= isqrt((2**63 - 1) // 5) - 4.
_FLOOR_J_MAX = 1_358_187_913 - 4
# _circle_rank: |j*_GAMMA_F - j*gamma| <= j*2**-55, rounding the product
# adds at most 2**-53 * j*gamma < j*2**-54, and subtracting the integer g[j]
# is exact, so each float fractional part for j < N is within 2**-53 * N of
# the true one.  The true parts at a, b differ by at least ||d*gamma|| =
# ||d*phi|| with d = |b - a| < N.  With p the integer nearest d*phi,
# (p - d*phi)(p - d*phibar) = p^2 - p*d - d^2 is a nonzero integer, and
# |p - d*phibar| <= d*sqrt5 + 1/2, so that gap exceeds 1/(sqrt5 * N).  The
# float order is therefore exact while 2 * 2**-53 * N <= 1/(sqrt5 * N),
# that is while 5 * N**4 <= 2**104.
_RANK_N_MAX = 44_878_402  # isqrt(isqrt(2**104 // 5))


def _fill_floor_gamma(out: np.ndarray, start: int) -> None:
    """out[t] = floor((start + t)*gamma), exact int64, in chunks.

    k = floor(j*gamma) iff j*sqrt5 <= u < j*sqrt5 + 2 with u = 3j - 2k, that
    is u >= 0, u^2 >= 5j^2 and (u < 2 or (u - 2)^2 < 5j^2).  The float guess
    is within 2**-53 * j < 1 of j*gamma, so it is off by at most one, and
    one step decided by these tests fixes it.
    """
    for lo in range(0, len(out), _CHUNK):
        hi = min(lo + _CHUNK, len(out))
        j = np.arange(start + lo, start + hi, dtype=np.int64)
        five_j2 = 5 * j * j
        k = np.floor(j * _GAMMA_F).astype(np.int64)
        u = 3 * j - 2 * k
        k += (u >= 2) & ((u - 2) * (u - 2) >= five_j2)
        k -= (u < 0) | (u * u < five_j2)
        u = 3 * j - 2 * k
        assert bool(
            np.all((u >= 0) & (u * u >= five_j2) & ((u < 2) | ((u - 2) * (u - 2) < five_j2)))
        )
        out[lo:hi] = k


def _circle_rank(g: np.ndarray, size: int) -> np.ndarray:
    """rank[j] = position of frac(j*gamma) in ascending order over j < size.

    The order is an argsort of float64 fractional parts, certified on each
    adjacent pair (a, b): with d = b - a and u = 3d - 2(g[b] - g[a]),
    frac(b*gamma) - frac(a*gamma) = (u - d*sqrt5) / 2 must be positive.
    """
    frac = np.arange(size, dtype=np.float64) * _GAMMA_F
    frac -= g[:size]
    order = np.argsort(frac)
    a, b = order[:-1], order[1:]
    d = b - a
    u = 3 * d - 2 * (g[b] - g[a])
    u2, five_d2 = u * u, 5 * d * d
    ok = np.where(d > 0, (u > 0) & (u2 > five_d2), (u >= 0) | (u2 < five_d2))
    assert order[0] == 0 and bool(ok.all()), "float circle order is not exact"
    rank = np.empty(size, dtype=np.int32)
    rank[order] = np.arange(size, dtype=np.int32)
    return rank


class _GammaTables:
    """Grow-on-demand caches: g, its running sum G, and circle ranks.

    A table that must grow grows by at least a quarter; g and G keep their
    entries and compute only the new tail.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._g = np.zeros(0, dtype=np.int64)
        self._G = np.zeros(1, dtype=np.int64)
        self._rank = np.zeros(0, dtype=np.int32)
        self._grow_g(1 << 12)

    def _grow_g(self, limit: int) -> None:
        """Make g[limit] and G[limit + 1] exist; the caller holds the lock."""
        old = len(self._g)
        if limit < old:
            return
        if limit > _FLOOR_J_MAX:
            raise BudgetExceeded(
                f"floor(j*gamma) requested at j = {limit}, int64 limit is j = {_FLOOR_J_MAX}"
            )
        size = min(max(limit + 1, (5 * old + 3) // 4), _FLOOR_J_MAX + 1)
        g = np.empty(size, dtype=np.int64)
        g[:old] = self._g
        _fill_floor_gamma(g[old:], old)
        G = np.zeros(size + 1, dtype=np.int64)
        np.cumsum(g, out=G[1:])
        self._g, self._G = g, G

    def g(self, limit: int) -> np.ndarray:
        with self._lock:
            self._grow_g(limit)
            return self._g

    def G(self, limit: int) -> np.ndarray:
        with self._lock:
            self._grow_g(limit)
            return self._G

    def rank(self, jmax: int) -> np.ndarray:
        """rank[j] = position of frac(j*gamma) in the sorted order over j <= jmax."""
        with self._lock:
            old = len(self._rank)
            if jmax < old:
                return self._rank
            if jmax >= _RANK_N_MAX:
                raise BudgetExceeded(
                    f"circle ranks requested to j = {jmax}, float64 order is proven "
                    f"only for j < {_RANK_N_MAX}"
                )
            size = min(max(jmax + 1, (5 * old + 3) // 4, 1 << 10), _RANK_N_MAX)
            self._grow_g(size - 1)
            self._rank = _circle_rank(self._g, size)
            return self._rank


_TABLES = _GammaTables()


def t_value(i: int, m: int, n: int) -> int:
    """T(i, m, n) on the 0-prefixed Fibonacci word from the floor tables."""
    return int(telescope(_TABLES.G(i + m + n), m, n, i, i + 1)[0])


def t_value_vector(m: int, n: int, horizon: int) -> np.ndarray:
    """T(i, m, n) for all i < horizon, via the double-telescoped floor sums."""
    return telescope(_TABLES.G(horizon + m + n), m, n, 0, horizon)


def delta_floor_form(i: int, m: int, n: int) -> int:
    """T(i+1,m,n) - T(i,m,n) as the four-floor combination."""
    return int(telescope(_TABLES.g(i + m + n), m, n, i, i + 1)[0])


# ---------------------------------------------------------------------------
# circle sweep


def _sweep(mu: int, nu: int) -> tuple[int, int, int]:
    """(min, max, anchor) of the cyclic counting function for mu <= nu.

    Events are -1 at rank of frac(j*gamma) for j < mu and +1 for
    nu <= j < nu + mu; the cumulative sums in rank order, subtracted from the
    anchor T(0, mu, nu), enumerate the achieved T values.
    """
    rank = _TABLES.rank(nu + mu)
    pos = np.concatenate([rank[:mu], rank[nu : nu + mu]])
    sig = np.concatenate(
        [np.full(mu, -1, dtype=np.int32), np.ones(mu, dtype=np.int32)]
    )
    c = np.cumsum(sig[np.argsort(pos)])
    return int(c.min()), int(c.max()), t_value(0, mu, nu)


def value_set(m: int, n: int) -> tuple[int, ...]:
    """All values taken by T(i, m, n) over i >= 0, ascending."""
    check_nonnegative(m=m, n=n)
    if m == 0 or n == 0:
        return (0,)
    mu, nu = min(m, n), max(m, n)
    lo, hi, t0 = _sweep(mu, nu)
    return tuple(range(t0 - hi, t0 - lo + 1))


def distinct_value_count(m: int, n: int) -> int:
    """Cardinality of the exact T-value set."""
    return len(value_set(m, n))


def is_balanced(m: int, n: int) -> bool:
    """Exact verdict without witness construction."""
    check_nonnegative(m=m, n=n)
    if m == 0 or n == 0:
        return True
    mu, nu = min(m, n), max(m, n)
    lo, hi, _ = _sweep(mu, nu)
    return hi - lo <= 1


def _find_witness(m: int, n: int) -> tuple[int, int, int, int]:
    """Indices (i, j) with |T(i)-T(j)| >= 2 for an unbalanced pair."""
    horizon = 8 * (m + n) + 64
    while True:
        t = t_value_vector(m, n, horizon)
        i = int(np.argmin(t))
        j = int(np.argmax(t))
        if t[j] - t[i] >= 2:
            if i > j:
                i, j = j, i
            return i, j, int(t_value(i, m, n)), int(t_value(j, m, n))
        if horizon > 1 << 26:  # unreachable for genuinely unbalanced pairs
            raise RuntimeError(f"no witness found for ({m}, {n})")
        horizon *= 4


def exact_balance(m: int, n: int) -> BalanceVerdict:
    """Decide balance by the circle partition; unbalanced verdicts carry a
    witness pair of rectangle indices."""
    vals = value_set(m, n)
    if len(vals) <= 2:
        return BalanceVerdict(BalanceStatus.BALANCED, "exact", value_set=vals)
    return BalanceVerdict(
        BalanceStatus.UNBALANCED,
        "exact",
        value_set=vals,
        witness=_find_witness(m, n),
    )


def circle_partition(m: int, n: int) -> CirclePartition:
    """Exact-arithmetic construction of the breakpoints and arc values.

    Slow reference route on QuadraticValue; the integer sweep must agree
    with it.  Arc values are evaluated at each breakpoint with the >= rule,
    i.e. as right limits.
    """
    if m == 0 or n == 0:
        raise ValueError("partition needs m, n >= 1")
    beta = ONE - (GAMMA * n).frac()
    # the two index ranges overlap when m > n; keep each point once
    points = sorted(
        {(GAMMA * (-j)).frac() for j in [*range(m), *range(n, n + m)]}
    )
    arc_values = []
    for p in points:
        count = 0
        for k in range(m):
            diff = (p + GAMMA * k).frac() - beta
            if diff.sign() >= 0:
                count += 1
        arc_values.append(count)
    return CirclePartition(tuple(points), tuple(arc_values))


def t_counting_form(i: int, m: int, n: int) -> int:
    """T(i, m, n) = m*floor(n*gamma) + #{k < m : frac((i+k)*gamma) >= beta}.

    Evaluated on exact quadratic values.  Equality with beta is impossible
    for i + k + n >= 1; a defensive assertion guards that.
    """
    if m == 0 or n == 0:
        return 0
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
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if m == 0 or n == 0:
        return BalanceVerdict(
            BalanceStatus.UNKNOWN_UP_TO_HORIZON, "scan", horizon=horizon
        )
    s = sturmian_a_word().count_table(1, horizon + m + n + 1)
    t = window_counts(s, m, n, 0, horizon + 1)
    d = np.diff(t)
    assert d.size == 0 or (int(d.min()) >= -1 and int(d.max()) <= 1)
    nz = np.flatnonzero(d)
    if len(nz) >= 2:
        vals = d[nz]
        hits = np.flatnonzero(vals[:-1] == vals[1:])
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
# Zeckendorf digit rule


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
    check_nonnegative(m=m, n=n)
    if m > n:
        m, n = n, m
    if m <= 1:
        return True
    a = fib_index_list(m).indices
    b = fib_index_list(n).indices
    a1 = a[0]
    b_smallest = b[-1]
    if len(a) == 1 and a1 in b:
        return True
    if a1 < b_smallest:
        return True
    if len(a) == 1 and a1 not in b:
        above = [x for x in b if x > a1]
        # m = F_a1 <= n forces some b above a1, but guard anyway
        if above and (min(above) - a1) % 2 == 0:
            return True
    if a1 == b_smallest and len(b) >= 2 and (b[-2] - b[-1]) % 2 == 1:
        return True
    return False


# ---------------------------------------------------------------------------
# square-rectangle growth identities (direct word computation)


def diverse_identities_check(k: int) -> bool:
    """Verify the two square-rectangle sum gaps at the k-th scale by direct
    computation on the plain Fibonacci word: the gap at side F_{6k}/2 is 2k
    and at side F_{6k+3}/2 is 2k+1."""
    if k < 1:
        raise ValueError("k must be >= 1")
    f = word(SequenceKind.FIBONACCI)
    i1 = (fibonacci(6 * k - 1) - 1) // 4
    i2 = (fibonacci(6 * k + 2) - 1) // 4
    side = fibonacci(6 * k) // 2
    j1 = (fibonacci(6 * k + 5) - 1) // 4
    side2 = fibonacci(6 * k + 3) // 2
    need = max(i1, i2, j1) + 2 * max(side, side2)
    if need > f.budget:
        raise BudgetExceeded(
            f"identities at k={k} need {need} symbols, budget {f.budget}"
        )
    gap1 = word_rect_sum(f, i1, side, side) - word_rect_sum(f, i2, side, side)
    gap2 = word_rect_sum(f, j1, side2, side2) - word_rect_sum(f, i2, side2, side2)
    return gap1 == 2 * k and gap2 == 2 * k + 1


# ---------------------------------------------------------------------------
# batched sweeps


def row_value_spans(mu: int, nu_hi: int) -> np.ndarray:
    """Spans (max - min of the cyclic counting function) for all nu in
    [mu, nu_hi], vectorized.  Balanced iff span <= 1."""
    if mu == 0:
        return np.zeros(nu_hi - mu + 1, dtype=np.int32)
    rank = _TABLES.rank(nu_hi + mu)
    windows = sliding_window_view(rank, mu)[mu : nu_hi + 1]
    batch = windows.shape[0]
    pos = np.empty((batch, 2 * mu), dtype=np.int32)
    pos[:, :mu] = rank[:mu]
    pos[:, mu:] = windows
    sig = np.concatenate(
        [np.full(mu, -1, dtype=np.int16), np.ones(mu, dtype=np.int16)]
    )
    steps = sig[np.argsort(pos, axis=1)]
    c = np.cumsum(steps, axis=1, dtype=np.int16)
    return (c.max(axis=1) - c.min(axis=1)).astype(np.int32)


_TABLE_CACHE: dict[int, np.ndarray] = {}
_TABLE_LOCK = threading.Lock()


def balance_table(limit: int, jobs: int | None = None) -> np.ndarray:
    """Symmetric boolean matrix of exact balance verdicts for m, n <= limit.

    Built once per process with the circle sweep batched row by row; rows
    distribute across threads (argsort releases the GIL) and merge in index
    order, so the result is deterministic.
    """
    with _TABLE_LOCK:
        for have, table in _TABLE_CACHE.items():
            if have >= limit:
                return table[: limit + 1, : limit + 1]
    out = np.zeros((limit + 1, limit + 1), dtype=bool)
    out[0, :] = True
    out[:, 0] = True

    def fill(mu: int) -> None:
        out[mu, mu:] = row_value_spans(mu, limit) <= 1

    _TABLES.rank(2 * limit)  # build shared tables before threading
    _TABLES.G(2 * limit)
    workers = jobs or 2
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(fill, range(1, limit + 1)))
    else:
        for mu in range(1, limit + 1):
            fill(mu)
    lower = np.tril_indices(limit + 1, -1)
    out[lower] = out.T[lower]
    out.flags.writeable = False
    with _TABLE_LOCK:
        _TABLE_CACHE[limit] = out
    return out
