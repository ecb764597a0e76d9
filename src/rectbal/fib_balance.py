"""Balance of Fibonacci-word rectangles.

Three mutually independent routes decide whether the m x n rectangle sums
T(i, m, n) take at most two distinct values over all i:

* ``exact_balance`` reduces the quantifier over all i to finitely many arcs
  of the unit circle cut by the points frac(-j*gamma), via the identity
  T(i, m, n) = m*floor(n*gamma) + #{k < m : frac((i+k)*gamma) >= beta} with
  beta = 1 - frac(n*gamma).  This is a true decision procedure.  It asks
  ``fib_scalar.arc_balanced`` first, the arc cover of ``balance_table``
  searched in O(log q) integer steps, so a balanced pair answers at any
  size with no table; an unbalanced pair's value set and witness come from
  the cover table below, held to the symbol budget and _Q_MAX.
  ``is_balanced`` reads only that table, the route that shares no lemma
  with the arc cover.
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
(j*p) mod q.  Each step of T in i order is three key comparisons.  T_q, T
with (j*p) // q in place of floor(j*gamma) on a Fibonacci q > m + n, takes
only values of T, and every value of T is taken below F_{k+2}, F_k <= m + n
- 1 < F_{k+1} (three-gap theorem).  So a verdict reads T_q over [0,
F_{k+2}) on a convergent past F_{k+2} + m + n, as chunks of a Fibonacci
length L near 2*q^(2/3), each chunk's keys the first chunk's shifted by a
small delta, so every chunk is the first with a few steps edited: the
extremes, and the first chunk, segment and offset that take each, come from
the first chunk's partial sums and a small table of the edits, O(L +
q^(2/3)) work.  ``is_balanced``, and ``exact_balance`` for an unbalanced
pair, read this one cover table, or sort the 2*mu event keys when they are
fewer than its entries; then the witness comes from the same table, or from
T in i order when the table passes the symbol budget.  Scalar T needs no
table: its floor sums come from a Euclid-like recursion.  A table past the
symbol budget (a chunk table counts its chunk and its candidate edits), or
a table of j*p past the q where j*p leaves int64, raises
``BudgetExceeded``.

``balance_table`` decides every pair by an arc cover: (mu, nu) is balanced
iff key(nu) lies in none of the mu - 1 arcs between key(e) and key(e - mu),
0 < e < mu, so a row of verdicts reads one cumsum of arc ends over Z_q and
the table costs O(limit**2).  ``row_value_bounds`` and ``rectbal fib sweep``
need the value sets, not only verdicts, and run the circle route one row mu
at a time with no sort per window: the window j in [nu, nu+mu) is the block
[0, mu) rotated by frac(nu*gamma), so its circle order is a cyclic shift of
the block's (Sos 1957), starting at the rank of q - key(nu) among the
block's keys.  The two are independent routes to the same verdicts.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import limits
from .exact_quadratic import GAMMA, ONE
from .fib_scalar import BalanceStatus, _convergent, arc_balanced, t_value
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

# The tables that form j*p in int64 (the event keys, ``_circle_keys`` and
# ``_floor_sums``) hold |j| < q: F_48 = 4,807,526,976 is the largest
# Fibonacci q with (q - 1)*F_46 < 2**63.  The chunk tables add keys instead
# (``_doubled_keys``) and need only 2q < 2**63 (see ``_cover``).
_Q_MAX = 4_807_526_976


def _table_convergent(bound: int, entries: int | None = None) -> tuple[int, int]:
    """_convergent for int64 tables of j*p with ``entries`` (default q)
    entries; it raises before any allocation past _Q_MAX or the symbol
    budget."""
    p, q = _convergent(bound)
    if q > _Q_MAX:
        raise BudgetExceeded(f"q = {q} for index bound {bound}; int64 keys hold q <= {_Q_MAX}")
    check_budget(q if entries is None else entries, "table entries")
    return p, q


def _keys(start: int, stop: int, p: int, q: int) -> np.ndarray:
    """key(j) = (j*p) mod q for start <= j < stop."""
    keys = np.arange(start, stop, dtype=np.int64)
    keys *= p
    keys %= q
    return keys


def _floor_sums(size: int) -> np.ndarray:
    """G[j] = sum_{k<j} floor(k*gamma) for j <= size, exact in int64."""
    p, q = _table_convergent(size, size + 1)
    G = np.zeros(size + 1, dtype=np.int64)
    np.cumsum(np.arange(size, dtype=np.int64) * p // q, out=G[1:])
    return G


# ---------------------------------------------------------------------------
# the scan of T in i order


class _Count(NamedTuple):
    """c(y) = #{nu <= j < nu+mu : key(j) <= y} - #{j < mu : key(j) <= y} on
    Z_q, q = F_K > mu + nu: window points minus block points up to y.  The
    value set is t0 - [lo, hi], the extremes of c, with t0 = T(0, mu, nu).

    Let T_q be T on g_q(j) = (j*p) // q in place of floor(j*gamma): g_q(i+j)
    = g_q(i) + g_q(j) + [key(j) >= key(-i)] for i not 0 mod q, so T_q(i) =
    t0 - c((key(-i) - 1) mod q) at every i of Z_q, and T_q(i) = T(i) for i <
    q - mu - nu.  T_q has period q and i -> key(-i) - 1 is a bijection of
    Z_q, so one period of T_q takes exactly the values t0 - c(y).
    """

    mu: int
    nu: int
    t0: int
    lo: int
    hi: int


def _steps(mu: int, nu: int, p: int, q: int) -> tuple[int, int, int, int]:
    """(d0, up, down1, down2): T_q's step at i is d0 + [key(i) >= up] -
    [key(i) >= down1] - [key(i) >= down2] (see ``_t_scan``)."""
    d0 = (mu + nu) * p // q - nu * p // q - mu * p // q
    return (d0, *(q - s * p % q for s in (mu + nu, nu, mu)))


def _step_sums(
    key: np.ndarray, steps: tuple[int, int, int, int], start: int
) -> tuple[np.ndarray, int]:
    """T_q(i) - T(0) in int32 for i0 <= i < i1 from the keys of those i and
    start = T_q(i0) - T(0), and T_q(i1) - T(0); ``steps`` is ``_steps``'."""
    d0, up, down1, down2 = steps
    w = (key >= up).view(np.int8) - (key >= down1).view(np.int8)
    w -= (key >= down2).view(np.int8)
    t = np.empty(len(key), dtype=np.int32)
    t[0] = start
    np.add(w[:-1], d0, out=t[1:])
    np.cumsum(t, out=t)
    return t, int(t[-1]) + int(w[-1]) + d0


def _t_scan(
    mu: int, nu: int, p: int, q: int, stop: int
) -> Iterator[tuple[int, np.ndarray]]:
    """(i0, T_q(i) - T(0)) in int32 for i0 <= i < i1, chunk by chunk in order
    over 0 <= i < stop, on the convergent p/q (see ``_Count``): the witness
    scan.  Its chunks end at 1024, 5120, 21504, ... and hold at most the
    symbol budget's positions.

    T_q(i+1) - T_q(i) = g_q(i+mu+nu) - g_q(i+nu) - g_q(i+mu) + g_q(i), and
    g_q(i+s) = g_q(i) + g_q(s) + [key(i) + key(s) >= q], so the step is d0 +
    [key(i) >= q - key(mu+nu)] - [key(i) >= q - key(nu)] - [key(i) >= q -
    key(mu)], d0 = g_q(mu+nu) - g_q(nu) - g_q(mu).  The keys are base[i - i0]
    + key(i0) mod q, with base[t] = t*p mod q up to the chunk's length, built
    by ``_doubled_keys`` for each chunk longer than the last, so a witness in
    the first chunk costs its 1024 keys, not the budget's: int32 while 2q <
    2^31, and int64 past it, which only far witness scans reach."""
    steps = _steps(mu, nu, p, q)
    budget = limits.BUDGET
    base = np.empty(0)
    i = carry = 0
    while i < stop:
        end = min(stop, 4 * i + 1024, i + budget)
        if len(base) < end - i:
            base = _doubled_keys(end - i, p, q)
            dtype, sign = base.dtype.type, 8 * base.itemsize - 1
        key = base[: end - i] + dtype(i * p % q - q)  # in [-q, q)
        key += (key >> sign) & dtype(q)
        t, carry = _step_sums(key, steps, carry)
        yield i, t
        i = end


def _chunk_length(q: int) -> int:
    """L = F_r, the least Fibonacci number with L**3 >= 8*q**2 (L >= 2*q^(2/3)),
    capped at q: the chunk length of ``_chunk_table``.

    For q = F_K and L = F_r < q, delta = L*p mod q = +-F_{K-r} (Vajda's
    identity F_r F_{K-2} - F_{r-2} F_K = (-1)^r F_{K-r}), and F_r F_{K-r} <=
    F_K, so |delta| <= q/L.  With C = ceil(q/L) chunks, (C-1)|delta| <
    q**2/L**2 <= q^(2/3)/4 < q, which ``_chunk_table`` needs.  Its work
    is a few passes over L positions, 4(C-1)|delta| < 4*q**2/L**2 candidate
    keys, and a table of C rows by one column per edited offset: about
    4(C-1)|delta|*L/q <= 4C columns when the offsets spread evenly, so about
    4*q**2/L**2 cells.  That is O(L + q**2/L**2), least at L ~ q^(2/3), and
    the factor 2 holds the candidates and the table to q^(2/3) <= L/2 each,
    so the passes over the chunk dominate.
    """
    a, b = 1, 2
    while a**3 < 8 * q * q and a < q:
        a, b = b, a + b
    return min(a, q)


def _doubled_keys(L: int, p: int, q: int) -> np.ndarray:
    """key(r) = (r*p) mod q for r < L by doubling, key(r + n) = key(r) +
    key(n) less q past it, with no branch: in unsigned ints the sum s < 2q
    less q wraps above s exactly when s < q, so the key is min(s, s - q).
    Built in uint32 while 2q < 2^31 and uint64 past it, and returned as the
    int32 or int64 view; both operands of every pass share the unsigned
    dtype, so numpy's promotion rules, before NEP 50 and after, agree."""
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


def _chunk_entries(p: int, q: int, L: int, chunks: int) -> int:
    """The size rule of ``_chunk_table``: it holds the chunk's L positions
    and at most 4(C-1)|delta| candidate keys, C = ``chunks``."""
    delta = L * p % q
    return max(L, 4 * (chunks - 1) * min(delta, q - delta))


def _chunk_table(
    mu: int, nu: int, p: int, q: int, L: int, chunks: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(s0, starts, origin, table): T_q(i) - T(0) for 0 <= i < C*L, C =
    ``chunks``, read as C chunks of L positions, for (C-1)|delta| < q (see
    below).  s0 holds chunk 0's partial sums, starts the segment starts, and
    chunk c at offset r in segment g holds origin[c] + table[c, g] + s0[r].

    The steps are ``_t_scan``'s, d0 + W(key(i)) with W(y) = [y >= up] - [y >=
    down1] - [y >= down2] on Z_q: W jumps by +1 at up, -1 at down1 and down2,
    and +1 at 0 (W(q-1) = -1, W(0) = 0).  Chunk c's keys are chunk 0's
    shifted, key(cL + r) = key(r) + c*delta mod q with delta = L*p mod q taken
    in (-q/2, q/2), so its step at r differs from chunk 0's by the jumps the
    shift carries key(r) across.  For delta > 0 the jump at a is crossed from
    the first c with c*delta >= (a - key(r)) mod q >= 1; for delta < 0 from
    the first c with c*|delta| > (key(r) - a) mod q, with the jump's sign
    reversed.  As (C-1)|delta| < q, the edited keys are the (C-1)|delta| keys
    beside each jump, each edited from one chunk on, and key y sits at offset
    y*p^-1 mod q, p^-1 = +-p (F_{K-2}^2 = F_{K-4} F_K + (-1)^K); those at
    offsets below L are edits.  The candidate key a - 1 - e (forward) or a
    + e sits at offset b - e*p^-1 or b + e*p^-1 mod q, b the offset of a - 1
    or a, and e*p^-1 = +-key(e) mod q: the candidate offsets are the doubled
    keys shifted, with no division.

    Cut [0, L) after every edited offset.  On each segment, chunk c's partial
    sums are chunk 0's plus the sum of chunk c's edits before the segment:
    the chunk x segment table, two cumsums of the edits; its last column is
    chunk c's edit to its total.  Chunk c starts at origin[c], the sum of the
    chunk totals before it.  The candidate keys are built one jump at a time.
    """
    steps = _steps(mu, nu, p, q)
    delta = L * p % q
    forward = 2 * delta < q
    step = delta if forward else q - delta
    # the key e + 1 before a jump (forward) or e past it is carried across
    # from chunk e // step + 1 on, for e < (C-1)|delta|
    key = _doubled_keys(max(L, (chunks - 1) * step), p, q)
    s0, total = _step_sums(key[:L], steps, 0)  # chunk 0
    e_key = key[: (chunks - 1) * step]
    dtype, sign_bit = key.dtype.type, 8 * key.itemsize - 1
    inverse = p if p * p % q == 1 else -p
    _, up, down1, down2 = steps
    edits = []  # (offsets, first chunks, sign) of each jump; q is the wrap
    for jump, sign in ((up, 1), (down1, -1), (down2, -1), (q, 1)):
        b = (jump - 1 if forward else jump) * inverse % q
        if (inverse == p) == forward:  # b - key(e) mod q
            r = dtype(b) - e_key
        else:  # b + key(e) mod q
            r = e_key + dtype(b - q)
        r += (r >> sign_bit) & dtype(q)
        inside = np.flatnonzero(r < L)
        edits.append((r[inside], inside // step + 1, sign if forward else -sign))

    cuts = np.sort(np.concatenate([r + 1 for r, _, _ in edits] + [[0]]))
    starts = cuts[np.append(True, cuts[1:] != cuts[:-1])]
    starts = starts[starts < L]
    table = np.zeros((chunks, len(starts) + 1), dtype=np.int32)
    for r, first, sign in edits:
        np.add.at(table, (first, np.searchsorted(starts, r, "right")), sign)
    np.cumsum(table, axis=0, out=table)
    np.cumsum(table, axis=1, out=table)
    origin = np.zeros(chunks, dtype=np.int64)
    np.cumsum(table[:-1, -1] + total, out=origin[1:])
    return s0, starts, origin, table


def _table_extremes(
    mu: int, nu: int, p: int, q: int, L: int, stop: int
) -> tuple[int, int, list[int] | None]:
    """(low, high, hits): the min and max of T_q(i) - T(0) over 0 <= i < C*L,
    read off ``_chunk_table``'s C = ceil(stop/L) chunks, and when high - low
    >= 2 the first i there that takes low and the first that takes high
    (else None).  Chunk c's extremes are origin[c] plus the extremes over
    segments of its table row plus s0's.  An extreme's first hit lies in the
    first chunk c that takes it, in the first segment g whose extreme it is,
    at the first offset r from the segment's start with origin[c] + table[c,
    g] + s0[r] = the extreme."""
    s0, starts, origin, table = _chunk_table(mu, nu, p, q, L, -(-stop // L))
    # chunk x segment
    parts = [table[:, :-1] + f.reduceat(s0, starts) for f in (np.minimum, np.maximum)]
    chunks = parts[0].min(axis=1) + origin, parts[1].max(axis=1) + origin
    low, high = int(chunks[0].min()), int(chunks[1].max())
    if high - low < 2:
        return low, high, None
    hits = []
    for target, part, per_chunk in zip((low, high), parts, chunks):
        c = int(np.argmax(per_chunk == target))
        in_chunk = target - int(origin[c])
        g = int(np.argmax(part[c] == in_chunk))
        r = int(starts[g])
        r += int(np.argmax(s0[r:] == in_chunk - int(table[c, g])))
        hits.append(c * L + r)
    return low, high, hits


def _cover(mu: int, nu: int) -> tuple[int, int, int, int, int]:
    """(p', q', L, F_{k+2}, entries): the cover table of a pair with mu >= 1,
    ``_chunk_table`` on p'/q' = _convergent(F_{k+2} + mu + nu) over the
    ceil(F_{k+2}/L) chunks of L = ``_chunk_length(q)`` that cover [0,
    F_{k+2}), q = F_K the least Fibonacci number > mu + nu, and the number
    of entries it holds (``_chunk_entries``); see ``_find_witness``.
    ``_count`` reads it unless the 2*mu event keys are fewer.

    Its keys are added, never multiplied (``_doubled_keys``), so it needs
    2q' < 2**63, not q' <= _Q_MAX, and every table within the symbol budget
    has it: entries >= L, so L <= MAX_BUDGET < 2**31 and L <= F_46; L = q
    or L**3 >= 8q**2 then gives q <= (F_46/2)**1.5 < F_67, and q' = F_{K+2}
    <= F_68 < 1.2*10**14."""
    p, q = _convergent(mu + nu - 1)  # F_{k-1}, F_{k+1}
    cover = 2 * q - p  # F_{k+2}; T_q = T below it for q > cover + mu + nu
    p, q = _convergent(cover + mu + nu)
    L = _chunk_length(_convergent(mu + nu)[1])
    return p, q, L, cover, _chunk_entries(p, q, L, -(-cover // L))


def _event_extremes(mu: int, nu: int) -> tuple[int, int]:
    """(lo, hi) of ``_Count`` from the 2*mu event keys sorted: key(0) = 0 is
    an event and c ends at 0, so c takes its extremes at event keys."""
    p, q = _table_convergent(mu + nu, 2 * mu)
    keys = np.concatenate([_keys(0, mu, p, q), _keys(nu, nu + mu, p, q)])
    c = np.cumsum(np.where(np.argsort(keys) < mu, np.int32(-1), np.int32(1)))
    return int(c.min()), int(c.max())


def _count(m: int, n: int) -> tuple[_Count, list[int] | None]:
    """The extremes of c and, when T takes 3 or more values, the first i
    at T's min and the first at its max, or None.  A pair reads both off
    its cover table (``_cover``, ``_table_extremes``; its extremes are T's,
    see ``_find_witness``), or sorts its 2*mu event keys when they are fewer
    than the table's entries and leaves the hits to ``_find_witness``.  With
    a zero side there are no events, and T is 0 everywhere.

    No pair that the former split (sorted keys iff 16*mu < mu + nu)
    answered raises.  One moved to the table holds entries <= 2*mu, which
    fit wherever its keys did.  One moved to the sorted keys (16*mu >= mu +
    nu, 2*mu < entries) has m + n <= 20,656: the entries depend on m + n
    only through q = F_K and whether m + n = F_{K-1} (``_find_witness``),
    and 2*mu >= (m + n)/8, so the least size of each class, over every K,
    gives the largest.  There q < _Q_MAX and 2*mu < entries <= the budget
    that its table passed."""
    check_at_least(0, m=m, n=n)
    mu, nu = min(m, n), max(m, n)
    if mu == 0:
        return _Count(mu, nu, 0, 0, 0), None
    p, q, L, cover, entries = _cover(mu, nu)
    if 2 * mu < entries:
        return _Count(mu, nu, t_value(0, mu, nu), *_event_extremes(mu, nu)), None
    check_budget(entries, "table entries")
    low, high, hits = _table_extremes(mu, nu, p, q, L, cover)
    return _Count(mu, nu, t_value(0, mu, nu), -high, -low), hits


def is_balanced(m: int, n: int) -> bool:
    """Exact verdict without witness construction, off the cover table or the
    sorted event keys (``_count``), so it is held to the symbol budget and
    _Q_MAX; ``arc_balanced`` answers at any size by the arc lemma, which
    this route does not use."""
    count, _ = _count(m, n)
    return count.hi - count.lo <= 1


def _find_witness(count: _Count, hits: list[int] | None) -> tuple[int, int, int, int]:
    """The first i with T(i) = min T and the first with T(i) = max T, in
    increasing order, with their values; ``hits`` holds the two when
    ``_count`` has read them already.

    Both lie below F_{k+2}, where F_k <= m+n-1 < F_{k+1} and k >= 2.  For i
    >= 1, T(i) is fixed by the open arc between event points frac(j*gamma),
    j in [0, mu) u [nu, nu+mu), that holds frac(-i*gamma).  Each arc is at
    least min_{0<d<m+n} ||d*gamma|| = ||F_k*gamma|| long, and the orbit
    points i < F_{k+2} leave gaps of at most ||F_k*gamma|| (three-gap
    theorem): the orbit's largest gap is not above the partition's smallest
    arc, so an arc holding no orbit point would be a gap with orbit points
    at both ends, but the two point sets share only 0.

    Below the cover F_{k+2}, T = T_q' for p'/q' = _convergent(F_{k+2} + mu +
    nu).  The cover table is ``_chunk_table`` on q' over the C' =
    ceil(F_{k+2}/L) chunks that cover the range, with L = ``_chunk_length(q)``,
    q = F_K the least Fibonacci number > mu + nu (``_cover``), and
    ``_table_extremes`` reads both first hits off it.  The edit arcs fit on
    Z_q': L = F_r <= q < q', so |delta'| = F_{K'-r} <= q'/L for q' = F_{K'}
    (see ``_chunk_length``); k <= K - 1, so F_{k+2} <= F_{K+1} < 2q; and
    L**2 >= 2q, from L**3 >= 8q**2 or L = q >= 3.  Hence (C'-1)|delta'| <
    (F_{k+2}/L)(q'/L) < q' * 2q/L**2 <= q'.  As k = K - 2 at m + n = F_{K-1},
    k = K - 1 above it and q' = F_{K+2}, the table's size depends on m + n
    only through q and whether m + n = F_{K-1}.

    The table's extremes over [0, C'L) are T's too: every value of T is
    taken below F_{k+2}, where T_q' = T, and T_q' takes only values of T at
    any i, since one period of it takes exactly t0 - c(y) (see ``_Count``;
    q' is a Fibonacci number > mu + nu), so the last chunk's tail past the
    cover adds none.  A count from the sorted event keys checks the table's
    extremes against its own, or, when the table passes the symbol budget
    (never the default: sorted keys need q <= _Q_MAX, where the table holds
    at most 5,702,887 entries), reads T in i order by ``_t_scan``.  Both
    witnesses are re-checked by ``t_value``.
    """
    mu, nu = count.mu, count.nu
    if hits is None:
        p, q, L, cover, entries = _cover(mu, nu)
        targets = (-count.hi, -count.lo)  # the min and max of T - t0
        if entries <= limits.BUDGET:
            *extremes, hits = _table_extremes(mu, nu, p, q, L, cover)
            assert tuple(extremes) == targets, (mu, nu)
        else:
            first = {}  # value of T - t0 -> first i where T takes it
            for i0, t in _t_scan(mu, nu, p, q, cover):
                for target in targets:
                    if target not in first:
                        found = np.flatnonzero(t == target)
                        if len(found):
                            first[target] = i0 + int(found[0])
                if len(first) == 2:
                    break
            else:
                raise RuntimeError(f"no witness found for ({mu}, {nu})")
            hits = list(first.values())
    i, j = sorted(hits)
    ti, tj = t_value(i, mu, nu), t_value(j, mu, nu)
    assert {ti, tj} == {count.t0 - count.hi, count.t0 - count.lo}
    return i, j, ti, tj


def exact_balance(m: int, n: int) -> BalanceVerdict:
    """Decide balance exactly at any size when balanced, and by the circle
    partition, with a witness pair of rectangle indices, when not.

    ``arc_balanced`` decides first, with no table.  A balanced pair with mu
    >= 1 takes exactly the values (t0, t0 + 1), t0 = T(0, mu, nu): c (see
    ``_Count``) has c(0) = -1, as key(0) = 0 is a block point and no window
    key is 0, and c(q - 1) = 0; so lo <= -1 < 0 <= hi, and hi - lo <= 1
    leaves lo = -1, hi = 0.  An unbalanced pair reads its value set and
    witness off its cover table or its sorted event keys (``_count``,
    ``_find_witness``), whose spread, at least 2, checks the arc verdict;
    those tables, not the verdict, are held to the symbol budget and to
    _Q_MAX."""
    check_at_least(0, m=m, n=n)
    mu, nu = min(m, n), max(m, n)
    if mu == 0:  # no events: T is 0 everywhere
        return BalanceVerdict(BalanceStatus.BALANCED, "exact", value_set=(0,))
    if arc_balanced(mu, nu):
        t0 = t_value(0, mu, nu)
        return BalanceVerdict(BalanceStatus.BALANCED, "exact", value_set=(t0, t0 + 1))
    count, hits = _count(mu, nu)
    assert count.hi - count.lo >= 2, (mu, nu)
    return BalanceVerdict(
        BalanceStatus.UNBALANCED,
        "exact",
        value_set=tuple(range(count.t0 - count.hi, count.t0 - count.lo + 1)),
        witness=_find_witness(count, hits),
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
    and its min min(c - 1).
    """
    a = keys[:mu]
    below = np.zeros(q + 1, dtype=np.int16)  # below[y] = #{a < y}
    below[a + 1] = 1
    np.cumsum(below, out=below)
    inv = below[a]  # the rank of each key of A, which are distinct
    below_windows = sliding_window_view(below[keys], mu)
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
    """The int32 keys (j*p) mod q of j < size, and q."""
    p, q = _table_convergent(size)
    return _keys(0, size, p, q).astype(np.int32), q


def row_value_bounds(mu: int, nu_hi: int) -> tuple[np.ndarray, np.ndarray]:
    """(min, max) of T(i, mu, nu) over i for all nu in [mu, nu_hi]; the value
    set of each pair is every integer between the two.  Empty when
    nu_hi < mu; for mu = 0 the counting function has no events and T = 0."""
    check_at_least(0, mu=mu, nu_hi=nu_hi)
    if mu > _ROW_MU_MAX:
        raise BudgetExceeded(
            f"row kernel requested at mu = {mu}, int16 lanes hold mu <= {_ROW_MU_MAX}"
        )
    lo = hi = 0
    if mu and nu_hi >= mu:
        lo, hi = _row_extrema(*_circle_keys(nu_hi + mu), mu, nu_hi)
    G = _floor_sums(nu_hi + mu)
    nu = np.arange(mu, nu_hi + 1)
    t0 = G[mu + nu] - G[nu] - G[mu]  # T(0, mu, nu)
    return t0 - hi, t0 - lo


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
