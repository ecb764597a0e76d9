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
  the cover table below, held to the symbol budget.  ``is_balanced`` reads
  that table or the sorted event keys, routes that share no lemma with the
  arc cover.
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
q^(2/3)) work.  ``exact_balance`` reads an unbalanced pair's value set and
witness off this one cover table whenever it fits the symbol budget.  Past
the budget, a pair with fewer event keys sorts its 2*mu keys and reads its
witness off T in i order; no budget of 5,702,887 or more does, as no q <=
_Q_MAX, which the keys need, has a larger cover table.  ``is_balanced``
needs no witness and sorts the keys whenever they are fewer and q <=
_Q_MAX.  Scalar T needs no table: its floor sums come from a Euclid-like
recursion.  A table past the symbol budget (a chunk table counts
its chunk and its candidate edits), or event keys past the q where j*p
leaves int64, raises ``BudgetExceeded``.

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
from typing import Iterator

import numpy as np
from numpy.lib.stride_tricks import as_strided

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

# The sorted event keys form j*p in int64 for |j| < q: F_48 = 4,807,526,976
# is the largest Fibonacci q with (q - 1)*F_46 < 2**63.  The symbol budget
# holds the other tables of j*p inside int64 (see ``_floor_sums``), and the
# chunk tables add keys instead (``_doubled_keys``; see ``_cover``).
_Q_MAX = 4_807_526_976


def _keys(start: int, stop: int, p: int, q: int) -> np.ndarray:
    """key(j) = (j*p) mod q for start <= j < stop."""
    keys = np.arange(start, stop, dtype=np.int64)
    keys *= p
    keys %= q
    return keys


def _floor_sums(size: int) -> np.ndarray:
    """G[j] = sum_{k<j} floor(k*gamma) for j <= size, exact in int64.  Here
    and in ``_circle_keys``, whose entries are size + 1 and q, the budget
    keeps j*p < 2**62: j < MAX_BUDGET < F_47, so q = F_K <= F_47 and both j
    and p = F_{K-2} <= F_45 are below 2**31."""
    check_budget(size + 1, "table entries")
    p, q = _convergent(size)
    G = np.zeros(size + 1, dtype=np.int64)
    np.cumsum(np.arange(size, dtype=np.int64) * p // q, out=G[1:])
    return G


# ---------------------------------------------------------------------------
# the scan of T in i order


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
    over 0 <= i < stop, on the convergent p/q (see ``_extremes``): the
    witness scan past the symbol budget.  Its chunks end at 1024, 5120,
    21504, ... and hold at most the symbol budget's positions.

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
    """(p', q', L, F_{k+2}, entries): the cover table of a pair with mu >= 1
    and the number of entries it holds (``_chunk_entries``).  It is
    ``_chunk_table`` on p'/q' = _convergent(F_{k+2} + mu + nu) over the C' =
    ceil(F_{k+2}/L) chunks of L = ``_chunk_length(q)`` that cover [0,
    F_{k+2}), where F_k <= mu + nu - 1 < F_{k+1} and q = F_K is the least
    Fibonacci number > mu + nu; ``_table_extremes`` reads T's extremes and
    their first hits off it.

    Every value of T is taken below the cover F_{k+2} (k >= 2).  For i >=
    1, T(i) is fixed by the open arc between event points frac(j*gamma), j
    in [0, mu) u [nu, nu+mu), that holds frac(-i*gamma).  Each arc is at
    least min_{0<d<m+n} ||d*gamma|| = ||F_k*gamma|| long, and the orbit
    points i < F_{k+2} leave gaps of at most ||F_k*gamma|| (three-gap
    theorem): the orbit's largest gap is not above the partition's smallest
    arc, so an arc holding no orbit point would be a gap with orbit points
    at both ends, but the two point sets share only 0.

    Below the cover, T = T_q' (see ``_extremes``).  The edit arcs fit on
    Z_q': L = F_r <= q < q', so |delta'| = F_{K'-r} <= q'/L for q' = F_{K'}
    (see ``_chunk_length``); k <= K - 1, so F_{k+2} <= F_{K+1} < 2q; and
    L**2 >= 2q, from L**3 >= 8q**2 or L = q >= 3.  Hence (C'-1)|delta'| <
    (F_{k+2}/L)(q'/L) < q' * 2q/L**2 <= q'.  As k = K - 2 at m + n = F_{K-1},
    k = K - 1 above it and q' = F_{K+2}, the table's size depends on m + n
    only through q and whether m + n = F_{K-1}.  Its extremes over [0, C'L)
    are T's: T_q' takes only values of T at any i, as one period of it
    takes exactly t0 - c(y) (q' is a Fibonacci number > mu + nu), so the
    last chunk's tail past the cover adds none.

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
    """(lo, hi) of c (see ``_extremes``) from the 2*mu event keys sorted:
    key(0) = 0 is an event and c ends at 0, so c takes its extremes at event
    keys.  The keys form j*p in int64, so they need q <= _Q_MAX."""
    p, q = _convergent(mu + nu)
    if q > _Q_MAX:
        raise BudgetExceeded(f"q = {q} for index bound {mu + nu}; int64 keys hold q <= {_Q_MAX}")
    check_budget(2 * mu, "table entries")
    keys = np.concatenate([_keys(0, mu, p, q), _keys(nu, nu + mu, p, q)])
    c = np.cumsum(np.where(np.argsort(keys) < mu, np.int32(-1), np.int32(1)))
    return int(c.min()), int(c.max())


def _extremes(mu: int, nu: int, witness: bool) -> tuple[int, int, list[int] | None]:
    """(low, high, hits): the min and max of T - t0 over all i, t0 = T(0,
    mu, nu), for mu >= 1, and when high - low >= 2 the first i at low and
    the first at high, else None.  The cover table (``_cover``) gives all
    three whenever it fits the symbol budget.  A pair whose 2*mu event keys
    are fewer sorts them instead (``_event_extremes``): when the table passes
    the budget, reading a witness in i order up to the cover (``_t_scan``),
    and, being cheaper, whenever ``witness`` is unset and q <= _Q_MAX, which
    the keys need.  No cover table of a q <= _Q_MAX holds more than
    5,702,887 entries, so no larger budget sorts them for a witness.  Any
    other pair raises.

    Let c(y) = #{nu <= j < nu+mu : key(j) <= y} - #{j < mu : key(j) <= y}
    on Z_q, q = F_K > mu + nu: window points minus block points up to y.
    Let T_q be T on g_q(j) = (j*p) // q in place of floor(j*gamma): g_q(i+j)
    = g_q(i) + g_q(j) + [key(j) >= key(-i)] for i not 0 mod q, so T_q(i) =
    t0 - c((key(-i) - 1) mod q) at every i of Z_q, and T_q(i) = T(i) for i <
    q - mu - nu.  T_q has period q and i -> key(-i) - 1 is a bijection of
    Z_q, so one period of T_q takes exactly the values t0 - c(y).
    """
    p, q, L, cover, entries = _cover(mu, nu)
    sort = 2 * mu < entries and (
        entries > limits.BUDGET or not witness and _convergent(mu + nu)[1] <= _Q_MAX
    )
    if not sort:
        check_budget(entries, "table entries")
        return _table_extremes(mu, nu, p, q, L, cover)
    lo, hi = _event_extremes(mu, nu)  # T - t0 = -c
    if not witness or hi - lo < 2:
        return -hi, -lo, None
    first = {}  # value of T - t0 -> first i where T takes it
    for i0, t in _t_scan(mu, nu, p, q, cover):
        for target in {-hi, -lo} - first.keys():
            found = np.flatnonzero(t == target)
            if len(found):
                first[target] = i0 + int(found[0])
        if len(first) == 2:
            return -hi, -lo, [first[-hi], first[-lo]]
    raise RuntimeError(f"no witness found for ({mu}, {nu})")


def is_balanced(m: int, n: int) -> bool:
    """Exact verdict without witness construction, off the sorted event keys
    when they are fewer than the cover table's entries and q <= _Q_MAX, else
    off the table (``_extremes``), so it is held to the budget;
    ``arc_balanced`` answers at any size by the arc lemma, which neither
    route uses."""
    check_at_least(0, m=m, n=n)
    mu, nu = min(m, n), max(m, n)
    if mu == 0:  # no events: T is 0 everywhere
        return True
    low, high, _ = _extremes(mu, nu, witness=False)
    return high - low <= 1


def exact_balance(m: int, n: int) -> BalanceVerdict:
    """Decide balance exactly at any size when balanced, and by the circle
    partition, with a witness pair of rectangle indices, when not.

    ``arc_balanced`` decides first, with no table.  A balanced pair with mu
    >= 1 takes exactly the values (t0, t0 + 1), t0 = T(0, mu, nu): c (see
    ``_extremes``) has c(0) = -1, as key(0) = 0 is a block point and no
    window key is 0, and c(q - 1) = 0; so lo <= -1 < 0 <= hi, and hi - lo <=
    1 leaves lo = -1, hi = 0.  An unbalanced pair reads its value set and
    witness off its cover table, or past the symbol budget off its sorted
    event keys and T in i order (``_extremes``); their spread, at least 2,
    checks the arc verdict, and ``t_value`` re-checks the witness."""
    check_at_least(0, m=m, n=n)
    mu, nu = min(m, n), max(m, n)
    if mu == 0:  # no events: T is 0 everywhere
        return BalanceVerdict(BalanceStatus.BALANCED, "exact", value_set=(0,))
    t0 = t_value(0, mu, nu)
    if arc_balanced(mu, nu):
        return BalanceVerdict(BalanceStatus.BALANCED, "exact", value_set=(t0, t0 + 1))
    low, high, hits = _extremes(mu, nu, witness=True)
    assert high - low >= 2, (mu, nu)
    i, j = sorted(hits)
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
    """The int32 keys (j*p) mod q of j < size, and q (see ``_floor_sums``)."""
    p, q = _convergent(size)
    check_budget(q, "table entries")
    return _keys(0, size, p, q).astype(np.int32), q


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
