"""Independent routes that the tests check the package against.

Each computes a quantity the package also computes, by a different method:
floor-form T and the four-floor difference on the floor sums, the
difference of two rectangle sums on the morphism-generated word, the
Fibonacci and Thue-Morse symbols by their closed forms, the circle
partition on exact quadratic values, the Thue-Morse excess at every
position below a horizon, the factor complexities with the least factor
covers that `words.cover_bound` bounds, counted in word prefixes, and the
CSV of `rectbal fib sweep` written pair by pair from %-templates, T_q
scanned in i order, chunk by chunk, and T's extremes and first hits off
the sorted event keys.  It also draws the far-sparse pairs, and the sparse
pairs past the former cover tables, that more than one test file checks.
"""
from __future__ import annotations

import io
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

from rectbal import limits
from rectbal.exact_quadratic import GAMMA, ONE, QuadraticValue, floor_n_gamma
from rectbal.fib_balance import _doubled_keys, _floor_sums, is_balanced, row_value_bounds
from rectbal.fib_scalar import _convergent, _first, _steps, arc_balanced
from rectbal.rectangles import telescope, word_rect_sum
from rectbal.tm_balance import _ones
from rectbal.limits import check_at_least, check_budget
from rectbal.words import SequenceKind, factor_keys, sturmian_a_word, word


def t_value_vector(m: int, n: int, horizon: int) -> np.ndarray:
    """T(i, m, n) for all i < horizon, via the double-telescoped floor sums."""
    check_at_least(0, m=m, n=n, horizon=horizon)
    return telescope(_floor_sums(horizon + m + n), m, n, 0, horizon)


def delta_floor_form(i: int, m: int, n: int) -> int:
    """T(i+1,m,n) - T(i,m,n) as the four-floor combination."""
    check_at_least(0, m=m, n=n, i=i)
    p, q = _convergent(i + m + n)
    g = [j * p // q for j in (i + m + n, i + n, i + m, i)]
    return g[0] - g[1] - g[2] + g[3]


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


def t_scan(
    mu: int, nu: int, p: int, q: int, stop: int
) -> Iterator[tuple[int, np.ndarray]]:
    """(i0, T_q(i) - T(0)) in int32 for i0 <= i < i1, chunk by chunk in order
    over 0 <= i < stop, on the convergent p/q (see ``fib_balance._extremes``):
    the former witness scan past the symbol budget, and the in-order
    reference of the period walk.  Its chunks end at 1024, 5120, 21504, ...
    and hold at most the symbol budget's positions.

    The steps are ``fib_scalar._steps``'.  The keys are base[i - i0] +
    key(i0) mod q, with base[t] = t*p mod q up to the chunk's length, built
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


def _event_extremes(
    mu: int, nu: int, p: int, q: int, witness: bool
) -> tuple[int, int, list[int] | None]:
    """(low, high, hits) off the 2*mu event keys on the cover convergent p/q
    (``fib_balance._cover``), sorted: the min and max of T - T(0), and when
    ``witness`` is set and high - low >= 2 the first i at low and the first
    at high (else None), the former sparse reader of ``exact_balance``.
    The block's keys key(j), j < mu, are doubled keys, and the window's are
    key(nu + j) = key(j) + key(nu), less q past it.  key(0) = 0 is the least
    key, and c (see ``fib_balance._extremes``) ends at 0, so c is constant
    on each arc [k_t, k_{t+1}) between consecutive sorted keys (k_{2*mu} =
    q) and takes its extremes there: low = -max c and high = -min c.

    T_q(i) = t0 - c(y(i)) with y(i) = (i*(q - p) - 1) mod q, as key(-i) =
    i*(q - p) mod q; T = T_q below the cover, where T takes all its values,
    so an extreme's first i is T_q's first in one period.  y(0) = q - 1
    lies on the last arc, where c = 0, so an extreme of c = 0 is first
    taken at i = 0.  For 0 < i < q, y(i) = (i*(q - p) mod q) - 1 lies on
    [k_t, k_{t+1}) iff i*(q - p) mod q lies in [k_t + 1, k_{t+1}], first at
    ``fib_scalar._first(q - p, q, k_t + 1, k_{t+1})``, and the first i at
    any other extreme is the least of these over the arcs where c takes
    it."""
    check_budget(2 * mu, "table entries")
    block = _doubled_keys(mu, p, q)
    dtype, sign = block.dtype.type, 8 * block.itemsize - 1
    window = block + dtype(nu * p % q - q)  # in [-q, q)
    window += (window >> sign) & dtype(q)
    keys = np.concatenate([block, window])
    order = np.argsort(keys)
    c = np.cumsum(np.where(order < mu, np.int32(-1), np.int32(1)))
    lo, hi = int(c.min()), int(c.max())
    if not witness or hi - lo < 2:
        return -hi, -lo, None
    keys = keys[order]
    hits = []
    for extreme in (hi, lo):  # the first i at low, then at high
        if extreme == 0:  # taken on the last arc, at i = 0
            hits.append(0)
            continue
        arcs = np.flatnonzero(c == extreme)  # the last arc, of c = 0, is not one
        bounds = zip((keys[arcs] + 1).tolist(), keys[arcs + 1].tolist())
        hits.append(min(_first(q - p, q, l, r) for l, r in bounds))
    return -hi, -lo, hits


def delta(i: int, m: int, n: int) -> int:
    """T(i+1, m, n) - T(i, m, n) on the 0-prefixed Fibonacci word; lies in
    {-1, 0, 1}."""
    w = sturmian_a_word()
    return word_rect_sum(w, i + 1, m, n) - word_rect_sum(w, i, m, n)


def fib_symbol(i: int) -> int:
    """f_i, cross-checked: floor((i+2)*gamma) - floor((i+1)*gamma) vs the morphism."""
    check_at_least(0, i=i)
    via_floor = floor_n_gamma(i + 2) - floor_n_gamma(i + 1)
    via_morphism = word(SequenceKind.FIBONACCI).symbol(i)
    assert via_floor == via_morphism, f"fibonacci word routes disagree at i={i}"
    return via_floor


def tm_symbol(i: int) -> int:
    """Thue-Morse t_i: parity of popcount(i), cross-checked against the morphism."""
    via_popcount = bin(i).count("1") & 1
    via_morphism = word(SequenceKind.THUE_MORSE).symbol(i)
    assert via_popcount == via_morphism, f"thue-morse routes disagree at i={i}"
    return via_popcount


@dataclass(frozen=True)
class CirclePartition:
    """Breakpoints frac(-j*gamma), j in [0, m) u [n, n+m), with the value of
    the arc counting function immediately to the right of each breakpoint."""

    breakpoints: tuple[QuadraticValue, ...]
    arc_values: tuple[int, ...]


def circle_partition(m: int, n: int) -> CirclePartition:
    """Exact-arithmetic construction of the breakpoints and arc values.

    Slow reference route on QuadraticValue; the integer sweep must agree
    with it.  Arc values are evaluated at each breakpoint with the >= rule,
    i.e. as right limits.
    """
    check_at_least(0, m=m, n=n)
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


def excess_vector(m: int, n: int, horizon: int) -> np.ndarray:
    """excess(i, m, n) for all i < horizon, vectorized."""
    return 2 * _ones(m, n, 0, horizon).astype(np.int64) - m * n


def excess_sign_symmetry(m: int, n: int, horizon: int = 100_000) -> bool:
    """Every excess value c seen below the horizon has -c seen below twice
    the horizon (the complemented rectangle realizes it)."""
    check_at_least(1, horizon=horizon)
    seen = set(np.unique(excess_vector(m, n, horizon)).tolist())
    mirror = set(np.unique(excess_vector(m, n, 2 * horizon)).tolist())
    return all(-c in mirror for c in seen)


def factor_complexity(kind: SequenceKind, length: int) -> int:
    """p(L), the number of distinct factors of length L >= 1 of word(kind):

    * Fibonacci (Sturmian): L + 1 (Morse and Hedlund, 1940);
    * Tribonacci (Arnoux-Rauzy): 2L + 1 (Arnoux and Rauzy, 1991);
    * Thue-Morse: p(1) = 2, p(2) = 4, and for L = 2^r + q + 1 with
      0 < q <= 2^r, p(L) = 6*2^(r-1) + 4q if q <= 2^(r-1), else
      8*2^(r-1) + 2q (Brlek, 1989; de Luca and Varricchio, 1989).
    """
    check_at_least(1, length=length)
    if kind is SequenceKind.FIBONACCI:
        return length + 1
    if kind is SequenceKind.TRIBONACCI:
        return 2 * length + 1
    if kind is not SequenceKind.THUE_MORSE:
        raise ValueError(f"no factor complexity for {kind.value}")
    if length <= 2:
        return 2 * length
    r = (length - 2).bit_length() - 1
    q = length - 1 - (1 << r)
    return 3 * (1 << r) + 4 * q if 2 * q <= 1 << r else 4 * (1 << r) + 2 * q


@lru_cache(maxsize=None)
def factor_cover(kind: SequenceKind, length: int) -> int:
    """The least P such that every factor of word(kind) of the given length
    starts at some i < P.

    The search takes prefixes of 8*length symbols rounded up to a power of
    two, doubling, and finds the first start of each distinct factor by
    `factor_keys`.  It accepts a prefix only when the distinct count equals
    `factor_complexity`, so P rests on a theorem and one exact count."""
    want = factor_complexity(kind, length)
    size = 1 << (8 * length - 1).bit_length()
    while True:
        keys = factor_keys(kind, size, length, np.arange(size - length + 1))
        first = np.unique(keys, return_index=True)[1]
        if len(first) > want:
            raise AssertionError(f"{len(first)} factors of length {length} exceed p = {want}")
        if len(first) == want:
            return int(first.max()) + 1
        size *= 2


def sweep_csv(limit: int) -> str:
    """The CSV of ``rectbal fib sweep --max limit``, one ``row_value_bounds``
    call a row, each on its own tables, and each pair written from a
    %-template cached by its value spread hi - lo."""
    check_at_least(0, max=limit)
    out = io.StringIO()
    out.write("m,n,balanced,value_set,method\n")
    templates: dict[int, str] = {}
    for m in range(limit + 1):
        lows, highs = row_value_bounds(m, limit)
        for n, lo, hi in zip(range(m, limit + 1), lows.tolist(), highs.tolist()):
            spread = hi - lo
            if spread not in templates:
                values = "|".join(["%d"] * (spread + 1))
                templates[spread] = f"%d,%d,{str(spread <= 1).lower()},{values},exact\n"
            out.write(templates[spread] % (m, n, *range(lo, hi + 1)))
    return out.getvalue()


def _first_unbalanced(mu: int, nu: int) -> tuple[int, int]:
    while is_balanced(mu, nu):
        nu += 1
    return mu, nu


def far_sparse_pairs() -> list[tuple[int, int]]:
    """Pairs with mu far below nu, past 10**6: mu + nu near 10**8 and 3*10**9
    (where the cover convergent q' = F_50 passes F_48, the int64 frontier
    of the products j*p) and seeded pairs near 4*10**6 with nu/mu in
    17..32, each moved to the first nu that ``is_balanced`` calls
    unbalanced."""
    pairs = [_first_unbalanced(mu, 10**8 - mu) for mu in (2, 3, 50, 700)]
    pairs += [_first_unbalanced(mu, 3 * 10**9 - mu) for mu in (2, 3, 13, 400)]
    rng = random.Random(1515)
    for _ in range(4):
        size = rng.randint(3_900_000, 4_100_000)
        mu = size // (1 + rng.randint(17, 32))
        pairs.append(_first_unbalanced(mu, size - mu))
    return pairs


def past_cover_pairs() -> list[tuple[int, int]]:
    """Pairs with mu + nu near 10**10, 10**12, 10**15 and 10**18 and mu in
    (2, 3, 13, 400, 5000), each moved to the first nu that ``arc_balanced``
    calls unbalanced: past F_49, where the former cover tables passed the
    default budget and the verdicts read their sorted event keys."""
    pairs = []
    for size in (10**10, 10**12, 10**15, 10**18):
        for mu in (2, 3, 13, 400, 5000):
            nu = size - mu
            while arc_balanced(mu, nu):
                nu += 1
            pairs.append((mu, nu))
    return pairs
