"""Independent routes that the tests check the package against.

Each computes a quantity the package also computes, by a different method:
floor-form T and the four-floor difference on the floor sums, the
difference of two rectangle sums on the morphism-generated word, the
Fibonacci and Thue-Morse symbols by their closed forms, the circle
partition on exact quadratic values, the Thue-Morse excess at every
position below a horizon, the factor complexities with the least factor
covers that `words.cover_bound` bounds, counted in word prefixes, and the
CSV of `rectbal fib sweep` written pair by pair from %-templates.  It also
draws the far-sparse pairs that more than one test file checks.
"""
from __future__ import annotations

import io
import random
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from rectbal.exact_quadratic import GAMMA, ONE, QuadraticValue, floor_n_gamma
from rectbal.fib_balance import _floor_sums, is_balanced, row_value_bounds
from rectbal.fib_scalar import _convergent
from rectbal.rectangles import telescope, word_rect_sum
from rectbal.tm_balance import _ones
from rectbal.limits import check_at_least
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
    (where the cover table's convergent q' = F_50 passes _Q_MAX, the int64
    frontier of the tables that form j*p, and the witness still reads that
    table) and seeded pairs near 4*10**6 with nu/mu in 17..32, each moved to
    the first nu that ``is_balanced`` calls unbalanced; the near ones read
    the cover table for their verdicts too."""
    pairs = [_first_unbalanced(mu, 10**8 - mu) for mu in (2, 3, 50, 700)]
    pairs += [_first_unbalanced(mu, 3 * 10**9 - mu) for mu in (2, 3, 13, 400)]
    rng = random.Random(1515)
    for _ in range(4):
        size = rng.randint(3_900_000, 4_100_000)
        mu = size // (1 + rng.randint(17, 32))
        pairs.append(_first_unbalanced(mu, size - mu))
    return pairs
