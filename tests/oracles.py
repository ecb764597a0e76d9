"""Independent routes that the tests check the package against.

Each computes a quantity the package also computes, by a different method:
floor-form T and the four-floor difference on the floor sums, the
difference of two rectangle sums on the morphism-generated word, and the
Fibonacci and Thue-Morse symbols by their closed forms.
"""
from __future__ import annotations

import numpy as np

from rectbal.exact_quadratic import floor_n_gamma
from rectbal.fib_balance import _convergent, _floor_sums
from rectbal.rectangles import telescope, word_rect_sum
from rectbal.words import SequenceKind, check_nonnegative, sturmian_a_word, word


def t_value_vector(m: int, n: int, horizon: int) -> np.ndarray:
    """T(i, m, n) for all i < horizon, via the double-telescoped floor sums."""
    check_nonnegative(m=m, n=n, horizon=horizon)
    return telescope(_floor_sums(horizon + m + n), m, n, 0, horizon)


def delta_floor_form(i: int, m: int, n: int) -> int:
    """T(i+1,m,n) - T(i,m,n) as the four-floor combination."""
    check_nonnegative(m=m, n=n, i=i)
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
    check_nonnegative(i=i)
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
