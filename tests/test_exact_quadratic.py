import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rectbal.exact_quadratic import (
    GAMMA,
    ONE,
    PHI,
    ZERO,
    QuadraticValue,
    floor_n_gamma,
    floor_n_phi,
)


def test_parity_invariant_enforced():
    with pytest.raises(ValueError):
        QuadraticValue(1, 0)
    with pytest.raises(ValueError):
        QuadraticValue(0, 3)


def test_gamma_plus_phi_is_two():
    assert GAMMA + PHI == QuadraticValue.from_int(2)


def test_add_identity_and_doubling():
    assert GAMMA + ZERO == GAMMA
    assert GAMMA + GAMMA == QuadraticValue(6, -2)  # 3 - sqrt5


def test_sign_examples():
    assert GAMMA.sign() == 1
    assert (GAMMA * 2 - 1).sign() == -1  # 2*gamma ~ 0.764
    assert ZERO.sign() == 0
    assert (PHI - 2).sign() == -1
    assert (PHI - 1).sign() == 1


def test_floor_examples():
    assert (GAMMA * 4).floor() == 1
    assert ZERO.floor() == 0
    assert (GAMMA * 18).floor() == 6
    assert (-GAMMA).floor() == -1
    assert QuadraticValue.from_int(-3).floor() == -3


def test_floor_n_gamma_examples():
    assert floor_n_gamma(0) == 0
    assert floor_n_gamma(4) == 1
    assert floor_n_gamma(18) == 6


def test_floor_n_phi_examples():
    assert floor_n_phi(0) == 0
    assert floor_n_phi(1) == 1
    assert floor_n_phi(4) == 6


def test_frac_examples():
    assert (GAMMA * 3).frac() == GAMMA * 3 - 1
    assert QuadraticValue.from_int(2).frac() == ZERO
    assert GAMMA.frac() == GAMMA


def test_phi_routes_agree_up_to_1e5():
    # floor_n_phi internally computes the isqrt and digit-shift routes and
    # asserts their agreement; exercise the full stated range
    for n in range(100_001):
        floor_n_phi(n)


def test_alpha_identity_full_range():
    for n in range(1, 100_001):
        assert 2 * n - floor_n_phi(n) - 1 >= 0
        if n <= 3000 or n % 997 == 0:
            # exact quadratic route on a subsample; the identity below ties
            # the remaining range to the phi values
            assert floor_n_gamma(n) == 2 * n - floor_n_phi(n) - 1


def _random_value(rng: random.Random) -> QuadraticValue:
    b = rng.randrange(-50, 51)
    a = rng.randrange(-50, 51) * 2 + (b % 2)
    return QuadraticValue(a, b)


def test_floor_plus_frac_reconstructs():
    rng = random.Random(1)
    for _ in range(10_000):
        x = _random_value(rng)
        assert QuadraticValue.from_int(x.floor()) + x.frac() == x
        f = x.frac()
        assert f.sign() >= 0 and (f - 1).sign() < 0


def test_sign_is_a_total_order():
    rng = random.Random(2)
    for _ in range(10_000):
        x, y, z = (_random_value(rng) for _ in range(3))
        assert (x - y).sign() == -(y - x).sign()
        if (x - y).sign() < 0 and (y - z).sign() < 0:
            assert (x - z).sign() < 0


def test_multiplication_closure_and_values():
    assert GAMMA * PHI == QuadraticValue(-1, 1)  # (-1 + sqrt5)/2
    assert PHI * PHI == PHI + 1  # golden ratio identity
    assert GAMMA * GAMMA == QuadraticValue(7, -3)


def test_comparisons_with_ints():
    assert GAMMA < 1
    assert 0 < GAMMA
    assert PHI > 1
    assert ONE == 1


def _at_most_b_sqrt5(x: int, b: int) -> bool:
    """x <= b*sqrt5, by comparing squares."""
    if b >= 0:
        return x <= 0 or x * x <= 5 * b * b
    return x < 0 and x * x >= 5 * b * b


@settings(max_examples=2000)
@given(st.integers(-(10**30), 10**30), st.integers(-(10**30), 10**30))
def test_floor_and_sign_match_an_integer_bracket(a, b):
    a += (a - b) % 2  # equal parity
    x = QuadraticValue(a, b)
    k = x.floor()
    # k <= (a + b*sqrt5)/2 < k + 1, that is 2k - a <= b*sqrt5 < 2k + 2 - a
    assert _at_most_b_sqrt5(2 * k - a, b)
    assert not _at_most_b_sqrt5(2 * k + 2 - a, b)
    # a + b*sqrt5 > 0 exactly when -a <= b*sqrt5 and the value is not 0
    assert x.sign() == (0 if a == b == 0 else 1 if _at_most_b_sqrt5(-a, b) else -1)
