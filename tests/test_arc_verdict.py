"""The arc-cover verdict (``fib_scalar.arc_balanced``) and its search
``_first``, against brute force, the arc-cover verdict table, the cover
table behind ``is_balanced``, the digit rule and the inferred automaton."""
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from rectbal.dfa_tools import build_sample_table, dfa_run, infer_min_dfa
from rectbal.fib_balance import balance_table, exact_balance, is_balanced
from rectbal.fib_scalar import _first, arc_balanced, t_value, zeck_characterization
from rectbal.limits import BudgetExceeded
from rectbal.numeration import fibonacci, pair_encode


def test_first_matches_brute_force():
    # every modulus below 120, every a and l, and every 21st r from an
    # offset that turns with a + l, so every width r - l is met
    for m in range(1, 120):
        x = np.arange(m)
        for a in range(m):
            # pos[k]: the least x with a*x = k mod m, or m; x < m/gcd is one period
            pos = np.full(m, m)
            period = m // np.gcd(a, m)
            pos[a * x[:period] % m] = x[:period]
            # least[l][w]: the least x with l <= a*x mod m <= l + w
            padded = np.concatenate([pos, np.full(m, m)])
            least = np.minimum.accumulate(sliding_window_view(padded, m)[:m], axis=1).tolist()
            for l in range(m):
                for r in range(l + (a + l) % 21, m, 21):
                    want = least[l][r - l]
                    assert _first(a, m, l, r) == (want if want < m else None), (a, m, l, r)


def test_first_runs_past_the_recursion_limit():
    # each reduction steps one Fibonacci index down: thousands of them, past
    # Python's default recursion limit of 1000 frames
    p, q = fibonacci(4800), fibonacci(4802)
    x = _first(p, q, q // 3, q // 3 + 5)
    assert q // 3 <= x * p % q <= q // 3 + 5


def test_arc_verdict_matches_balance_table_to_300():
    table = balance_table(300)
    verdicts = [[arc_balanced(m, n) for n in range(301)] for m in range(301)]
    assert (np.array(verdicts) == table).all()


@settings(max_examples=150)
@given(st.integers(0, 300_000), st.integers(0, 300_000))
def test_arc_verdict_matches_the_cover_table_and_digit_rule_property(m, n):
    assert arc_balanced(m, n) == is_balanced(m, n) == zeck_characterization(m, n)


def _balanced_heavy_pair(rng: random.Random) -> tuple[int, int]:
    """m = F_a with n up to 10**31; n a sum of up to five Fibonacci numbers
    and m one of up to three whose indices lie below n's lowest; or both
    below 10**6.  Either order."""
    kind = rng.randrange(3)
    if kind == 0:
        m, n = fibonacci(rng.randint(2, 150)), rng.randint(0, 10**31)
    elif kind == 1:
        indices = rng.sample(range(2, 150), rng.randint(1, 5))
        low = min(indices)
        m = sum(fibonacci(i) for i in rng.sample(range(2, low), min(low - 2, rng.randint(1, 3))))
        n = sum(fibonacci(i) for i in indices)
    else:
        m, n = rng.randint(0, 10**6), rng.randint(0, 10**6)
    return (m, n) if rng.random() < 0.5 else (n, m)


def test_arc_verdict_matches_digit_rule_and_automaton_to_10_30():
    dfa = infer_min_dfa(build_sample_table(13), 10)
    rng = random.Random(1313)
    pairs = [_balanced_heavy_pair(rng) for _ in range(5000)]
    verdicts = [arc_balanced(m, n) for m, n in pairs]
    assert verdicts == [zeck_characterization(m, n) for m, n in pairs]
    assert verdicts == [dfa_run(dfa, pair_encode(m, n)) for m, n in pairs]
    assert 1500 < sum(verdicts) < 3500  # balanced-heavy: about half


def test_exact_balance_answers_balanced_pairs_at_any_size():
    m, n = fibonacci(140), fibonacci(140) + fibonacci(145)
    t0 = t_value(0, m, n)
    verdict = exact_balance(m, n)
    assert verdict.balanced and zeck_characterization(m, n)
    assert verdict.value_set == (t0, t0 + 1) and verdict.witness is None
    # an unbalanced pair there still needs its cover table
    assert not arc_balanced(10**30, 10**30 + 1)
    with pytest.raises(BudgetExceeded, match="table entries requested"):
        exact_balance(10**30, 10**30 + 1)
