import random

import numpy as np
import pytest

from rectbal.exact_quadratic import GAMMA, floor_n_gamma
from rectbal.fib_balance import (
    BalanceStatus,
    balance_table,
    circle_partition,
    delta_block_scan,
    delta_floor_form,
    distinct_value_count,
    diverse_identities_check,
    exact_balance,
    is_balanced,
    row_value_spans,
    t_counting_form,
    t_value,
    t_value_vector,
    value_set,
    zeck_characterization,
)
from rectbal.rectangles import delta, word_rect_sum
from rectbal.words import sturmian_a_word


def brute_value_set(m: int, n: int, horizon: int = 3000) -> set[int]:
    w = sturmian_a_word()
    w.ensure(horizon + m + n + 1)
    table = w.count_table(1, horizon + m + n + 1)
    s2 = np.concatenate([[0], np.cumsum(table)])
    t = (
        s2[m + n : m + n + horizon]
        - s2[n : n + horizon]
        - s2[m : m + horizon]
        + s2[:horizon]
    )
    return set(int(x) for x in np.unique(t))


def test_t_value_routes_agree():
    rng = random.Random(20)
    for _ in range(300):
        i, m, n = rng.randrange(500), rng.randrange(1, 30), rng.randrange(1, 30)
        assert t_value(i, m, n) == word_rect_sum(sturmian_a_word(), i, m, n)


def test_counting_form_examples():
    assert t_counting_form(2, 4, 4) == 7
    assert t_counting_form(0, 0, 9) == 0
    assert t_counting_form(0, 9, 0) == 0


def test_counting_form_matches_rectangle_sums():
    rng = random.Random(21)
    a = sturmian_a_word()
    for _ in range(10_000):
        i, m, n = rng.randrange(400), rng.randrange(0, 9), rng.randrange(0, 9)
        assert t_counting_form(i, m, n) == word_rect_sum(a, i, m, n)


def test_delta_floor_form_matches_word_delta():
    rng = random.Random(22)
    for _ in range(10_000):
        i, m, n = rng.randrange(4000), rng.randrange(0, 30), rng.randrange(0, 30)
        assert delta_floor_form(i, m, n) == delta(i, m, n)


def test_exact_balance_examples():
    assert exact_balance(4, 3).balanced
    assert exact_balance(4, 18).balanced
    verdict = exact_balance(4, 4)
    assert verdict.status is BalanceStatus.UNBALANCED
    assert verdict.value_set == (5, 6, 7)
    assert exact_balance(0, 17).balanced
    assert exact_balance(0, 17).value_set == (0,)


def test_unbalanced_witness_is_checkable():
    a = sturmian_a_word()
    rng = random.Random(23)
    found = 0
    while found < 25:
        m, n = rng.randrange(2, 40), rng.randrange(2, 40)
        verdict = exact_balance(m, n)
        if verdict.balanced:
            continue
        found += 1
        i, j, ti, tj = verdict.witness
        assert word_rect_sum(a, i, m, n) == ti
        assert word_rect_sum(a, j, m, n) == tj
        assert abs(ti - tj) >= 2


def test_value_sets_match_brute_force():
    for m in range(0, 26):
        for n in range(m, 26):
            assert set(value_set(m, n)) == brute_value_set(m, n), (m, n)


def test_value_set_unchanged_without_index_zero():
    # dropping i = 0 from the scan never changes the achieved set
    w = sturmian_a_word()
    for m in range(1, 21):
        for n in range(m, 21):
            w.ensure(3000 + m + n + 1)
            from_one = {
                word_rect_sum(w, i, m, n) for i in range(1, 2500)
            }
            assert from_one == set(value_set(m, n)), (m, n)


def test_circle_partition_structure():
    rng = random.Random(24)
    for _ in range(30):
        m, n = rng.randrange(1, 13), rng.randrange(1, 13)
        part = circle_partition(m, n)
        assert len(part.breakpoints) <= 2 * m
        assert part.breakpoints[0] == GAMMA * 0
        for p, q in zip(part.breakpoints, part.breakpoints[1:]):
            assert (q - p).sign() > 0
        for u, v in zip(part.arc_values, part.arc_values[1:]):
            assert abs(u - v) <= 1
        base = m * floor_n_gamma(n)
        assert {base + v for v in part.arc_values} == set(value_set(m, n))


def test_delta_block_scan_examples():
    verdict = delta_block_scan(4, 4, horizon=1000)
    assert verdict.status is BalanceStatus.UNBALANCED
    i, j, ti, tj = verdict.witness
    assert abs(ti - tj) == 2
    assert delta_block_scan(4, 3, horizon=100_000).status is BalanceStatus.UNKNOWN_UP_TO_HORIZON
    assert delta_block_scan(1, 1, horizon=10).status is BalanceStatus.UNKNOWN_UP_TO_HORIZON


def test_delta_block_scan_rejects_bad_horizon():
    with pytest.raises(ValueError):
        delta_block_scan(2, 2, horizon=0)


def test_zeck_characterization_examples():
    assert zeck_characterization(3, 4)
    assert zeck_characterization(4, 18)
    assert not zeck_characterization(4, 4)
    assert zeck_characterization(0, 0)
    assert zeck_characterization(1, 999)
    # largest summand of m equals smallest of n with opposite-parity partner
    assert zeck_characterization(4, 16)


def test_negative_sizes_and_indices_rejected():
    with pytest.raises(ValueError, match="i must be >= 0, got -1"):
        t_value(-1, 3, 3)
    with pytest.raises(ValueError, match="m must be >= 0, got -3"):
        zeck_characterization(-3, 5)


def test_zeck_characterization_matches_exact_to_300():
    table = balance_table(300)
    for m in range(301):
        for n in range(m, 301):
            assert zeck_characterization(m, n) == bool(table[m, n]), (m, n)


def test_symmetry_of_exact_balance():
    rng = random.Random(25)
    for _ in range(1000):
        m, n = rng.randrange(0, 400), rng.randrange(0, 400)
        assert is_balanced(m, n) == is_balanced(n, m)


def test_distinct_value_count_examples():
    assert distinct_value_count(4, 4) == 3
    assert distinct_value_count(1, 1) == 2
    assert distinct_value_count(0, 5) == 1


def test_diverse_identities_small():
    assert diverse_identities_check(1)
    assert diverse_identities_check(2)


def test_balance_table_agrees_with_single_sweeps():
    table = balance_table(60)
    for m in range(61):
        for n in range(61):
            assert bool(table[m, n]) == is_balanced(m, n)


def test_row_value_spans_match_value_sets():
    for mu in (1, 2, 5, 9):
        spans = row_value_spans(mu, 40)
        for offset, nu in enumerate(range(mu, 41)):
            assert int(spans[offset]) + 1 == distinct_value_count(mu, nu)


def test_t_value_vector_matches_scalar():
    vec = t_value_vector(7, 11, 200)
    for i in (0, 1, 50, 199):
        assert int(vec[i]) == t_value(i, 7, 11)
