import random
from decimal import Decimal, localcontext
from math import isqrt

import numpy as np
import pytest

from rectbal.exact_quadratic import GAMMA, floor_n_gamma, floor_n_phi
from rectbal.fib_balance import (
    _CHUNK,
    _FLOOR_J_MAX,
    _GAMMA_F,
    _RANK_N_MAX,
    BalanceStatus,
    _circle_rank,
    _fill_floor_gamma,
    _GammaTables,
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
from rectbal.words import BudgetExceeded, sturmian_a_word


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
    for route in (zeck_characterization, value_set, distinct_value_count, is_balanced, exact_balance):
        with pytest.raises(ValueError, match="m must be >= 0, got -3"):
            route(-3, 5)
    with pytest.raises(ValueError, match="n must be >= 0, got -5"):
        is_balanced(3, -5)


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


# ---------------------------------------------------------------------------
# floor and circle-rank tables against the former isqrt constructions


def _isqrt_floor_gamma(n: int) -> int:
    return 2 * n - (n + isqrt(5 * n * n)) // 2 - 1 if n else 0


def _isqrt_keys(size: int) -> list[int]:
    # floor(j*q*gamma) - q*floor(j*gamma) = floor(q*frac(j*gamma)): distinct
    # and in circle order for q >= 4*size
    q = 4 * size
    return [_isqrt_floor_gamma(j * q) - q * _isqrt_floor_gamma(j) for j in range(size)]


def _rank_of(keys) -> np.ndarray:
    rank = np.empty(len(keys), dtype=np.int32)
    rank[np.argsort(np.asarray(keys, dtype=np.int64), kind="stable")] = np.arange(
        len(keys), dtype=np.int32
    )
    return rank


def _floor_table(size: int) -> np.ndarray:
    g = np.empty(size, dtype=np.int64)
    _fill_floor_gamma(g, 0)
    return g


def test_gamma_float_is_correctly_rounded():
    with localcontext() as ctx:
        ctx.prec = 40
        assert _GAMMA_F == float((3 - Decimal(5).sqrt()) / 2)


def test_circle_rank_matches_isqrt_keys_every_size_to_2000():
    g = _floor_table(2000)
    keys = _isqrt_keys(2000)
    for size in range(1, 2001):
        # keys built for 2000 keep their order for every smaller size
        assert np.array_equal(_circle_rank(g, size), _rank_of(keys[:size])), size
    for size in (*range(1, 40), 987, 988, 1597, 1598, 2000):
        assert np.array_equal(_circle_rank(g, size), _rank_of(_isqrt_keys(size))), size


def test_circle_rank_matches_isqrt_keys_large():
    g = _floor_table(100_000)
    for size in (46_368, 46_369, 100_000):
        assert np.array_equal(_circle_rank(g, size), _rank_of(_isqrt_keys(size))), size


def test_circle_rank_certificate_rejects_wrong_floor():
    g = _floor_table(100)
    g[5] += 1
    with pytest.raises(AssertionError):
        _circle_rank(g, 100)


def test_floor_table_chunks_and_extended_tail():
    tables = _GammaTables()
    head = tables.g(0).copy()
    g = tables.g(3 * _CHUNK + 10)
    assert np.array_equal(g[: len(head)], head)
    assert np.array_equal(g, _floor_table(len(g)))
    assert g.tolist() == [_isqrt_floor_gamma(j) for j in range(len(g))]
    assert np.array_equal(tables.G(0), np.concatenate([[0], np.cumsum(g)]))
    edges = {
        base + c * _CHUNK + e
        for base in (0, len(head))
        for c in range(4)
        for e in (-1, 0, 1)
    }
    for j in sorted(edges & set(range(1, len(g)))):
        assert g[j] == 2 * j - floor_n_phi(j) - 1, j


def test_floor_fill_at_seeded_offsets_and_int64_frontier():
    rng = random.Random(26)
    starts = [rng.randrange(10**7) for _ in range(100)] + [_FLOOR_J_MAX - 15]
    for start in starts:
        out = np.empty(16, dtype=np.int64)
        _fill_floor_gamma(out, start)
        assert out.tolist() == [2 * j - floor_n_phi(j) - 1 for j in range(start, start + 16)]


def test_one_past_request_grows_tables_by_a_quarter():
    tables = _GammaTables()
    size = len(tables.g(0))
    g = tables.g(size)
    assert len(g) == (5 * size + 3) // 4
    assert len(tables.G(0)) == len(g) + 1
    assert np.array_equal(g, _floor_table(len(g)))
    size = len(tables.rank(2000))
    assert size == 2001
    rank = tables.rank(size)
    assert len(rank) == (5 * size + 3) // 4
    assert np.array_equal(rank, _rank_of(_isqrt_keys(len(rank))))


def test_scale_frontiers_raise_before_building():
    assert _FLOOR_J_MAX == isqrt((2**63 - 1) // 5) - 4
    assert _RANK_N_MAX == isqrt(isqrt(2**104 // 5))
    tables = _GammaTables()
    with pytest.raises(BudgetExceeded, match="int64"):
        tables.g(_FLOOR_J_MAX + 1)
    with pytest.raises(BudgetExceeded, match="float64"):
        tables.rank(_RANK_N_MAX)
    assert len(tables.g(0)) == 1 + (1 << 12)
    with pytest.raises(BudgetExceeded):
        t_value(0, 1, _FLOOR_J_MAX)
    with pytest.raises(BudgetExceeded):
        is_balanced(1, _RANK_N_MAX)
