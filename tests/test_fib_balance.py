import random
import tracemalloc
from math import isqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rectbal import fib_balance, limits
from rectbal.cli import main
from rectbal.exact_quadratic import GAMMA, floor_n_gamma, floor_n_phi
from rectbal.fib_balance import (
    _ROW_BLOCK,
    _ROW_MU_MAX,
    _chunk_entries,
    _chunk_length,
    _chunk_table,
    _circle_keys,
    _cover,
    _doubled_keys,
    _event_extremes,
    _floor_sums,
    _row_extrema,
    _table_extremes,
    balance_table,
    delta_block_scan,
    diverse_identities_check,
    exact_balance,
    is_balanced,
    row_value_bounds,
    t_counting_form,
)
from rectbal.fib_scalar import (
    BalanceStatus,
    _convergent,
    arc_balanced,
    t_value,
    zeck_characterization,
)
from rectbal.limits import MAX_BUDGET, BudgetExceeded
from rectbal.numeration import fibonacci
from rectbal.rectangles import rect_counts, word_rect_sum
from rectbal.words import sturmian_a_word
import oracles
from oracles import (
    circle_partition,
    delta,
    delta_floor_form,
    far_sparse_pairs,
    past_cover_pairs,
    t_scan,
    t_value_vector,
)


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
            assert set(exact_balance(m, n).value_set) == brute_value_set(m, n), (m, n)


def test_value_set_unchanged_without_index_zero():
    # dropping i = 0 from the scan never changes the achieved set
    s = sturmian_a_word().running_sum(1, 2500 + 2 * 20)
    for m in range(1, 21):
        for n in range(m, 21):
            from_one = set(rect_counts(s, m, n, 1, 2500).tolist())
            assert from_one == set(exact_balance(m, n).value_set), (m, n)


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
        assert {base + v for v in part.arc_values} == set(exact_balance(m, n).value_set)


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
    for route in (zeck_characterization, arc_balanced, is_balanced, exact_balance):
        with pytest.raises(ValueError, match="m must be >= 0, got -3"):
            route(-3, 5)
    with pytest.raises(ValueError, match="n must be >= 0, got -5"):
        is_balanced(3, -5)
    with pytest.raises(ValueError, match="limit must be >= 0, got -3"):
        balance_table(-3)
    with pytest.raises(ValueError, match="mu must be >= 0, got -2"):
        row_value_bounds(-2, 10)
    with pytest.raises(ValueError, match="nu_hi must be >= 0, got -4"):
        row_value_bounds(0, -4)
    # the m = 0 answers must not run before the check
    with pytest.raises(ValueError, match="n must be >= 0, got -3"):
        delta_block_scan(0, -3)
    with pytest.raises(ValueError, match="i must be >= 0, got -1"):
        t_counting_form(-1, 3, 3)
    with pytest.raises(ValueError, match="m must be >= 0, got -3"):
        t_counting_form(0, -3, 3)
    with pytest.raises(ValueError, match="m must be >= 0, got -1"):
        circle_partition(-1, 3)


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
    assert len(exact_balance(4, 4).value_set) == 3
    assert len(exact_balance(1, 1).value_set) == 2
    assert len(exact_balance(0, 5).value_set) == 1


def test_diverse_identities_small():
    assert diverse_identities_check(1)
    assert diverse_identities_check(2)


def test_balance_table_agrees_with_single_sweeps():
    table = balance_table(60)
    for m in range(61):
        for n in range(61):
            assert bool(table[m, n]) == is_balanced(m, n)


def _row_spans(mu: int, nu_hi: int) -> np.ndarray:
    lo, hi = row_value_bounds(mu, nu_hi)
    return hi - lo


def test_row_value_spans_match_value_sets():
    for mu in (1, 2, 5, 9):
        spans = _row_spans(mu, 40)
        for offset, nu in enumerate(range(mu, 41)):
            assert int(spans[offset]) + 1 == len(exact_balance(mu, nu).value_set)
    for mu in (1, 2, 3, 8, 13, 21, 30, 60):
        spans = _row_spans(mu, 60)
        assert len(spans) == 61 - mu
        for offset, nu in enumerate(range(mu, 61)):
            assert int(spans[offset]) + 1 == len(exact_balance(mu, nu).value_set), (mu, nu)
    # a row long enough to run in several blocks, checked at the block edges
    mu, nu_hi = 1000, 4000
    spans = _row_spans(mu, nu_hi)
    step = _ROW_BLOCK // mu
    edges = [mu + b * step + d for b in (1, 2) for d in (-1, 0)]
    for nu in [mu, nu_hi, *edges, *random.Random(7).sample(range(mu, nu_hi + 1), 20)]:
        assert int(spans[nu - mu]) + 1 == len(exact_balance(mu, nu).value_set), nu


def test_fib_sweep_value_sets_match_value_set(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["fib", "sweep", "--max", "30", "--out", str(out)]) == 0
    lines = out.read_text(encoding="ascii").splitlines()
    assert lines[0] == "m,n,balanced,value_set,method"
    assert len(lines) == 1 + 31 * 32 // 2
    for line in lines[1:]:
        m, n, balanced, values, method = line.split(",")
        vals = exact_balance(int(m), int(n)).value_set
        assert tuple(map(int, values.split("|"))) == vals, line
        assert balanced == str(len(vals) <= 2).lower() and method == "exact"


def test_row_kernel_int16_frontier(monkeypatch):
    # the widest row the lanes hold, on a few windows only
    spans = _row_spans(_ROW_MU_MAX, _ROW_MU_MAX + 2)
    for offset, nu in enumerate(range(_ROW_MU_MAX, _ROW_MU_MAX + 3)):
        assert int(spans[offset]) + 1 == len(exact_balance(_ROW_MU_MAX, nu).value_set)
    # one past it raises before any table is touched or allocated
    monkeypatch.setattr(fib_balance, "_convergent", None)
    for call in (
        lambda: row_value_bounds(_ROW_MU_MAX + 1, _ROW_MU_MAX + 1),
        lambda: row_value_bounds(_ROW_MU_MAX + 1, 10**9),
    ):
        with pytest.raises(BudgetExceeded, match="int16"):
            call()
    # the verdict table runs no int16 lanes; its bound is the symbol budget,
    # which it checks before it allocates
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded, match="table entries"):
            balance_table(_ROW_MU_MAX + 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


def _cold_table(limit: int) -> np.ndarray:
    """balance_table(limit) built afresh, whatever the cache holds."""
    cached = fib_balance._TABLE
    fib_balance._TABLE = np.zeros((0, 0), dtype=bool)
    try:
        return balance_table(limit)
    finally:
        fib_balance._TABLE = cached


def test_arc_cover_table_matches_the_row_kernel():
    limit = 377
    table = _cold_table(limit)
    keys, q = _circle_keys(2 * limit)
    for mu in range(1, limit + 1):
        lo, hi = _row_extrema(keys, q, mu, limit)
        assert np.array_equal(table[mu, mu:], hi - lo <= 1), mu
    assert np.array_equal(table, table.T) and table[0].all()


def test_arc_cover_table_is_the_same_in_any_blocks(monkeypatch):
    # q = 987 for limit 400: 33 rows a block at the default size, and 1, 2
    # or 7 rows a block (a partial block last) at the forced sizes
    expected = _cold_table(400)
    for size in (1, 2 * 987, 7 * 987 + 5):
        monkeypatch.setattr(fib_balance, "_TABLE_BLOCK", size)
        assert np.array_equal(_cold_table(400), expected), size


def test_arc_cover_table_peak_memory():
    tracemalloc.start()
    try:
        table = _cold_table(609)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.nbytes == 610 * 610 and peak < 3 << 20


def test_t_value_vector_matches_scalar():
    vec = t_value_vector(7, 11, 200)
    for i in (0, 1, 50, 199):
        assert int(vec[i]) == t_value(i, 7, 11)




# ---------------------------------------------------------------------------
# convergent tables against the isqrt constructions, and the former routes
# kept as oracles


def _isqrt_floor_gamma(n: int) -> int:
    return 2 * n - (n + isqrt(5 * n * n)) // 2 - 1 if n else 0


def _isqrt_keys(size: int) -> list[int]:
    # floor(j*q*gamma) - q*floor(j*gamma) = floor(q*frac(j*gamma)): distinct
    # and in circle order for q >= 4*size
    q = 4 * size
    return [_isqrt_floor_gamma(j * q) - q * _isqrt_floor_gamma(j) for j in range(size)]


def _circle_rank(size: int) -> np.ndarray:
    """Ranks of the row kernel's keys of j < size, which must be distinct."""
    keys = _circle_keys(size)[0]
    assert len(np.unique(keys)) == size
    return _rank_of(keys)


def _rank_of(keys) -> np.ndarray:
    rank = np.empty(len(keys), dtype=np.int32)
    rank[np.argsort(np.asarray(keys, dtype=np.int64), kind="stable")] = np.arange(
        len(keys), dtype=np.int32
    )
    return rank


def _floor_table(size: int) -> np.ndarray:
    return np.diff(_floor_sums(size))


def _argsort_sweep(mu: int, nu: int) -> tuple[int, int, int]:
    """The former single-pair sweep: (min, max, T(0)) of the counting
    function, from an argsort of isqrt-key ranks of the 2*mu events."""
    rank = _rank_of(_isqrt_keys(nu + mu))
    pos = np.concatenate([rank[:mu], rank[nu : nu + mu]])
    sig = np.concatenate([np.full(mu, -1), np.ones(mu, dtype=np.int64)])
    c = np.cumsum(sig[np.argsort(pos)])
    return int(c.min()), int(c.max()), t_counting_form(0, mu, nu)


def _table_witness(m: int, n: int) -> tuple[int, int, int, int]:
    """The former witness search: first argmin and argmax of T over
    horizons that grow until they differ by 2."""
    horizon = 8 * (m + n) + 64
    while True:
        t = t_value_vector(m, n, horizon)
        i, j = sorted((int(np.argmin(t)), int(np.argmax(t))))
        if abs(int(t[j]) - int(t[i])) >= 2:
            return i, j, int(t[i]), int(t[j])
        horizon *= 4


def _full_scan(m: int, n: int, horizon: int):
    """The former delta_block_scan: one pass over every i < horizon."""
    s = sturmian_a_word().running_sum(1, horizon + m + n + 1)
    t = rect_counts(s, m, n, 0, horizon + 1)
    d = np.diff(t)
    nz = np.flatnonzero(d)
    hits = np.flatnonzero(d[nz[:-1]] == d[nz[1:]])
    if not len(hits):
        return None
    u = int(hits[0])
    i, j = int(nz[u]), int(nz[u + 1]) + 1
    return i, j, int(t[i]), int(t[j])


def _convergents():
    """Every (p, q, q_next) of the convergents whose added keys fit int64,
    q < 2**63 (see _doubled_keys)."""
    bound = 0
    while True:
        p, q = _convergent(bound)
        if q >= 2**63:
            return
        yield p, q, _convergent(q)[1]
        bound = q


def test_convergent_error_bound_is_exact():
    # gamma - p/q = (u - q*sqrt5) / (2q) with u = 3q - 2p.  If
    # u^2 - 5q^2 = +-4 then |u - q*sqrt5| = 4/(u + q*sqrt5) < 4/(u + 2q), and
    # 2*q_next <= u + 2q gives |gamma - p/q| < 1/(q*q_next): the bound that
    # makes floor(j*gamma) = (j*p) // q and the key order exact for |j| < q.
    seen = []
    for p, q, q_next in _convergents():
        u = 3 * q - 2 * p
        assert u * u - 5 * q * q in (4, -4) and 2 * q_next <= u + 2 * q, q
        seen.append(q)
    assert len(seen) == 91 and seen[-1] == fibonacci(92) < 2**63 < fibonacci(93)
    # the products j*p of the floor sums: (q - 1)*p fits in int64 at F_48
    # and not one convergent on
    p, q = _convergent(fibonacci(48) - 1)
    assert q == fibonacci(48) and (q - 1) * p < 2**63
    p, q = _convergent(fibonacci(48))
    assert (q - 1) * p >= 2**63


def test_convergent_bound_rejects_wrong_numerator():
    for p, q, q_next in _convergents():
        if q < 3:
            continue
        u = 3 * q - 2 * p
        # a neighbouring numerator is no such convergent
        for v in (u - 2, u + 2):
            assert v * v - 5 * q * q not in (4, -4) or 2 * q_next > v + 2 * q, q
    # and its floors are wrong below q, against the isqrt oracle
    p, q = _convergent(100)
    for wrong in (p - 1, p + 1):
        assert [j * wrong // q for j in range(q)] != [
            _isqrt_floor_gamma(j) for j in range(q)
        ], wrong


def test_circle_rank_matches_isqrt_keys_every_size_to_2000():
    keys = _isqrt_keys(2000)
    for size in range(1, 2001):
        # keys built for 2000 keep their order for every smaller size
        assert np.array_equal(_circle_rank(size), _rank_of(keys[:size])), size
    for size in (*range(1, 40), 987, 988, 1597, 1598, 2000):
        assert np.array_equal(_circle_rank(size), _rank_of(_isqrt_keys(size))), size


def test_circle_rank_matches_isqrt_keys_large():
    for size in (46_368, 46_369, 100_000):
        assert np.array_equal(_circle_rank(size), _rank_of(_isqrt_keys(size))), size


def test_floor_table_matches_isqrt_formula():
    for size in (1, 2, 3, 4, 987, 988, 989, 4181, 4182, 10_000):
        g = _floor_table(size)
        assert g.tolist() == [_isqrt_floor_gamma(j) for j in range(size)], size
    G = _floor_sums(10_000)
    assert np.array_equal(G, np.concatenate([[0], np.cumsum(_floor_table(10_000))]))
    # at and around the Fibonacci sizes, where the convergent changes
    for q in (4181, 6765, 10_946, 832_040):
        g = _floor_table(q + 2)
        for j in range(max(1, q - 3), q + 2):
            assert g[j] == 2 * j - floor_n_phi(j) - 1, j


def test_floor_fill_at_seeded_offsets_and_int64_frontier():
    rng = random.Random(26)
    starts = [rng.randrange(10**7) for _ in range(100)] + [fibonacci(48) - 17]
    for start in starts:
        # the int64 products of the floor sums, on a window of indices, up
        # to F_48, their frontier
        p, q = _convergent(start + 16)
        assert q <= fibonacci(48)
        out = np.arange(start, start + 16, dtype=np.int64) * p // q
        assert out.tolist() == [2 * j - floor_n_phi(j) - 1 for j in range(start, start + 16)]


def test_scale_frontiers_raise_before_building(budget):
    budget(10**7)
    top = fibonacci(90)  # m + n from which the keys' convergent q' = F_93 passes 2**63
    calls = (
        (lambda: t_value_vector(1, 1, fibonacci(48)), "table entries requested"),
        (lambda: row_value_bounds(3, fibonacci(48)), "table entries requested"),
        # a dense pair's cover table adds its keys, so only the budget holds
        # it: at q = F_53 its chunk alone is L = F_38 = 39,088,169 positions
        (
            lambda: exact_balance(3 * 10**10, 2 * 10**10),
            "39088169 table entries requested, budget is 10000000",
        ),
        # sparse pairs at m + n = F_90 sort their event keys, which stop at
        # the int64 frontier of the added keys (see _doubled_keys); (1, F_90
        # - 1) is balanced, so only is_balanced reads keys for it
        (lambda: is_balanced(1, top - 1), r"int64 keys hold q < 2\*\*63"),
        (lambda: exact_balance(4, top - 4).value_set, r"int64 keys hold q < 2\*\*63"),
    )
    tracemalloc.start()
    try:
        for call, message in calls:
            with pytest.raises(BudgetExceeded, match=message):
                call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # one below it, q' = F_92: the verdicts sort their event keys
    assert is_balanced(1, top - 2) and zeck_characterization(1, top - 2)
    # a balanced pair past it needs no table: the arc verdict answers
    t0 = t_value(0, 7, top)
    assert exact_balance(top, 7).value_set == (t0, t0 + 1) and zeck_characterization(7, top)
    # unbalanced pairs past F_48, the former frontier of the sorted keys,
    # and one below the frontier of the added keys answer with witnesses
    for m, n in ((fibonacci(48) + 1, 7), (3 * 10**9, 2 * 10**9), (6, top - 7)):
        verdict = exact_balance(m, n)
        assert not verdict.balanced and not zeck_characterization(m, n)
        i, j, ti, tj = verdict.witness
        assert (t_value(i, m, n), t_value(j, m, n)) == (ti, tj)
        assert {ti, tj} == {verdict.value_set[0], verdict.value_set[-1]}


def test_budget_keeps_the_tables_of_j_p_in_int64(budget):
    # _circle_keys holds q <= MAX_BUDGET entries, so q <= F_46 < 2**31 and
    # its added keys fit int32
    assert fibonacci(46) <= MAX_BUDGET < fibonacci(47)
    assert _convergent(fibonacci(46) - 1)[1] == fibonacci(46) < 2**31
    # _floor_sums holds size + 1 <= MAX_BUDGET entries and forms j*p for j < size
    size = MAX_BUDGET - 1
    p, q = _convergent(size)
    assert q == fibonacci(47) and (size - 1) * p < 2**63
    # one past either, the budget raises before anything is built
    budget(MAX_BUDGET)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded, match=f"{fibonacci(47)} table entries requested"):
            _circle_keys(fibonacci(46))
        with pytest.raises(BudgetExceeded, match=f"{MAX_BUDGET + 1} table entries requested"):
            _floor_sums(MAX_BUDGET)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


def test_default_budget_reads_only_the_cover_table(budget, monkeypatch):
    # the default budget holds the cover table of every m + n < F_49 and of
    # no larger m + n: its size depends on m + n only through q = F_K and
    # whether m + n = F_{K-1} (see _cover)
    entries = {
        size: _cover(1, size - 1)[4]
        for K in range(3, 56)
        for size in {fibonacci(K - 1), fibonacci(K - 1) + 1} - {fibonacci(K)}
        if size >= 2
    }
    below = max(e for size, e in entries.items() if size < fibonacci(49))
    above = min(e for size, e in entries.items() if size >= fibonacci(49))
    assert below == 9_227_465 <= 10**7 < above == 14_930_352
    budget(10**7)
    pairs = [(200, 2500), (1291, 19365), (50, 10**6 + 7), (700, 3 * 10**6), (400, 10**5)]
    pairs += far_sparse_pairs()
    # the sorted event keys, a route independent of the cover table, and
    # is_balanced, which sorts them when they are fewer than its entries
    keys = {
        (m, n): (*_event_extremes(m, n, *_cover(m, n)[:2], False)[:2], is_balanced(m, n))
        for m, n in pairs
    }

    def unreachable(*args):
        raise AssertionError("the cover table fits the budget")

    built = []

    def recorded(*args):
        built.append(args[:2])
        return _chunk_table(*args)

    monkeypatch.setattr(fib_balance, "_event_extremes", unreachable)
    monkeypatch.setattr(fib_balance, "_chunk_table", recorded)
    unbalanced = 0
    for m, n in pairs:
        built.clear()
        verdict = exact_balance(m, n)
        low, high, balanced = keys[m, n]
        assert verdict.balanced == balanced == zeck_characterization(m, n), (m, n)
        if verdict.balanced:
            continue
        unbalanced += 1
        # one table gives the value set and the witness: no second table
        assert built == [(m, n)], (m, n)
        t0 = t_value(0, m, n)
        assert verdict.value_set == tuple(range(t0 + low, t0 + high + 1)), (m, n)
        i, j, ti, tj = verdict.witness
        assert (t_value(i, m, n), t_value(j, m, n)) == (ti, tj), (m, n)
        assert {ti, tj} == {verdict.value_set[0], verdict.value_set[-1]}, (m, n)
    assert unbalanced >= 15


def test_tables_obey_the_symbol_budget(budget):
    expected = exact_balance(400, 10**5)
    budget(1000)
    calls = (
        lambda: is_balanced(5000, 6000),  # a dense chunk of L = 1597 positions
        lambda: t_value_vector(3, 3, 1000),  # 1007 floor sums
        lambda: row_value_bounds(30, 1000),  # circle keys over q = 1597
        lambda: row_value_bounds(0, 5000),  # 5001 floor sums, though no events
        lambda: balance_table(100),  # 10201 verdicts
    )
    tracemalloc.start()
    try:
        for call in calls:
            with pytest.raises(BudgetExceeded, match="budget is 1000"):
                call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16
    # past the budget the verdict sorts its 2*mu event keys, fewer than the
    # cover table's 6765 entries, and searches their arcs for its witness
    assert exact_balance(400, 10**5) == expected


class _ArraySizes:
    """numpy for fib_balance, recording the size of every array that a
    numpy function or ufunc returns."""

    def __init__(self):
        self.sizes = []

    def __getattr__(self, name):
        attr = getattr(np, name)
        if isinstance(attr, type) or not callable(attr):
            return attr

        def recorded(*args, **kwargs):
            out = attr(*args, **kwargs)
            if isinstance(out, np.ndarray):
                self.sizes.append(out.size)
            return out

        return recorded


def test_witness_scan_obeys_the_symbol_budget(budget, monkeypatch):
    expected = exact_balance(400, 10**5)
    assert expected.witness == (0, 114, 15278639, 15278642)
    budget(1000)
    arrays = _ArraySizes()
    monkeypatch.setattr(fib_balance, "np", arrays)
    # the verdict's 800 sorted event keys give the witness too, by a search
    # per arc, as the cover table holds 6765 entries
    assert exact_balance(400, 10**5) == expected
    assert arrays.sizes and max(arrays.sizes) <= 1000


def test_chunk_tables_answer_under_a_small_budget(budget):
    pairs = [(2000, 2001)] + [(m, n) for m in (1990, 2010) for n in range(1995, 2010)]
    full = {pair: exact_balance(*pair) for pair in pairs}
    assert sum(not v.balanced for v in full.values()) >= 5
    # every verdict and every witness reads a chunk table of L = 610
    # positions (72 and 352 candidate keys) inside 5000 entries, where the
    # witness's cover F_{k+2} = 6765 and its q' = 10946 would not fit
    budget(5000)
    for pair, verdict in full.items():
        assert exact_balance(*pair) == verdict, pair


def _ratio_split_answers(mu: int, nu: int) -> bool:
    """Whether the former split, sorted event keys iff 16*mu < mu + nu,
    answered (mu, nu), mu >= 1, under the budget in force: the keys take 2*mu
    entries (on q <= F_48, as every pair here has), the cover table its
    entries."""
    if 16 * mu < mu + nu:
        return 2 * mu <= limits.BUDGET
    return _cover(mu, nu)[4] <= limits.BUDGET


def test_size_split_answers_wherever_the_ratio_split_did(budget):
    rng = random.Random(29)
    pairs = [(62539, 953433), (400, 10**5), (7, 90), (2000, 2001)]
    pairs += [(rng.randint(1, 3000), rng.randint(1, 3000)) for _ in range(20)]
    pairs += [(rng.randint(1, 3000), rng.randint(1, 10**5)) for _ in range(20)]
    pairs += [(rng.randint(1, 70_000), rng.randint(900_000, 10**6)) for _ in range(20)]
    # every size where the former split sent a pair to the table and the size
    # split to the sorted keys, at its least mu, with the least budget its
    # table answers in
    moved = {}
    for size in range(2, 20_657):
        mu = -(-size // 16)
        entries = _cover(mu, size - mu)[4]
        if 2 * mu < entries:
            moved[mu, size - mu] = entries
    assert len(moved) > 10_000 and max(moved) == (1291, 19365)
    pairs += rng.sample(sorted(moved), 200)
    full = {pair: exact_balance(*pair) for pair in pairs}

    answered = {}
    for limit in (1000, 5000, 10**5):
        budget(limit)
        for (m, n), verdict in full.items():
            former = _ratio_split_answers(min(m, n), max(m, n))
            try:
                assert exact_balance(m, n) == verdict, (m, n, limit)
            except BudgetExceeded:
                assert not former, (m, n, limit)
                continue
            answered[m, n, limit] = former
    assert answered[400, 10**5, 1000]
    # its cover table holds 28,657 entries, its sorted keys 125,078
    assert answered[62539, 953433, 10**5] is False
    assert sum(not former for former in answered.values()) >= 3  # now answered
    # each moved verdict against the digit rule, seeded ones with witnesses
    # off the cover table, at the least budget that holds it
    for (mu, nu), entries in moved.items():
        budget(entries)
        assert is_balanced(mu, nu) == zeck_characterization(mu, nu), (mu, nu)
        if (mu, nu) in full:
            assert exact_balance(mu, nu) == full[mu, nu], (mu, nu)
    # and none past 20,656: the entries depend on m + n only through q = F_K
    # and whether m + n = F_{K-1} (see _cover), so the least size of each
    # class, for every q whose chunk fits the largest budget, decides it
    for K in range(4, 67):
        for size in {fibonacci(K - 1), fibonacci(K - 1) + 1} - {fibonacci(K)}:
            mu = -(-size // 16)
            assert size <= 20_656 or 2 * mu >= _cover(1, size - 1)[4], size


def test_scalar_t_builds_no_table():
    tracemalloc.start()
    try:
        value = t_value(10**7, 3, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16
    assert value == t_counting_form(10**7, 3, 3)
    for i, m, n in ((10**15, 3, 3), (10**15 + 7, 5, 8), (999_999_999_999_989, 13, 2)):
        assert t_value(i, m, n) == t_counting_form(i, m, n), (i, m, n)


def _product_keys(start: int, stop: int, p: int, q: int) -> np.ndarray:
    """key(j) = (j*p) mod q for start <= j < stop, as int64 products: the
    former keys, for q <= F_48."""
    keys = np.arange(start, stop, dtype=np.int64)
    keys *= p
    keys %= q
    return keys


def test_dense_and_sparse_sweeps_agree(budget):
    # the sorted event keys and the cover table give the same extremes and
    # first hits, so exact_balance gives the same verdict when the cover
    # table passes the budget; and the count the keys read is one period of
    # T_q, scanned in i order
    rng = random.Random(27)
    pairs = [(1, 1), (1, 500), (4, 4), (30, 2000), (700, 900), (987, 1597)]
    pairs += [tuple(sorted((rng.randint(1, 300), rng.randint(1, 3000)))) for _ in range(40)]
    default = limits.BUDGET
    for mu, nu in pairs:
        p, q, L, cover, entries = _cover(mu, nu)
        table = _table_extremes(mu, nu, p, q, L, cover, True)
        assert _event_extremes(mu, nu, p, q, True) == table, (mu, nu)
        verdict = exact_balance(mu, nu)
        if 2 * mu < entries:
            budget(2 * mu)  # the sorted keys fit, the cover table does not
            assert exact_balance(mu, nu) == verdict, (mu, nu)
            budget(default)
        # the count at every y from the sorted event keys: key(0) = 0 is the
        # smallest, and c holds from each key to the next
        p, q = _convergent(mu + nu)
        keys = np.concatenate([_product_keys(0, mu, p, q), _product_keys(nu, nu + mu, p, q)])
        order = np.argsort(keys)
        after = np.cumsum(np.where(order < mu, -1, 1))
        expected = after[np.searchsorted(keys[order], np.arange(q), side="right") - 1]
        assert (-expected.max(), -expected.min()) == table[:2], (mu, nu)
        # one period of T_q is T_q(i) - t0 = -c((key(-i) - 1) mod q) (_extremes)
        period = -expected[(_product_keys(0, q, q - p, q) - 1) % q]
        for chunk in (97, default):  # many small chunks, then geometric ones
            budget(chunk)
            starts, t = zip(*t_scan(mu, nu, p, q, q))
            assert starts[0] == 0 and max(map(len, t)) <= chunk
            assert np.array_equal(np.concatenate(t), period), (mu, nu)


def test_witness_sweep_reads_t_past_the_exact_range(budget):
    # the scan must give T at every i below the cover F_{j+2}, F_j <=
    # mu+nu-1 < F_{j+1} (_cover), far past the verdict's q; sizes
    # F_k - 2 ... F_k + 1 put mu + nu on both sides of a step of j
    default = limits.BUDGET

    @settings(max_examples=120)
    @given(
        k=st.integers(5, 19),
        offset=st.integers(-2, 1),
        mu=st.sampled_from((1, 2, 3)) | st.integers(4, 2000),
    )
    def scan_reads_t(k, offset, mu):
        size = fibonacci(k) + offset
        mu = min(mu, size // 2)
        nu = size - mu
        p, q = _convergent(size - 1)
        cover = 2 * q - p
        budget(default)
        expected = t_value_vector(mu, nu, cover)
        budget(97)  # chunks of 97 positions
        starts, t = zip(*t_scan(mu, nu, *_convergent(cover + size), cover))
        assert starts == tuple(range(0, cover, 97))
        t = np.concatenate(t) + t_value(0, mu, nu)
        assert np.array_equal(t, expected), (mu, nu)

    scan_reads_t()


def test_witness_scan_holds_keys_in_int64_past_2_31(budget):
    # a far witness scan: its convergent passes 2^31, where int32 keys wrap;
    # under this budget it builds 5120 keys, not 10**7
    budget(5120)
    mu, nu = 3, 3 * 10**9
    p, q = _convergent(mu + nu - 1)
    cover = 2 * q - p
    p, q = _convergent(cover + mu + nu)
    assert q >= 1 << 31
    scan = t_scan(mu, nu, p, q, cover)
    t = np.concatenate([next(scan)[1], next(scan)[1]])  # chunks end at 1024, 5120
    t0 = t_value(0, mu, nu)
    assert list(t) == [t_value(i, mu, nu) - t0 for i in range(5120)]


def test_witness_scan_builds_keys_as_its_chunks_grow(budget, monkeypatch):
    # (300, 10**9 + 7) under a budget below its cover table reads its witness
    # (0, 352) off its sorted event keys, and builds the block's 300 keys and
    # no more
    built = []

    def recorded(L, p, q):
        built.append(L)
        return _doubled_keys(L, p, q)

    monkeypatch.setattr(fib_balance, "_doubled_keys", recorded)
    monkeypatch.setattr(oracles, "_doubled_keys", recorded)
    budget(10**6)
    assert exact_balance(300, 10**9 + 7).witness[:2] == (0, 352)
    assert built == [300]
    # each chunk of the in-order scan longer than the last builds its keys,
    # up to the budget
    budget(20000)
    built.clear()
    mu, nu = 3, 3 * 10**9
    p, q = _convergent(mu + nu - 1)
    cover = 2 * q - p
    scan = t_scan(mu, nu, *_convergent(cover + mu + nu), cover)
    lengths = [len(next(scan)[1]) for _ in range(5)]
    assert lengths == [1024, 4096, 16384, 20000, 20000]
    assert built == lengths[:4]


def test_witness_search_adds_no_memory_to_the_verdict():
    witnesses = {
        (10**6, 10**6 + 1): (346269, 1542921, 381966393218, 381966393213),
        (4 * 10**6, 4 * 10**6 + 1): (49999, 1750298, 6111457707870, 6111457707862),
    }
    for (m, n), witness in witnesses.items():
        tracemalloc.start()
        try:
            assert not is_balanced(m, n)
            verdict_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            verdict = exact_balance(m, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert verdict.witness == witness
        assert peak <= verdict_peak + (64 << 10), (m, n, peak, verdict_peak)


def test_dense_sweep_keeps_nothing_of_size_q():
    # q = F_35 = 9,227,465: one int32 array over Z_q would take 35 MB, and the
    # verdict reads chunks of L = F_26 = 121,393 positions
    m, n = 4 * 10**6, 4 * 10**6 + 1
    for call in (is_balanced, exact_balance):
        tracemalloc.start()
        try:
            call(m, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20, (call.__name__, peak)


def _period(mu: int, nu: int) -> tuple[int, int, tuple[int, int]]:
    """p, q and the (min, max) of one period of T_q - T(0), read by the
    witness scan."""
    p, q = _convergent(mu + nu)
    t = np.concatenate([t for _, t in t_scan(mu, nu, p, q, q)])
    return p, q, (int(t.min()), int(t.max()))


def test_period_extremes_match_the_scan_at_forced_chunk_lengths():
    # the three shortest Fibonacci L whose edit arcs fit on Z_q (the most
    # chunks, and delta of both signs), the chunk-length rule's L, and q
    seen = set()
    for mu in range(1, 90):
        for nu in range(mu, 90):
            p, q, expected = _period(mu, nu)
            for L in set(_fitting_lengths(p, q, q)[:3] + [_chunk_length(q), q]):
                chunks, delta = -(-q // L), L * p % q
                got = _table_extremes(mu, nu, p, q, L, q, False)[:2]
                assert got == expected, (mu, nu, L)
                seen.add("one chunk" if chunks == 1 else "forward" if 2 * delta < q else "backward")
                if q % L:
                    seen.add("partial last chunk")
    assert seen == {"one chunk", "forward", "backward", "partial last chunk"}


@settings(max_examples=150)
@given(a=st.integers(1, 3 * 10**5), b=st.integers(1, 3 * 10**5))
def test_period_extremes_match_the_scan(a, b):
    mu, nu = min(a, b), max(a, b)
    p, q, expected = _period(mu, nu)
    assert _table_extremes(mu, nu, p, q, _chunk_length(q), q, False)[:2] == expected, (mu, nu)


def test_chunk_length_keeps_the_edit_arcs_on_the_circle():
    # every q = F_K, p = F_{K-2}, whose chunk fits the largest budget (see _cover)
    fibs = [fibonacci(k) for k in range(70)]
    assert _chunk_length(fibs[66]) <= MAX_BUDGET < _chunk_length(fibs[67])
    for K in range(2, 67):
        p, q = fibs[K - 2], fibs[K]
        L = _chunk_length(q)
        assert L in fibs and L <= q and (L == q or L**3 >= 8 * q * q), q
        assert L == q or fibs[fibs.index(L) - 1] ** 3 < 8 * q * q, q  # the least
        delta = L * p % q
        chunks = -(-q // L)
        assert (chunks - 1) * min(delta, q - delta) < q, q
        # the cover table on q' over the cover, with this L, for the least
        # and the greatest m + n whose verdict runs on q (see _cover)
        for size in (fibs[K - 1], q - 1):
            if size < 2:
                continue
            p1, q1 = _convergent(size - 1)
            cover = 2 * q1 - p1
            p1, q1 = _convergent(cover + size)
            assert cover >= L and q1 == fibs[K + 2] and 2 * q1 < 2**63, size
            delta = L * p1 % q1
            assert (-(-cover // L) - 1) * min(delta, q1 - delta) < q1, size
            entries = _chunk_entries(p1, q1, L, -(-cover // L))
            assert _cover(1, size - 1) == (p1, q1, L, cover, entries), size
            # it holds no more entries than a table over one period of T_q,
            # so no pair that such a table answered raises
            assert entries <= _chunk_entries(p, q, L, chunks), size


def _witness_range(mu: int, nu: int) -> tuple[int, int, int]:
    """p' and q' of the cover table and its cover F_{k+2} (see _cover)."""
    p, q = _convergent(mu + nu - 1)
    cover = 2 * q - p
    return (*_convergent(cover + mu + nu), cover)


def _scan_hits(mu: int, nu: int, targets: tuple[int, int]) -> list[int]:
    """The first i where T - t0 takes each of ``targets``, its (min, max),
    read in i order by the witness scan up to the cover."""
    p, q, cover = _witness_range(mu, nu)
    first = {}
    for i0, t in t_scan(mu, nu, p, q, cover):
        for target in targets:
            hits = np.flatnonzero(t == target)
            if target not in first and len(hits):
                first[target] = i0 + int(hits[0])
        if len(first) == 2:
            return [first[target] for target in targets]
    raise AssertionError(f"an extreme of ({mu}, {nu}) is not taken below the cover")


def _fitting_lengths(p: int, q: int, stop: int) -> list[int]:
    """The Fibonacci L <= q whose edit arcs over ceil(stop/L) chunks fit on
    Z_q, shortest first."""
    fits = []
    for L in (fibonacci(r) for r in range(2, 60)):
        delta = L * p % q
        if L <= q and (-(-stop // L) - 1) * min(delta, q - delta) < q:
            fits.append(L)
    return fits


def test_first_hits_match_the_scan_at_forced_chunk_lengths():
    # the three shortest L that fit (the most chunks, and delta of both
    # signs), the verdict's L, and L = the cover (one chunk); the reader
    # gives the extremes, and the first hits of both when they differ by 2
    seen = set()
    for mu in range(1, 60):
        for nu in range(mu, 60):
            p, q, cover = _witness_range(mu, nu)
            targets = _period(mu, nu)[2]
            expected = _scan_hits(mu, nu, targets) if targets[1] - targets[0] >= 2 else None
            verdict_L = _chunk_length(_convergent(mu + nu)[1])
            for L in set(_fitting_lengths(p, q, cover)[:3] + [verdict_L, cover]):
                chunks, delta = -(-cover // L), L * p % q
                low, high, got = _table_extremes(mu, nu, p, q, L, cover, True)
                assert (low, high) == targets and got == expected, (mu, nu, L)
                seen.add("one chunk" if chunks == 1 else "forward" if 2 * delta < q else "backward")
                if cover % L:
                    seen.add("partial last chunk")
                if got is None:
                    seen.add("balanced")
                    continue
                if 0 in got:
                    seen.add("a hit at i = 0")
                starts = _chunk_table(mu, nu, p, q, L, chunks)[1]
                i, j = got
                g = np.searchsorted(starts, [i % L, j % L], "right")
                if i // L == j // L and g[0] == g[1]:
                    seen.add("both hits in one segment")
    assert seen == {
        "one chunk",
        "forward",
        "backward",
        "partial last chunk",
        "balanced",
        "a hit at i = 0",
        "both hits in one segment",
    }


@settings(max_examples=40)
@given(
    a=st.integers(1, 3 * 10**5),
    b=st.integers(1, 3 * 10**5),
    shortest=st.integers(0, 2),
)
def test_first_hits_match_the_scan(a, b, shortest):
    # one of the three shortest L that fit, and the verdict's L
    mu, nu = min(a, b), max(a, b)
    p, q, cover = _witness_range(mu, nu)
    targets = _period(mu, nu)[2]
    expected = _scan_hits(mu, nu, targets) if targets[1] - targets[0] >= 2 else None
    verdict_L = _chunk_length(_convergent(mu + nu)[1])
    for L in {_fitting_lengths(p, q, cover)[shortest], verdict_L}:
        got = _table_extremes(mu, nu, p, q, L, cover, True)
        assert got == (*targets, expected), (mu, nu, L)


def _cross_check_routes(m: int, n: int) -> None:
    """exact_balance and the cover table against the chunk table over one
    period of T_q on its own convergent, q > m + n, and is_balanced, and its
    witness against the in-order scan over the cover."""
    verdict, mu, nu = exact_balance(m, n), min(m, n), max(m, n)
    low = high = 0
    if mu:
        p, q = _convergent(mu + nu)
        low, high, _ = _table_extremes(mu, nu, p, q, _chunk_length(q), q, False)
        p, q, L, cover, _ = _cover(mu, nu)
        assert _table_extremes(mu, nu, p, q, L, cover, False)[:2] == (low, high), (m, n)
    t0 = t_value(0, mu, nu)
    assert verdict.value_set == tuple(range(t0 + low, t0 + high + 1)), (m, n)
    assert verdict.balanced == is_balanced(m, n), (m, n)
    if not verdict.balanced:
        assert list(verdict.witness[:2]) == sorted(_scan_hits(mu, nu, (low, high))), (m, n)


def test_one_cover_table_matches_the_period_route(budget):
    # the value set and verdict of the one cover table equal the period
    # reading's on its own convergent, and the witness the in-order scan's;
    # the budget holds every cover table here (at most 121,393 entries) and
    # caps the scan's chunks
    budget(1 << 17)
    rng = random.Random(26)
    pairs = [(mu, nu) for mu in range(90) for nu in range(mu, 90)]
    for centre in (10**6, 4 * 10**6):
        for _ in range(6):
            m = rng.randint(centre - 5000, centre + 5000)
            pairs.append((m, m + rng.randint(-3000, 3000)))
    for m, n in pairs:
        _cross_check_routes(m, n)


def test_dense_pairs_past_q_max_read_the_cover_table():
    # each cover table's q' passes F_48, where products j*p leave int64; the
    # witnesses are those of the in-order scan of T up to the cover
    m, n = fibonacci(44), fibonacci(45)
    assert _cover(m, n)[1] > fibonacci(48)
    assert exact_balance(m, n).balanced and is_balanced(m, n) and zeck_characterization(m, n)
    witnesses = {
        (10**9, 10**9 + 1): (144164119, 1144146409, 381966011632071168, 381966011632071158),
        (2 * 10**9, 2 * 10**9 + 1): (106404907, 971762234, 1527864045764352625, 1527864045764352635),
    }
    for (m, n), witness in witnesses.items():
        assert _cover(m, n)[1] > fibonacci(48)
        assert exact_balance(m, n).witness == witness, (m, n)


@pytest.mark.parametrize(
    "L, p, q",
    [
        (1, 1, 2),
        (1000, fibonacci(18), fibonacci(20)),
        (777, fibonacci(42), fibonacci(44)),  # 2q < 2^31: int32
        (777, fibonacci(43), fibonacci(45)),  # 2q >= 2^31: int64
        (4097, fibonacci(46), fibonacci(48)),
        (777, fibonacci(58), fibonacci(60)),  # past F_48, as the cover tables reach
        (777, fibonacci(90), fibonacci(92)),  # the last q below 2**63, as the sorted keys reach
        (5000, 12345, 99991),
    ],
)
def test_doubled_keys_match_python_ints(L, p, q):
    keys = _doubled_keys(L, p, q)
    assert keys.dtype == (np.int32 if 2 * q < 1 << 31 else np.int64)
    assert keys.tolist() == [r * p % q for r in range(L)]


def test_doubled_keys_raise_past_int64():
    # F_92 < 2**63 < F_93: keys mod F_93 would leave int64, so they raise by
    # name before anything is built
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded, match=r"int64 keys hold q < 2\*\*63"):
            _doubled_keys(10**6, fibonacci(91), fibonacci(93))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


def _readers_agree(mu: int, nu: int) -> None:
    """The sorted event keys and the cover table, on the cover convergent,
    give the same extremes, and the same first hits when asked for."""
    p, q, L, cover, _ = _cover(mu, nu)
    for witness in (True, False):
        got = _event_extremes(mu, nu, p, q, witness)
        assert got == _table_extremes(mu, nu, p, q, L, cover, witness), (mu, nu, witness)


def test_sorted_keys_match_the_cover_table():
    # pairs whose cover tables fit the default budget, so exact_balance
    # reads them there; far_sparse_pairs reach q' = F_50
    for mu, nu in far_sparse_pairs() + [(50, 10**6 + 7), (700, 3 * 10**6), (400, 10**5)]:
        _readers_agree(mu, nu)


@settings(max_examples=40)
@given(data=st.data())
def test_sorted_keys_match_the_cover_table_on_sparse_pairs(data):
    nu = data.draw(st.integers(17, 10**7))
    mu = data.draw(st.integers(1, (nu - 1) // 16))  # 16*mu < nu
    _readers_agree(mu, nu)


def test_sparse_pairs_past_every_cover_table():
    # past F_49 every cover table passes the default budget, so these read
    # their sorted event keys; their verdicts are the digit rule's and
    # their witnesses re-check by t_value (test_golden pins them)
    pairs = past_cover_pairs()
    assert min(m + n for m, n in pairs) > fibonacci(49)
    assert all(_cover(m, n)[4] > limits.BUDGET for m, n in pairs)
    for m, n in pairs:
        verdict = exact_balance(m, n)
        assert not verdict.balanced and not zeck_characterization(m, n), (m, n)
        i, j, ti, tj = verdict.witness
        assert (t_value(i, m, n), t_value(j, m, n)) == (ti, tj), (m, n)
        assert {ti, tj} == {verdict.value_set[0], verdict.value_set[-1]}, (m, n)
        assert not is_balanced(m, n) and is_balanced(m, n - 1) == arc_balanced(m, n - 1)


@settings(max_examples=60)
@given(m=st.integers(1, 12), n=st.integers(1, 12))
def test_key_sweep_matches_argsort_sweep_and_counting_form(m, n):
    lo, hi, t0 = _argsort_sweep(min(m, n), max(m, n))
    vals = exact_balance(m, n).value_set
    assert vals == tuple(range(t0 - hi, t0 - lo + 1))
    # every value is taken below 3(m + n) (see _cover)
    assert {t_counting_form(i, m, n) for i in range(3 * (m + n))} == set(vals)


@settings(max_examples=40)
@given(m=st.integers(1, 1500), n=st.integers(1, 1500))
def test_key_sweep_matches_argsort_sweep(m, n):
    lo, hi, t0 = _argsort_sweep(min(m, n), max(m, n))
    assert exact_balance(m, n).value_set == tuple(range(t0 - hi, t0 - lo + 1))


@settings(max_examples=200)
@given(i=st.integers(0, 10**5), m=st.integers(0, 300), n=st.integers(0, 300))
def test_floor_sum_t_matches_table_t(i, m, n):
    assert t_value(i, m, n) == int(t_value_vector(m, n, i + 1)[i])


# sizes reach both routes: a pair sorts its 2*min(m, n) event keys when
# they are fewer than its cover table's entries
SIZES = st.integers(0, 3000) | st.integers(0, 30_000)


@settings(max_examples=60)
@given(m=SIZES, n=SIZES)
def test_exact_balance_is_transpose_symmetric(m, n):
    assert exact_balance(m, n) == exact_balance(n, m)


@settings(max_examples=300)
@given(i=st.integers(0, 10**15), m=st.integers(0, 10**9), n=st.integers(0, 10**9))
def test_t_steps_by_at_most_one(i, m, n):
    assert abs(t_value(i + 1, m, n) - t_value(i, m, n)) <= 1


@settings(max_examples=60)
@given(m=SIZES, n=SIZES)
def test_exact_witness_rechecks_by_t_value(m, n):
    verdict = exact_balance(m, n)
    if verdict.balanced:
        assert verdict.witness is None
        return
    i, j, ti, tj = verdict.witness
    assert i < j
    assert (t_value(i, m, n), t_value(j, m, n)) == (ti, tj)
    assert {ti, tj} == {verdict.value_set[0], verdict.value_set[-1]}


def test_witnesses_match_the_table_search():
    rng = random.Random(28)
    pairs = [(m, n) for m in range(1, 61) for n in range(m, 61)]
    pairs += [(rng.randint(1, 5000), rng.randint(1, 5000)) for _ in range(60)]
    pairs += [(987, 1597), (1597, 987), (4181, 4182), (30, 4000)]
    unbalanced = 0
    for m, n in pairs:
        verdict = exact_balance(m, n)
        if verdict.balanced:
            continue
        unbalanced += 1
        assert verdict.witness == _table_witness(m, n), (m, n)
    assert unbalanced > 1000


def test_delta_block_scan_prefixes_match_full_scan():
    cases = [(m, n, 2000) for m in range(1, 25) for n in range(m, 25)]
    # witnesses past the first prefixes (1024 and 5120 positions)
    cases += [(1987, 2575, 3000), (1245, 2581, 6000), (223, 2563, 6000)]
    for m, n, horizon in cases:
        verdict = delta_block_scan(m, n, horizon)
        witness = _full_scan(m, n, horizon)
        assert verdict.witness == witness, (m, n)
        assert verdict.horizon == horizon
        if witness is not None:
            # one position short of the witness, the scan knows nothing
            short = delta_block_scan(m, n, witness[1] - 1)
            assert short.status is BalanceStatus.UNKNOWN_UP_TO_HORIZON, (m, n)
