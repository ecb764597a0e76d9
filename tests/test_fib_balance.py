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
    _circle_keys,
    _cover,
    _doubled_keys,
    _extremes,
    _floor_sums,
    _row_extrema,
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
    _period_walk,
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
    _event_extremes,
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


def _check_witness(m: int, n: int, verdict) -> None:
    """An unbalanced verdict's witness re-checks by t_value and takes the
    least and the greatest of its value set."""
    assert not verdict.balanced and not zeck_characterization(m, n), (m, n)
    i, j, ti, tj = verdict.witness
    assert i < j and (t_value(i, m, n), t_value(j, m, n)) == (ti, tj), (m, n)
    assert {ti, tj} == {verdict.value_set[0], verdict.value_set[-1]}, (m, n)


def test_scale_frontiers_raise_before_building(budget):
    budget(10**7)
    top = fibonacci(90)  # m + n from which the former keys' q' = F_93 passed 2**63
    calls = (
        (lambda: t_value_vector(1, 1, fibonacci(48)), "table entries requested"),
        (lambda: row_value_bounds(3, fibonacci(48)), "table entries requested"),
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
    # the exact verdicts walk one period of T on the cover convergent and
    # build no table, so the former frontiers raise nothing: a dense pair
    # whose chunk table held L = F_38 = 39,088,169 positions at q = F_53,
    # and sparse pairs at m + n = F_90, where the sorted keys left int64
    verdict = exact_balance(3 * 10**10, 2 * 10**10)
    low, high = 229179606750063091072, 229179606750063091081
    assert verdict.value_set == tuple(range(low, high + 1))
    assert verdict.witness == (374987121, 7866675819, high, low)
    _check_witness(3 * 10**10, 2 * 10**10, verdict)
    assert is_balanced(1, top - 1) and is_balanced(1, top - 2) and zeck_characterization(1, top - 2)
    # a balanced pair past it needs no walk: the arc verdict answers
    t0 = t_value(0, 7, top)
    assert exact_balance(top, 7).value_set == (t0, t0 + 1) and zeck_characterization(7, top)
    # unbalanced pairs past F_48, the former frontier of the sorted keys,
    # and past the frontier of the added keys answer with witnesses
    for m, n in ((fibonacci(48) + 1, 7), (3 * 10**9, 2 * 10**9), (6, top - 7), (4, top - 4)):
        verdict = exact_balance(m, n)
        _check_witness(m, n, verdict)
        assert not is_balanced(m, n), (m, n)


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
    # the former cover tables, the default route to m + n < F_49, are gone:
    # every verdict walks one period of T on the cover convergent, under the
    # default budget and under the least, and reads no numpy at all
    pairs = [(200, 2500), (1291, 19365), (50, 10**6 + 7), (700, 3 * 10**6), (400, 10**5)]
    pairs += far_sparse_pairs()
    # the sorted event keys, a route independent of the walk
    keys = {(m, n): _event_extremes(m, n, *_cover(m, n), True) for m, n in pairs}
    monkeypatch.setattr(fib_balance, "np", None)
    unbalanced = 0
    for limit in (10**7, 1):
        budget(limit)
        for m, n in pairs:
            verdict = exact_balance(m, n)
            low, high, hits = keys[m, n]
            assert verdict.balanced == is_balanced(m, n) == zeck_characterization(m, n), (m, n)
            if verdict.balanced:
                assert high - low <= 1, (m, n)
                continue
            unbalanced += 1
            t0 = t_value(0, m, n)
            assert verdict.value_set == tuple(range(t0 + low, t0 + high + 1)), (m, n)
            assert verdict.witness[:2] == tuple(sorted(hits)), (m, n)
            _check_witness(m, n, verdict)
    assert unbalanced >= 30


def test_tables_obey_the_symbol_budget(budget):
    expected = {pair: exact_balance(*pair) for pair in ((400, 10**5), (5000, 6000))}
    budget(1000)
    calls = (
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
    # the exact verdicts build no table, so the budget leaves them as they
    # were: (5000, 6000) held a chunk of L = 1597 positions, and (400, 10**5)
    # sorted its 800 event keys
    for pair, verdict in expected.items():
        assert exact_balance(*pair) == verdict, pair
        _check_witness(*pair, verdict)
    assert not is_balanced(5000, 6000)


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
    _check_witness(400, 10**5, expected)
    budget(1000)
    arrays = _ArraySizes()
    monkeypatch.setattr(fib_balance, "np", arrays)
    # the witness, formerly off 800 sorted event keys and a search per arc,
    # comes off the period walk: no numpy call at all
    assert exact_balance(400, 10**5) == expected
    assert arrays.sizes == []
    # the walk against the sorted keys, which still give the same witness
    low, high, hits = _event_extremes(400, 10**5, *_cover(400, 10**5), True)
    assert sorted(hits) == list(expected.witness[:2])


def test_chunk_tables_answer_under_a_small_budget(budget):
    pairs = [(2000, 2001)] + [(m, n) for m in (1990, 2010) for n in range(1995, 2010)]
    pairs += [(62539, 953433), (400, 10**5), (7, 90), (1291, 19365)]
    full = {pair: exact_balance(*pair) for pair in pairs}
    assert sum(not v.balanced for v in full.values()) >= 5
    # every verdict and every witness walks one period of T, with no table:
    # the same answers under every budget, where a chunk table of L = 610
    # positions, or the sorted keys, once had to fit
    for limit in (1, 1000, 5000):
        budget(limit)
        for pair, verdict in full.items():
            assert exact_balance(*pair) == verdict, (pair, limit)
            assert is_balanced(*pair) == verdict.balanced, (pair, limit)


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
    # the sorted event keys and the period walk give the same extremes and
    # first hits on the cover convergent, and the count the keys read is one
    # period of T_q, scanned in i order, whose extremes the walk gives on the
    # pair's own convergent too
    rng = random.Random(27)
    pairs = [(1, 1), (1, 500), (4, 4), (30, 2000), (700, 900), (987, 1597)]
    pairs += [tuple(sorted((rng.randint(1, 300), rng.randint(1, 3000)))) for _ in range(40)]
    default = limits.BUDGET
    for mu, nu in pairs:
        low, i_low, high, i_high = _extremes(mu, nu)
        hits = [i_low, i_high] if high - low >= 2 else None
        assert _event_extremes(mu, nu, *_cover(mu, nu), True) == (low, high, hits), (mu, nu)
        # the count at every y from the sorted event keys: key(0) = 0 is the
        # smallest, and c holds from each key to the next
        p, q = _convergent(mu + nu)
        assert _period_walk(mu, nu, p, q)[::2] == (low, high), (mu, nu)
        keys = np.concatenate([_product_keys(0, mu, p, q), _product_keys(nu, nu + mu, p, q)])
        order = np.argsort(keys)
        after = np.cumsum(np.where(order < mu, -1, 1))
        expected = after[np.searchsorted(keys[order], np.arange(q), side="right") - 1]
        assert (-expected.max(), -expected.min()) == (low, high), (mu, nu)
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
    # (300, 10**9 + 7) reads its witness (0, 352) off the period walk and
    # builds no keys; the sorted event keys, which gave it under a budget
    # below the former cover table, build the block's 300 and no more
    built = []

    def recorded(L, p, q):
        built.append(L)
        return _doubled_keys(L, p, q)

    monkeypatch.setattr(fib_balance, "_doubled_keys", recorded)
    monkeypatch.setattr(oracles, "_doubled_keys", recorded)
    budget(10**6)
    verdict = exact_balance(300, 10**9 + 7)
    assert verdict.witness[:2] == (0, 352) and built == []
    _check_witness(300, 10**9 + 7, verdict)
    assert _event_extremes(300, 10**9 + 7, *_cover(300, 10**9 + 7), True)[2] == [0, 352]
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
    # verdict walks one period of T with at most five pieces at a time
    m, n = 4 * 10**6, 4 * 10**6 + 1
    for call in (is_balanced, exact_balance):
        tracemalloc.start()
        try:
            call(m, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20, (call.__name__, peak)


def _scan_period(mu: int, nu: int, p: int, q: int) -> tuple[int, int, int, int]:
    """(low, i_low, high, i_high) of T_q - T(0) over one period, read in i
    order by the witness scan."""
    t = np.concatenate([t for _, t in t_scan(mu, nu, p, q, q)])
    i_low, i_high = int(t.argmin()), int(t.argmax())
    return int(t[i_low]), i_low, int(t[i_high]), i_high


def test_period_walk_matches_the_scan_to_90():
    # every pair, on its own convergent q > mu + nu and on the cover
    # convergent: the walk's extremes and first hits are the in-order
    # scan's over one period, and on the cover convergent the first hits
    # lie below the cover, where T_q' = T
    for mu in range(1, 90):
        for nu in range(mu, 90):
            p, q = _convergent(mu + nu - 1)
            cover = 2 * q - p
            for p, q in (_convergent(mu + nu), _cover(mu, nu)):
                got = _period_walk(mu, nu, p, q)
                assert got == _scan_period(mu, nu, p, q), (mu, nu, q)
            assert max(got[1], got[3]) < cover, (mu, nu)


def test_period_extremes_match_the_scan_at_forced_chunk_lengths(budget):
    # the budget forces the scan's chunk lengths: one chunk over the
    # period, or many with a partial last one; the walk's extremes and first
    # hits are the scan's wherever its chunks end
    seen = set()
    for size in (3, 50):
        budget(size)
        for mu in range(1, 90):
            for nu in range(mu, 90):
                p, q = _convergent(mu + nu)
                got = _period_walk(mu, nu, p, q)
                assert got == _scan_period(mu, nu, p, q), (mu, nu, size)
                seen.add("one chunk" if q <= size else "many chunks")
                if q > size and q % size:
                    seen.add("partial last chunk")
                if max(got[1], got[3]) >= size:
                    seen.add("an extreme past the first chunk")
    assert seen == {"one chunk", "many chunks", "partial last chunk", "an extreme past the first chunk"}


@settings(max_examples=60)
@given(a=st.integers(1, 10**5), b=st.integers(1, 10**5))
def test_period_extremes_match_the_scan(a, b):
    mu, nu = min(a, b), max(a, b)
    p, q = _convergent(mu + nu)
    assert _period_walk(mu, nu, p, q) == _scan_period(mu, nu, p, q), (mu, nu)


def _witness_range(mu: int, nu: int) -> tuple[int, int, int]:
    """p' and q' of the cover convergent and the cover F_{k+2} (see _cover)."""
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


@settings(max_examples=40)
@given(a=st.integers(1, 10**5), b=st.integers(1, 10**5))
def test_first_hits_match_the_scan(a, b):
    # the walk on the cover convergent gives T's extremes, and its first
    # hits are T's, read in i order up to the cover
    mu, nu = min(a, b), max(a, b)
    low, i_low, high, i_high = _extremes(mu, nu)
    assert (low, high) == _period_walk(mu, nu, *_convergent(mu + nu))[::2], (mu, nu)
    assert [i_low, i_high] == _scan_hits(mu, nu, (low, high)), (mu, nu)


def test_first_hits_match_the_scan_at_forced_chunk_lengths(budget):
    # the budget forces the scan's chunk lengths up to the cover; the walk
    # on the cover convergent gives T's extremes and their first hits, read
    # in i order across the scan's chunk ends
    seen = set()
    for size in (2, 21):
        budget(size)
        for mu in range(1, 60):
            for nu in range(mu, 60):
                low, i_low, high, i_high = _extremes(mu, nu)
                assert (low, high) == _period_walk(mu, nu, *_convergent(mu + nu))[::2], (mu, nu)
                assert [i_low, i_high] == _scan_hits(mu, nu, (low, high)), (mu, nu, size)
                if high - low < 2:
                    seen.add("balanced")
                if 0 in (i_low, i_high):
                    seen.add("a hit at i = 0")
                if i_low // size == i_high // size:
                    seen.add("both hits in one chunk")
                else:
                    seen.add("hits in two chunks")
    assert seen == {"balanced", "a hit at i = 0", "both hits in one chunk", "hits in two chunks"}


def _cross_check_routes(m: int, n: int) -> None:
    """exact_balance against the period walk on the pair's own convergent, q
    > m + n, and is_balanced, and its witness against the in-order scan over
    the cover."""
    verdict, mu, nu = exact_balance(m, n), min(m, n), max(m, n)
    low = high = 0
    if mu:
        low, _, high, _ = _period_walk(mu, nu, *_convergent(mu + nu))
    t0 = t_value(0, mu, nu)
    assert verdict.value_set == tuple(range(t0 + low, t0 + high + 1)), (m, n)
    assert verdict.balanced == is_balanced(m, n), (m, n)
    if not verdict.balanced:
        assert list(verdict.witness[:2]) == sorted(_scan_hits(mu, nu, (low, high))), (m, n)


def test_one_cover_table_matches_the_period_route(budget):
    # the value set and verdict off the walk on the cover convergent equal
    # the walk's over one period of T_q on the pair's own convergent, and
    # the witness the in-order scan's; the budget caps the scan's chunks
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
    # each cover convergent q' passes F_48, where products j*p leave int64;
    # the witnesses are those of the in-order scan of T up to the cover
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
        (777, fibonacci(58), fibonacci(60)),  # past F_48, as the sorted-key oracle reaches
        (777, fibonacci(90), fibonacci(92)),  # the last q below 2**63
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
    """The sorted event keys and the period walk, on the cover convergent,
    give the same extremes, and the same first hits when asked for."""
    low, i_low, high, i_high = _extremes(mu, nu)
    hits = [i_low, i_high] if high - low >= 2 else None
    for witness in (True, False):
        got = _event_extremes(mu, nu, *_cover(mu, nu), witness)
        assert got == (low, high, hits if witness else None), (mu, nu, witness)


def test_sorted_keys_match_the_cover_table():
    # the far-sparse pairs reach q' = F_50; the others once read their
    # cover tables under the default budget
    for mu, nu in far_sparse_pairs() + [(50, 10**6 + 7), (700, 3 * 10**6), (400, 10**5)]:
        _readers_agree(mu, nu)


@settings(max_examples=40)
@given(data=st.data())
def test_sorted_keys_match_the_cover_table_on_sparse_pairs(data):
    nu = data.draw(st.integers(17, 10**7))
    mu = data.draw(st.integers(1, (nu - 1) // 16))  # 16*mu < nu
    _readers_agree(mu, nu)


def test_sparse_pairs_past_every_cover_table():
    # past F_49, where every former cover table passed the default budget:
    # the walk gives the sorted keys' value sets and first hits, the
    # verdicts are the digit rule's and the witnesses re-check by t_value
    # (test_golden pins them)
    pairs = past_cover_pairs()
    assert min(m + n for m, n in pairs) > fibonacci(49)
    for m, n in pairs:
        _readers_agree(m, n)
        verdict = exact_balance(m, n)
        _check_witness(m, n, verdict)
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
