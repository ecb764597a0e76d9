import dataclasses
import random
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rectbal import trib_balance, words
from rectbal.rectangles import word_letter_counts
from rectbal.trib_balance import (
    NotFoundWithinLimit,
    TwoBalanceReport,
    balanced_2xn_list,
    corner_count_gap,
    find_corner_witness,
    two_balance_scan,
    verify_no_2balance_3plus,
)
from rectbal.limits import BudgetExceeded
from rectbal.words import SequenceKind, cover_bound, word
from oracles import factor_cover


def test_single_row_rectangles_are_two_balanced():
    for n in range(1, 201, 7):
        report = two_balance_scan(1, n, horizon=100_000)
        assert report.two_balanced, n


def test_scan_examples():
    assert not two_balance_scan(2, 5, horizon=1_000_000).two_balanced
    assert two_balance_scan(2, 7, horizon=1_000_000).two_balanced


def test_definitive_witness_recounts():
    report = two_balance_scan(2, 5, horizon=1_000_000)
    assert not report.two_balanced
    i, j, ci, cj = report.witness
    letter = report.unbalanced_letter
    w = word(SequenceKind.TRIBONACCI)
    assert word_letter_counts(w, i, 2, 5)[letter] == ci
    assert word_letter_counts(w, j, 2, 5)[letter] == cj
    assert ci - cj > 2


def test_balanced_2xn_list_prefixes():
    assert balanced_2xn_list(0) == []
    assert balanced_2xn_list(4, horizon=100_000) == [1, 2, 3, 4]


def test_balanced_2xn_list_rejects_negative_limit():
    with pytest.raises(ValueError, match="limit must be >= 0, got -1"):
        balanced_2xn_list(-1)


def _three_cumsum_scan(m: int, n: int, horizon: int) -> TwoBalanceReport:
    """two_balance_scan as one int64 double prefix sum per letter."""
    w = word(SequenceKind.TRIBONACCI)
    ranges, bad_letter, witness = {}, None, None
    for letter in (0, 1, 2):
        s2 = np.concatenate([[0], np.cumsum(w.count_table(letter, horizon + m + n), dtype=np.int64)])
        counts = s2[m + n : horizon + m + n] - s2[n : horizon + n] - s2[m : horizon + m] + s2[:horizon]
        lo, hi = int(counts.min()), int(counts.max())
        ranges[letter] = (lo, hi)
        if hi - lo > 2 and bad_letter is None:
            bad_letter = letter
            witness = (int(np.argmax(counts)), int(np.argmin(counts)), hi, lo)
    return TwoBalanceReport(m, n, horizon, ranges, bad_letter, witness)


def test_scan_matches_three_cumsums():
    rng = random.Random(31)
    # (4, 4) and (3, 28): letter 2 is the first unbalanced letter; (3, 5): 1
    shapes = [(4, 4), (3, 28), (3, 5), (2, 5), (2, 7), (1, 9)]
    shapes += [(rng.randint(1, 30), rng.randint(1, 30)) for _ in range(12)]
    letters = set()
    for m, n in shapes:
        horizon = rng.choice([1, 17, 5000, 100_000])
        report = two_balance_scan(m, n, horizon)
        want = dataclasses.replace(_three_cumsum_scan(m, n, horizon), exhaustive=report.exhaustive)
        assert report == want, (m, n, horizon)
        assert report.exhaustive == (horizon >= cover_bound(SequenceKind.TRIBONACCI, m + n - 1))
        if report.exhaustive:
            assert factor_cover(SequenceKind.TRIBONACCI, m + n - 1) <= horizon
        if horizon == 100_000:  # B(m + n - 1) < 1100 for m + n - 1 < 64
            assert report.exhaustive
        letters.add(report.unbalanced_letter)
    assert letters == {None, 0, 1, 2}


@settings(max_examples=30)
@given(st.integers(1, 12), st.integers(1, 40), st.integers(0, 20_000))
def test_scan_to_the_cover_equals_the_full_scan(m, n, extra):
    length = m + n - 1
    horizon = factor_cover(SequenceKind.TRIBONACCI, length) + extra
    report = two_balance_scan(m, n, horizon)
    assert dataclasses.replace(report, exhaustive=False) == _three_cumsum_scan(m, n, horizon)
    assert report.exhaustive == (horizon >= cover_bound(SequenceKind.TRIBONACCI, length))


def test_scans_answer_within_a_budget_below_the_horizon(budget):
    listed = balanced_2xn_list(48)
    reports = [two_balance_scan(2, n) for n in range(1, 49)]
    assert all(r.exhaustive for r in reports)
    # the default horizon of 10^6 no longer has to fit: each scan reads
    # B(n + 1) + n symbols
    budget(100_000)
    assert balanced_2xn_list(48) == listed
    assert [two_balance_scan(2, n) for n in range(1, 49)] == reports
    # a shape whose cover bound does not fit the budget scans the whole
    # horizon, and raises as before
    with pytest.raises(BudgetExceeded, match="budget is 100000"):
        two_balance_scan(2, 20_000)


def test_newly_exhaustive_scan_is_a_decision():
    # every factor of length 4095 starts below B = 72527
    report = two_balance_scan(2048, 2048, 10**6)
    assert report.exhaustive
    assert report == dataclasses.replace(_three_cumsum_scan(2048, 2048, 10**6), exhaustive=True)


def test_scan_rejects_degenerate_shapes():
    with pytest.raises(ValueError):
        two_balance_scan(0, 3)


def test_letter_counts_match_naive():
    w = word(SequenceKind.TRIBONACCI)
    rng = random.Random(30)
    for _ in range(1000):
        i = rng.randrange(3000)
        m = rng.randrange(1, 21)
        n = rng.randrange(1, 21)
        counts = word_letter_counts(w, i, m, n)
        for letter in (0, 1, 2):
            naive = sum(
                1
                for k in range(m)
                for l in range(n)
                if w.symbol(i + k + l) == letter
            )
            assert counts[letter] == naive


def _check_witness_patterns(wit):
    w2 = word(SequenceKind.TRIBONACCI_RECODED)
    syms = w2.symbols(max(wit.i, wit.j) + wit.p + 5)
    assert np.array_equal(
        syms[wit.i : wit.i + wit.p], syms[wit.j : wit.j + wit.p]
    )
    assert list(syms[wit.i + wit.p : wit.i + wit.p + 5]) == [0, 0, 2, 0, 0]
    assert list(syms[wit.j + wit.p : wit.j + wit.p + 5]) == [0, 0, 0, 0, 0]


def test_corner_witness_small_p():
    for p in (0, 1, 2, 7):
        wit = find_corner_witness(p)
        assert wit.p == p
        _check_witness_patterns(wit)


def test_corner_witness_yields_letter2_gap_three():
    for m, n in [(3, 3), (3, 5), (5, 7), (4, 10)]:
        wit = find_corner_witness(m + n - 6)
        ci, cj = corner_count_gap(wit, m, n)
        assert ci - cj == 3


def test_corner_matrices_after_recoding():
    # the two rectangles agree except for the 3x3 lower-right corner, which
    # recodes to the antidiagonal-of-2s block versus all zeros
    m = n = 4
    wit = find_corner_witness(m + n - 6)
    w2 = word(SequenceKind.TRIBONACCI_RECODED)
    w2.ensure(max(wit.i, wit.j) + m + n)
    corner_i = [
        [w2.symbol(wit.i + k + l) for l in range(n - 3, n)]
        for k in range(m - 3, m)
    ]
    corner_j = [
        [w2.symbol(wit.j + k + l) for l in range(n - 3, n)]
        for k in range(m - 3, m)
    ]
    assert corner_i == [[0, 0, 2], [0, 2, 0], [2, 0, 0]]
    assert corner_j == [[0, 0, 0], [0, 0, 0], [0, 0, 0]]


def test_corner_gap_requires_matching_shape():
    wit = find_corner_witness(0)
    with pytest.raises(ValueError):
        corner_count_gap(wit, 4, 4)


def test_witness_search_limit_is_reported():
    with pytest.raises(NotFoundWithinLimit):
        find_corner_witness(40, search_limit=50)


def test_search_limit_out_of_domain():
    with pytest.raises(ValueError, match="search_limit must be >= 0, got -5"):
        find_corner_witness(2, -5)
    # too short for any 00200 or 00000 window after a length-2 factor
    for limit in (0, 3, 6):
        with pytest.raises(NotFoundWithinLimit):
            find_corner_witness(2, limit)


@lru_cache(maxsize=None)
def _pattern_starts(search_limit: int) -> dict[bytes, list[int]]:
    raw = word(SequenceKind.TRIBONACCI_RECODED).symbols(search_limit).tobytes()
    starts: dict[bytes, list[int]] = {bytes([0, 0, 2, 0, 0]): [], bytes(5): []}
    for b in range(len(raw) - 4):
        starts.get(raw[b : b + 5], []).append(b)
    return starts


def _dict_corner_search(p: int, search_limit: int) -> tuple[int, int] | None:
    """The corner search keyed on factor bytes: for each 00200 start a in
    order, the first 00000 start b whose preceding length-p factor equals
    the one before a."""
    raw = word(SequenceKind.TRIBONACCI_RECODED).symbols(search_limit).tobytes()
    starts = _pattern_starts(search_limit)
    prefix_to_j: dict[bytes, int] = {}
    for b in starts[bytes(5)]:
        if b >= p:
            prefix_to_j.setdefault(raw[b - p : b], b - p)
    for a in starts[bytes([0, 0, 2, 0, 0])]:
        j = prefix_to_j.get(raw[a - p : a]) if a >= p else None
        if j is not None:
            return a - p, j
    return None


@pytest.mark.parametrize("search_limit", [300, 5_000, 200_000])
def test_rank_corner_search_matches_dict_search(search_limit):
    # the doubling search, capped at search_limit, finds the witness of the
    # search over the whole capped prefix; at the default cap also by default
    missing = 0
    for p in range(120):
        want = _dict_corner_search(p, search_limit)
        if want is None:
            missing += 1
            with pytest.raises(NotFoundWithinLimit):
                find_corner_witness(p, search_limit)
        else:
            wit = find_corner_witness(p, search_limit)
            assert (wit.p, wit.i, wit.j) == (p, *want)
            if search_limit == 200_000:
                assert find_corner_witness(p) == wit
    # 300 symbols miss 68 of these p; 5,000 miss none
    assert (missing > 0) == (search_limit == 300)


def test_corner_witnesses_fit_a_small_budget(budget):
    # the search starts at 8(p + 5) symbols, not at its 200,000-symbol cap
    want = [find_corner_witness(p) for p in range(55)]
    for cache in (find_corner_witness, trib_balance._corner_starts, words._factor_ranks):
        cache.cache_clear()
    budget(4096)
    assert [find_corner_witness(p) for p in range(55)] == want


def test_no_two_balance_for_three_plus_rows():
    assert verify_no_2balance_3plus(10)
