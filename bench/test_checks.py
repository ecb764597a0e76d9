"""Tests of the benchmark's output checks: each passes on a real output and
fails once that output is corrupted.

    python3 -m pytest -q bench/test_checks.py
"""
import dataclasses
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import checks  # noqa: E402
from rectbal import cli, dfa_tools, fib_balance, tm_balance, trib_balance  # noqa: E402
from rectbal.rectangles import word_letter_counts  # noqa: E402
from rectbal.words import SequenceKind, sturmian_a_word, word  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import FibExactLarge, balanced_pair  # noqa: E402

LIMIT = 88  # fibonacci(11) - 1, what a max-len-9 sample needs


@pytest.fixture(scope="module")
def table():
    return fib_balance.balance_table(LIMIT)


@pytest.fixture(scope="module")
def dfa():
    return dfa_tools.infer_min_dfa(dfa_tools.build_sample_table(9), 8)


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    path = tmp_path_factory.mktemp("sweep") / "sweep.csv"
    assert cli.main(["fib", "sweep", "--max", "12", "--out", str(path)]) == 0
    return path.read_text(encoding="ascii")


def test_digit_rule_matches_the_program(table):
    ref = checks.zeck_reference(LIMIT)
    rule = np.array([[checks.digit_rule(m, n) for n in range(LIMIT + 1)] for m in range(LIMIT + 1)])
    assert np.array_equal(ref, rule)
    assert np.array_equal(ref, table)


def test_pairs_balanced_by_construction():
    import random

    rng = random.Random(5)
    for kind in range(4):
        for _ in range(200):
            assert checks.digit_rule(*balanced_pair(rng, kind, 58))
    for seed in range(20):
        pairs = FibExactLarge(seed).pairs
        assert pairs[:2] == [(250_000, 250_001), (10**6, 10**6 + 1)]
        assert not checks.digit_rule(*pairs[0]) and not checks.digit_rule(*pairs[1])
        # the second pair outgrows the tables the first builds; no later pair does
        assert max(map(max, pairs)) <= 10**6 + 1
        assert max(m + n for m, n in pairs[2:]) <= sum(pairs[1])


def test_flipped_table_entry(table):
    ref = checks.zeck_reference(LIMIT)
    assert checks.check_table(table, ref) == []
    bad = table.copy()
    bad[5, 7] = bad[7, 5] = not bad[5, 7]
    assert checks.check_table(bad, ref)
    bad = table.copy()
    bad[3, 21] = False  # max(m, n) is a Fibonacci number
    assert checks.check_table(bad, ref)


def test_changed_automaton_transition(dfa, table):
    assert checks.check_dfa(dfa, table) == []
    # pair words never start with [0,0], so change the start's [0,1] move
    transitions = dict(dfa.transitions)
    key = (dfa.start, (0, 1))
    transitions[key] = (transitions[key] + 1) % dfa.n_states
    bad = dataclasses.replace(dfa, transitions=transitions)
    assert checks.check_dfa(bad, table)


def test_wrong_query_answer():
    m, n = 4, 18
    assert checks.check_query(m, n, True) == []
    assert checks.check_query(m, n, False)


def test_sweep_verdict_and_value_set(sweep, table):
    assert checks.check_sweep(checks.parse_sweep(sweep), 12, table) == []
    pairs = [(m, n) for m in range(1, 11) for n in range(m, 11)]
    assert checks.check_sweep_values(checks.parse_sweep(sweep), pairs) == []  # every pair the workload can draw
    flipped = sweep.replace("\n2,3,true", "\n2,3,false")
    assert checks.check_sweep(checks.parse_sweep(flipped), 12, table)
    row = next(r for r in sweep.splitlines() if r.startswith("4,4,"))
    grown = sweep.replace(row, row.replace(",exact", "|99,exact"))
    assert checks.check_sweep_values(checks.parse_sweep(grown), [(4, 4)])
    assert checks.check_sweep(checks.parse_sweep(sweep.replace(row + "\n", "")), 12, table)


def _moved(s, i, m, n, value):
    """An index near i whose rectangle has another sum than value."""
    return next(i + d for d in range(1, 50) if checks.t_from_word(s, i + d, m, n) != value)


def test_shifted_witness_index():
    m, n = next((m, n) for m in range(2, 50) for n in range(m, 50) if not checks.digit_rule(m, n))
    verdict = fib_balance.exact_balance(m, n)
    s = sturmian_a_word().count_table(1, 100_000)
    assert checks.check_exact(m, n, verdict, s) == []
    i, j, ti, tj = verdict.witness
    bad = dataclasses.replace(verdict, witness=(_moved(s, i, m, n, ti), j, ti, tj))
    assert checks.check_exact(m, n, bad, s)
    close = dataclasses.replace(verdict, witness=(i, j, ti, ti + 1))
    assert checks.check_exact(m, n, close, s)
    flipped = dataclasses.replace(verdict, status=fib_balance.BalanceStatus.BALANCED, witness=None)
    assert checks.check_exact(m, n, flipped, s)
    balanced = fib_balance.exact_balance(4, 18)
    assert checks.check_exact(4, 18, balanced, s) == []
    wide = dataclasses.replace(balanced, value_set=balanced.value_set + (balanced.value_set[-1] + 1,))
    assert checks.check_exact(4, 18, wide, s)


def test_two_row_list_and_scan_witness():
    assert checks.check_two_row_list(list(checks.TWO_ROW_BALANCED_TO_48)) == []
    assert checks.check_two_row_list(list(checks.TWO_ROW_BALANCED_TO_48[:-1]))
    syms = word(SequenceKind.TRIBONACCI).symbols(200_000)
    report = trib_balance.two_balance_scan(2, 5, horizon=100_000)
    assert checks.check_scan_report(report, syms) == []
    i, j, ci, cj = report.witness
    moved = next(i + d for d in range(1, 50)
                 if checks.rect_count(syms, report.unbalanced_letter, i + d, 2, 5) != ci)
    bad = dataclasses.replace(report, witness=(moved, j, ci, cj))
    assert checks.check_scan_report(bad, syms)


def test_corner_gap():
    syms = word(SequenceKind.TRIBONACCI).symbols(200_000)
    witnesses = {}
    for p in range(2 * 8 - 5):
        w = trib_balance.find_corner_witness(p)
        witnesses[p] = (w.i, w.j)
    assert checks.check_corners(8, witnesses, syms) == []
    i, j = witnesses[4]
    witnesses[4] = (i + 1, j)
    assert checks.check_corners(8, witnesses, syms)


def test_excess_off_by_two():
    prefix = checks.tm_prefix(5000)
    for i, m, n in ((0, 3, 3), (17, 8, 5), (1000, 33, 64)):
        value = tm_balance.excess(i, m, n)
        assert checks.check_excess(i, m, n, value, prefix) == []
        assert checks.check_excess(i, m, n, value + 2, prefix)
    assert checks.check_tm_symbols(word(SequenceKind.THUE_MORSE).symbols(5000), list(range(5000))) == []
    assert checks.check_tm_symbols(np.zeros(5000, dtype=np.uint8), [1])


def test_profile_bounds_and_class():
    profile = tm_balance.excess_profile(5, 7, 100_000)
    assert checks.check_profile(profile) == []
    assert checks.check_profile(dataclasses.replace(profile, max_s=profile.max_s + 2))
    assert checks.check_profile(dataclasses.replace(profile, m=6))


def test_letter_count_recount():
    trib = word(SequenceKind.TRIBONACCI)
    syms = trib.symbols(10_000)
    prefix2 = {c: checks.letter_prefix2(syms, c) for c in (0, 1, 2)}
    counts = word_letter_counts(trib, 123, 17, 40)
    assert checks.check_letter_counts(123, 17, 40, counts, prefix2) == []
    bad = {c: counts[c] for c in (0, 1, 2)}
    bad[2] += 1
    assert checks.check_letter_counts(123, 17, 40, bad, prefix2)
    assert checks.check_trib_prefix(syms, 5000) == []
    assert checks.check_trib_prefix(np.roll(syms, 1), 5000)


def test_tracer_self_times():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            sum(range(10_000))
    with tracer.span("inner"):
        pass
    (_, s0, e0, p0), (_, s1, e1, p1), (_, s2, e2, p2) = tracer.spans
    assert (p0, p1, p2) == (-1, 0, -1)
    times = tracer.self_times()
    assert times["outer"] == pytest.approx((e0 - s0) - (e1 - s1))
    assert times["inner"] == pytest.approx((e1 - s1) + (e2 - s2))
    assert tracer.durations("inner") == [e1 - s1, e2 - s2]
    assert tracer.covered() == pytest.approx((e0 - s0) + (e2 - s2))
