"""Output checks for the benchmark workloads.

Every check compares a program output with a computation made apart from
the route that produced it, or with a property the method must have.  Each
returns a list of problems; an empty list means the output passed.  The
references here (Zeckendorf digits, the digit rule, Thue-Morse by popcount,
recounts from raw symbol arrays) do not call the code paths being timed.
"""
from __future__ import annotations

import csv
import io

import numpy as np

from rectbal.fib_balance import t_counting_form, zeck_characterization

# FIB[j] = F_j with F_0 = 0, F_1 = F_2 = 1; Zeckendorf positions start at 2.
FIB = [0, 1]
while FIB[-1] < 10**15:
    FIB.append(FIB[-1] + FIB[-2])

# n with 2 x n Tribonacci rectangles 2-balanced, n <= 48 (the paper's list).
TWO_ROW_BALANCED_TO_48 = (
    1, 2, 3, 4, 7, 8, 9, 10, 11, 14, 15, 22, 23, 24,
    27, 28, 33, 34, 35, 46, 47, 48,
)
DFA_STATES = 15


def zeck_indices(n: int) -> list[int]:
    """Descending Zeckendorf indices of n >= 0 (greedy, F_2 = 1)."""
    out = []
    j = len(FIB) - 1
    while n > 0:
        while FIB[j] > n:
            j -= 1
        out.append(j)
        n -= FIB[j]
        j -= 2
    return out


def zeck_digits(n: int) -> str:
    """Zeckendorf digit string of n, most significant first; '' for 0."""
    idx = zeck_indices(n)
    if not idx:
        return ""
    return "".join("1" if j in idx else "0" for j in range(idx[0], 1, -1))


def digit_rule(m: int, n: int) -> bool:
    """The paper's Zeckendorf digit rule for balance of the m x n rectangles."""
    if m > n:
        m, n = n, m
    if m <= 1:
        return True
    a = zeck_indices(m)
    b = zeck_indices(n)
    a1 = a[0]
    if a1 < b[-1]:
        return True
    if len(a) == 1:
        if a1 in b:
            return True
        above = min(x for x in b if x > a1)
        if (above - a1) % 2 == 0:
            return True
    return a1 == b[-1] and len(b) >= 2 and (b[-2] - b[-1]) % 2 == 1


def zeck_reference(limit: int) -> np.ndarray:
    """rectbal's zeck_characterization on every pair up to limit; a route
    apart from the circle sweep that builds the verdict table."""
    ref = np.zeros((limit + 1, limit + 1), dtype=bool)
    for m in range(limit + 1):
        for n in range(m, limit + 1):
            ref[m, n] = ref[n, m] = zeck_characterization(m, n)
    return ref


# ---------------------------------------------------------------------------
# fib_table_dfa


def check_table(table: np.ndarray, zeck_ref: np.ndarray) -> list[str]:
    """The verdict table is symmetric, equals the digit-rule reference on
    every pair, and marks every pair with a Fibonacci max as balanced."""
    problems = []
    if table.shape != zeck_ref.shape:
        return [f"table shape {table.shape}, reference {zeck_ref.shape}"]
    if not np.array_equal(table, table.T):
        problems.append("table is not symmetric")
    bad = np.argwhere(table != zeck_ref)
    problems += [f"table[{m},{n}] differs from the digit rule" for m, n in bad[:5]]
    limit = table.shape[0] - 1
    for f in sorted(set(f for f in FIB[2:] if f <= limit)):
        if not table[: f + 1, f].all():
            problems.append(f"a pair with max {f} is marked unbalanced")
    return problems


def dfa_accepts_table(dfa, limit: int) -> np.ndarray:
    """Acceptance of every (m, n) <= limit, replaying the padded pair words
    exactly as the route does (width max(len(m), len(n))), vectorized."""
    digits = [zeck_digits(v) for v in range(limit + 1)]
    width = max(len(d) for d in digits)
    grid = np.array([[int(c) for c in d.rjust(width, "0")] for d in digits],
                    dtype=np.int64).reshape(limit + 1, width)
    lengths = np.array([len(d) for d in digits])
    start = width - np.maximum(lengths[:, None], lengths[None, :])
    dead = dfa.n_states
    trans = np.full((dead + 1, 4), dead, dtype=np.int64)
    for (state, (a, b)), target in dfa.transitions.items():
        trans[state, 2 * a + b] = target
    state = np.full(start.shape, dfa.start, dtype=np.int64)
    for pos in range(width):
        sym = 2 * grid[:, None, pos] + grid[None, :, pos]
        state = np.where(pos >= start, trans[state, sym], state)
    return np.isin(state, sorted(dfa.accepting))


def check_dfa(dfa, table: np.ndarray) -> list[str]:
    """The automaton has the paper's state count and accepts exactly the
    balanced pairs of the table."""
    problems = []
    if dfa.n_states != DFA_STATES:
        problems.append(f"automaton has {dfa.n_states} states, not {DFA_STATES}")
    accepted = dfa_accepts_table(dfa, table.shape[0] - 1)
    bad = np.argwhere(accepted != table)
    problems += [f"automaton disagrees with the table at ({m},{n})" for m, n in bad[:5]]
    return problems


def check_query(m: int, n: int, accepted: bool) -> list[str]:
    if accepted != digit_rule(m, n):
        return [f"automaton says {accepted} for ({m},{n}), the digit rule does not"]
    return []


def parse_sweep(text: str) -> dict[tuple[int, int], tuple[bool, tuple[int, ...]]]:
    rows = {}
    for rec in csv.DictReader(io.StringIO(text)):
        values = tuple(int(v) for v in rec["value_set"].split("|"))
        rows[int(rec["m"]), int(rec["n"])] = (rec["balanced"] == "true", values)
    return rows


def check_sweep(rows: dict, limit: int, table: np.ndarray) -> list[str]:
    """The sweep lists every 0 <= m <= n <= limit once, its verdicts match
    the table, and each verdict is the value-set size test."""
    problems = []
    expected = (limit + 1) * (limit + 2) // 2
    if len(rows) != expected:
        problems.append(f"sweep has {len(rows)} pairs, expected {expected}")
    for (m, n), (balanced, values) in rows.items():
        if balanced != bool(table[m, n]):
            problems.append(f"sweep verdict for ({m},{n}) differs from the table")
        if balanced != (len(values) <= 2):
            problems.append(f"sweep verdict for ({m},{n}) contradicts its value set")
    return problems


def counting_form_values(m: int, n: int) -> set[int]:
    """T(i, m, n) by the QuadraticValue counting form over a horizon long
    enough for the orbit of i*gamma to visit every arc of the partition."""
    return {t_counting_form(i, m, n) for i in range(16 * (m + n) + 64)}


def check_sweep_values(rows: dict, pairs: list[tuple[int, int]]) -> list[str]:
    problems = []
    for m, n in pairs:
        got = set(rows[m, n][1]) if (m, n) in rows else None
        if got != counting_form_values(m, n):
            problems.append(f"sweep value set for ({m},{n}) differs from the counting form")
    return problems


# ---------------------------------------------------------------------------
# fib_exact_large


def t_from_word(s: np.ndarray, i: int, m: int, n: int) -> int:
    """T(i, m, n) from the prefix-count array s of the 0-prefixed Fibonacci
    word: the sum over rows k < m of s[i+k+n] - s[i+k]."""
    return int(s[i + n : i + n + m].sum()) - int(s[i : i + m].sum())


def check_exact(m: int, n: int, verdict, s: np.ndarray) -> list[str]:
    """Verdict equals the digit rule; a balanced value set has at most two
    consecutive values; an unbalanced witness recomputes from the word."""
    problems = []
    values = verdict.value_set
    if verdict.balanced != digit_rule(m, n):
        problems.append(f"exact verdict for ({m},{n}) differs from the digit rule")
    if values != tuple(range(values[0], values[0] + len(values))):
        problems.append(f"value set of ({m},{n}) is not a run of integers")
    if verdict.balanced:
        if len(values) > 2 or verdict.witness is not None:
            problems.append(f"balanced ({m},{n}) has {len(values)} values or a witness")
        return problems
    i, j, ti, tj = verdict.witness
    if abs(tj - ti) < 2:
        problems.append(f"witness values of ({m},{n}) differ by less than 2")
    if ti not in values or tj not in values:
        problems.append(f"witness values of ({m},{n}) lie outside the value set")
    if max(i, j) + m + n >= len(s):
        return problems + [f"witness of ({m},{n}) lies beyond the recount word"]
    if (t_from_word(s, i, m, n), t_from_word(s, j, m, n)) != (ti, tj):
        problems.append(f"witness T values of ({m},{n}) differ from the word recount")
    return problems


# ---------------------------------------------------------------------------
# trib_tm_scan


def rect_count(syms: np.ndarray, letter: int, i: int, m: int, n: int) -> int:
    """Occurrences of letter in the m x n rectangle at i, row by row from
    the raw symbol array."""
    return sum(int(np.count_nonzero(syms[i + k : i + k + n] == letter)) for k in range(m))


def check_trib_prefix(syms: np.ndarray, length: int = 100_000) -> list[str]:
    """The Tribonacci word starts as 0 -> 01, 1 -> 02, 2 -> 0 generates it."""
    text = "0"
    while len(text) < length:
        text = "".join({"0": "01", "1": "02", "2": "0"}[c] for c in text)
    want = np.frombuffer(text[:length].encode("ascii"), dtype=np.uint8) - ord("0")
    if not np.array_equal(syms[:length], want):
        return ["Tribonacci symbols differ from the morphism"]
    return []


def check_tm_symbols(syms: np.ndarray, indices: list[int]) -> list[str]:
    """Thue-Morse symbols at the given indices equal popcount parity."""
    bad = [i for i in indices if syms[i] != bin(i).count("1") & 1]
    return [f"t_{bad[0]} differs from popcount parity"] if bad else []


def check_two_row_list(got: list[int]) -> list[str]:
    if tuple(got) != TWO_ROW_BALANCED_TO_48:
        return [f"2 x n list {got} differs from the classification to 48"]
    return []


def check_scan_report(report, syms: np.ndarray) -> list[str]:
    """A shape known to be unbalanced gets a witness that recounts from
    the raw symbols with a gap of at least 3."""
    m, n = report.m, report.n
    if report.unbalanced_letter is None:
        return [f"{m} x {n} scan found no witness"]
    i, j, ci, cj = report.witness
    letter = report.unbalanced_letter
    got = (rect_count(syms, letter, i, m, n), rect_count(syms, letter, j, m, n))
    problems = []
    if got != (ci, cj):
        problems.append(f"{m} x {n} witness counts {(ci, cj)} recount as {got}")
    if ci - cj < 3:
        problems.append(f"{m} x {n} witness gap {ci - cj} is below 3")
    return problems


def check_corners(max_dim: int, witnesses: dict, syms: np.ndarray) -> list[str]:
    """For every 3 <= m <= n <= max_dim the corner witness of p = m+n-6
    gives two rectangles whose letter-2 counts differ by exactly 3."""
    problems = []
    for m in range(3, max_dim + 1):
        for n in range(m, max_dim + 1):
            i, j = witnesses[m + n - 6]
            gap = rect_count(syms, 2, i, m, n) - rect_count(syms, 2, j, m, n)
            if gap != 3:
                problems.append(f"corner gap of {m} x {n} is {gap}, not 3")
    return problems


def check_profile(profile) -> list[str]:
    """|s| <= 4, s has the parity of m*n, and the class is 3 exactly at
    odd x odd shapes."""
    m, n = profile.m, profile.n
    problems = []
    if max(abs(profile.min_s), abs(profile.max_s)) > 4:
        problems.append(f"excess of {m} x {n} leaves [-4, 4]")
    if (profile.min_s - m * n) % 2 or (profile.max_s - m * n) % 2:
        problems.append(f"excess of {m} x {n} has the wrong parity")
    if (profile.balance == 3) != (m % 2 == 1 and n % 2 == 1):
        problems.append(f"class of {m} x {n} is {profile.balance}")
    return problems


def tm_prefix(length: int) -> np.ndarray:
    """Prefix counts of 1s in the Thue-Morse word, symbols by popcount."""
    bits = np.fromiter((bin(i).count("1") & 1 for i in range(length)), dtype=np.int64, count=length)
    return np.concatenate([[0], np.cumsum(bits)])


def check_excess(i: int, m: int, n: int, value: int, prefix: np.ndarray) -> list[str]:
    ones = sum(int(prefix[i + k + n] - prefix[i + k]) for k in range(m))
    want = 2 * ones - m * n
    if value != want:
        return [f"excess({i},{m},{n}) = {value}, popcount count gives {want}"]
    if abs(value) > 4:
        return [f"excess({i},{m},{n}) = {value} leaves [-4, 4]"]
    return []


def letter_prefix2(syms: np.ndarray, letter: int) -> np.ndarray:
    """Double prefix sums of the indicator of letter, from raw symbols."""
    s = np.concatenate([[0], np.cumsum(syms == letter, dtype=np.int64)])
    return np.concatenate([[0], np.cumsum(s)])


def check_letter_counts(i: int, m: int, n: int, counts, prefix2: dict) -> list[str]:
    problems = []
    for letter, q in prefix2.items():
        want = int(q[i + m + n] - q[i + n] - q[i + m] + q[i])
        if counts[letter] != want:
            problems.append(f"letter {letter} count at ({i},{m},{n}) is {counts[letter]}, recount {want}")
    return problems
