"""The three benchmark workloads, and the entry point that runs one round of
one workload in a fresh interpreter.

rectbal caches its floor tables, circle-rank tables, verdict tables and
words for the life of a process, and a CLI user pays for building them on
every call, so each round runs in its own process:

    python3 bench/workloads.py --workload NAME --seed N --trace 0|1 --result FILE

A round makes its inputs from the seed, times the public calls of the
workload (every call is one operation), reads peak RSS, then checks every
output with the references in checks.py.  An operation fails when it raises
or when a check of its output fails.  The result is written as JSON.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import sys
import time

import numpy as np

import checks
import rectbal
from checks import FIB, digit_rule
from rectbal import cli, dfa_tools, fib_balance, numeration, rectangles, tm_balance, trib_balance
from rectbal.trib_balance import find_corner_witness
from rectbal.words import SequenceKind, sturmian_a_word, word
from tracer import NullTracer, Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "bench", "out")


class Round:
    """The operations of one round and the failures recorded against them."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.attempted = 0
        self.failures: dict[int, str] = {}
        self.wrong = False

    def call(self, name: str, fn, *args):
        """One public call under a span named after it; returns (op, value)."""
        op = self.attempted
        self.attempted += 1
        with self.tracer.span(name):
            try:
                return op, fn(*args)
            except Exception as err:  # a failed operation; the round goes on
                self.failures[op] = f"{name} raised {type(err).__name__}: {err}"
                return op, None

    def check(self, op: int, problems: list[str]) -> None:
        if problems and op not in self.failures:
            self.failures[op] = problems[0]
            self.wrong = True


def _sparse(rng: random.Random, lo: int, hi: int) -> list[int]:
    """A random set of Zeckendorf indices in [lo, hi], no two adjacent."""
    out = []
    for j in range(hi, lo - 1, -1):
        if (not out or out[-1] > j + 1) and rng.random() < 0.5:
            out.append(j)
    return out


def _value(indices) -> int:
    return sum(FIB[j] for j in indices)


def _swap(rng: random.Random, m: int, n: int) -> tuple[int, int]:
    return (n, m) if rng.random() < 0.5 else (m, n)


def balanced_pair(rng: random.Random, kind: int, top: int) -> tuple[int, int]:
    """A pair balanced by construction, Fibonacci indices up to top:
    0: max(m, n) = F_k;  1: m = F_a with a among the indices of n;
    2: every index of n above the top index of m;
    3: top index of m = smallest index b1 of n, next index b2 with b2 - b1 odd."""
    if kind == 0:
        n = FIB[rng.randint(3, top)]
        m = rng.randint(1, n)
    elif kind == 1:
        a = rng.randint(2, top - 2)
        m = FIB[a]
        n = m + _value(_sparse(rng, 2, a - 2) + _sparse(rng, a + 2, top))
    elif kind == 2:
        b1 = rng.randint(4, top - 4)
        n = FIB[b1] + _value(_sparse(rng, b1 + 2, top))
        m = rng.randint(1, FIB[b1] - 1)
    else:
        a1 = rng.randint(3, top - 6)
        b2 = a1 + rng.choice((3, 5))
        m = FIB[a1] + rng.randint(0, FIB[a1 - 1] - 1)
        n = FIB[a1] + FIB[b2] + _value(_sparse(rng, b2 + 2, top))
    assert digit_rule(m, n), (kind, m, n)
    return _swap(rng, m, n)


# ---------------------------------------------------------------------------
# fib_table_dfa: verdict table, automaton inference, automaton queries, sweep


class FibTableDfa:
    LIMIT = 609  # fibonacci(15) - 1, the values a max-len-13 sample needs
    SAMPLE_LENS = (10, 11, 12, 13)
    DEPTH = 10
    QUERIES = 6000
    QUERY_MAX = 10**12
    SWEEP_MAX = 200
    VALUE_PAIRS = 6  # sweep pairs re-derived by the QuadraticValue counting form

    def __init__(self, seed: int, zeck_ref: str | None) -> None:
        rng = random.Random(seed)
        self.zeck_ref = zeck_ref
        self.queries = []
        for q in range(self.QUERIES):
            if q % 2:
                self.queries.append(balanced_pair(rng, q // 2 % 4, 58))
            else:
                self.queries.append((rng.randint(1, self.QUERY_MAX), rng.randint(1, self.QUERY_MAX)))
        rng.shuffle(self.queries)
        self.value_pairs = sorted(
            {tuple(sorted((rng.randint(1, 10), rng.randint(1, 10)))) for _ in range(self.VALUE_PAIRS)}
        )
        self.sweep_out = os.path.join(OUT, f"sweep-{os.getpid()}.csv")

    def run(self, rnd: Round) -> None:
        self.table = rnd.call("fib_balance.balance_table", fib_balance.balance_table, self.LIMIT)
        self.dfas = []
        for k in self.SAMPLE_LENS:
            _, sample = rnd.call("dfa_tools.build_sample_table", dfa_tools.build_sample_table, k)
            self.dfas.append(rnd.call("dfa_tools.infer_min_dfa", dfa_tools.infer_min_dfa, sample, self.DEPTH))
        dfa = self.dfas[-1][1]
        self.answers = []
        for m, n in self.queries:
            _, word = rnd.call("numeration.pair_encode", numeration.pair_encode, m, n)
            self.answers.append(rnd.call("dfa_tools.dfa_run", dfa_tools.dfa_run, dfa, word))
        argv = ["fib", "sweep", "--max", str(self.SWEEP_MAX), "--out", self.sweep_out]
        self.sweep = rnd.call("cli.main", cli.main, argv)

    def check(self, rnd: Round) -> None:
        ref = np.load(self.zeck_ref) if self.zeck_ref else checks.zeck_reference(self.LIMIT)
        op, table = self.table
        if table is not None:
            rnd.check(op, checks.check_table(table, ref))
        # the automaton and the sweep are held to the table, or to the
        # digit-rule reference when balance_table raised
        verdicts = table if table is not None else ref
        for op, dfa in self.dfas:
            if dfa is not None:
                rnd.check(op, checks.check_dfa(dfa, verdicts))
        for (m, n), (op, accepted) in zip(self.queries, self.answers):
            if accepted is not None:
                rnd.check(op, checks.check_query(m, n, accepted))
        op, code = self.sweep
        if code is None:
            return
        if code != 0:
            rnd.check(op, [f"fib sweep exited {code}"])
            return
        with open(self.sweep_out, encoding="ascii") as handle:
            rows = checks.parse_sweep(handle.read())
        os.remove(self.sweep_out)
        rnd.check(op, checks.check_sweep(rows, self.SWEEP_MAX, verdicts))
        rnd.check(op, checks.check_sweep_values(rows, self.value_pairs))

    def counts(self) -> dict[str, int]:
        dfa = self.dfas[-1][1]
        return {
            "fib_balance.table_pairs": (self.LIMIT + 1) ** 2,
            "dfa_tools.dfa_states": dfa.n_states if dfa is not None else 0,
            "dfa_tools.queries": len(self.queries),
            "cli.sweep_pairs": (self.SWEEP_MAX + 1) * (self.SWEEP_MAX + 2) // 2,
        }


# ---------------------------------------------------------------------------
# fib_exact_large: exact verdicts with witnesses near 10^6


class FibExactLarge:
    TOP = 10**6
    # Two fixed unbalanced pairs open every round.  The first call builds
    # the floor table at 4500074 entries and the circle-rank table at
    # 500002; the second outgrows both and regrows them to 18000074 and
    # 2000002.  Every later pair has max(m, n) <= 10^6 and m + n <= 2*10^6 + 1,
    # so no later call regrows them, and the seeded order of the later pairs
    # moves no table work between calls.
    FIRST = ((250_000, 250_001), (10**6, 10**6 + 1))
    UNBALANCED = 6

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        f26, f30 = FIB[26], FIB[30]
        pairs = []
        for _ in range(self.UNBALANCED):
            while True:
                m, n = rng.randint(800_000, self.TOP), rng.randint(800_000, self.TOP)
                if not digit_rule(m, n):
                    break
            pairs.append((m, n))
        # balanced by construction, sizes in fixed bands so the work is
        # nearly the same for every seed
        for _ in range(2):
            pairs.append(_swap(rng, rng.randint(600_000, f30 - 1), f30))  # max is F_30
            pairs.append(_swap(rng, f30, rng.randint(f30 + 1, self.TOP)))  # F_30 in n
        pairs.append(_swap(rng, rng.randint(60_000, f26 - 1), f30 + f26))  # below F_26
        pairs.append(_swap(rng, FIB[25] + rng.randint(0, FIB[24] - 1), f30 + FIB[25]))
        assert all(digit_rule(m, n) for m, n in pairs[self.UNBALANCED:])
        rng.shuffle(pairs)
        self.pairs = list(self.FIRST) + pairs

    def run(self, rnd: Round) -> None:
        self.verdicts = [
            rnd.call("fib_balance.exact_balance", fib_balance.exact_balance, m, n)
            for m, n in self.pairs
        ]

    def check(self, rnd: Round) -> None:
        need = 1
        for (m, n), (_, v) in zip(self.pairs, self.verdicts):
            if v is not None and v.witness is not None:
                need = max(need, max(v.witness[:2]) + m + n + 1)
        s = sturmian_a_word().count_table(1, need)
        for (m, n), (op, v) in zip(self.pairs, self.verdicts):
            if v is not None:
                rnd.check(op, checks.check_exact(m, n, v, s))

    def counts(self) -> dict[str, int]:
        done = [v for _, v in self.verdicts if v is not None]
        return {
            "fib_balance.exact_verdicts": len(done),
            "fib_balance.witnesses": sum(v.witness is not None for v in done),
        }


# ---------------------------------------------------------------------------
# trib_tm_scan: Tribonacci and Thue-Morse words, bulk scans and scalar queries


class TribTmScan:
    WORD_LENGTH = 10**7
    LIST_LIMIT = 48
    LIST_HORIZON = 1_000_000  # balanced_2xn_list's default
    SCAN_HORIZON = 4_000_000
    CORNER_DIM = 30
    PARITY_DIM = 33
    PARITY_HORIZON = 100_000  # excess_class_parity_check's default
    PROFILE_HORIZON = 4_000_000
    PROFILE_SHAPES = ((999, 1001), (1000, 1000), (1536, 768), (2047, 2049))
    SCALAR = 1500
    SCALAR_I = 1 << 20
    SCALAR_SIDE = 256
    DIVERSE_K = (1, 2, 3, 4)

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        unbalanced_2xn = [n for n in range(1, 49) if n not in checks.TWO_ROW_BALANCED_TO_48]
        self.scan_shapes = [(2, n) for n in rng.sample(unbalanced_2xn, 2)]
        for _ in range(2):
            m, n = rng.randint(3, 24), rng.randint(3, 24)
            self.scan_shapes.append((min(m, n), max(m, n)))

        def triples():
            return [
                (rng.randrange(self.SCALAR_I), rng.randint(1, self.SCALAR_SIDE), rng.randint(1, self.SCALAR_SIDE))
                for _ in range(self.SCALAR)
            ]

        self.excess_queries = triples()
        self.count_queries = triples()
        self.tm_samples = [rng.randrange(self.WORD_LENGTH) for _ in range(2000)]

    def run(self, rnd: Round) -> None:
        trib, tm = word(SequenceKind.TRIBONACCI), word(SequenceKind.THUE_MORSE)
        self.ensured = [
            rnd.call("words.Word.ensure", w.ensure, self.WORD_LENGTH) for w in (trib, tm)
        ]
        self.two_row = rnd.call("trib_balance.balanced_2xn_list", trib_balance.balanced_2xn_list, self.LIST_LIMIT)
        self.scans = [
            rnd.call("trib_balance.two_balance_scan", trib_balance.two_balance_scan, m, n, self.SCAN_HORIZON)
            for m, n in self.scan_shapes
        ]
        self.corner = rnd.call("trib_balance.verify_no_2balance_3plus", trib_balance.verify_no_2balance_3plus, self.CORNER_DIM)
        self.parity = rnd.call(
            "tm_balance.excess_class_parity_check", tm_balance.excess_class_parity_check, self.PARITY_DIM
        )
        self.profiles = [
            rnd.call("tm_balance.excess_profile", tm_balance.excess_profile, m, n, self.PROFILE_HORIZON)
            for m, n in self.PROFILE_SHAPES
        ]
        self.excess = [
            (rnd.call("tm_balance.excess", tm_balance.excess, i, m, n),
             rnd.call("tm_balance.excess_parity_reduced", tm_balance.excess_parity_reduced, i, m, n))
            for i, m, n in self.excess_queries
        ]
        self.letter_counts = [
            rnd.call("rectangles.word_letter_counts", rectangles.word_letter_counts, trib, i, m, n)
            for i, m, n in self.count_queries
        ]
        self.diverse = [
            rnd.call("fib_balance.diverse_identities_check", fib_balance.diverse_identities_check, k)
            for k in self.DIVERSE_K
        ]

    def check(self, rnd: Round) -> None:
        trib = word(SequenceKind.TRIBONACCI).symbols(self.WORD_LENGTH)
        tm = word(SequenceKind.THUE_MORSE).symbols(self.WORD_LENGTH)
        op = self.ensured[0][0]
        rnd.check(op, checks.check_trib_prefix(trib))
        op = self.ensured[1][0]
        rnd.check(op, checks.check_tm_symbols(tm, self.tm_samples))
        op, got = self.two_row
        if got is not None:
            rnd.check(op, checks.check_two_row_list(got))
        for op, report in self.scans:
            if report is not None:
                rnd.check(op, checks.check_scan_report(report, trib))
        op, ok = self.corner
        if ok is not None:
            witnesses = {}
            for p in range(2 * self.CORNER_DIM - 5):
                w = find_corner_witness(p)
                witnesses[p] = (w.i, w.j)
            rnd.check(op, [] if ok else ["verify_no_2balance_3plus returned False"])
            rnd.check(op, checks.check_corners(self.CORNER_DIM, witnesses, trib))
        op, ok = self.parity
        if ok is not None:
            rnd.check(op, [] if ok else ["class 3 is not exactly at odd x odd shapes"])
        for op, profile in self.profiles:
            if profile is not None:
                rnd.check(op, checks.check_profile(profile))
        prefix = checks.tm_prefix(self.SCALAR_I + 2 * self.SCALAR_SIDE)
        for (i, m, n), pair in zip(self.excess_queries, self.excess):
            for op, value in pair:
                if value is not None:
                    rnd.check(op, checks.check_excess(i, m, n, value, prefix))
        prefix2 = {c: checks.letter_prefix2(trib[: self.SCALAR_I + 2 * self.SCALAR_SIDE], c) for c in (0, 1, 2)}
        for (i, m, n), (op, counts) in zip(self.count_queries, self.letter_counts):
            if counts is not None:
                rnd.check(op, checks.check_letter_counts(i, m, n, counts, prefix2))
        for op, ok in self.diverse:
            rnd.check(op, [] if ok in (True, None) else ["a square gap identity failed"])

    def counts(self) -> dict[str, int]:
        shapes_3plus = sum(1 for m in range(3, self.CORNER_DIM + 1) for n in range(m, self.CORNER_DIM + 1))
        return {
            "words.symbols": 2 * self.WORD_LENGTH,
            "trib_balance.scan_positions": self.LIST_LIMIT * self.LIST_HORIZON + len(self.scan_shapes) * self.SCAN_HORIZON,
            "trib_balance.corner_shapes": shapes_3plus,
            "tm_balance.profile_positions": (self.PARITY_DIM - 2) ** 2 * self.PARITY_HORIZON
            + len(self.PROFILE_SHAPES) * self.PROFILE_HORIZON,
            "tm_balance.scalar_queries": 2 * self.SCALAR,
            "rectangles.queries": self.SCALAR,
        }


WORKLOADS = {
    "fib_table_dfa": FibTableDfa,
    "fib_exact_large": FibExactLarge,
    "trib_tm_scan": TribTmScan,
}

# per-layer time metric -> span names whose self time it sums
LAYER_SPANS = {
    "fib_balance.balance_table_s": ("fib_balance.balance_table",),
    "dfa_tools.infer_min_dfa_s": ("dfa_tools.build_sample_table", "dfa_tools.infer_min_dfa"),
    "numeration.pair_encode_s": ("numeration.pair_encode",),
    "dfa_tools.dfa_run_s": ("dfa_tools.dfa_run",),
    "cli.fib_sweep_s": ("cli.main",),
    "words.ensure_s": ("words.Word.ensure",),
    "trib_balance.two_balance_scan_s": ("trib_balance.balanced_2xn_list", "trib_balance.two_balance_scan"),
    "trib_balance.corner_s": ("trib_balance.verify_no_2balance_3plus",),
    "tm_balance.excess_profile_s": ("tm_balance.excess_class_parity_check", "tm_balance.excess_profile"),
    "tm_balance.scalar_excess_s": ("tm_balance.excess", "tm_balance.excess_parity_reduced"),
    "rectangles.letter_counts_s": ("rectangles.word_letter_counts",),
    "fib_balance.diverse_identities_s": ("fib_balance.diverse_identities_check",),
}
COUNTS = (
    "fib_balance.table_pairs", "dfa_tools.dfa_states", "dfa_tools.queries", "cli.sweep_pairs",
    "fib_balance.exact_verdicts", "fib_balance.witnesses", "words.symbols",
    "trib_balance.scan_positions", "trib_balance.corner_shapes", "tm_balance.profile_positions",
    "tm_balance.scalar_queries", "rectangles.queries",
)


def layer_metrics(tracer: Tracer, wall: float) -> dict[str, float]:
    """Per-layer self times and counts of a traced round.  A layer the
    workload does not call reads 0."""
    self_times = tracer.self_times()
    out = {
        metric: sum(self_times.get(name, 0.0) for name in names)
        for metric, names in LAYER_SPANS.items()
    }
    exact = tracer.durations("fib_balance.exact_balance")
    out["fib_balance.exact_balance_cold_s"] = exact[0] if exact else 0.0
    out["fib_balance.exact_balance_warm_ms"] = 1000 * statistics.median(exact[1:]) if exact[1:] else 0.0
    out["fib_balance.exact_balance_slowest_s"] = max(exact[1:], default=0.0)
    out.update({name: tracer.counts.get(name, 0) for name in COUNTS})
    out["trace.coverage_pct"] = 100 * tracer.covered() / wall
    return out


def run_round(workload: str, seed: int, traced: bool, zeck_ref: str | None) -> dict:
    src = os.path.join(ROOT, "src")
    if not os.path.abspath(rectbal.__file__).startswith(src + os.sep):
        raise SystemExit(f"rectbal was imported from {rectbal.__file__}, not from {src}")
    cls = WORKLOADS[workload]
    load = cls(seed, zeck_ref) if cls is FibTableDfa else cls(seed)
    tracer = Tracer() if traced else NullTracer()
    rnd = Round(tracer)
    cpu0, t0 = time.process_time(), time.perf_counter()
    load.run(rnd)
    wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    load.check(rnd)
    result = {
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": peak_rss_mb,
        "attempted": rnd.attempted,
        "failed": len(rnd.failures),
        "correct": not rnd.wrong,
        "failures": sorted(rnd.failures.values())[:10],
    }
    if traced:
        tracer.counts = load.counts()
        result["layers"] = layer_metrics(tracer, wall)
        tracer.dump(os.path.join(OUT, f"trace-{workload}-seed{seed}.json"))
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description="run one round of one workload")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--zeck-ref", help="digit-rule verdicts (.npy) for fib_table_dfa; computed if absent")
    parser.add_argument("--result", required=True)
    args = parser.parse_args()
    result = run_round(args.workload, args.seed, bool(args.trace), args.zeck_ref)
    with open(args.result, "w", encoding="ascii") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    sys.exit(main())
