"""Benchmark of rectbal: one command, three workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  It runs whole rounds of the workload,
each in a fresh interpreter (bench/workloads.py), until the next round
would end after S seconds; at least one round runs.  With --trace 0 every
round is preceded by a few timings of a fresh `import rectbal` (setup_s),
and it prints the medians of the end-to-end metrics.  With --trace 1 it
alternates untraced and traced rounds and prints the per-layer metrics of
the traced ones, with trace.overhead_s = median traced wall_s - median
untraced wall_s.  The last line of standard output is the JSON result.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("fib_table_dfa", "fib_exact_large", "trib_tm_scan")
SETUP_PROBES = 3  # before every round, so they sample the whole run
ROUND_TIMEOUT = 150


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env.pop("RECTBAL_BUDGET", None)  # the program's default budget
    return env


def setup_seconds() -> list[float]:
    """Wall times for fresh interpreters to start and import rectbal."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import rectbal"], cwd=ROOT, env=child_env(), check=True)
        times.append(time.perf_counter() - t0)
    return times


def zeck_reference_file(workload: str) -> str | None:
    """fib_table_dfa checks its table against the digit rule on every pair;
    that reference is computed once per run, outside the rounds."""
    if workload != "fib_table_dfa":
        return None
    sys.path.insert(0, SRC)
    import numpy as np

    from checks import zeck_reference
    from workloads import FibTableDfa

    path = os.path.join(OUT, f"zeck-ref-{os.getpid()}.npy")
    np.save(path, zeck_reference(FibTableDfa.LIMIT))
    return path


def run_round(workload: str, seed: int, traced: bool, zeck_ref: str | None) -> dict:
    result_path = os.path.join(OUT, f"round-{os.getpid()}.json")
    cmd = [sys.executable, os.path.join(HERE, "workloads.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(traced)), "--result", result_path]
    if zeck_ref:
        cmd += ["--zeck-ref", zeck_ref]
    subprocess.run(cmd, cwd=ROOT, env=child_env(), check=True, timeout=ROUND_TIMEOUT)
    with open(result_path, encoding="ascii") as handle:
        result = json.load(handle)
    os.remove(result_path)
    for problem in result["failures"]:
        print(f"{workload} seed {seed}: {problem}", file=sys.stderr)
    return result


def rounds(workload: str, seed: int, seconds: float, trace: bool, zeck_ref: str | None):
    """Setup probes and whole rounds (pairs of untraced and traced rounds
    under --trace 1) while the next one is expected to end in time."""
    done: list[dict] = []
    setup: list[float] = []
    lengths: list[float] = []
    start = time.perf_counter()
    while not lengths or time.perf_counter() - start + statistics.median(lengths) <= seconds:
        t0 = time.perf_counter()
        if not trace:
            setup += setup_seconds()
        done.append(run_round(workload, seed, False, zeck_ref))
        if trace:
            done.append(run_round(workload, seed, True, zeck_ref))
        lengths.append(time.perf_counter() - t0)
    return setup, done


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "rectbal", "__init__.py")):
        print(f"bench: no rectbal sources under {SRC}", file=sys.stderr)
        return 2
    # Every process of the run shares one CPU, the highest-numbered one the
    # run may use.  On a host that lends a second CPU only part of the
    # time, a 2-thread build timed on both reads in two modes.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    print(f"bench: every process of this run is bound to CPU {cpu}", file=sys.stderr)
    os.makedirs(OUT, exist_ok=True)
    zeck_ref = zeck_reference_file(args.workload)
    try:
        setup, done = rounds(args.workload, args.seed, args.seconds, bool(args.trace), zeck_ref)
    finally:
        if zeck_ref:
            os.remove(zeck_ref)
    plain = [r for r in done if "layers" not in r]
    if args.trace:
        traced = [r for r in done if "layers" in r]
        metrics = {
            name: {"value": statistics.median(r["layers"][name] for r in traced), "unit": unit_of(name)}
            for name in traced[0]["layers"]
        }
        overhead = statistics.median(r["wall_s"] for r in traced) - statistics.median(r["wall_s"] for r in plain)
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        metrics = {"setup_s": {"value": statistics.median(setup), "unit": "s"}}
        for name, unit in (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB")):
            metrics[name] = {"value": statistics.median(r[name] for r in plain), "unit": unit}
    print(json.dumps({
        "correct": all(r["correct"] for r in done),
        "attempted": sum(r["attempted"] for r in done),
        "failed": sum(r["failed"] for r in done),
        "metrics": metrics,
    }))
    return 0


def unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_pct"):
        return "%"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
