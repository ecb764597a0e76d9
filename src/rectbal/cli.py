"""Command-line front door.

Subcommands dispatch to the analyzers; outputs are plain text, CSV or JSON.
Exit status 0 on success, 1 when a verification command fails, 2 on usage
errors (argparse's convention).  Every semi-decisive verdict is printed with
the horizon that produced it.
"""
from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ThreadPoolExecutor

from . import dfa_tools, fib_balance, numeration, tm_balance, trib_balance, words
from .fib_balance import BalanceStatus
from .rectangles import check_nonnegative
from .words import SequenceKind

_KINDS = {
    "fib": SequenceKind.FIBONACCI,
    "trib": SequenceKind.TRIBONACCI,
    "trib2": SequenceKind.TRIBONACCI_RECODED,
    "tm": SequenceKind.THUE_MORSE,
}


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="ascii") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _format_verdict(v: fib_balance.BalanceVerdict) -> str:
    lines = [f"status: {v.status.value}", f"method: {v.method}"]
    if v.horizon is not None:
        lines.append(f"horizon: {v.horizon}")
    if v.value_set is not None:
        lines.append("values: " + " ".join(str(x) for x in v.value_set))
    if v.witness is not None:
        i, j, ti, tj = v.witness
        lines.append(f"witness: {i},{j},{ti},{tj}")
    return "\n".join(lines) + "\n"


def _cmd_fib_bal(args: argparse.Namespace) -> int:
    if args.method == "exact":
        verdict = fib_balance.exact_balance(args.m, args.n)
    elif args.method == "scan":
        verdict = fib_balance.delta_block_scan(args.m, args.n, args.horizon)
    else:
        ok = fib_balance.zeck_characterization(args.m, args.n)
        status = BalanceStatus.BALANCED if ok else BalanceStatus.UNBALANCED
        verdict = fib_balance.BalanceVerdict(status, "zeck")
    _emit(_format_verdict(verdict), args.out)
    return 0


def _cmd_fib_sweep(args: argparse.Namespace) -> int:
    check_nonnegative(max=args.max)
    rows: dict[int, list[str]] = {}

    def run_row(m: int) -> None:
        lows, highs = fib_balance.row_value_bounds(m, args.max)
        chunk = []
        for n, lo, hi in zip(range(m, args.max + 1), lows.tolist(), highs.tolist()):
            vals = "|".join(map(str, range(lo, hi + 1)))
            chunk.append(f"{m},{n},{str(hi - lo <= 1).lower()},{vals},exact")
        rows[m] = chunk

    if args.jobs > 1:
        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            list(pool.map(run_row, range(args.max + 1)))
    else:
        for m in range(args.max + 1):
            run_row(m)
    body = "\n".join("\n".join(rows[m]) for m in range(args.max + 1))
    _emit("m,n,balanced,value_set,method\n" + body + "\n", args.out)
    return 0


def _cmd_fib_diverse(args: argparse.Namespace) -> int:
    ok = fib_balance.diverse_identities_check(args.k)
    _emit(f"diverse identities k={args.k}: {'PASS' if ok else 'FAIL'}\n", args.out)
    return 0 if ok else 1


def _cmd_trib_bal2(args: argparse.Namespace) -> int:
    report = trib_balance.two_balance_scan(args.m, args.n, args.horizon)
    lines = [
        f"m: {report.m}",
        f"n: {report.n}",
        f"horizon: {report.horizon}",
    ]
    for letter, (lo, hi) in sorted(report.letter_ranges.items()):
        lines.append(f"letter {letter}: min {lo} max {hi}")
    if report.definitive:
        i, j, ci, cj = report.witness
        lines.append(f"verdict: unbalanced (letter {report.unbalanced_letter})")
        lines.append(f"witness: {i},{j},{ci},{cj}")
    else:
        lines.append(f"verdict: 2-balanced up to horizon {report.horizon}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_trib_list2(args: argparse.Namespace) -> int:
    values = trib_balance.balanced_2xn_list(args.limit, args.horizon)
    _emit(" ".join(str(v) for v in values) + "\n", args.out)
    return 0


def _cmd_trib_corner(args: argparse.Namespace) -> int:
    witness = trib_balance.find_corner_witness(args.p, args.search_limit)
    w = words.word(SequenceKind.TRIBONACCI)
    span = args.p + 5
    counts = {
        "i": int((w.symbols(witness.i + span)[witness.i :] == 2).sum()),
        "j": int((w.symbols(witness.j + span)[witness.j :] == 2).sum()),
    }
    payload = {"p": witness.p, "i": witness.i, "j": witness.j, "counts": counts}
    _emit(json.dumps(payload) + "\n", args.out)
    return 0


def _cmd_tm_excess(args: argparse.Namespace) -> int:
    _emit(f"{tm_balance.excess(args.i, args.m, args.n)}\n", args.out)
    return 0


def _cmd_tm_profile(args: argparse.Namespace) -> int:
    profile = tm_balance.excess_profile(args.m, args.n, args.horizon)
    _emit(
        f"m: {profile.m}\nn: {profile.n}\nhorizon: {profile.horizon}\n"
        f"min_s: {profile.min_s}\nmax_s: {profile.max_s}\n"
        f"balance: {profile.balance}\n",
        args.out,
    )
    return 0


def _cmd_tm_table(args: argparse.Namespace) -> int:
    lines = ["m,n,min_s,max_s,balance,horizon"]
    for m in range(1, args.max + 1):
        for n in range(m, args.max + 1):
            p = tm_balance.excess_profile(m, n, args.horizon)
            lines.append(f"{m},{n},{p.min_s},{p.max_s},{p.balance},{p.horizon}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_dfa_infer(args: argparse.Namespace) -> int:
    table = dfa_tools.build_sample_table(args.max_len)
    dfa = dfa_tools.infer_min_dfa(table, args.depth)
    text = dfa_tools.dfa_to_text(dfa)
    if args.out:
        with open(args.out, "w", encoding="ascii") as handle:
            handle.write(text)
        sys.stdout.write(f"states: {dfa.n_states}\n")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_dfa_run(args: argparse.Namespace) -> int:
    with open(args.file, encoding="ascii") as handle:
        dfa = dfa_tools.dfa_from_text(handle.read())
    m, n = args.pair
    word = numeration.pair_encode(m, n)
    verdict = dfa_tools.dfa_run(dfa, word)
    _emit(
        f"{numeration.format_pair_word(word)} -> "
        f"{'accept' if verdict else 'reject'}\n",
        args.out,
    )
    return 0


def _cmd_num(args: argparse.Namespace) -> int:
    codecs = {
        "zeck": (numeration.zeck_encode, numeration.zeck_decode),
        "trib": (numeration.trib_encode, numeration.trib_decode),
        "neg2": (numeration.negabin_encode, numeration.negabin_decode),
    }
    encode, decode = codecs[args.system]
    if args.action == "encode":
        _emit(str(encode(int(args.value))) + "\n", args.out)
    else:
        _emit(str(decode(args.value)) + "\n", args.out)
    return 0


def _cmd_word_dump(args: argparse.Namespace) -> int:
    w = words.word(_KINDS[args.kind])
    _emit("".join(str(s) for s in w.symbols(args.limit)) + "\n", args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rectbal",
        description="balance analysis of word rectangles from Fibonacci, "
        "Tribonacci and Thue-Morse words",
    )
    parser.add_argument(
        "--budget", type=int, default=None,
        help="cap on generated word length (default RECTBAL_BUDGET or 10^7)",
    )
    sub = parser.add_subparsers(dest="group", required=True)

    fib = sub.add_parser("fib").add_subparsers(dest="command", required=True)
    p = fib.add_parser("bal")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--method", choices=("exact", "scan", "zeck"), default="exact")
    p.add_argument("--horizon", type=int, default=100_000)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_fib_bal)
    p = fib.add_parser("sweep")
    p.add_argument("--max", type=int, required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_fib_sweep)
    p = fib.add_parser("diverse")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_fib_diverse)

    trib = sub.add_parser("trib").add_subparsers(dest="command", required=True)
    p = trib.add_parser("bal2")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--horizon", type=int, default=1_000_000)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_trib_bal2)
    p = trib.add_parser("list2")
    p.add_argument("--limit", type=int, required=True)
    p.add_argument("--horizon", type=int, default=1_000_000)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_trib_list2)
    p = trib.add_parser("corner")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--search-limit", type=int, default=200_000)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_trib_corner)

    tm = sub.add_parser("tm").add_subparsers(dest="command", required=True)
    p = tm.add_parser("excess")
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_tm_excess)
    p = tm.add_parser("profile")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_tm_profile)
    p = tm.add_parser("table")
    p.add_argument("--max", type=int, required=True)
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_tm_table)

    dfa = sub.add_parser("dfa").add_subparsers(dest="command", required=True)
    p = dfa.add_parser("infer")
    p.add_argument("--max-len", type=int, required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_dfa_infer)
    p = dfa.add_parser("run")
    p.add_argument("--file", required=True)
    p.add_argument("--pair", type=int, nargs=2, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_dfa_run)

    num = sub.add_parser("num").add_subparsers(dest="action", required=True)
    for action in ("encode", "decode"):
        p = num.add_parser(action)
        p.add_argument("--system", choices=("zeck", "trib", "neg2"), required=True)
        p.add_argument("value")
        p.add_argument("--out")
        p.set_defaults(func=_cmd_num)

    wd = sub.add_parser("word").add_subparsers(dest="command", required=True)
    p = wd.add_parser("dump")
    p.add_argument("--kind", choices=tuple(_KINDS), required=True)
    p.add_argument("--limit", type=int, default=80)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_word_dump)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.budget is not None:
            words.set_budget(args.budget)
        return args.func(args)
    except (
        words.BudgetExceeded,
        trib_balance.NotFoundWithinLimit,
        numeration.InvalidRepresentation,
        numeration.EmptyExpansion,
        tm_balance.ParityViolation,
        ValueError,
    ) as err:
        print(f"rectbal: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
