"""Command-line front door.

Subcommands dispatch to the analyzers; outputs are plain text, CSV or JSON.
Exit status 0 on success, 1 when a verification command fails, 2 on usage
errors (argparse's convention).  Every semi-decisive verdict is printed with
the horizon that produced it.  Each command imports its module when it
runs, so the pure-integer ones (``num``, ``tm excess`` and ``fib bal
--method zeck``) load no numpy.
"""
from __future__ import annotations

import argparse
import json
import sys
from typing import Iterable, Iterator

from . import limits
from .limits import LimitReached, check_at_least

_KINDS = {"fib": "fibonacci", "trib": "tribonacci", "trib2": "tribonacci2", "tm": "thue-morse"}


def _emit(text: str | Iterable[str], out: str | None) -> None:
    """Write text, or its pieces in order, to the file out or to stdout."""
    pieces = [text] if isinstance(text, str) else text
    if out:
        with open(out, "w", encoding="ascii") as handle:
            handle.writelines(pieces)
    else:
        sys.stdout.writelines(pieces)


def _format_verdict(v) -> str:
    """The lines of a ``BalanceVerdict``."""
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
    if args.method == "zeck":  # a bare status: no BalanceVerdict, so no dataclasses
        from .fib_scalar import zeck_characterization
        status = "balanced" if zeck_characterization(args.m, args.n) else "unbalanced"
        _emit(f"status: {status}\nmethod: zeck\n", args.out)
        return 0
    from . import fib_balance
    if args.method == "exact":
        verdict = fib_balance.exact_balance(args.m, args.n)
    else:
        verdict = fib_balance.delta_block_scan(args.m, args.n, args.horizon)
    _emit(_format_verdict(verdict), args.out)
    return 0


def _sweep_lines(rows: list) -> Iterator[str]:
    """The CSV of ``fib sweep`` from its rows of value bounds, one string a
    row.  A pair's value set is every integer from its min to its max, so it
    is one slice of the run "0|1|...|top" of all the sweep's values, cut at
    the offsets ``start`` and ``stop`` of its ends: the run's numbers are
    formatted once, by numpy, and each pair is one slice and one f-string."""
    import numpy as np

    limit = len(rows) - 1
    top = int(rows[-1][1][-1])  # T grows with m and n: the largest value is (limit, limit)'s
    width = np.full(top + 1, 2)  # each number's digits and its bar
    for k in range(1, len(str(top))):
        width[10**k :] += 1
    start = np.zeros(top + 2, dtype=np.int64)
    np.cumsum(width, out=start[1:])
    stop = start[1:] - 1
    run = np.full(start[-1], ord("|"), dtype=np.uint8)
    for k in range(len(str(top))):  # the digit of 10**k of each number that has one
        low = 10**k if k else 0
        run[stop[low:] - 1 - k] = np.arange(low, top + 1) // 10**k % 10 + ord("0")
    run = run.tobytes().decode("ascii")
    cols = [f",{n},{flag}," for n in range(limit + 1) for flag in ("false", "true")]
    twice = 2 * np.arange(limit + 1)
    yield "m,n,balanced,value_set,method\n"
    for m, (lows, highs) in enumerate(rows):
        col = (twice[m:] + (highs - lows <= 1)).tolist()
        ends = zip(col, start[lows].tolist(), stop[highs].tolist())
        head = str(m)
        yield "".join([f"{head}{cols[c]}{run[a:b]},exact\n" for c, a, b in ends])


def _cmd_fib_sweep(args: argparse.Namespace) -> int:
    from . import fib_balance
    check_at_least(0, max=args.max)
    rows = fib_balance._sweep_rows(args.max)  # every limit is checked before the output opens
    _emit(_sweep_lines(rows), args.out)
    return 0


def _cmd_fib_diverse(args: argparse.Namespace) -> int:
    from . import fib_balance
    ok = fib_balance.diverse_identities_check(args.k)
    _emit(f"diverse identities k={args.k}: {'PASS' if ok else 'FAIL'}\n", args.out)
    return 0 if ok else 1


def _cmd_trib_bal2(args: argparse.Namespace) -> int:
    from . import trib_balance
    report = trib_balance.two_balance_scan(args.m, args.n, args.horizon)
    lines = [
        f"m: {report.m}",
        f"n: {report.n}",
        f"horizon: {report.horizon}",
    ]
    for letter, (lo, hi) in sorted(report.letter_ranges.items()):
        lines.append(f"letter {letter}: min {lo} max {hi}")
    if report.two_balanced:
        lines.append(f"verdict: 2-balanced up to horizon {report.horizon}")
    else:
        i, j, ci, cj = report.witness
        lines.append(f"verdict: unbalanced (letter {report.unbalanced_letter})")
        lines.append(f"witness: {i},{j},{ci},{cj}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_trib_list2(args: argparse.Namespace) -> int:
    from . import trib_balance
    values = trib_balance.balanced_2xn_list(args.limit, args.horizon)
    _emit(" ".join(str(v) for v in values) + "\n", args.out)
    return 0


def _cmd_trib_corner(args: argparse.Namespace) -> int:
    from . import trib_balance, words
    limit = {} if args.search_limit is None else {"search_limit": args.search_limit}
    witness = trib_balance.find_corner_witness(args.p, **limit)
    w = words.word(words.SequenceKind.TRIBONACCI)
    span = args.p + 5
    counts = {
        "i": int((w.symbols(witness.i + span)[witness.i :] == 2).sum()),
        "j": int((w.symbols(witness.j + span)[witness.j :] == 2).sum()),
    }
    payload = {"p": witness.p, "i": witness.i, "j": witness.j, "counts": counts}
    _emit(json.dumps(payload) + "\n", args.out)
    return 0


def _cmd_tm_excess(args: argparse.Namespace) -> int:
    from .tm_closed import excess
    _emit(f"{excess(args.i, args.m, args.n)}\n", args.out)
    return 0


def _cmd_tm_profile(args: argparse.Namespace) -> int:
    from . import tm_balance
    profile = tm_balance.excess_profile(args.m, args.n, args.horizon)
    _emit(
        f"m: {profile.m}\nn: {profile.n}\nhorizon: {profile.horizon}\n"
        f"min_s: {profile.min_s}\nmax_s: {profile.max_s}\n"
        f"balance: {profile.balance}\n",
        args.out,
    )
    return 0


def _cmd_tm_table(args: argparse.Namespace) -> int:
    from . import tm_balance
    check_at_least(0, max=args.max)
    lines = ["m,n,min_s,max_s,balance,horizon"]
    for m in range(1, args.max + 1):
        for n in range(m, args.max + 1):
            p = tm_balance.excess_profile(m, n, args.horizon)
            lines.append(f"{m},{n},{p.min_s},{p.max_s},{p.balance},{p.horizon}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_dfa_infer(args: argparse.Namespace) -> int:
    from . import dfa_tools
    table = dfa_tools.build_sample_table(args.max_len)
    dfa = dfa_tools.infer_min_dfa(table, args.depth)
    _emit(dfa_tools.dfa_to_text(dfa), args.out)
    if args.out:
        sys.stdout.write(f"states: {dfa.n_states}\n")
    return 0


def _cmd_dfa_run(args: argparse.Namespace) -> int:
    from . import dfa_tools, numeration
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
    from . import numeration
    codecs = {
        "zeck": (numeration.zeck_encode, numeration.zeck_decode),
        "trib": (numeration.trib_encode, numeration.trib_decode),
        "neg2": (numeration.negabin_encode, numeration.negabin_decode),
    }
    encode, decode = codecs[args.system]
    if args.action == "encode":
        _emit((encode(int(args.value)) or "0") + "\n", args.out)
    else:
        _emit(str(decode(args.value)) + "\n", args.out)
    return 0


def _cmd_word_dump(args: argparse.Namespace) -> int:
    from .words import SequenceKind, word
    check_at_least(0, limit=args.limit)
    w = word(SequenceKind(_KINDS[args.kind]))
    _emit("".join(str(s) for s in w.symbols(args.limit)) + "\n", args.out)
    return 0


def _command(group, name: str, func) -> argparse.ArgumentParser:
    """Register a subcommand with its --out option and handler."""
    p = group.add_parser(name)
    p.add_argument("--out")
    p.set_defaults(func=func)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rectbal",
        description="balance analysis of word rectangles from Fibonacci, "
        "Tribonacci and Thue-Morse words",
    )
    parser.add_argument(
        "--budget", type=int, default=None,
        help="cap on generated word length and table size (default RECTBAL_BUDGET or 10^7)",
    )
    sub = parser.add_subparsers(dest="group", required=True)

    fib = sub.add_parser("fib").add_subparsers(dest="command", required=True)
    p = _command(fib, "bal", _cmd_fib_bal)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--method", choices=("exact", "scan", "zeck"), default="exact")
    p.add_argument("--horizon", type=int, default=100_000)
    _command(fib, "sweep", _cmd_fib_sweep).add_argument("--max", type=int, required=True)
    _command(fib, "diverse", _cmd_fib_diverse).add_argument("--k", type=int, required=True)

    trib = sub.add_parser("trib").add_subparsers(dest="command", required=True)
    p = _command(trib, "bal2", _cmd_trib_bal2)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--horizon", type=int, default=1_000_000)
    p = _command(trib, "list2", _cmd_trib_list2)
    p.add_argument("--limit", type=int, required=True)
    p.add_argument("--horizon", type=int, default=1_000_000)
    p = _command(trib, "corner", _cmd_trib_corner)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--search-limit", type=int, help="cap on the doubling search's recoded prefix")

    tm = sub.add_parser("tm").add_subparsers(dest="command", required=True)
    p = _command(tm, "excess", _cmd_tm_excess)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p = _command(tm, "profile", _cmd_tm_profile)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--horizon", type=int, default=None)
    p = _command(tm, "table", _cmd_tm_table)
    p.add_argument("--max", type=int, required=True)
    p.add_argument("--horizon", type=int, default=None)

    dfa = sub.add_parser("dfa").add_subparsers(dest="command", required=True)
    p = _command(dfa, "infer", _cmd_dfa_infer)
    p.add_argument("--max-len", type=int, required=True)
    p.add_argument("--depth", type=int, required=True)
    p = _command(dfa, "run", _cmd_dfa_run)
    p.add_argument("--file", required=True)
    p.add_argument("--pair", type=int, nargs=2, required=True)

    num = sub.add_parser("num").add_subparsers(dest="action", required=True)
    for action in ("encode", "decode"):
        p = _command(num, action, _cmd_num)
        p.add_argument("--system", choices=("zeck", "trib", "neg2"), required=True)
        p.add_argument("value")

    wd = sub.add_parser("word").add_subparsers(dest="command", required=True)
    p = _command(wd, "dump", _cmd_word_dump)
    p.add_argument("--kind", choices=tuple(_KINDS), required=True)
    p.add_argument("--limit", type=int, default=80)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.budget is not None:
            limits.set_budget(args.budget)
        return args.func(args)
    except (LimitReached, OSError, ValueError) as err:
        print(f"rectbal: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
