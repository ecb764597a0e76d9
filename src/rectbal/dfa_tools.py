"""DFA over pair-digit alphabets, and inference of the balance automaton
from the exact verdict oracle.

The target language is the set of padded Zeckendorf pair encodings of
balanced (m, n).  Prefix classes are separated by bounded-depth residual
signatures (labels of every valid suffix continuation up to the
distinguishing depth), then the constructed machine is collapsed to its
Myhill-Nerode quotient.  Encodings with adjacent 1 digits in either track
never form states: the machine stays partial and a missing transition means
reject, so the reject sink is excluded from state counts.
"""
from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .fib_balance import balance_table
from .numeration import SYMBOLS, InvalidRepresentation, fibonacci, pair_encode
from .words import BudgetExceeded, check_nonnegative

# dfa_to_text's header lines, then its transition lines
_DFA_LINES = (r"states \d+", r"start \d+", r"accepting( \d+)*", r"\d+ \[[01],[01]\] -> \d+")


class InconsistentSample(RuntimeError):
    """Replaying sampled labels through the machine disagreed with the oracle."""


@dataclass(frozen=True)
class Dfa:
    n_states: int
    start: int
    accepting: frozenset[int]
    transitions: dict[tuple[int, tuple[int, int]], int] = field(hash=False)


def dfa_run(dfa: Dfa, word) -> bool:
    """Acceptance of a pair word; undefined transitions reject."""
    state = dfa.start
    for symbol in word:
        nxt = dfa.transitions.get((state, tuple(symbol)))
        if nxt is None:
            return False
        state = nxt
    return state in dfa.accepting


# ---------------------------------------------------------------------------
# the labeled sample


class SampleTable:
    """Every valid padded pair encoding of length <= max_len, labeled by the
    exact balance verdict of the decoded pair: the word of (m, n) is labeled
    verdicts[m, n], and those of length t are the pairs below F_{t+2}."""

    def __init__(self, max_len: int, verdicts: np.ndarray):
        self.max_len = max_len
        self.verdicts = verdicts


def build_sample_table(max_len: int) -> SampleTable:
    """Label every valid pair encoding of length <= max_len."""
    check_nonnegative(max_len=max_len)
    if max_len > 18:
        raise BudgetExceeded(f"max_len {max_len} beyond the value budget (18)")
    limit = fibonacci(max_len + 2) - 1
    return SampleTable(max_len, balance_table(limit))


# ---------------------------------------------------------------------------
# suffix pools: valid single tracks and their pairings, by length


@lru_cache(maxsize=None)
def _suffix_pool(t: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """First digits and values of both tracks over all valid pair words of
    length t, as parallel arrays.  The length-t tracks with no adjacent 1
    digits are the values below F_{t+2} in order, and those from F_{t+1} up
    start with a 1."""
    vals = np.arange(fibonacci(t + 2), dtype=np.int64)
    firsts = (vals >= fibonacci(t + 1)).astype(np.int8)
    count = len(vals)
    return (
        np.repeat(firsts, count),
        np.tile(firsts, count),
        np.repeat(vals, count),
        np.tile(vals, count),
    )


def _shifted_value(indices: tuple[int, ...], t: int) -> int:
    return sum(fibonacci(j + t) for j in indices)


def _signature(
    verdicts: np.ndarray,
    um: tuple[int, ...],
    un: tuple[int, ...],
    budget: int,
    depth: int,
) -> tuple:
    """Labels of every valid suffix continuation up to min(depth, budget).

    A suffix whose junction would create adjacent 1 digits is labeled False:
    the concatenation is not in the language.  A track ends in a 1 exactly
    when its shifted indices hold 2.
    """
    sig: list = [bool(verdicts[_shifted_value(um, 0), _shifted_value(un, 0)])]
    for t in range(1, min(depth, budget) + 1):
        mf, nf, mv, nv = _suffix_pool(t)
        ok = np.ones(len(mf), dtype=bool)
        if 2 in um:
            ok &= mf == 0
        if 2 in un:
            ok &= nf == 0
        labels = np.zeros(len(mf), dtype=bool)
        msh = _shifted_value(um, t)
        nsh = _shifted_value(un, t)
        labels[ok] = verdicts[msh + mv[ok], nsh + nv[ok]]
        sig.append(labels.tobytes())
    return tuple(sig)


# ---------------------------------------------------------------------------
# inference


def infer_min_dfa(table: SampleTable, distinguish_depth: int) -> Dfa:
    """Quotient automaton of the sampled language under bounded-depth
    residual equivalence, minimized.

    Prefixes are explored breadth-first along valid-encoding transitions
    only.  Deeper prefixes have shorter suffix budgets; signatures compare
    on their common depth.  A final partition refinement merges any states
    the bounded signatures failed to identify and discards states equivalent
    to the reject sink.
    """
    if distinguish_depth < 1:
        raise ValueError(f"distinguish_depth must be >= 1, got {distinguish_depth}")
    if distinguish_depth > table.max_len:
        raise ValueError("distinguish_depth must be <= max_len")
    verdicts = table.verdicts
    reps: list[tuple] = []  # signature of each state's canonical prefix
    transitions: dict[tuple[int, tuple[int, int]], int] = {}
    accepting: set[int] = set()

    def match(sig: tuple) -> int | None:
        for state, rep in enumerate(reps):
            k = min(len(rep), len(sig))
            if rep[:k] == sig[:k]:
                return state
        return None

    start_sig = _signature(verdicts, (), (), table.max_len, distinguish_depth)
    reps.append(start_sig)
    if start_sig[0]:
        accepting.add(0)
    queue: deque = deque([(((), (), 0), 0)])
    while queue:
        (um, un, length), state = queue.popleft()
        for dm, dn in SYMBOLS:
            if (dm and 2 in um) or (dn and 2 in un):
                continue  # invalid continuation: reject sink, not a state
            um2 = tuple(j + 1 for j in um) + ((2,) if dm else ())
            un2 = tuple(j + 1 for j in un) + ((2,) if dn else ())
            if length + 1 > table.max_len:
                raise InconsistentSample(
                    "state exploration exhausted the sampled word length"
                )
            sig = _signature(verdicts, um2, un2, table.max_len - length - 1, distinguish_depth)
            target = match(sig)
            if target is None:
                target = len(reps)
                reps.append(sig)
                if sig[0]:
                    accepting.add(target)
                queue.append(((um2, un2, length + 1), target))
            elif len(sig) > len(reps[target]):
                reps[target] = sig
            transitions[(state, (dm, dn))] = target
    dfa = _minimize(len(reps), transitions, accepting)
    _replay_check(dfa, table)
    return dfa


def _minimize(
    n_states: int,
    transitions: dict[tuple[int, tuple[int, int]], int],
    accepting: set[int],
) -> Dfa:
    """Standard partition refinement with an implicit reject sink; the sink
    class is dropped from the result (undefined transition = reject)."""
    sink = n_states
    states = list(range(n_states + 1))
    part = {s: (1 if s in accepting else 0) for s in states}
    while True:
        keys = {}
        new_part = {}
        for s in states:
            succ = tuple(part[transitions.get((s, a), sink)] for a in SYMBOLS)
            key = (part[s], succ)
            if key not in keys:
                keys[key] = len(keys)
            new_part[s] = keys[key]
        if new_part == part:
            break
        part = new_part
    sink_class = part[sink]
    # renumber reachable non-sink classes breadth-first from the start class
    number: dict[int, int] = {}
    reps: dict[int, int] = {}
    for s in range(n_states):  # first state of each class in BFS discovery order
        reps.setdefault(part[s], s)
    order: deque = deque()
    if part[0] != sink_class:
        number[part[0]] = 0
        order.append(part[0])
    new_transitions: dict[tuple[int, tuple[int, int]], int] = {}
    new_accepting: set[int] = set()
    while order:
        cls = order.popleft()
        s = reps[cls]
        if s in accepting:
            new_accepting.add(number[cls])
        for a in SYMBOLS:
            target = transitions.get((s, a))
            if target is None:
                continue
            tcls = part[target]
            if tcls == sink_class:
                continue
            if tcls not in number:
                number[tcls] = len(number)
                order.append(tcls)
            new_transitions[(number[cls], a)] = number[tcls]
    return Dfa(
        n_states=len(number),
        start=0,
        accepting=frozenset(new_accepting),
        transitions=new_transitions,
    )


def _track_digits(length: int) -> np.ndarray:
    """Row k holds digit k (msd first) of the length-`length` Zeckendorf
    track of every value below F_{length+2}: one compare and subtract per
    digit position."""
    vals = np.arange(fibonacci(length + 2), dtype=np.int64)
    rows = np.empty((length, len(vals)), dtype=np.int8)
    for k in range(length):
        f = fibonacci(length + 1 - k)
        top = vals >= f
        rows[k] = top
        vals[top] -= f
    return rows


def _run_pairs(dfa: Dfa, m: np.ndarray, n: np.ndarray, length: int) -> np.ndarray:
    """dfa_run on the length-`length` padded pair word of every (m[i], n[i]),
    all below F_{length+2}, at once.  The states are one int array, advanced
    by one gather per digit position from a (n_states + 1) x 4 transition
    array whose extra row is the reject sink."""
    sink = dfa.n_states
    step = np.full((sink + 1, 4), sink, dtype=np.int32)
    for (state, (a, b)), target in dfa.transitions.items():
        step[state, 2 * a + b] = target
    step = step.ravel()
    accepting = np.zeros(sink + 1, dtype=bool)
    accepting[list(dfa.accepting)] = True
    state = np.full(len(m), dfa.start, dtype=np.int32)
    for digits in _track_digits(length):
        state = step[4 * state + 2 * digits[m] + digits[n]]
    return accepting[state]


def _replay_check(dfa: Dfa, table: SampleTable, max_replay_len: int = 7) -> None:
    """Replay the sampled words of small length; any label mismatch means the
    inference produced a machine inconsistent with its own sample.  The
    first mismatch by length, then m, then n is reported."""
    for length in range(min(table.max_len, max_replay_len) + 1):
        count = fibonacci(length + 2)
        m, n = np.divmod(np.arange(count * count), count)
        bad = np.flatnonzero(_run_pairs(dfa, m, n, length) != table.verdicts[m, n])
        if len(bad):
            word = pair_encode(int(m[bad[0]]), int(n[bad[0]]))
            word = [SYMBOLS[0]] * (length - len(word)) + word
            raise InconsistentSample(f"replay mismatch on {word}")


# ---------------------------------------------------------------------------
# serialization


def dfa_to_text(dfa: Dfa) -> str:
    lines = [
        f"states {dfa.n_states}",
        "start 0",
        "accepting " + " ".join(str(s) for s in sorted(dfa.accepting)),
    ]
    for (state, (a, b)), target in sorted(dfa.transitions.items()):
        lines.append(f"{state} [{a},{b}] -> {target}")
    return "\n".join(lines) + "\n"


def dfa_from_text(text: str) -> Dfa:
    """Inverse of dfa_to_text.  A malformed or missing line, or a state
    outside range(n_states), raises InvalidRepresentation naming the line."""
    lines = [" ".join(ln.split()) for ln in text.splitlines() if ln.strip()]
    if len(lines) < 3:
        raise InvalidRepresentation(f"automaton text has {len(lines)} of its 3 header lines")
    rows = []
    for k, line in enumerate(lines):
        if re.fullmatch(_DFA_LINES[min(k, 3)], line) is None:
            raise InvalidRepresentation(f"bad automaton line: {line!r}")
        row = [int(x) for x in re.findall(r"\d+", line)]
        states = row[::3] if k > 2 else row  # a transition's digits are not states
        if k and any(s >= rows[0][0] for s in states):
            raise InvalidRepresentation(f"state outside range({rows[0][0]}): {line!r}")
        rows.append(row)
    (n_states,), (start,), accepting = rows[:3]
    transitions = {(s, (a, b)): target for s, a, b, target in rows[3:]}
    return Dfa(n_states, start, frozenset(accepting), transitions)
