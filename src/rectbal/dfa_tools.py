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
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .fib_balance import balance_table
from .limits import LimitReached, check_at_least
from .numeration import SYMBOLS, InvalidRepresentation, check_pair_word, fibonacci, pair_encode

# dfa_to_text's header lines, then its transition lines
_DFA_LINES = (r"states \d+", r"start \d+", r"accepting( \d+)*", r"\d+ \[[01],[01]\] -> \d+")


class InconsistentSample(LimitReached):
    """Replaying sampled labels through the machine disagreed with the oracle."""


@dataclass(frozen=True)
class Dfa:
    """A partial automaton over the four pair SYMBOLS on states
    range(n_states); a missing transition rejects.

    The constructor checks every entry: a start, accepting state, transition
    state or target outside range(n_states), or a symbol outside SYMBOLS,
    raises InvalidRepresentation (a ValueError) naming it, by the check
    ``dfa_from_text`` applies to its lines.  It holds the transitions as a
    read-only copy and builds the successor table once: ``_step``, the
    (n_states + 1) x 4 array of ``_successors`` whose last row is the reject
    sink, read by ``_minimize`` and ``_run_pairs``, and ``_rows``, its
    columns as lists keyed by symbol, walked by ``dfa_run``.  The table
    cannot go stale: an edit of ``transitions`` raises TypeError, and
    ``dataclasses.replace`` builds a new automaton with its own table.
    """

    n_states: int
    start: int
    accepting: frozenset[int]
    transitions: Mapping[tuple[int, tuple[int, int]], int] = field(hash=False)
    _step: np.ndarray = field(init=False, repr=False, compare=False)
    _rows: dict[tuple[int, int], list[int]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        check_at_least(1, n_states=self.n_states)
        _check_states(self.n_states, [self.start], f"start {self.start}")
        for state in self.accepting:
            _check_states(self.n_states, [state], f"accepting {state}")
        for (state, symbol), target in self.transitions.items():
            if symbol not in SYMBOLS:
                raise InvalidRepresentation(f"symbol outside SYMBOLS: {(state, symbol)!r}")
            line = f"{state} [{symbol[0]},{symbol[1]}] -> {target}"
            _check_states(self.n_states, [state, target], line)
        object.__setattr__(self, "transitions", MappingProxyType(dict(self.transitions)))
        step = _successors(self)
        step.flags.writeable = False
        object.__setattr__(self, "_step", step)
        object.__setattr__(self, "_rows", dict(zip(SYMBOLS, step.T.tolist())))

    def __reduce__(self):  # pickle and deepcopy rebuild from the fields
        return Dfa, (self.n_states, self.start, self.accepting, dict(self.transitions))


def _check_states(n_states: int, states, entry: str) -> None:
    """InvalidRepresentation naming ``entry`` unless every state is an
    integer in range(n_states)."""
    if not all(isinstance(s, (int, np.integer)) and 0 <= s < n_states for s in states):
        raise InvalidRepresentation(f"state outside range({n_states}): {entry!r}")


def dfa_run(dfa: Dfa, word) -> bool:
    """Acceptance of a pair word; undefined transitions reject.  A word that
    is not a list of digit pairs raises ValueError.

    A list or tuple word is walked on the stored successor rows, one
    ``_rows[symbol][state]`` lookup per digit.  An undefined move enters the
    reject sink, and the walk goes on through it, so every symbol is still
    looked up.  A symbol the rows do not hold (a list pair, or not a pair at
    all) sends the word to ``check_pair_word``, which returns its pairs or
    raises; any other word goes there first, where it is read once, so a
    one-shot iterator is walked as checked."""
    if type(word) is not list and type(word) is not tuple:
        word = check_pair_word(word)
    rows, state = dfa._rows, dfa.start
    try:
        for symbol in word:
            state = rows[symbol][state]
    except (KeyError, TypeError):  # an unknown or unhashable symbol
        return dfa_run(dfa, check_pair_word(word))
    return state in dfa.accepting


# ---------------------------------------------------------------------------
# the labeled sample: the verdict table itself


def build_sample_table(max_len: int) -> np.ndarray:
    """The verdict table balance_table(F_{max_len+2} - 1).  It labels every
    valid padded pair encoding of length <= max_len: the word of (m, n) is
    labeled table[m, n], and those of length t are the pairs below F_{t+2}.
    Its (F_{max_len+2})**2 entries are held to the symbol budget."""
    check_at_least(0, max_len=max_len)
    return balance_table(fibonacci(max_len + 2) - 1)


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

    The length-t suffixes of the prefix, in row-major order of the two
    track values below F_{t+2}, label the table block at the prefix's
    shifted values.  A suffix whose junction would create adjacent 1 digits
    is labeled False: the concatenation is not in the language.  A track
    ends in a 1 exactly when its shifted indices hold 2, and then only its
    values below F_{t+1} (first digit 0) continue it.
    """
    sig: list = [bool(verdicts[_shifted_value(um, 0), _shifted_value(un, 0)])]
    for t in range(1, min(depth, budget) + 1):
        msh, nsh = _shifted_value(um, t), _shifted_value(un, t)
        cm = fibonacci(t + 1 if 2 in um else t + 2)
        cn = fibonacci(t + 1 if 2 in un else t + 2)
        labels = np.zeros((fibonacci(t + 2),) * 2, dtype=bool)
        labels[:cm, :cn] = verdicts[msh : msh + cm, nsh : nsh + cn]
        sig.append(labels.tobytes())
    return tuple(sig)


# ---------------------------------------------------------------------------
# inference


def infer_min_dfa(verdicts: np.ndarray, distinguish_depth: int) -> Dfa:
    """Quotient automaton of the sampled language under bounded-depth
    residual equivalence, minimized.

    The sample is a verdict table from build_sample_table; its words have
    length up to max_len, the largest L with F_{L+2} <= len(verdicts).
    Prefixes are explored breadth-first along valid-encoding transitions
    only.  Deeper prefixes have shorter suffix budgets; signatures compare
    on their common depth.  A final partition refinement merges any states
    the bounded signatures failed to identify and discards states equivalent
    to the reject sink.
    """
    array = isinstance(verdicts, np.ndarray)
    square = array and verdicts.ndim == 2 and verdicts.shape[0] == verdicts.shape[1]
    if not (square and verdicts.dtype == bool):
        got = f"{verdicts.dtype} array of shape {verdicts.shape}" if array else repr(verdicts)
        raise ValueError(f"verdicts must be a square 2-D boolean array, got {got}")
    max_len = 0
    while fibonacci(max_len + 3) <= len(verdicts):
        max_len += 1
    check_at_least(1, distinguish_depth=distinguish_depth)
    if distinguish_depth > max_len:
        raise ValueError("distinguish_depth must be <= max_len")
    # signature of each state's first prefix: BFS meets it first, and being
    # the shortest it has the longest signature, so it is never replaced
    reps: list[tuple] = []
    transitions: dict[tuple[int, tuple[int, int]], int] = {}
    accepting: set[int] = set()

    def match(sig: tuple) -> int | None:
        for state, rep in enumerate(reps):
            k = min(len(rep), len(sig))
            if rep[:k] == sig[:k]:
                return state
        return None

    start_sig = _signature(verdicts, (), (), max_len, distinguish_depth)
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
            if length + 1 > max_len:
                raise InconsistentSample(
                    "state exploration exhausted the sampled word length"
                )
            sig = _signature(verdicts, um2, un2, max_len - length - 1, distinguish_depth)
            target = match(sig)
            if target is None:
                target = len(reps)
                reps.append(sig)
                if sig[0]:
                    accepting.add(target)
                queue.append(((um2, un2, length + 1), target))
            transitions[(state, (dm, dn))] = target
    dfa = _minimize(Dfa(len(reps), 0, frozenset(accepting), transitions))
    _replay_check(dfa, verdicts, max_len)
    return dfa


def _successors(dfa: Dfa) -> np.ndarray:
    """The (n_states + 1) x 4 successor array, columns in SYMBOLS order; the
    extra row is the reject sink, the target of every undefined transition."""
    sink = dfa.n_states
    step = np.full((sink + 1, 4), sink, dtype=np.int32)
    for (state, symbol), target in dfa.transitions.items():
        step[state, SYMBOLS.index(symbol)] = target
    return step


def _minimize(dfa: Dfa) -> Dfa:
    """Standard partition refinement with an implicit reject sink; the sink
    class is dropped from the result (undefined transition = reject), and
    the classes reachable from the start are numbered breadth-first from 0.
    An empty language keeps one state, the rejecting start, so that the
    result stays a valid automaton with a start."""
    step = dfa._step
    part = np.zeros(len(step), dtype=np.int64)
    part[list(dfa.accepting)] = 1
    classes = 0
    while True:
        # split classes by (part, part[step]): each class's first state, and
        # the class of every state
        keys = np.column_stack([part, part[step]])
        reps, part = np.unique(keys, axis=0, return_index=True, return_inverse=True)[1:]
        if len(reps) == classes:
            break
        classes = len(reps)
    sink_class, start = part[-1], part[dfa.start]
    number = {start: 0}
    order = deque(number)
    new_transitions: dict[tuple[int, tuple[int, int]], int] = {}
    new_accepting: set[int] = set()
    while order:
        cls = order.popleft()
        s = reps[cls]
        if s in dfa.accepting:
            new_accepting.add(number[cls])
        for a, tcls in zip(SYMBOLS, part[step[s]]):
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
    by one gather per digit position from the successor array."""
    step = dfa._step.ravel()
    accepting = np.zeros(dfa.n_states + 1, dtype=bool)
    accepting[list(dfa.accepting)] = True
    state = np.full(len(m), dfa.start, dtype=np.int32)
    for digits in _track_digits(length):
        state = step[4 * state + 2 * digits[m] + digits[n]]
    return accepting[state]


# sampled words up to this length are replayed through each inferred automaton
_MAX_REPLAY_LEN = 7


def _replay_check(dfa: Dfa, verdicts: np.ndarray, max_len: int) -> None:
    """Replay the sampled words of small length; any label mismatch means the
    inference produced a machine inconsistent with its own sample.  The
    first mismatch by length, then m, then n is reported."""
    for length in range(min(max_len, _MAX_REPLAY_LEN) + 1):
        count = fibonacci(length + 2)
        m, n = np.divmod(np.arange(count * count), count)
        bad = np.flatnonzero(_run_pairs(dfa, m, n, length) != verdicts[m, n])
        if len(bad):
            word = pair_encode(int(m[bad[0]]), int(n[bad[0]]))
            word = [SYMBOLS[0]] * (length - len(word)) + word
            raise InconsistentSample(f"replay mismatch on {word}")


# ---------------------------------------------------------------------------
# serialization


def dfa_to_text(dfa: Dfa) -> str:
    lines = [
        "states %d" % dfa.n_states,
        "start %d" % dfa.start,
        "accepting " + " ".join("%d" % s for s in sorted(dfa.accepting)),
    ]
    for (state, symbol), target in sorted(dfa.transitions.items()):
        lines.append("%d [%d,%d] -> %d" % (state, *symbol, target))
    return "\n".join(lines) + "\n"


def dfa_from_text(text: str) -> Dfa:
    """Inverse of dfa_to_text.  A malformed or missing line, a state outside
    range(n_states), or a second transition of one state on one symbol
    raises InvalidRepresentation naming the line."""
    if not isinstance(text, str):
        raise InvalidRepresentation(f"text must be a string, got {text!r}")
    lines = [" ".join(ln.split()) for ln in text.splitlines() if ln.strip()]
    if len(lines) < 3:
        raise InvalidRepresentation(f"automaton text has {len(lines)} of its 3 header lines")
    rows = []
    for k, line in enumerate(lines):
        if re.fullmatch(_DFA_LINES[min(k, 3)], line) is None:
            raise InvalidRepresentation(f"bad automaton line: {line!r}")
        row = [int(x) for x in re.findall(r"\d+", line)]
        states = row[::3] if k > 2 else row  # a transition's digits are not states
        if k:
            _check_states(rows[0][0], states, line)
        rows.append(row)
    (n_states,), (start,), accepting = rows[:3]
    transitions: dict[tuple[int, tuple[int, int]], int] = {}
    for line, (s, a, b, target) in zip(lines[3:], rows[3:]):
        if (s, (a, b)) in transitions:
            raise InvalidRepresentation(f"second transition on one symbol: {line!r}")
        transitions[(s, (a, b))] = target
    return Dfa(n_states, start, frozenset(accepting), transitions)
