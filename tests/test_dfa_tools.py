import copy
import dataclasses
import itertools
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rectbal.dfa_tools import (
    Dfa,
    _minimize,
    _run_pairs,
    build_sample_table,
    dfa_from_text,
    dfa_run,
    dfa_to_text,
    infer_min_dfa,
)
from rectbal.fib_balance import is_balanced
from rectbal.numeration import (
    SYMBOLS,
    InvalidRepresentation,
    check_pair_word,
    fibonacci,
    pair_encode,
)
from rectbal.limits import BudgetExceeded


def test_sample_table_labels():
    # the word of (m, n) is labeled table[m, n]
    table = build_sample_table(6)
    for m, n in [(4, 3), (0, 0), (4, 4)]:
        assert len(pair_encode(m, n)) <= 6
    assert table[4, 3]
    assert table[0, 0]
    assert not table[4, 4]


def test_sample_table_word_counts():
    # the words of length t are the padded encodings of the pairs below
    # F_{t+2}; a pair with a track at F_{t+2} needs t + 1 digits
    table = build_sample_table(5)
    for length in (1, 2, 3, 4):
        tracks = fibonacci(length + 2)
        assert table.shape[0] >= tracks
        words = {tuple(pair_encode(m, n)) for m in range(tracks) for n in range(tracks)}
        assert len(words) == tracks * tracks
        assert max(len(w) for w in words) == length
        assert len(pair_encode(tracks, 0)) == len(pair_encode(0, tracks)) == length + 1


def test_sample_table_budget(budget):
    # the symbol budget is the table's only limit: max_len 19 labels the
    # pairs below F_21 = 10946
    budget(10**7)
    with pytest.raises(BudgetExceeded, match="^119814916 table entries requested, budget is 10000000$"):
        build_sample_table(19)


def test_inference_small_replays_oracle():
    table = build_sample_table(8)
    dfa = infer_min_dfa(table, 6)
    assert dfa.n_states <= 15
    for m in range(51):
        for n in range(51):
            assert dfa_run(dfa, pair_encode(m, n)) == is_balanced(m, n), (m, n)


def test_inference_accepts_worked_example():
    table = build_sample_table(8)
    dfa = infer_min_dfa(table, 6)
    assert dfa_run(dfa, [])  # (0, 0) is balanced
    assert dfa_run(dfa, pair_encode(4, 18))
    assert not dfa_run(dfa, pair_encode(4, 4))


def test_padding_invariance():
    table = build_sample_table(8)
    dfa = infer_min_dfa(table, 6)
    for m, n in [(4, 18), (4, 3), (4, 4), (7, 7)]:
        w = pair_encode(m, n)
        assert dfa_run(dfa, w) == dfa_run(dfa, [(0, 0)] * 3 + w)


def test_depth_bounded_by_length():
    table = build_sample_table(4)
    with pytest.raises(ValueError):
        infer_min_dfa(table, 5)


def test_out_of_domain_sample_and_depth_rejected():
    with pytest.raises(ValueError, match="^max_len must be >= 0, got -1$"):
        build_sample_table(-1)
    table = build_sample_table(8)
    for depth in (0, -2):
        with pytest.raises(ValueError, match=f"^distinguish_depth must be >= 1, got {depth}$"):
            infer_min_dfa(table, depth)


def test_malformed_automaton_text_rejected():
    good = "states 2\nstart 0\naccepting 1\n0 [0,1] -> 1\n"
    assert dfa_to_text(dfa_from_text(good)) == good
    for text, message in [
        ("", "automaton text has 0 of its 3 header lines"),
        ("states 2\nstart 0\n", "automaton text has 2 of its 3 header lines"),
        ("states x\nstart 0\naccepting 1\n", "bad automaton line: 'states x'"),
        (good + "0 [0,2] -> 1\n", "bad automaton line: '0 [0,2] -> 1'"),
        (good + "1 [0,0] -> 1 extra\n", "bad automaton line: '1 [0,0] -> 1 extra'"),
        (good + "1 [0,0] -> 7\n", "state outside range(2): '1 [0,0] -> 7'"),
        (good + "2 [0,0] -> 1\n", "state outside range(2): '2 [0,0] -> 1'"),
        (good.replace("start 0", "start 2"), "state outside range(2): 'start 2'"),
        (good.replace("accepting 1", "accepting 1 5"), "state outside range(2): 'accepting 1 5'"),
        (good + "0 [0,1] -> 0\n", "second transition on one symbol: '0 [0,1] -> 0'"),
    ]:
        with pytest.raises(InvalidRepresentation, match=f"^{re.escape(message)}$"):
            dfa_from_text(text)


def test_start_state_survives_round_trip():
    text = "states 2\nstart 1\naccepting 1\n1 [0,0] -> 1\n"
    dfa = dfa_from_text(text)
    assert dfa.start == 1 and dfa_run(dfa, [(0, 0)])
    assert dfa_to_text(dfa) == text


def test_undefined_transition_rejects():
    toy = Dfa(2, 0, frozenset({1}), {(0, (0, 1)): 1})
    assert dfa_run(toy, [(0, 1)])
    assert not dfa_run(toy, [(1, 1)])
    assert not dfa_run(toy, [(0, 1), (0, 1)])


def test_dfa_run_reads_symbols_as_the_word_check_does():
    toy = Dfa(2, 0, frozenset({1}), {(0, (1, 0)): 1, (1, (0, 0)): 1})
    # a pair of any equal integers is the symbol, and so is a list pair
    assert dfa_run(toy, [(True, False)])
    assert dfa_run(toy, [(1, 0), (np.int64(0), np.int64(0))])
    assert dfa_run(toy, [[1, 0], [0, 0]])
    assert dfa_run(toy, iter([(1, 0), (0, 0)]))
    assert not dfa_run(toy, [(0, 0), [0, 0]])
    # every symbol is read, also past an undefined move of the start
    for word in ([(0, 1), (0, 2)], ((0, 1), [0, 2]), [(0, 1), 5], iter([(0, 0), (0, 2)])):
        with pytest.raises(ValueError, match="^word must be a list of digit pairs, got "):
            dfa_run(toy, word)


def test_dfa_rejects_entries_outside_its_states():
    # each automaton is refused with the message dfa_from_text gives its text
    for args, text, line in [
        ((2, 0, frozenset({5}), {(0, (0, 1)): 5}), "states 2\nstart 0\naccepting 5\n0 [0,1] -> 5\n", "accepting 5"),
        ((2, 0, frozenset({1}), {(0, (0, 1)): 5}), "states 2\nstart 0\naccepting 1\n0 [0,1] -> 5\n", "0 [0,1] -> 5"),
        ((2, 0, frozenset({1}), {(2, (0, 1)): 1}), "states 2\nstart 0\naccepting 1\n2 [0,1] -> 1\n", "2 [0,1] -> 1"),
        ((2, 2, frozenset({1}), {}), "states 2\nstart 2\naccepting 1\n", "start 2"),
    ]:
        message = f"state outside range(2): {line!r}"
        with pytest.raises(InvalidRepresentation, match=f"^{re.escape(message)}$"):
            Dfa(*args)
        with pytest.raises(InvalidRepresentation, match=f"^{re.escape(message)}$"):
            dfa_from_text(text)
    for args, message in [
        ((2, -1, frozenset(), {}), "state outside range(2): 'start -1'"),
        ((2, 0.0, frozenset(), {}), "state outside range(2): 'start 0.0'"),
        ((2, 0, frozenset({1.5}), {}), "state outside range(2): 'accepting 1.5'"),
        ((2, 0, frozenset(), {(0, (0, 2)): 1}), "symbol outside SYMBOLS: (0, (0, 2))"),
        ((2, 0, frozenset(), {(0, "01"): 1}), "symbol outside SYMBOLS: (0, '01')"),
        ((0, 0, frozenset(), {}), "n_states must be >= 1, got 0"),
    ]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Dfa(*args)


def test_dfa_table_follows_its_transitions():
    transitions = {(0, (0, 1)): 1}
    toy = Dfa(2, 0, frozenset({1}), transitions)
    # the automaton holds a read-only copy, so its stored rows never go stale
    transitions[(0, (1, 1))] = 1
    with pytest.raises(TypeError):
        toy.transitions[(0, (1, 1))] = 1
    with pytest.raises(ValueError):
        toy._step[0, 3] = 1
    assert not dfa_run(toy, [(1, 1)]) and dict(toy.transitions) == {(0, (0, 1)): 1}
    # replace builds a new automaton, with rows of its own
    grown = dataclasses.replace(toy, transitions=transitions)
    assert dfa_run(grown, [(1, 1)]) and not dfa_run(toy, [(1, 1)])
    assert _run_pairs(grown, np.array([1]), np.array([1]), 1).tolist() == [True]
    for back in (pickle.loads(pickle.dumps(grown)), copy.deepcopy(grown)):
        assert back == grown and dfa_run(back, [(1, 1)])
    # integer-equal entries are accepted, and written as digits
    odd = Dfa(np.int64(2), False, frozenset({np.int64(1)}), {(np.int64(0), (True, False)): 1})
    assert dfa_run(odd, [(1, 0)])
    assert dfa_to_text(odd) == "states 2\nstart 0\naccepting 1\n0 [1,0] -> 1\n"
    assert dfa_from_text(dfa_to_text(odd)) == odd


def test_serialization_round_trip():
    table = build_sample_table(8)
    dfa = infer_min_dfa(table, 6)
    text = dfa_to_text(dfa)
    back = dfa_from_text(text)
    assert back.n_states == dfa.n_states
    assert back.accepting == dfa.accepting
    assert back.transitions == dfa.transitions
    for m in range(25):
        for n in range(25):
            w = pair_encode(m, n)
            assert dfa_run(back, w) == dfa_run(dfa, w)


def test_state_count_stability_shape():
    for max_len in (6, 8):
        assert infer_min_dfa(build_sample_table(max_len), 6).n_states <= 15


def test_sample_table_is_virtual_but_faithful():
    table = build_sample_table(5)
    for length in (1, 2, 3):
        tracks = fibonacci(length + 2)
        for v in range(tracks * tracks):
            w = pair_encode(*divmod(v, tracks))
            m = sum(fibonacci(len(w) - pos + 1) for pos, (a, _) in enumerate(w) if a)
            n = sum(fibonacci(len(w) - pos + 1) for pos, (_, b) in enumerate(w) if b)
            assert (m, n) == divmod(v, tracks)
            assert table[m, n] == is_balanced(m, n)


def test_label_rejects_overlong_words():
    # max_len 4 samples the values below F_6 = 8; 8 needs five digits
    table = build_sample_table(4)
    assert table.shape == (8, 8)
    assert len(pair_encode(8, 0)) == 5
    with pytest.raises(IndexError):
        table[8, 0]


def test_batch_runner_matches_dfa_run():
    # the length-11 words hold every pair below F_13 = 233
    golden = infer_min_dfa(build_sample_table(13), 10)
    corrupt = Dfa(
        golden.n_states,
        golden.start,
        golden.accepting,
        {**golden.transitions, (0, (0, 1)): (golden.transitions[(0, (0, 1))] + 1) % golden.n_states},
    )
    m, n = np.divmod(np.arange(200 * 200), 200)
    words = [pair_encode(mi, ni) for mi, ni in zip(m.tolist(), n.tolist())]
    good = _run_pairs(golden, m, n, 11)
    bad = _run_pairs(corrupt, m, n, 11)
    assert good.tolist() == [dfa_run(golden, w) for w in words]
    assert bad.tolist() == [dfa_run(corrupt, [(0, 0)] * (11 - len(w)) + w) for w in words]
    assert (good != bad).any()


@st.composite
def partial_dfas(draw) -> Dfa:
    """Automata of 1 to 8 states with any start, accepting set and set of
    defined transitions."""
    n_states = draw(st.integers(1, 8))
    states = st.integers(0, n_states - 1)
    return Dfa(
        n_states,
        draw(states),
        draw(st.frozensets(states)),
        draw(st.dictionaries(st.tuples(states, st.sampled_from(SYMBOLS)), states)),
    )


# every word of length <= 6 over the four pair symbols
WORDS = [w for k in range(7) for w in itertools.product(SYMBOLS, repeat=k)]


@settings(max_examples=100)
@given(partial_dfas())
def test_text_round_trip_property(dfa):
    assert dfa_from_text(dfa_to_text(dfa)) == dfa


@settings(max_examples=100)
@given(partial_dfas())
def test_minimize_keeps_the_language_property(dfa):
    small = _minimize(dfa)
    assert small.n_states <= dfa.n_states
    assert [dfa_run(small, w) for w in WORDS] == [dfa_run(dfa, w) for w in WORDS]
    # and is a fixed point on its own output, which its text round-trips
    assert _minimize(small) == small
    assert dfa_from_text(dfa_to_text(small)) == small


def _dict_walk(dfa: Dfa, word) -> bool:
    state = dfa.start
    for symbol in check_pair_word(word):
        state = dfa.transitions.get((state, symbol))
        if state is None:
            return False
    return state in dfa.accepting


@settings(max_examples=100)
@given(partial_dfas())
def test_dfa_run_is_the_dict_walk_property(dfa):
    for w in WORDS:
        assert dfa_run(dfa, w) == dfa_run(dfa, list(w)) == _dict_walk(dfa, w)
    for w in WORDS[:341]:  # the words of length <= 4, as list pairs and one-shot
        assert dfa_run(dfa, [list(s) for s in w]) == dfa_run(dfa, iter(w)) == _dict_walk(dfa, w)


def test_empty_language_minimizes_to_one_rejecting_state():
    empty = Dfa(1, 0, frozenset(), {})
    for dfa in (empty, Dfa(3, 1, frozenset({2}), {(1, (0, 1)): 0, (0, (1, 0)): 1})):
        small = _minimize(dfa)
        assert small == empty
        assert dfa_to_text(small) == "states 1\nstart 0\naccepting \n"
        assert dfa_from_text(dfa_to_text(small)) == small
