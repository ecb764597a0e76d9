import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rectbal.dfa_tools import build_sample_table, dfa_from_text, dfa_run, infer_min_dfa
from rectbal.exact_quadratic import floor_n_gamma, floor_n_phi
from rectbal.fib_balance import delta_block_scan, diverse_identities_check
from rectbal.fib_scalar import zeck_characterization
from rectbal.numeration import (
    EmptyExpansion,
    InvalidRepresentation,
    fib_index_list,
    fibonacci,
    format_pair_word,
    negabin_decode,
    negabin_encode,
    pair_decode,
    pair_encode,
    trib_decode,
    trib_encode,
    tribonacci,
    zeck_decode,
    zeck_encode,
    zeck_shift,
)
from rectbal.rectangles import word_letter_counts, word_rect_sum
from rectbal.tm_balance import default_horizon, excess_class_parity_check, excess_profile
from rectbal.tm_closed import excess
from rectbal.trib_balance import (
    CornerWitness,
    balanced_2xn_list,
    corner_count_gap,
    two_balance_scan,
    verify_no_2balance_3plus,
)
from rectbal.limits import set_budget
from rectbal.words import SequenceKind, word

TRIB = word(SequenceKind.TRIBONACCI)
ONE_STATE = dfa_from_text("states 1\nstart 0\naccepting 0\n0 [0,0] -> 0\n")


@pytest.mark.parametrize(
    "n,digits",
    [(4, "101"), (18, "101000"), (0, ""), (19, "101001"), (1, "1"), (2, "10")],
)
def test_zeck_encode_examples(n, digits):
    assert zeck_encode(n) == digits


def test_zeck_decode_rejects_adjacent_ones():
    with pytest.raises(InvalidRepresentation):
        zeck_decode("110")
    with pytest.raises(InvalidRepresentation):
        zeck_decode("1011")
    with pytest.raises(InvalidRepresentation):
        zeck_decode("012x")


def test_zeck_decode_accepts_leading_zeros():
    assert zeck_decode("000101") == 4


def test_zeck_round_trip():
    for n in range(100_001):
        assert zeck_decode(zeck_encode(n)) == n


def test_zeck_greedy_takes_largest_fibonacci():
    for n in range(1, 20_000):
        top = fib_index_list(n)[0]
        assert fibonacci(top) <= n < fibonacci(top + 1)


@pytest.mark.parametrize("n,expected", [(0, 0), (4, 7), (3, 5), (1, 2)])
def test_zeck_shift_examples(n, expected):
    assert zeck_shift(n) == expected


def test_shift_identity_with_phi():
    for n in range(1, 10_001):
        assert zeck_shift(n - 1) + 1 == floor_n_phi(n)


@pytest.mark.parametrize(
    "n,expected",
    [(8, True), (0, False), (4, False), (1, True), (2, True), (3, True), (6, False)],
)
def test_is_fibonacci(n, expected):
    # a Fibonacci number is a single Zeckendorf summand
    assert (n > 0 and len(fib_index_list(n)) == 1) is expected


def test_is_fibonacci_matches_enumeration():
    fibs = set()
    j = 2
    while fibonacci(j) <= 10_000:
        fibs.add(fibonacci(j))
        j += 1
    for n in range(1, 10_001):
        assert (len(fib_index_list(n)) == 1) == (n in fibs)


@pytest.mark.parametrize(
    "u,v,expected",
    [(1, 2, True), (2, 3, True), (3, 4, False), (1, 1, False), (5, 8, True), (8, 13, True)],
)
def test_adjacent_fib(u, v, expected):
    # (F_k, F_{k+1}): u is a single summand and v its Zeckendorf shift
    assert (len(fib_index_list(u)) == 1 and zeck_shift(u) == v) is expected


def test_fib_index_list_examples():
    assert fib_index_list(4) == (4, 2)
    assert fib_index_list(1) == (2,)
    assert fib_index_list(18) == (7, 5)
    with pytest.raises(EmptyExpansion):
        fib_index_list(0)


@pytest.mark.parametrize("n,digits", [(5, "101"), (0, ""), (7, "1000"), (6, "110")])
def test_trib_encode_examples(n, digits):
    assert trib_encode(n) == digits


def test_trib_round_trip_and_errors():
    for n in range(100_001):
        assert trib_decode(trib_encode(n)) == n
    with pytest.raises(InvalidRepresentation):
        trib_decode("111")
    assert tribonacci(3) == 7


@pytest.mark.parametrize("n,digits", [(3, "111"), (-1, "11"), (0, ""), (6, "11010")])
def test_negabin_encode_examples(n, digits):
    assert negabin_encode(n) == digits


def test_negabin_round_trip():
    for n in range(-10_000, 10_001):
        assert negabin_decode(negabin_encode(n)) == n


def test_negabin_canonical_no_leading_zero():
    rng = random.Random(3)
    for _ in range(500):
        n = rng.randrange(-10**6, 10**6)
        digits = negabin_encode(n)
        assert n == 0 or digits[0] == "1"


def test_pair_encoding_worked_example():
    word = pair_encode(4, 18)
    assert word == [(0, 1), (0, 0), (0, 1), (1, 0), (0, 0), (1, 0)]
    assert format_pair_word(word) == "[0,1][0,0][0,1][1,0][0,0][1,0]"
    assert pair_decode(word) == (4, 18)
    tokens = re.findall(r"\[([01]),([01])\]", format_pair_word(word))
    assert [(int(a), int(b)) for a, b in tokens] == word


def test_pair_encoding_round_trip():
    rng = random.Random(4)
    for _ in range(2000):
        m, n = rng.randrange(0, 5000), rng.randrange(0, 5000)
        assert pair_decode(pair_encode(m, n)) == (m, n)


def test_pair_decode_validates_tracks():
    with pytest.raises(InvalidRepresentation):
        pair_decode([(1, 0), (1, 0)])


@pytest.mark.parametrize("text, token", [("[0,2]", "[0,2]"), ("[0,1][2]", "[2]"), ("[0,1,1]", "[0,1,1]")])
def test_parse_pair_word_rejects_bad_tokens(text, token):
    # pair tokens are read only from automaton text, whose parser names the
    # line that holds a bad one
    line = f"0 {text} -> 0"
    with pytest.raises(InvalidRepresentation, match=f"^bad automaton line: '{re.escape(line)}'$") as err:
        dfa_from_text(f"states 1\nstart 0\naccepting 0\n{line}\n")
    assert token in str(err.value)


def test_pair_encode_names_the_negative_argument():
    with pytest.raises(ValueError, match="^m must be >= 0, got -1$"):
        pair_encode(-1, 3)
    with pytest.raises(ValueError, match="^n must be >= 0, got -2$"):
        pair_encode(3, -2)


@pytest.mark.parametrize(
    "fn, args, message",
    [
        (fib_index_list, (3.5,), "n must be an integer, got 3.5"),
        (pair_encode, (3.5, 2), "m must be an integer, got 3.5"),
        (pair_encode, (2, 3.5), "n must be an integer, got 3.5"),
        (zeck_shift, (2.5,), "n must be an integer, got 2.5"),
        (zeck_characterization, (2.5, 7), "m must be an integer, got 2.5"),
        (zeck_encode, (2.0,), "n must be an integer, got 2.0"),
        (trib_encode, (2.5,), "n must be an integer, got 2.5"),
        (negabin_encode, (-1.5,), "n must be an integer, got -1.5"),
        (zeck_encode, ("7",), "n must be an integer, got '7'"),
        (fibonacci, (2.5,), "j must be an integer, got 2.5"),
        (tribonacci, (2.5,), "j must be an integer, got 2.5"),
        (diverse_identities_check, (2.5,), "k must be an integer, got 2.5"),
        (delta_block_scan, (3, 4, 2.5), "horizon must be an integer, got 2.5"),
        (excess_class_parity_check, (3.5,), "max_dim must be an integer, got 3.5"),
        (excess_class_parity_check, (5, 2.5), "horizon must be an integer, got 2.5"),
        (verify_no_2balance_3plus, (3.5,), "max_dim must be an integer, got 3.5"),
        (set_budget, (2.5,), "budget must be an integer, got 2.5"),
        (set_budget, ("7",), "budget must be an integer, got '7'"),
        (default_horizon, (2.5, 3), "m must be an integer, got 2.5"),
        (default_horizon, (-1, 3), "m must be >= 1, got -1"),
        (two_balance_scan, ("7", 3), "m must be an integer, got '7'"),
        (two_balance_scan, (2, "7"), "n must be an integer, got '7'"),
        (two_balance_scan, (2, 3, "7"), "horizon must be an integer, got '7'"),
        (balanced_2xn_list, (3, "7"), "horizon must be an integer, got '7'"),
        (excess_profile, ("7", 3), "m must be an integer, got '7'"),
        (excess_profile, (3, 3, "7"), "horizon must be an integer, got '7'"),
        (excess, ("7", 2, 3), "i must be an integer, got '7'"),
        (word_rect_sum, (TRIB, "7", 3, 4), "i must be an integer, got '7'"),
        (word_letter_counts, (TRIB, "7", 3, 4), "i must be an integer, got '7'"),
        (floor_n_phi, (2.5,), "n must be an integer, got 2.5"),
        (floor_n_gamma, (2.5,), "n must be an integer, got 2.5"),
        (infer_min_dfa, (build_sample_table(5), 2.5), "distinguish_depth must be an integer, got 2.5"),
        (zeck_decode, (5,), "digits must be a string, got 5"),
        (trib_decode, (5,), "digits must be a string, got 5"),
        (negabin_decode, (None,), "digits must be a string, got None"),
        (pair_decode, ("x",), "word must be a list of digit pairs, got 'x'"),
        (pair_decode, (5,), "word must be a list of digit pairs, got 5"),
        (corner_count_gap, (CornerWitness(1, 0, 0), "7", 3), "m must be an integer, got '7'"),
        (corner_count_gap, (CornerWitness(1, 0, 0), 4, 2.5), "n must be an integer, got 2.5"),
        (infer_min_dfa, (np.ones((3, 5), bool), 1), "verdicts must be a square 2-D boolean array, got bool array of shape (3, 5)"),
        (infer_min_dfa, ("x", 2), "verdicts must be a square 2-D boolean array, got 'x'"),
        (infer_min_dfa, (np.ones((3, 3), np.int64), 1), "verdicts must be a square 2-D boolean array, got int64 array of shape (3, 3)"),
        (dfa_run, (ONE_STATE, "x"), "word must be a list of digit pairs, got 'x'"),
        (dfa_run, (ONE_STATE, [(0, 2)]), "word must be a list of digit pairs, got [(0, 2)]"),
        (dfa_run, (ONE_STATE, 5), "word must be a list of digit pairs, got 5"),
        (dfa_from_text, (5,), "text must be a string, got 5"),
        (format_pair_word, ("x",), "word must be a list of digit pairs, got 'x'"),
    ],
)
def test_non_integral_input_rejected_by_name(fn, args, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        fn(*args)


@pytest.mark.parametrize(
    "fn, args, message",
    [
        (diverse_identities_check, (0,), "k must be >= 1, got 0"),
        (delta_block_scan, (3, 4, 0), "horizon must be >= 1, got 0"),
        (verify_no_2balance_3plus, (2,), "max_dim must be >= 3, got 2"),
        (excess_class_parity_check, (2,), "max_dim must be >= 3, got 2"),
        (excess_class_parity_check, (5, 0), "horizon must be >= 1, got 0"),
        (balanced_2xn_list, (0, -5), "horizon must be >= 1, got -5"),
        (two_balance_scan, (2, 0), "n must be >= 1, got 0"),
        (default_horizon, (3, 0), "n must be >= 1, got 0"),
    ],
)
def test_lower_bound_rejected_by_name(fn, args, message):
    # even where nothing would be scanned, as for balanced_2xn_list(0, -5)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        fn(*args)


def test_pair_word_read_once_from_one_shot_iterators():
    word = pair_encode(4, 18)
    assert pair_decode(iter(word)) == (4, 18)
    assert format_pair_word(iter(word)) == "[0,1][0,0][0,1][1,0][0,0][1,0]"
    assert dfa_run(ONE_STATE, iter([(0, 0), (0, 0)]))
    with pytest.raises(ValueError, match="^word must be a list of digit pairs"):
        dfa_run(ONE_STATE, iter([(0, 2), (0, 0)]))


def test_negative_sequence_index_rejected():
    pair_encode(10**20, 3)  # grows the cached Fibonacci list
    for fn in (fibonacci, tribonacci):
        with pytest.raises(ValueError, match="^j must be >= 0, got -1$"):
            fn(-1)


def test_numpy_integers_accepted():
    assert fib_index_list(np.int32(4)) == (4, 2)
    assert zeck_encode(np.int64(18)) == "101000"
    assert zeck_shift(np.int64(4)) == 7
    assert pair_encode(np.int64(4), np.uint8(18)) == pair_encode(4, 18)
    assert trib_encode(np.int16(5)) == "101"
    assert negabin_encode(np.int64(-1)) == "11"
    assert zeck_characterization(np.int64(4), np.int64(18))


NATURALS = st.integers(min_value=0, max_value=10**40)


@settings(max_examples=300)
@given(NATURALS)
def test_zeck_round_trip_property(n):
    assert zeck_decode(zeck_encode(n)) == n
    if n:
        # summand indices strictly decreasing, no two consecutive, all >= 2
        idx = fib_index_list(n)
        assert all(a - b >= 2 for a, b in zip(idx, idx[1:])) and idx[-1] >= 2


@settings(max_examples=300)
@given(NATURALS, NATURALS)
def test_pair_round_trip_property(m, n):
    word = pair_encode(m, n)
    assert pair_decode(word) == (m, n)
    for track in (0, 1):
        assert "11" not in "".join(str(pair[track]) for pair in word)
    assert word == [] or word[0] != (0, 0)


@settings(max_examples=300)
@given(NATURALS)
def test_trib_round_trip_property(n):
    assert trib_decode(trib_encode(n)) == n


@settings(max_examples=300)
@given(st.integers(min_value=-(10**40), max_value=10**40))
def test_negabin_round_trip_property(n):
    assert negabin_decode(negabin_encode(n)) == n
