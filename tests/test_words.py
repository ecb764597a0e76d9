import os
import random
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rectbal.limits import BudgetExceeded
from rectbal.words import (
    SequenceKind,
    Word,
    _generate,
    cover_bound,
    sturmian_a_word,
    word,
)
from oracles import factor_complexity, factor_cover, fib_symbol, tm_symbol


_MORPHISMS = {
    SequenceKind.FIBONACCI: {ord("0"): "01", ord("1"): "0"},
    SequenceKind.TRIBONACCI: {ord("0"): "01", ord("1"): "02", ord("2"): "0"},
    SequenceKind.THUE_MORSE: {ord("0"): "01", ord("1"): "10"},
}


def _morphism_word(kind: SequenceKind, length: int) -> str:
    """The word applied as its morphism, symbol by symbol, to "0"."""
    if kind is SequenceKind.TRIBONACCI_RECODED:
        return _morphism_word(SequenceKind.TRIBONACCI, length).replace("1", "0")
    s = "0"
    while len(s) < length:
        s = s.translate(_MORPHISMS[kind])
    return s[:length]


def _as_symbols(text: str) -> np.ndarray:
    return np.frombuffer(text.encode("ascii"), dtype=np.uint8) - ord("0")


@pytest.mark.parametrize("kind", list(SequenceKind))
def test_generator_matches_morphism(kind):
    limit = 2_000_000
    want = _morphism_word(kind, limit)
    for length in (0, 1, 2, 3, 4, 5, 7, 13, 24, 44, 1000, limit):
        got = _generate(kind, length)
        assert got.dtype == np.uint8 and np.array_equal(got, _as_symbols(want[:length]))
    # regrowth: a word built short, then grown by more than its doubling
    w = Word(kind)
    w.ensure(5000)
    assert len(w) == 5000
    w.ensure(limit)
    assert np.array_equal(w.symbols(limit), _as_symbols(want))
    for c in w.alphabet:
        assert np.array_equal(w.count_table(c, limit)[1:], np.cumsum(_as_symbols(want) == c))
    # the fixed "0" that sturmian_a_word glues before the generated word
    a = Word(kind, prefix="0")
    for length in (1, 2, 5000, limit):
        assert np.array_equal(a.symbols(length), _as_symbols("0" + want[: length - 1]))


def _double_cumsum(symbols: np.ndarray, letter: int) -> np.ndarray:
    """s[j] = C[0] + ... + C[j-1] in int64, C the prefix counts of letter."""
    counts = np.concatenate([[0], np.cumsum(symbols == letter, dtype=np.int64)])
    return np.concatenate([[0], np.cumsum(counts)])


@pytest.mark.parametrize("prefix", ["", "0"])
@pytest.mark.parametrize("kind", list(SequenceKind))
def test_running_sums_match_double_cumsum(kind, prefix):
    w = Word(kind, prefix=prefix)
    for length in (5000, 300_000):  # the second one regrows the word
        for c in w.alphabet:
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # no numpy overflow warning
                got = w.running_sum(c, length + 2)
            # the stored sum reaches what was read, and no further than the word
            assert got.dtype == np.uint32 and length + 2 <= len(w._sums[c]) <= len(w) + 2
            want = _double_cumsum(w.symbols(length), c)
            assert np.array_equal(got, want % 2**32), (kind, c, length)
            assert np.array_equal(w.count_table(c, length), np.diff(want))
    assert int(want[-1]) > 2**32  # the stored sums wrapped


@settings(max_examples=40)
@given(
    st.sampled_from(list(SequenceKind)),
    st.sampled_from(["", "0"]),
    st.lists(st.tuples(st.integers(0, 2), st.integers(0, 60_000)), min_size=1, max_size=8),
)
def test_lazy_running_sums_match_double_cumsum(kind, prefix, reads):
    # reads of random sizes in random order, past the first 4096-symbol
    # build, so the word grows between extensions of the stored sums
    w = Word(kind, prefix=prefix)
    for pick, size in reads:
        c = w.alphabet[pick % len(w.alphabet)]
        got = w.running_sum(c, size)
        assert size <= len(w._sums[c]) <= len(w) + 2
        assert np.array_equal(got, _double_cumsum(w.symbols(max(size - 2, 0)), c)[:size])
    for c, s in w._sums.items():
        assert np.array_equal(s, _double_cumsum(w.symbols(len(s) - 2), c))


_COMPLEXITIES = [SequenceKind.FIBONACCI, SequenceKind.TRIBONACCI, SequenceKind.THUE_MORSE]
_BOUNDED = [SequenceKind.TRIBONACCI, SequenceKind.THUE_MORSE]


@pytest.mark.parametrize("kind", _COMPLEXITIES)
def test_factor_complexity_and_cover_match_first_occurrences(kind):
    # the first 8L + 1 starts hold every factor of length L <= 300: a missed
    # one would leave the count below p(L)
    raw = word(kind).symbols(9 * 300 + 1).tobytes()
    for length in range(1, 301):
        first = {}
        for i in range(8 * length + 1):
            first.setdefault(raw[i : i + length], i)
        assert len(first) == factor_complexity(kind, length), length
        assert factor_cover(kind, length) == max(first.values()) + 1, length
        if kind in _BOUNDED:
            assert factor_cover(kind, length) <= cover_bound(kind, length), length


@pytest.mark.parametrize("kind", _BOUNDED)
def test_factors_below_the_bound_number_p(kind):
    # B(L) checked against the cited complexity theorems: the starts below
    # it hold all p(L) factors of length L
    raw = word(kind).symbols(cover_bound(kind, 300) + 299).tobytes()
    for length in range(1, 301):
        starts = range(cover_bound(kind, length))
        assert len({raw[i : i + length] for i in starts}) == factor_complexity(kind, length), length


@pytest.mark.parametrize("kind", _BOUNDED)
def test_counted_cover_within_the_bound(kind):
    rng = random.Random(22)
    lengths = [*range(1, 65), *rng.sample(range(65, 4000), 40), 4096, 4097]
    for length in lengths:
        assert factor_cover(kind, length) <= cover_bound(kind, length), length


def _tribonacci_cover(length: int) -> int:
    """T_k for c_(k-1) < L <= c_k, with T = 4, 7, 13, 24, ... and c = 0, 1,
    2, 4, 8, 15, ..., each the sum of its three predecessors (plus 1 for c)."""
    t, c = [1, 2, 4], [0, 0, 1]
    while c[-1] < length:
        t.append(t[-1] + t[-2] + t[-3])
        c.append(c[-1] + c[-2] + c[-3] + 1)
    return t[-1]


def _thue_morse_cover(length: int) -> int:
    """2 at L = 1, 6 at L = 2 and 3, and 3 * 2^bit_length(L - 2) from 4."""
    return 2 if length == 1 else 6 if length <= 3 else 3 << (length - 2).bit_length()


def test_closed_forms_match_counted_covers():
    # observed forms, not proved: test oracles only, never certificates
    for length in range(1, 700):
        assert factor_cover(SequenceKind.TRIBONACCI, length) == _tribonacci_cover(length), length
        assert factor_cover(SequenceKind.THUE_MORSE, length) == _thue_morse_cover(length), length


@pytest.mark.parametrize("kind", _BOUNDED)
def test_pair_prefix_is_closed_under_the_morphism(kind):
    # sigma(0) starts with 01, and each length-2 factor of sigma^(j+1)(0)
    # lies in sigma(xy) for a length-2 factor xy of sigma^j(0): a set of
    # pairs that holds 01 and is closed under sigma holds every length-2
    # factor of the word
    from rectbal import words as words_mod

    images = words_mod._MORPHISMS[kind]
    assert ["".join(map(str, image)) for image in images] == [
        _MORPHISMS[kind][ord(str(a))] for a in range(len(images))
    ]
    prefix = words_mod._PAIR_PREFIXES[kind]
    assert np.array_equal(word(kind).symbols(len(prefix)), prefix)
    pairs = set(zip(prefix, prefix[1:]))
    assert (0, 1) in pairs and len(pairs) == factor_complexity(kind, 2)
    for x, y in pairs:
        image = images[x] + images[y]
        assert set(zip(image, image[1:])) <= pairs, (x, y)
    # and no shorter prefix holds them all
    assert set(zip(prefix[:-1], prefix[1:-1])) != pairs


def test_cover_bound_domain():
    for kind in (SequenceKind.FIBONACCI, SequenceKind.TRIBONACCI_RECODED):
        with pytest.raises(ValueError, match=f"^kind must be tribonacci or thue-morse, got {kind.value}$"):
            cover_bound(kind, 3)
    with pytest.raises(ValueError, match="^length must be >= 1, got 0$"):
        cover_bound(SequenceKind.TRIBONACCI, 0)
    with pytest.raises(ValueError, match="^length must be an integer, got 3.0$"):
        cover_bound(SequenceKind.THUE_MORSE, 3.0)
    assert cover_bound(SequenceKind.THUE_MORSE, np.int64(3)) == cover_bound(SequenceKind.THUE_MORSE, 3)


def test_prefixed_word_matches_morphism():
    limit = 2_000_000
    a = Word(SequenceKind.FIBONACCI, prefix="0")
    a.ensure(3000)
    want = _as_symbols("0" + _morphism_word(SequenceKind.FIBONACCI, limit - 1))
    assert np.array_equal(a.symbols(limit), want)
    assert np.array_equal(sturmian_a_word().symbols(10_000), want[:10_000])


def test_fibonacci_prefix():
    assert [fib_symbol(i) for i in range(8)] == [0, 1, 0, 0, 1, 0, 1, 0]
    assert fib_symbol(1) == 1
    assert fib_symbol(12) == 1


def test_fibonacci_floor_formula_matches_morphism_bulk():
    # vectorized version of the per-symbol cross-check, first 10^6 symbols
    from rectbal.fib_balance import _floor_sums

    limit = 1_000_000
    g = np.diff(_floor_sums(limit + 2))
    syms = word(SequenceKind.FIBONACCI).symbols(limit)
    assert np.array_equal(g[2 : limit + 2] - g[1 : limit + 1], syms)


def test_sturmian_a_examples():
    a = sturmian_a_word()
    assert a.symbol(0) == 0
    assert a.symbol(1) == 0
    assert a.symbol(3) == 0
    assert [a.symbol(i) for i in range(9)] == [0, 0, 1, 0, 0, 1, 0, 1, 0]


def test_a_word_is_zero_prefixed_f_word():
    a = sturmian_a_word().symbols(2001)
    f = word(SequenceKind.FIBONACCI).symbols(2000)
    assert a[0] == 0
    assert np.array_equal(a[1:], f)


def test_tribonacci_prefix():
    tr, tr2 = word(SequenceKind.TRIBONACCI), word(SequenceKind.TRIBONACCI_RECODED)
    assert [tr.symbol(i) for i in range(7)] == [0, 1, 0, 2, 0, 1, 0]
    assert tr2.symbol(3) == 2
    assert tr2.symbol(1) == 0


def test_trib2_is_recoding():
    tr = word(SequenceKind.TRIBONACCI).symbols(10_000)
    tr2 = word(SequenceKind.TRIBONACCI_RECODED).symbols(10_000)
    assert np.array_equal(np.where(tr == 2, 2, 0), tr2)


def test_thue_morse_prefix():
    assert [tm_symbol(i) for i in range(8)] == [0, 1, 1, 0, 1, 0, 0, 1]
    assert tm_symbol(0) == 0


def test_thue_morse_pair_identities():
    t = word(SequenceKind.THUE_MORSE).symbols(1_000_000).astype(np.int16)
    even, odd = t[0::2], t[1::2]
    assert np.all(even[: len(odd)] + odd == 1)
    q0, q2 = t[0::4], t[2::4]
    assert np.all(q0[: len(q2)] + q2 == 1)
    q1, q3 = t[1::4], t[3::4]
    assert np.all(q1[: len(q3)] + q3 == 1)


def test_prefix_counts_examples():
    fib = word(SequenceKind.FIBONACCI)
    assert fib.count_table(1, 10)[8] == 3
    assert fib.count_table(0, 10)[0] == 0 and fib.count_table(1, 10)[0] == 0
    tr = word(SequenceKind.TRIBONACCI)
    assert tuple(tr.count_table(c, 10)[7] for c in (0, 1, 2)) == (4, 2, 1)


def test_prefix_counts_sum_to_length():
    tr = word(SequenceKind.TRIBONACCI)
    for k in (0, 1, 17, 4999):
        assert sum(int(tr.count_table(c, 5000)[k]) for c in (0, 1, 2)) == k


def test_count_tables_are_int32():
    w = Word(SequenceKind.TRIBONACCI)
    assert all(w.count_table(c, 0).dtype == np.int32 for c in w.alphabet)
    w.ensure(5000)
    for c in w.alphabet:
        table = w.count_table(c, 5000)
        assert table.dtype == np.int32
        assert np.array_equal(table[1:], np.cumsum(w.symbols(5000) == c))


def test_tribonacci_word_is_two_balanced():
    # over the first 10^5 symbols, factor counts of each letter at every
    # length <= 500 spread by at most 2
    w = word(SequenceKind.TRIBONACCI)
    limit = 100_000
    for letter in (0, 1, 2):
        table = w.count_table(letter, limit)
        for length in range(1, 501):
            window = table[length:] - table[: limit + 1 - length]
            assert int(window.max()) - int(window.min()) <= 2


def test_a_and_f_words_share_factors():
    limit = 10_000
    a = sturmian_a_word().symbols(limit).tobytes()
    f = word(SequenceKind.FIBONACCI).symbols(limit).tobytes()
    for length in range(1, 31):
        fa = {a[i : i + length] for i in range(limit - length)}
        ff = {f[i : i + length] for i in range(limit - length)}
        assert fa == ff


def test_budget_enforced(budget):
    budget(100)
    small = Word(SequenceKind.FIBONACCI)
    small.ensure(100)
    with pytest.raises(BudgetExceeded):
        small.ensure(101)


def test_prefix_counts_over_budget():
    with pytest.raises(BudgetExceeded):
        word(SequenceKind.FIBONACCI).count_table(0, 10**9)


def test_set_budget_applies_to_shared_words():
    from rectbal import limits

    old = limits.BUDGET
    try:
        limits.set_budget(500)
        with pytest.raises(BudgetExceeded):
            word(SequenceKind.FIBONACCI).ensure(9_999_999)
        with pytest.raises(ValueError):
            limits.set_budget(0)
    finally:
        limits.set_budget(old)


def test_one_budget_caps_words_and_tables():
    from rectbal import limits
    from rectbal.fib_balance import balance_table, is_balanced

    tm = word(SequenceKind.THUE_MORSE)
    tm.ensure(5000)  # built past the budget below
    old = limits.BUDGET
    try:
        limits.set_budget(1000)
        for call in (lambda: tm.ensure(1001), lambda: balance_table(100)):
            with pytest.raises(BudgetExceeded, match="budget is 1000"):
                call()
        # the exact verdict builds no table: it answers under any budget
        assert not is_balanced(5000, 6000)
    finally:
        limits.set_budget(old)
    assert limits.BUDGET == old
    tm.ensure(1001)
    assert balance_table(100).shape == (101, 101)
    assert not is_balanced(5000, 6000)


def test_budget_checks_share_one_message(budget):
    from rectbal.fib_balance import (
        balance_table,
        delta_block_scan,
        diverse_identities_check,
        row_value_bounds,
    )

    budget(1000)
    for call, size, what in [
        (lambda: Word(SequenceKind.FIBONACCI).ensure(1001), 1001, "symbols"),
        (lambda: row_value_bounds(30, 1000), 1597, "table entries"),  # q = F_17
        (lambda: balance_table(40), 41 * 41, "table entries"),
        (lambda: diverse_identities_check(2), 399 + 610, "symbols"),  # j1 + F_15
        # the whole scan's symbols, before its first 1024-position chunk
        (lambda: delta_block_scan(3, 4, 5000), 5000 + 3 + 4 - 1, "symbols"),
    ]:
        with pytest.raises(BudgetExceeded, match=f"^{size} {what} requested, budget is 1000$"):
            call()


def test_budget_limited_to_int32_counts():
    from rectbal import limits

    old = limits.BUDGET
    try:
        limits.set_budget(2**31 - 1)
        with pytest.raises(ValueError, match="budget must be between 1 and 2147483647"):
            limits.set_budget(2**31)
        assert limits.BUDGET == 2**31 - 1
    finally:
        limits.set_budget(old)
    # a word has no budget of its own to set past the limit
    with pytest.raises(TypeError):
        Word(SequenceKind.FIBONACCI, budget=2**31)


def test_oversized_budget_variable_rejected():
    import rectbal

    src = os.path.dirname(os.path.dirname(rectbal.__file__))
    env = dict(os.environ, RECTBAL_BUDGET=str(2**31), PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", "import rectbal"], env=env, capture_output=True, text=True
    )
    assert proc.returncode != 0
    assert "RECTBAL_BUDGET must be between 1 and 2147483647" in proc.stderr


def test_non_integer_budget_variable_rejected():
    import rectbal

    src = os.path.dirname(os.path.dirname(rectbal.__file__))
    env = dict(os.environ, RECTBAL_BUDGET="abc", PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", "import rectbal"], env=env, capture_output=True, text=True
    )
    assert proc.returncode != 0
    assert "RECTBAL_BUDGET must be an integer, got 'abc'" in proc.stderr


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda w: w.symbol(-1), "i"),
        (lambda w: w.symbols(-5), "length"),
        # ported from the deleted Word.prefix_count(1, -1); keeps that case's id
        pytest.param(lambda w: w.count_table(1, -1), "length", id="<lambda>-k"),
        (lambda w: w.count_table(0, -1), "length"),
        (lambda w: word(SequenceKind.TRIBONACCI).symbol(-3), "i"),
        (lambda w: word(SequenceKind.TRIBONACCI_RECODED).symbol(-3), "i"),
        (lambda w: tm_symbol(-2), "i"),
        (lambda w: fib_symbol(-3), "i"),
    ],
)
def test_negative_arguments_rejected_on_built_word(call, name):
    # numpy would answer these from the end of the built arrays
    for kind in SequenceKind:
        word(kind).ensure(100)
    w = word(SequenceKind.TRIBONACCI)
    with pytest.raises(ValueError, match=f"^{name} must be >= 0, got -"):
        call(w)


@pytest.mark.parametrize(
    "kind, call",
    [
        (SequenceKind.FIBONACCI, lambda w: w.count_table(2, 5)),
        (SequenceKind.THUE_MORSE, lambda w: w.count_table(3, 5)),
        (SequenceKind.TRIBONACCI_RECODED, lambda w: w.running_sum(1, 5)),
    ],
)
def test_letters_outside_the_alphabet_rejected(kind, call):
    # a lazily built sum of a foreign letter would be all zeros
    with pytest.raises(ValueError, match="^letter must be one of"):
        call(word(kind))
