"""Golden pins: SHA-256 digests of outputs that a refactor must keep.

Array and record outputs are normalised to little-endian int64 bytes before
hashing, so a change of dtype alone does not move a digest; CLI outputs are
hashed as the bytes written to stdout or to the --out file.  The verdict
table is hashed as its raw boolean bytes, and text outputs (decoded values
with rejection messages, a serialized automaton, the message of a failed
replay) as their UTF-8 bytes.
"""
import contextlib
import hashlib
import io
import random

import numpy as np

from rectbal.cli import main
from rectbal.dfa_tools import InconsistentSample, build_sample_table, dfa_to_text, infer_min_dfa
from rectbal.fib_balance import (
    balance_table,
    delta_block_scan,
    exact_balance,
    row_value_bounds,
)
from rectbal.fib_scalar import BalanceStatus, zeck_characterization
from rectbal.numeration import (
    EmptyExpansion,
    InvalidRepresentation,
    fib_index_list,
    fibonacci,
    negabin_decode,
    negabin_encode,
    pair_encode,
    trib_decode,
    trib_encode,
    zeck_decode,
    zeck_encode,
    zeck_shift,
)
from rectbal.rectangles import word_letter_counts, word_rect_sum
from rectbal.tm_balance import excess_profile
from rectbal.trib_balance import two_balance_scan
from rectbal.words import SequenceKind, sturmian_a_word, word
from oracles import excess_vector, far_sparse_pairs, t_value_vector

GOLDEN = {
    "t_value_vector(7, 11, 10**5)": "257f1210bd12b43497e7f46a0e997ef1744c8691a120e58a46810f0d5c10fed2",
    "excess_vector(5, 7, 10**5)": "e1b6fc756e74d4e8a42a4de30e71611b6da81e4fc64233cbc359f23927097a44",
    "excess_vector(1000, 1000, 10**5)": "46dece852599a29fc94c7fec44b023acf7efebfac1075203edaddd421cec110a",
    "two_balance_scan(2, 5, 10**5)": "074496e81b1f45791c4a4cc0f2a6c048682ec0447d015a7df4471151af92a029",
    "two_balance_scan(3, 4, 10**5)": "becdc20a769299e3ec2c601be365914d940a557090e5b8a0eba038ce43220240",
    "two_balance_scan fields over SCAN_SHAPES at 4*10**6": "c281a59a458e5b14fb039c5571c5bd85c96287edb85dcf26d9f42849b5aa81d6",
    "two_balance_scan fields of (2048, 2048)": "2994135db7725e7442ec6c333fefeb7af738a08009a6bc8c3fe705abe87a1ebd",
    "excess_profile (min_s, max_s) over PROFILE_SHAPES at 4*10**6 and of (20000, 20001)": "bd141e936f694da8c0649dea37ce94c9a2080f680362651a7798df357390cb9e",
    "delta_block_scan(4, 4)": "f1ca291ca2e19da9ee9a5e1aea51734c3141169f2d5efd6adaee15b2f8c0e05b",
    "delta_block_scan(4, 18)": "5721fc610522e263978f9200ff6c804fcbb4b6fa62e6d337ec7ed5129a352662",
    "word_letter_counts/word_rect_sum x300": "c86eb52c9c65ae39cc5b415b231ed82551fd6292b702de5ea96b0f5b9ee17881",
    "exact_balance over seeded, Fibonacci-sized and 10**6 pairs": "a9c7750334d409aafa784486f8d68de905d62b32c98741bee6796d1191086195",
    "exact_balance over far sparse pairs": "cc9c2222f3af9b2fe3aca329fda06c9c816c9ee8ed7b507df8ad53a4bd283951",
    "exact_balance over dense pairs to q = F_35": "063b63045aee2fd81cf1b3f149be77dcac1e30e364f18b77ae8acd416d81e726",
    "exact_balance over balanced pairs at 10**6, 10**8 and Fibonacci sizes": "46d10d30330ae77d3fbf21cfab05600b85a5fb0dcb8cf1b20f22f2065011e0aa",
    "balance_table(1000).tobytes()": "57fa75cf1910401b1d0fa68718efd58f0e92e7ec0f98a4a21bfde33b3bcb652a",
    "zeck_decode over binary strings to length 10": "7724c386077aaeef0ab0a1a3ad4b7737e2c9a88ac1c1cdee9c042511a75bf237",
    "trib_decode over binary strings to length 10": "1e9cb34ed5fa2e4a12c8b91762ce5eec779071f53f8c40488c055fafeca1a52c",
    "negabin_decode over binary strings to length 10": "9aaeba249fc3ff209a6df7c32ba7f840510a0de437f02f350dd26c6f744b0db4",
    "pair_encode over seeded pairs to 10**30": "5cf61d2dd31789b7cc8005ca029e775e0623845ab01ea9a681bba72b8d109dab",
    "fib_index_list over seeded values to 10**30": "332504f30d9313641b5c4bdf673e18a66eb19c7144edfd0313e6a6e298905ec9",
    "zeck_encode over seeded values to 10**30": "2a658296d8cfb680ef1088dc0f46bc8986b8f10bd5d94feee4bed33b261f6f1a",
    "zeck_shift over seeded values to 10**30": "e9d32b0b40ce034c76745ca038a06818f6677c765749b577084ba97202629ed7",
    "trib_encode over seeded values to 10**30": "5995efef7f7c5a5b1d8b56391d8dfefcbc3c192700075e2b0038309da4d0adfa",
    "negabin_encode over seeded values in [-10**30, 10**30]": "64d8d0a1e46fc8e9d511b743cdaf3bf1d3c1d1f63a05c968dee2749e8ffe94aa",
    "dfa_to_text(infer_min_dfa(build_sample_table(13), 10))": "0ef38ef6e48f5d330f295170833375b4b28e6e79b0e80253b1ab1223356e8b12",
    "dfa_to_text(infer_min_dfa(build_sample_table(10), 10))": "0ef38ef6e48f5d330f295170833375b4b28e6e79b0e80253b1ab1223356e8b12",
    "dfa_to_text(infer_min_dfa(build_sample_table(11), 10))": "0ef38ef6e48f5d330f295170833375b4b28e6e79b0e80253b1ab1223356e8b12",
    "dfa_to_text(infer_min_dfa(build_sample_table(12), 10))": "0ef38ef6e48f5d330f295170833375b4b28e6e79b0e80253b1ab1223356e8b12",
    "dfa_to_text(infer_min_dfa(build_sample_table(16), 10))": "0ef38ef6e48f5d330f295170833375b4b28e6e79b0e80253b1ab1223356e8b12",
    "dfa_to_text(infer_min_dfa(build_sample_table(8), 3))": "0ef38ef6e48f5d330f295170833375b4b28e6e79b0e80253b1ab1223356e8b12",
    "dfa_to_text(infer_min_dfa(build_sample_table(8), 6))": "0ef38ef6e48f5d330f295170833375b4b28e6e79b0e80253b1ab1223356e8b12",
    "dfa_to_text(infer_min_dfa(build_sample_table(6), 6))": "8e0a9420230f08603cac79e49b6e5579a76ffb3e5b00bf346d490f8f1456974a",
    "dfa_to_text(infer_min_dfa(build_sample_table(12), 4))": "0ef38ef6e48f5d330f295170833375b4b28e6e79b0e80253b1ab1223356e8b12",
    "InconsistentSample of infer_min_dfa(build_sample_table(8), 1)": "1c8b4ac84aa37bfb70eda0c5cd5cb2ff74c3bf70946a722b4e47f48c0886556f",
    "InconsistentSample of infer_min_dfa(build_sample_table(8), 2)": "7616b35aabe7ebb0edd7c68082047972ab8501856b56e35b455c4c249cf8b1ff",
    "row_value_bounds(0, 10_000)": "0c6a976f97434bc31fa4588c4899bef06330a8e18bc7db1cfe723661567204aa",
    "row_value_bounds(1, 10_000)": "9f1204fb85afc6e21e76143052d7129ef67b2e9577be3dff82535f19d42a0b2c",
    "row_value_bounds(2, 10_000)": "0045665878b246ddaa9414db2f0f021dd074345230fd0914c18e6acb9f50d73c",
    "row_value_bounds(3, 10_000)": "62852b7222a2b4f4706a975333c52893349effb2034ab5f069a25878329faf3f",
    "row_value_bounds(8, 10_000)": "e7344604a6d00eee2364c793857b276cfeb1773c9ca381f3db9d48b88b7572ee",
    "row_value_bounds(233, 10_000)": "6b6b46f3d9739f0e9ae7573e4f6b0de6c2132f9a0b64d64d764b4d31fd60daaf",
}

# every shape the trib_tm_scan benchmark may scan at its 4*10**6 horizon
# (2 x n for n <= 48, m x n for 3 <= m <= n <= 24), and its four profiles
SCAN_SHAPES = [(2, n) for n in range(1, 49)] + [(m, n) for m in range(3, 25) for n in range(m, 25)]
PROFILE_SHAPES = [(999, 1001), (1000, 1000), (1536, 768), (2047, 2049)]

# (max_len, depth) of the pinned automata, of the samples whose replay
# fails, and the rows mu of row_value_bounds(mu, 10_000)
INFERRED = [(10, 10), (11, 10), (12, 10), (13, 10), (16, 10), (8, 3), (8, 6), (6, 6), (12, 4)]
INCONSISTENT = [(8, 1), (8, 2)]
ROWS = [0, 1, 2, 3, 8, 233]

# README command-line examples, fib bal --m 4 --n 18 --method scan (a
# balanced pair, which the scan reports as unknown up to its horizon), trib
# bal2 --m 2 --n 4 for the 2-balanced branch of that report, and num encode
# of 0 (printed "0") and 18 in each system; {tmp} is a fresh directory
CLI_GOLDEN = {
    "fib bal --m 4 --n 18": "f9f1da6557cf8dffcb769bfa415e44728d56479030cff9f2bfb56fb08c7993e0",
    "fib bal --m 4 --n 4 --method scan": "d682eca365b21d099f3eda7696fc1f8707004609a45df2d4b4a67b565c5f076c",
    "fib bal --m 4 --n 18 --method scan": "3016b46f4dee9c3847d57c573ed9bb60e79982b82a6fbb40baf012c85ed41e25",
    "fib sweep --max 100 --out {tmp}/sweep.csv": "1cc4cc2c6b791b14605cdb293cde84245520f24347172ac7f1c2d7ff21434351",
    "fib sweep --max 200": "33886aefdc5bcea3efbafd78d98da0858f8b877eeb396ba13f6b280d0e73bb84",
    "fib sweep --max 0": "6c2a881ad0d5e9797e89dcef53a4d007965b8d136322f20e5ddc0e9a2d35f7ee",
    "fib sweep --max 7": "f49a9e457f1c82a45cb8f5d5c6cb8d10c57a7823581b483d915ec424f21775d7",
    "fib diverse --k 2": "a5ebff8a8f1a7974b2803e3ff973a8e477a83a8dba6961142b7b8c34b4201cb0",
    "trib bal2 --m 2 --n 4": "fce80e78d8276135004a2a51083114fe836f356b627792ca09716c164f27a808",
    "trib bal2 --m 2 --n 5": "b448c99c39426ff0c2385cc727600a26311aa6f6410d10d769ab631cf7e90cf1",
    "trib list2 --limit 48": "7fffbe5a2d1654ca65d14e5915ad6500624a5a9e1abb6277d278570a6b905f3d",
    "trib corner --p 7": "36ee7d53247a51ced082836da751cc89b594015372c32ac3d615cccbae34a49f",
    "tm excess --i 0 --m 3 --n 3": "1121cfccd5913f0a63fec40a6ffd44ea64f9dc135c66634ba001d10bcf4302a2",
    "tm profile --m 3 --n 3": "8d37666766655691c5668a90ea87b64a5893de35389368943b6c7abc35637236",
    "tm table --max 16 --out {tmp}/classes.csv": "e46c4d9de12d993cb14c5b9e46a3abf04531f64ae124ac8e20223cf22d6d8d43",
    "dfa infer --max-len 12 --depth 10 --out {tmp}/bal.dfa": "e809865a472a8e4bb675a68d8ae7b1177e8d7da05e756c4ddbb8ec772cef77c7",
    "dfa run --file {tmp}/bal.dfa --pair 4 18": "81d512d6a998baffe6bc712140bdae759025f72c8b8b788001f72104c5f186b1",
    "num encode --system zeck 18": "3be4a81b822f3c850ac84e078a0953c47a46e4a618695017147917bcbf93d10d",
    "num encode --system trib 18": "d3c03b7d97c971bf5dd36d90e162451b0ccd4a85a34769c159f0e6d966faddec",
    "num encode --system neg2 18": "136712be50948e2e85058a97c177220c977adbe01130b9426c713247b5f7d22d",
    "num encode --system zeck 0": "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa",
    "num encode --system trib 0": "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa",
    "num encode --system neg2 0": "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa",
    "num decode --system neg2 11010": "06e9d52c1720fca412803e3b07c4b228ff113e303f4c7ab94665319d832bbfb7",
    "word dump --kind trib --limit 40": "1861355a1888342cf74152f94d7a42524e9b103434a88c63a8034bd610777250",
}


def _digest(values) -> str:
    return hashlib.sha256(np.asarray(values, dtype="<i8").tobytes()).hexdigest()


def _scan_record(m: int, n: int) -> list[int]:
    r = two_balance_scan(m, n, 10**5)
    out = [r.m, r.n, r.horizon]
    for letter in (0, 1, 2):
        out.extend(r.letter_ranges[letter])
    out.append(-1 if r.unbalanced_letter is None else r.unbalanced_letter)
    out.extend(r.witness or (-1, -1, -1, -1))
    return out


def _scan_fields(m: int, n: int, horizon: int) -> list[int]:
    """The ranges, unbalanced letter and witness of a scan; not whether it
    was exhaustive."""
    r = two_balance_scan(m, n, horizon)
    out = [m, n]
    for letter in (0, 1, 2):
        out.extend(r.letter_ranges[letter])
    out.append(-1 if r.unbalanced_letter is None else r.unbalanced_letter)
    out.extend(r.witness or (-1, -1, -1, -1))
    return out


def _verdict_record(m: int, n: int) -> list[int]:
    v = delta_block_scan(m, n)
    assert v.value_set is None
    return [list(BalanceStatus).index(v.status), v.horizon, *(v.witness or (-1,) * 4)]


def _exact_pairs() -> list[tuple[int, int]]:
    """Seeded pairs, some with nu/mu past 16 (of both routes, the sorted
    event keys and the cover table), every split mu + nu = F_k - 2 ... F_k
    + 1 (k = 4..26, so q = F_K at both parities of K) at a seeded mu, and
    pairs near 10**6."""
    rng = random.Random(1414)
    pairs = [(rng.randint(1, 3000), rng.randint(1, 3000)) for _ in range(150)]
    pairs += [(rng.randint(1, 400), rng.randint(16 * 400, 200_000)) for _ in range(60)]
    for k in range(4, 27):
        for size in range(fibonacci(k) - 2, fibonacci(k) + 2):
            half = max(1, size // 2)
            mu = rng.randint(1, half)
            pairs += [(mu, size - mu), (half, size - half)]
    pairs += [(250_000, 250_001), (10**6, 10**6 + 1), (999_999, 10**6 + 3), (3000, 10**6)]
    pairs += [(rng.randint(800_000, 10**6), rng.randint(800_000, 10**6)) for _ in range(4)]
    pairs += [(rng.randint(1, 60_000), rng.randint(900_000, 10**6)) for _ in range(4)]
    return pairs


def _dense_pairs() -> list[tuple[int, int]]:
    """Every size F_k - 2 ... F_k + 1 for k = 28..34 split at the middle, so
    the dense verdict's q runs from F_29 to F_35 at both parities of K, and
    the square (3*10**6, 3*10**6)."""
    sizes = [size for k in range(28, 35) for size in range(fibonacci(k) - 2, fibonacci(k) + 2)]
    return [(size // 2, size - size // 2) for size in sizes] + [(3 * 10**6, 3 * 10**6)]


def _balanced_pairs() -> list[tuple[int, int]]:
    """Pairs that the digit rule calls balanced: the four balanced
    constructions of the fib_exact_large benchmark, each drawn twice, at its
    top of 10**6 on F_30 and nine indices up at 10**8 on F_39; (F_a, F_b)
    with b - a even and (F_a, F_a + F_b), a <= b <= 40, including mu = 0
    and mu = 1."""
    rng = random.Random(1616)
    pairs = []
    for top, k in ((10**6, 30), (10**8, 39)):
        f = fibonacci(k)
        g, h, e = fibonacci(k - 4), fibonacci(k - 5), fibonacci(k - 6)
        for _ in range(2):
            pairs.append((rng.randint(f * 18 // 25, f - 1), f))  # max is F_k
            pairs.append((f, rng.randint(f + 1, top)))  # F_k in n
            pairs.append((rng.randint(g // 2, g - 1), f + g))  # below F_{k-4}
            pairs.append((h + rng.randint(0, e - 1), f + h))  # F_{k-5} leads m, ends n
    for a in range(41):
        pairs += [(fibonacci(a), fibonacci(b)) for b in range(a, 41, 2)]
        pairs += [(fibonacci(a), fibonacci(a) + fibonacci(b)) for b in range(a + 2, 41, 3)]
    assert all(zeck_characterization(m, n) for m, n in pairs)
    return pairs


def _exact_records(pairs: list[tuple[int, int]]) -> list[int]:
    out = []
    for m, n in pairs:
        v = exact_balance(m, n)
        out += [m, n, list(BalanceStatus).index(v.status), len(v.value_set), *v.value_set]
        out.extend(v.witness or (-1,) * 4)
    return out


def _rectangle_records() -> list[int]:
    words = [word(kind) for kind in SequenceKind] + [sturmian_a_word()]
    rng = random.Random(2024)
    out = []
    for q in range(300):
        w = rng.choice(words)
        i, m, n = rng.randrange(5000), rng.randrange(40), rng.randrange(40)
        if q % 10 == 0:
            m = 0
        elif q % 10 == 1:
            n = 0
        counts = word_letter_counts(w, i, m, n)
        out.extend(counts[c] for c in w.alphabet)
        out.append(word_rect_sum(w, i, m, n))
    return out


def _decode_text(decode) -> str:
    """One line per binary string of length <= 10, and per a few non-binary
    ones: its value or the text of its rejection."""
    lines = []
    strings = [format(v, f"0{k}b") if k else "" for k in range(11) for v in range(2**k)]
    for digits in strings + ["2", "1021", "1 0"]:
        try:
            lines.append(f"{digits}:{decode(digits)}")
        except InvalidRepresentation as err:
            lines.append(f"{digits}!{err}")
    return "\n".join(lines)


def _text_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _numeration_values() -> list[int]:
    """0, F_j - 1, F_j and F_j + 1 for 2 <= j <= 100, and seeded values below 10**30."""
    rng = random.Random(1212)
    values = [0]
    for j in range(2, 101):
        values += [fibonacci(j) - 1, fibonacci(j), fibonacci(j) + 1]
    return values + [rng.randrange(10**30) for _ in range(300)]


def _numeration_pairs() -> list[tuple[int, int]]:
    """(0, 0); each value against 0, itself and a seeded partner from the
    list, in both orders; and seeded pairs below 10**30."""
    rng = random.Random(1213)
    values = _numeration_values()
    pairs = [(0, 0)]
    for v in values:
        w = rng.choice(values)
        pairs += [(0, v), (v, 0), (v, v), (v, w), (w, v)]
    return pairs + [(rng.randrange(10**30), rng.randrange(10**30)) for _ in range(300)]


def _negabin_values() -> list[int]:
    """-64 ... 64, and seeded values in [-10**30, 10**30]."""
    rng = random.Random(1214)
    return list(range(-64, 65)) + [rng.randint(-(10**30), 10**30) for _ in range(300)]


def _value_text(encode, values=None) -> str:
    """One line per value (default: of _numeration_values): what encode
    returns, or the name of the error it raises."""
    lines = []
    for v in _numeration_values() if values is None else values:
        try:
            lines.append(f"{v}:{encode(v)!r}")
        except EmptyExpansion:
            lines.append(f"{v}!EmptyExpansion")
    return "\n".join(lines)


def _inconsistency(max_len: int, depth: int) -> str:
    try:
        infer_min_dfa(build_sample_table(max_len), depth)
    except InconsistentSample as err:
        return str(err)
    raise AssertionError(f"the sample ({max_len}, {depth}) replayed")


def outputs() -> dict[str, str]:
    return {
        "t_value_vector(7, 11, 10**5)": _digest(t_value_vector(7, 11, 10**5)),
        "excess_vector(5, 7, 10**5)": _digest(excess_vector(5, 7, 10**5)),
        "excess_vector(1000, 1000, 10**5)": _digest(excess_vector(1000, 1000, 10**5)),
        "two_balance_scan(2, 5, 10**5)": _digest(_scan_record(2, 5)),
        "two_balance_scan(3, 4, 10**5)": _digest(_scan_record(3, 4)),
        "two_balance_scan fields over SCAN_SHAPES at 4*10**6": _digest(
            [x for m, n in SCAN_SHAPES for x in _scan_fields(m, n, 4 * 10**6)]
        ),
        "two_balance_scan fields of (2048, 2048)": _digest(_scan_fields(2048, 2048, 10**6)),
        "excess_profile (min_s, max_s) over PROFILE_SHAPES at 4*10**6 and of (20000, 20001)": _digest(
            [
                (p.min_s, p.max_s)
                for p in [excess_profile(m, n, 4 * 10**6) for m, n in PROFILE_SHAPES]
                + [excess_profile(20000, 20001)]
            ]
        ),
        "delta_block_scan(4, 4)": _digest(_verdict_record(4, 4)),
        "delta_block_scan(4, 18)": _digest(_verdict_record(4, 18)),
        "word_letter_counts/word_rect_sum x300": _digest(_rectangle_records()),
        "exact_balance over seeded, Fibonacci-sized and 10**6 pairs": _digest(_exact_records(_exact_pairs())),
        "exact_balance over far sparse pairs": _digest(_exact_records(far_sparse_pairs())),
        "exact_balance over dense pairs to q = F_35": _digest(_exact_records(_dense_pairs())),
        "exact_balance over balanced pairs at 10**6, 10**8 and Fibonacci sizes": _digest(
            _exact_records(_balanced_pairs())
        ),
        "balance_table(1000).tobytes()": hashlib.sha256(balance_table(1000).tobytes()).hexdigest(),
        "zeck_decode over binary strings to length 10": _text_digest(_decode_text(zeck_decode)),
        "trib_decode over binary strings to length 10": _text_digest(_decode_text(trib_decode)),
        "negabin_decode over binary strings to length 10": _text_digest(_decode_text(negabin_decode)),
        "pair_encode over seeded pairs to 10**30": _text_digest(
            "\n".join(f"{m},{n}:{pair_encode(m, n)!r}" for m, n in _numeration_pairs())
        ),
        "fib_index_list over seeded values to 10**30": _text_digest(_value_text(fib_index_list)),
        "zeck_encode over seeded values to 10**30": _text_digest(_value_text(zeck_encode)),
        "zeck_shift over seeded values to 10**30": _text_digest(_value_text(zeck_shift)),
        "trib_encode over seeded values to 10**30": _text_digest(_value_text(trib_encode)),
        "negabin_encode over seeded values in [-10**30, 10**30]": _text_digest(
            _value_text(negabin_encode, _negabin_values())
        ),
        **{
            f"dfa_to_text(infer_min_dfa(build_sample_table({n}), {d}))": _text_digest(
                dfa_to_text(infer_min_dfa(build_sample_table(n), d))
            )
            for n, d in INFERRED
        },
        **{
            f"InconsistentSample of infer_min_dfa(build_sample_table({n}), {d})": _text_digest(
                _inconsistency(n, d)
            )
            for n, d in INCONSISTENT
        },
        **{
            f"row_value_bounds({mu}, 10_000)": _digest(np.concatenate(row_value_bounds(mu, 10_000)))
            for mu in ROWS
        },
    }


def cli_outputs(tmp) -> dict[str, str]:
    """Digest of stdout, followed by the --out file when there is one."""
    out = {}
    for example in CLI_GOLDEN:
        argv = example.format(tmp=tmp).split()
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(argv) == 0, example
        data = buf.getvalue().encode()
        if "--out" in argv:
            with open(argv[argv.index("--out") + 1], "rb") as handle:
                data += handle.read()
        out[example] = hashlib.sha256(data).hexdigest()
    return out


def test_golden_outputs():
    assert outputs() == GOLDEN


def test_golden_cli_examples(tmp_path):
    assert cli_outputs(tmp_path) == CLI_GOLDEN
