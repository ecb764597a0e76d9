"""Golden pins: SHA-256 digests of outputs that a refactor must keep.

Array and record outputs are normalised to little-endian int64 bytes before
hashing, so a change of dtype alone does not move a digest; CLI outputs are
hashed as the bytes written to stdout or to the --out file.  The verdict
table is hashed as its raw boolean bytes.
"""
import contextlib
import hashlib
import io
import random

import numpy as np

from rectbal.cli import main
from rectbal.fib_balance import BalanceStatus, balance_table, delta_block_scan, t_value_vector
from rectbal.rectangles import word_letter_counts, word_rect_sum
from rectbal.tm_balance import excess_vector
from rectbal.trib_balance import two_balance_scan
from rectbal.words import SequenceKind, sturmian_a_word, word

GOLDEN = {
    "t_value_vector(7, 11, 10**5)": "257f1210bd12b43497e7f46a0e997ef1744c8691a120e58a46810f0d5c10fed2",
    "excess_vector(5, 7, 10**5)": "e1b6fc756e74d4e8a42a4de30e71611b6da81e4fc64233cbc359f23927097a44",
    "excess_vector(1000, 1000, 10**5)": "46dece852599a29fc94c7fec44b023acf7efebfac1075203edaddd421cec110a",
    "two_balance_scan(2, 5, 10**5)": "074496e81b1f45791c4a4cc0f2a6c048682ec0447d015a7df4471151af92a029",
    "two_balance_scan(3, 4, 10**5)": "becdc20a769299e3ec2c601be365914d940a557090e5b8a0eba038ce43220240",
    "delta_block_scan(4, 4)": "f1ca291ca2e19da9ee9a5e1aea51734c3141169f2d5efd6adaee15b2f8c0e05b",
    "delta_block_scan(4, 18)": "5721fc610522e263978f9200ff6c804fcbb4b6fa62e6d337ec7ed5129a352662",
    "word_letter_counts/word_rect_sum x300": "c86eb52c9c65ae39cc5b415b231ed82551fd6292b702de5ea96b0f5b9ee17881",
    "balance_table(1000).tobytes()": "57fa75cf1910401b1d0fa68718efd58f0e92e7ec0f98a4a21bfde33b3bcb652a",
}

# README command-line examples; {tmp} is a fresh directory
CLI_GOLDEN = {
    "fib bal --m 4 --n 18": "f9f1da6557cf8dffcb769bfa415e44728d56479030cff9f2bfb56fb08c7993e0",
    "fib bal --m 4 --n 4 --method scan": "d682eca365b21d099f3eda7696fc1f8707004609a45df2d4b4a67b565c5f076c",
    "fib sweep --max 100 --out {tmp}/sweep.csv": "1cc4cc2c6b791b14605cdb293cde84245520f24347172ac7f1c2d7ff21434351",
    "fib diverse --k 2": "a5ebff8a8f1a7974b2803e3ff973a8e477a83a8dba6961142b7b8c34b4201cb0",
    "trib bal2 --m 2 --n 5": "b448c99c39426ff0c2385cc727600a26311aa6f6410d10d769ab631cf7e90cf1",
    "trib list2 --limit 48": "7fffbe5a2d1654ca65d14e5915ad6500624a5a9e1abb6277d278570a6b905f3d",
    "trib corner --p 7": "36ee7d53247a51ced082836da751cc89b594015372c32ac3d615cccbae34a49f",
    "tm excess --i 0 --m 3 --n 3": "1121cfccd5913f0a63fec40a6ffd44ea64f9dc135c66634ba001d10bcf4302a2",
    "tm profile --m 3 --n 3": "8d37666766655691c5668a90ea87b64a5893de35389368943b6c7abc35637236",
    "tm table --max 16 --out {tmp}/classes.csv": "e46c4d9de12d993cb14c5b9e46a3abf04531f64ae124ac8e20223cf22d6d8d43",
    "dfa infer --max-len 12 --depth 10 --out {tmp}/bal.dfa": "e809865a472a8e4bb675a68d8ae7b1177e8d7da05e756c4ddbb8ec772cef77c7",
    "dfa run --file {tmp}/bal.dfa --pair 4 18": "81d512d6a998baffe6bc712140bdae759025f72c8b8b788001f72104c5f186b1",
    "num encode --system zeck 18": "3be4a81b822f3c850ac84e078a0953c47a46e4a618695017147917bcbf93d10d",
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


def _verdict_record(m: int, n: int) -> list[int]:
    v = delta_block_scan(m, n)
    assert v.value_set is None
    return [list(BalanceStatus).index(v.status), v.horizon, *(v.witness or (-1,) * 4)]


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


def outputs() -> dict[str, str]:
    return {
        "t_value_vector(7, 11, 10**5)": _digest(t_value_vector(7, 11, 10**5)),
        "excess_vector(5, 7, 10**5)": _digest(excess_vector(5, 7, 10**5)),
        "excess_vector(1000, 1000, 10**5)": _digest(excess_vector(1000, 1000, 10**5)),
        "two_balance_scan(2, 5, 10**5)": _digest(_scan_record(2, 5)),
        "two_balance_scan(3, 4, 10**5)": _digest(_scan_record(3, 4)),
        "delta_block_scan(4, 4)": _digest(_verdict_record(4, 4)),
        "delta_block_scan(4, 18)": _digest(_verdict_record(4, 18)),
        "word_letter_counts/word_rect_sum x300": _digest(_rectangle_records()),
        "balance_table(1000).tobytes()": hashlib.sha256(balance_table(1000).tobytes()).hexdigest(),
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
