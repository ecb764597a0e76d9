import json

import pytest

from rectbal.cli import main
from rectbal.fib_scalar import t_value
from rectbal.limits import BudgetExceeded
from oracles import sweep_csv


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_fib_bal_balanced(capsys):
    code, out = run_cli(capsys, "fib", "bal", "--m", "4", "--n", "18")
    assert code == 0
    assert "status: balanced" in out
    assert "method: exact" in out


def test_fib_bal_unbalanced_with_witness(capsys):
    code, out = run_cli(capsys, "fib", "bal", "--m", "4", "--n", "4")
    assert code == 0
    assert "status: unbalanced" in out
    assert "values: 5 6 7" in out
    assert "witness: " in out


def test_fib_bal_balanced_past_every_table(capsys, budget):
    budget(10**7)
    # (F_140, F_140 + F_145): the arc verdict builds no table
    m, n = 81055900096023504197206408605, 979979607104503493471497258750
    t0 = t_value(0, m, n)
    code, out = run_cli(capsys, "fib", "bal", "--m", str(m), "--n", str(n))
    assert (code, out) == (0, f"status: balanced\nmethod: exact\nvalues: {t0} {t0 + 1}\n")
    # an unbalanced pair still holds its cover table to the budget
    assert main(["fib", "bal", "--m", "30000000000", "--n", "20000000000"]) == 1
    err = capsys.readouterr().err
    assert err == "rectbal: 39088169 table entries requested, budget is 10000000\n"


def test_fib_bal_answers_past_the_sorted_keys_frontier(capsys, budget):
    budget(10**7)
    # (F_48 + 1, 7), one past the int64 frontier of the sorted event keys: its
    # cover table of 9,227,465 entries fits the default budget
    m, n = 4807526977, 7
    code, out = run_cli(capsys, "fib", "bal", "--m", str(m), "--n", str(n))
    assert code == 0 and out.splitlines()[0] == "status: unbalanced"
    assert out.splitlines()[-1] == "witness: 0,7778742043,12854183323,12854183325"
    assert (t_value(0, m, n), t_value(7778742043, m, n)) == (12854183323, 12854183325)
    # under a budget below that table it sorts its 14 event keys, which stop there
    assert main(["--budget", "5000000", "fib", "bal", "--m", str(m), "--n", str(n)]) == 1
    err = capsys.readouterr().err
    assert err == "rectbal: q = 7778742049 for index bound 4807526984; int64 keys hold q <= 4807526976\n"
    # a pair whose table passes the budget, with fewer keys, still answers
    # by the sorted keys and reads its witness in i order
    assert run_cli(capsys, "--budget", "1000", "fib", "bal", "--m", "400", "--n", "100000") == (
        0,
        "status: unbalanced\nmethod: exact\nvalues: 15278639 15278640 15278641 15278642\n"
        "witness: 0,114,15278639,15278642\n",
    )


def test_fib_bal_scan_and_zeck(capsys):
    code, out = run_cli(
        capsys, "fib", "bal", "--m", "4", "--n", "3", "--method", "scan",
        "--horizon", "2000",
    )
    assert code == 0
    assert "unknown-up-to-horizon" in out
    assert "horizon: 2000" in out
    code, out = run_cli(capsys, "fib", "bal", "--m", "4", "--n", "18", "--method", "zeck")
    assert code == 0
    assert "status: balanced" in out


def test_fib_sweep_deterministic(capsys, tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["fib", "sweep", "--max", "12", "--out", str(out1)]) == 0
    assert main(["fib", "sweep", "--max", "12", "--out", str(out2)]) == 0
    text = out1.read_text()
    assert text == out2.read_text()
    assert text.splitlines()[0] == "m,n,balanced,value_set,method"
    assert "4,4,false,5|6|7,exact" in text


def test_fib_sweep_matches_the_template_writer(tmp_path):
    # past --max 40 the values pass 10**3 at 137 and 10**4 at 233, where the
    # run's numbers gain a digit
    out = tmp_path / "sweep.csv"
    for limit in [*range(41), 137, 233]:
        assert main(["fib", "sweep", "--max", str(limit), "--out", str(out)]) == 0
        assert out.read_bytes() == sweep_csv(limit).encode("ascii"), limit


def test_fib_sweep_budget(capsys, tmp_path, budget):
    # every row reads the last row's tables, the largest: q = 610 > 2*200
    assert main(["--budget", "300", "fib", "sweep", "--max", "200"]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "rectbal: 610 table entries requested, budget is 300\n")
    assert main(["--budget", "1000", "fib", "sweep", "--max", "200"]) == 0
    capsys.readouterr()
    # so a budget stops the sweep where it stops some row of the writer
    # that builds each row's own tables
    out = tmp_path / "sweep.csv"
    for limit in range(0, 41, 3):
        for size in (1, 2, 3, 4, 7, 8, 9, 12, 13, 14, 20, 21, 22, 33, 34, 35, 54, 55, 56, 88, 89, 90):
            budget(size)
            try:
                expected = sweep_csv(limit).encode("ascii")
            except BudgetExceeded:
                expected = None
            argv = ["--budget", str(size), "fib", "sweep", "--max", str(limit), "--out", str(out)]
            code = main(argv)
            assert code == (1 if expected is None else 0), (limit, size)
            # every limit is checked before the file is opened
            assert (out.read_bytes() if code == 0 else out.exists()) == (expected or False)
            out.unlink(missing_ok=True)
    assert not capsys.readouterr().out


def test_fib_diverse(capsys):
    code, out = run_cli(capsys, "fib", "diverse", "--k", "1")
    assert code == 0
    assert "PASS" in out


def test_trib_list2(capsys):
    code, out = run_cli(capsys, "trib", "list2", "--limit", "4", "--horizon", "100000")
    assert code == 0
    assert out.strip() == "1 2 3 4"


def test_trib_bal2_reports_horizon(capsys):
    code, out = run_cli(
        capsys, "trib", "bal2", "--m", "2", "--n", "5", "--horizon", "200000"
    )
    assert code == 0
    assert "unbalanced" in out
    assert "horizon: 200000" in out


def test_trib_corner_json(capsys):
    code, out = run_cli(capsys, "trib", "corner", "--p", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["p"] == 1
    assert payload["counts"]["i"] - payload["counts"]["j"] == 1


def test_tm_excess_and_profile(capsys):
    code, out = run_cli(capsys, "tm", "excess", "--i", "0", "--m", "1", "--n", "1")
    assert code == 0 and out.strip() == "-1"
    code, out = run_cli(capsys, "tm", "excess", "--i", "0", "--m", "0", "--n", "0")
    assert code == 0 and out == "0\n"
    code, out = run_cli(
        capsys, "tm", "profile", "--m", "3", "--n", "3", "--horizon", "100000"
    )
    assert code == 0
    assert "balance: 3" in out


def test_tm_profile_default_horizon_within_budget(capsys):
    code, out = run_cli(capsys, "tm", "profile", "--m", "1000", "--n", "1000")
    assert code == 0
    fields = dict(line.split(": ") for line in out.splitlines())
    assert int(fields["horizon"]) <= 9_998_000


def test_negative_inputs_exit_1(capsys):
    for argv, name in [
        (["tm", "excess", "--i", "-1", "--m", "3", "--n", "3"], "i"),
        (["fib", "bal", "--m", "-3", "--n", "5", "--method", "zeck"], "m"),
        (["fib", "bal", "--m", "-3", "--n", "5"], "m"),
        (["fib", "sweep", "--max", "-2"], "max"),
        (["fib", "bal", "--m", "0", "--n", "-3", "--method", "scan"], "n"),
        (["tm", "table", "--max", "-3"], "max"),
    ]:
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"rectbal: {name} must be >= 0")


def test_zero_horizon_exit_1(capsys):
    for argv in (
        ["tm", "profile", "--m", "3", "--n", "3", "--horizon", "0"],
        ["trib", "bal2", "--m", "2", "--n", "3", "--horizon", "0"],
        ["trib", "list2", "--limit", "0", "--horizon", "0"],
        ["fib", "bal", "--m", "3", "--n", "4", "--method", "scan", "--horizon", "0"],
    ):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "rectbal: horizon must be >= 1, got 0\n"


def test_tm_table(capsys):
    code, out = run_cli(capsys, "tm", "table", "--max", "3", "--horizon", "20000")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "m,n,min_s,max_s,balance,horizon"
    assert len(lines) == 1 + 6  # pairs with 1 <= m <= n <= 3


def test_num_encode_decode(capsys):
    code, out = run_cli(capsys, "num", "encode", "--system", "zeck", "18")
    assert code == 0 and out.strip() == "101000"
    code, out = run_cli(capsys, "num", "decode", "--system", "zeck", "101000")
    assert code == 0 and out.strip() == "18"
    code, out = run_cli(capsys, "num", "encode", "--system", "neg2", "-1")
    assert code == 0 and out.strip() == "11"
    code, out = run_cli(capsys, "num", "encode", "--system", "trib", "5")
    assert code == 0 and out.strip() == "101"
    code, out = run_cli(capsys, "num", "encode", "--system", "zeck", "0")
    assert code == 0 and out.strip() == "0"


def test_word_dump(capsys):
    code, out = run_cli(capsys, "word", "dump", "--kind", "fib", "--limit", "8")
    assert code == 0 and out.strip() == "01001010"
    code, out = run_cli(capsys, "word", "dump", "--kind", "tm", "--limit", "8")
    assert code == 0 and out.strip() == "01101001"


def test_word_dump_rejects_negative_limit(capsys):
    assert main(["word", "dump", "--kind", "trib", "--limit", "-5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "limit must be >= 0, got -5" in captured.err


def test_dfa_infer_and_run(capsys, tmp_path):
    path = tmp_path / "bal.dfa"
    code, _ = run_cli(
        capsys, "dfa", "infer", "--max-len", "8", "--depth", "6", "--out", str(path)
    )
    assert code == 0
    code, out = run_cli(capsys, "dfa", "run", "--file", str(path), "--pair", "4", "18")
    assert code == 0
    assert "[0,1][0,0][0,1][1,0][0,0][1,0] -> accept" in out
    code, out = run_cli(capsys, "dfa", "run", "--file", str(path), "--pair", "4", "4")
    assert code == 0
    assert "reject" in out


def test_dfa_infer_errors_exit_1(capsys):
    for argv, err in [
        (["--max-len", "8", "--depth", "1"], "rectbal: replay mismatch on ["),
        (["--max-len", "8", "--depth", "2"], "rectbal: replay mismatch on ["),
        (["--max-len", "8", "--depth", "0"], "rectbal: distinguish_depth must be >= 1, got 0\n"),
        (["--max-len", "8", "--depth", "-2"], "rectbal: distinguish_depth must be >= 1, got -2\n"),
        (["--max-len", "-1", "--depth", "1"], "rectbal: max_len must be >= 0, got -1\n"),
    ]:
        assert main(["dfa", "infer", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(err)


def test_dfa_run_rejects_bad_files(capsys, tmp_path):
    empty = tmp_path / "empty.dfa"
    empty.write_text("")
    far = tmp_path / "far.dfa"
    far.write_text("states 2\nstart 0\naccepting 1\n0 [0,1] -> 7\n")
    for path, err in [
        (empty, "rectbal: automaton text has 0 of its 3 header lines\n"),
        (tmp_path / "missing.dfa", "rectbal: [Errno 2] No such file or directory: "),
        (far, "rectbal: state outside range(2): '0 [0,1] -> 7'\n"),
    ]:
        assert main(["dfa", "run", "--file", str(path), "--pair", "4", "18"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(err)


def test_dfa_run_names_the_negative_argument(capsys, tmp_path):
    path = tmp_path / "toy.dfa"
    path.write_text("states 1\nstart 0\naccepting 0\n")
    assert main(["dfa", "run", "--file", str(path), "--pair", "-1", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "rectbal: m must be >= 0, got -1\n"


def test_search_limit_and_budget_errors_exit_1(capsys, budget):
    for argv, err in [
        (["trib", "corner", "--p", "54", "--search-limit", "100"],
         "rectbal: no corner witness for p=54 within 100 symbols\n"),
        (["--budget", "1000", "fib", "bal", "--m", "1000000", "--n", "1000001"],
         "rectbal: 46368 table entries requested, budget is 1000\n"),
    ]:
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["fib", "bal", "--m", "4"])  # missing --n
    assert err.value.code == 2


def test_budget_flag_limits_generation(capsys):
    from rectbal import limits

    old = limits.BUDGET
    try:
        code = main(
            ["--budget", "1000", "word", "dump", "--kind", "fib",
             "--limit", "9999999"]
        )
        assert code == 1
        assert "budget" in capsys.readouterr().err
    finally:
        limits.set_budget(old)


def test_budget_below_the_horizon_lists_the_same_two_row_shapes(capsys, budget):
    # each scan reads only to its cover bound, not the default horizon of 10^6
    code, default = run_cli(capsys, "trib", "list2", "--limit", "48")
    assert code == 0
    code, small = run_cli(capsys, "--budget", "100000", "trib", "list2", "--limit", "48")
    assert (code, small) == (0, default)
    # B(4095) + 4094 = 76621 symbols
    shape = ["trib", "bal2", "--m", "2048", "--n", "2048"]
    code, default = run_cli(capsys, *shape)
    assert code == 0
    code, small = run_cli(capsys, "--budget", "200000", *shape)
    assert (code, small) == (0, default)
