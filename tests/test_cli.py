import json

import pytest

from rectbal.cli import main


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
    assert main(["fib", "sweep", "--max", "12", "--jobs", "2", "--out", str(out2)]) == 0
    text = out1.read_text()
    assert text == out2.read_text()
    assert text.splitlines()[0] == "m,n,balanced,value_set,method"
    assert "4,4,false,5|6|7,exact" in text


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
    ]:
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"rectbal: {name} must be >= 0")


def test_zero_horizon_exit_1(capsys):
    for argv in (
        ["tm", "profile", "--m", "3", "--n", "3", "--horizon", "0"],
        ["trib", "bal2", "--m", "2", "--n", "3", "--horizon", "0"],
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


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["fib", "bal", "--m", "4"])  # missing --n
    assert err.value.code == 2


def test_budget_flag_limits_generation(capsys):
    from rectbal import words as words_mod

    old = words_mod.DEFAULT_BUDGET
    try:
        code = main(
            ["--budget", "1000", "word", "dump", "--kind", "fib",
             "--limit", "9999999"]
        )
        assert code == 1
        assert "budget" in capsys.readouterr().err
    finally:
        words_mod.set_budget(old)
