"""The package root and the pure-integer commands load no numpy: each case
runs in a fresh interpreter, which reports what it loaded."""
import json
import os
import subprocess
import sys

import pytest

import rectbal

SRC = os.path.dirname(os.path.dirname(rectbal.__file__))


def run_fresh(code: str) -> dict:
    """The JSON that ``code`` prints in a fresh interpreter on these sources."""
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("RECTBAL_BUDGET", None)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_rectbal_loads_only_limits():
    loaded = run_fresh(
        "import json, sys, rectbal\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith(('rectbal', 'numpy')))))"
    )
    assert loaded == ["rectbal", "rectbal.limits"]


PURE_INTEGER = [
    (["num", "encode", "--system", "zeck", "18"], "101000\n"),
    (["num", "decode", "--system", "zeck", "101000"], "18\n"),
    (["num", "encode", "--system", "trib", "18"], "10101\n"),
    (["num", "decode", "--system", "trib", "10011"], "16\n"),
    (["num", "encode", "--system", "neg2", "-18"], "110010\n"),
    (["num", "decode", "--system", "neg2", "110110"], "-14\n"),
    (["tm", "excess", "--i", str(10**30), "--m", "3", "--n", "5"], "-1\n"),
    (["fib", "bal", "--m", "4", "--n", "18", "--method", "zeck"], "status: balanced\nmethod: zeck\n"),
    (["fib", "bal", "--m", "4", "--n", "4", "--method", "zeck"], "status: unbalanced\nmethod: zeck\n"),
]


@pytest.mark.parametrize("argv, out", PURE_INTEGER, ids=[" ".join(argv) for argv, _ in PURE_INTEGER])
def test_pure_integer_commands_load_no_numpy(argv, out):
    result = run_fresh(
        "import contextlib, io, json, sys\n"
        "from rectbal.cli import main\n"
        "text = io.StringIO()\n"
        "with contextlib.redirect_stdout(text):\n"
        f"    code = main({argv!r})\n"
        "print(json.dumps([code, text.getvalue(), 'numpy' in sys.modules]))"
    )
    assert result == [0, out, False]


def test_digit_rule_command_loads_no_dataclasses():
    # the digit rule's status is printed without a BalanceVerdict record
    result = run_fresh(
        "import contextlib, io, json, sys\n"
        "from rectbal.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(['fib', 'bal', '--m', '4', '--n', '18', '--method', 'zeck'])\n"
        "print(json.dumps([code, [name for name in ('numpy', 'dataclasses') if name in sys.modules]]))"
    )
    assert result == [0, []]


def test_pure_integer_errors_load_no_numpy():
    # main's except clause names no class of a numpy module
    result = run_fresh(
        "import contextlib, io, json, sys\n"
        "from rectbal.cli import main\n"
        "text = io.StringIO()\n"
        "with contextlib.redirect_stderr(text):\n"
        "    code = main(['num', 'decode', '--system', 'zeck', '11'])\n"
        "print(json.dumps([code, text.getvalue(), 'numpy' in sys.modules]))"
    )
    assert result == [1, "rectbal: adjacent 1 digits: '11'\n", False]


def test_modules_load_on_first_use():
    result = run_fresh(
        "import json, sys, rectbal\n"
        "verdict = rectbal.fib_balance.exact_balance(4, 18)\n"
        "try:\n"
        "    rectbal.no_such_module\n"
        "    missing = None\n"
        "except AttributeError as err:\n"
        "    missing = str(err)\n"
        "print(json.dumps([verdict.balanced, verdict.value_set, 'numpy' in sys.modules, missing,\n"
        "    rectbal.fib_balance.zeck_characterization is rectbal.fib_scalar.zeck_characterization,\n"
        "    rectbal.tm_balance.excess is rectbal.tm_closed.excess,\n"
        "    [hasattr(rectbal.words, name) for name in ('BUDGET', 'set_budget', 'BudgetExceeded')]]))"
    )
    # the budget has one home: words holds no copy to go stale
    assert result == [
        True, [27, 28], True, "module 'rectbal' has no attribute 'no_such_module'", True, True,
        [False, False, False],
    ]
