"""rectbal: exact balance analysis of word rectangles built from the
Fibonacci, Tribonacci and Thue-Morse words.  Each name is imported from its
module, e.g. ``from rectbal.fib_balance import exact_balance``.

Only ``limits`` is loaded with the package, so a bad RECTBAL_BUDGET fails
``import rectbal``; each other module, and numpy with the ones that use
it, is loaded on its first use, e.g. ``rectbal.fib_balance`` (PEP 562).
"""

from importlib import import_module

from . import limits

__version__ = "0.1.0"

_MODULES = frozenset({
    "cli", "dfa_tools", "exact_quadratic", "fib_balance", "fib_scalar", "numeration",
    "rectangles", "tm_balance", "tm_closed", "trib_balance", "words",
})


def __getattr__(name: str):
    if name in _MODULES:
        return import_module(f"{__name__}.{name}")  # binds it here, so this runs once
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
