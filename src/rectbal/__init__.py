"""rectbal: exact balance analysis of word rectangles built from the
Fibonacci, Tribonacci and Thue-Morse words.  Each name is imported from its
module, e.g. ``from rectbal.fib_balance import exact_balance``."""

from . import dfa_tools, exact_quadratic, fib_balance, numeration, rectangles, tm_balance, trib_balance, words

__version__ = "0.1.0"
