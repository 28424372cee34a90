"""Exact rational scalars.

Uses gmpy2.mpq when available (much faster), falling back to
fractions.Fraction. Everything downstream goes through rat() so the two
backends are interchangeable.
"""

import re

try:
    from gmpy2 import mpq as _Q

    _BACKEND = "gmpy2"
except ImportError:  # pragma: no cover
    from fractions import Fraction as _Q

    _BACKEND = "fractions"


def rat(a, b=None):
    """Build an exact rational from ints, strings like "-2/3", or rationals."""
    if b is not None:
        return _Q(a, b)
    if isinstance(a, str):
        return _Q(a.strip())
    return _Q(a)


ZERO = rat(0)
ONE = rat(1)


def rat_str(c) -> str:
    """Render as "p" or "p/q" (the JSON wire format for coefficients)."""
    return str(c)


_RATIONAL = re.compile(r"-?\d+(/0*[1-9]\d*)?")


def rat_from_json(c, error):
    """A coefficient read from JSON: an int or a "p/q" string, never a float.

    Anything else raises `error`, the caller's domain error class.
    """
    if isinstance(c, int) and not isinstance(c, bool):
        return rat(c)
    if isinstance(c, str) and _RATIONAL.fullmatch(c):
        return rat(c)
    raise error(f'coefficient {c!r} is neither an integer nor a "p/q" string')
