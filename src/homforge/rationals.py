"""Exact rational scalars.

Uses gmpy2.mpq when available (much faster), falling back to
fractions.Fraction. Everything downstream goes through rat() so the two
backends are interchangeable.
"""

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
