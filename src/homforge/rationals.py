"""Exact rational scalars.

An integral value is a Python int; any other value is a gmpy2.mpq when
gmpy2 is available (much faster), else a fractions.Fraction. Everything
downstream builds scalars through rat() and inverts them through inverse(),
the one true division in the package, since int / int would be a float.
Sums and products of ints stay ints, so integral tables, twists and
relations run on int arithmetic through the same kernels.
"""

import re

try:
    from gmpy2 import mpq as _Q

    _BACKEND = "gmpy2"
except ImportError:  # pragma: no cover
    from fractions import Fraction as _Q

    _BACKEND = "fractions"


def rat(a, b=None):
    """An exact rational from ints, strings like "-2/3", or rationals: an
    int when the value is integral, a _Q otherwise."""
    if b is not None:
        q = _Q(a, b)
    elif type(a) is int:
        return a
    elif type(a) is _Q:
        q = a
    else:
        q = _Q(a.strip() if isinstance(a, str) else a)
    return int(q) if q.denominator == 1 else q


def inverse(c):
    """The exact inverse 1/c of a nonzero rational, an int when integral."""
    return rat(_Q(1) / c)


ZERO = 0
ONE = 1


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
