"""Exact scalars: integral values are ints, and the only true division is
in homforge.rationals."""

import ast
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings, strategies as st

from homforge.rationals import _Q, inverse, rat

SRC = Path(__file__).resolve().parents[1] / "src" / "homforge"


@settings(max_examples=300, deadline=None)
@given(st.integers(-50, 50), st.integers(-12, 12).filter(bool))
def test_rat_is_an_int_exactly_when_integral(p, q):
    c = rat(p, q)
    assert c == Fraction(p, q)
    assert (type(c) is int) == (p % q == 0)
    assert type(c) in (int, _Q)
    # every other way in normalizes the same way
    for again in (rat(c), rat(Fraction(p, q)), rat(str(Fraction(p, q)))):
        assert again == c and type(again) is type(c)
    if p:
        inv = inverse(c)
        assert inv == Fraction(q, p)
        assert (type(inv) is int) == (q % p == 0)


def test_true_division_only_in_rationals():
    """int / int is a float, so a / between two coefficients would bring a
    float into exact arithmetic; inverse() is the one place that divides."""
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "rationals.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
                offenders.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert not offenders, "true division outside rationals.py:\n" + "\n".join(offenders)


def test_no_module_imports_random():
    """Every verdict is exact, so nothing in the package draws random samples."""
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "random" for name in names):
                offenders.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert not offenders, "random imported:\n" + "\n".join(offenders)
