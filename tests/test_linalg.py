"""Property tests for exact sparse row reduction."""

import math
from fractions import Fraction

import sympy
from hypothesis import example, given, settings, strategies as st

from homforge.expr import parse_poly
from homforge.hombialg import FreeHomAssocQuotient, check_antipode
from homforge import linalg
from homforge.linalg import RowSpace
from homforge.rationals import rat

COLUMNS = 6
entries = st.builds(rat, st.integers(-3, 3), st.integers(1, 3))
sparse_rows = st.dictionaries(st.integers(0, COLUMNS - 1), entries, max_size=4)


@settings(max_examples=100, deadline=None)
@given(st.lists(sparse_rows, min_size=1, max_size=8), st.lists(sparse_rows, max_size=4))
def test_rowspace_rank_and_residuals(rows, probes):
    space = RowSpace()
    for row in rows:
        space.add(row)
    dense = sympy.Matrix(
        [[sympy.Rational(str(row.get(k, 0))) for k in range(COLUMNS)] for row in rows]
    )
    assert space.rank == dense.rank()
    for probe in rows + probes:
        res = space.reduce(probe)
        assert not set(res) & set(space.rows)
        assert space.reduce(res) == res


binomial_rows = (
    st.tuples(st.integers(0, COLUMNS - 1), st.integers(0, COLUMNS - 1))
    .filter(lambda mm: mm[0] != mm[1])
    .map(lambda mm: {mm[0]: rat(1), mm[1]: rat(-1)})
)


def _check_invariants(space):
    """Stored rows are primitive int rows with a positive pivot at their
    largest column, no row holds another pivot, and the column index is
    exactly the column -> rows map of the stored rows."""
    holders = {}
    for piv, row in space.rows.items():
        assert all(type(c) is int and c != 0 for c in row.values())
        assert math.gcd(*row.values()) == 1
        assert row[piv] > 0 and max(row) == piv
        assert not (set(row) - {piv}) & set(space.rows)
        for k in row:
            if k != piv:
                holders.setdefault(k, set()).add(piv)
    assert space._holders == holders


@settings(max_examples=150, deadline=None)
@given(
    st.permutations(range(COLUMNS)),
    st.lists(st.one_of(sparse_rows, binomial_rows), min_size=1, max_size=10),
    st.lists(st.one_of(sparse_rows, binomial_rows), max_size=4),
)
# the second row cancels both non-pivot entries of the first
@example(list(range(COLUMNS)), [{2: rat(1), 1: rat(1), 0: rat(1)}, {1: rat(1), 0: rat(1)}], [])
def test_rowspace_matches_sympy_rref(order, rows, probes):
    """Stored rows, each divided by its pivot, and residuals agree with
    sympy's reduced echelon form, taken with the columns sorted by
    decreasing rank (the pivot is the column of maximal rank). The rows
    enter the space with each column relabelled as its rank, and leave it
    with the labels restored."""
    rank_of = {k: r for r, k in enumerate(order)}
    space = RowSpace()
    for row in rows:
        space.add(_relabel(row, rank_of))
        _check_invariants(space)
    echelon = _sympy_echelon(rows, sorted(range(COLUMNS), key=rank_of.__getitem__, reverse=True))
    assert {order[p]: {order[r]: sympy.Rational(c, row[p]) for r, c in row.items()}
            for p, row in space.rows.items()} == echelon
    for probe in rows + probes:
        res = space.reduce(_relabel(probe, rank_of))
        got = {order[r]: sympy.Rational(str(c)) for r, c in res.items()}
        assert got == _sympy_residual(echelon, probe)


def _relabel(row, rank_of):
    return {rank_of[k]: c for k, c in row.items()}


def _sympy_echelon(rows, cols):
    """sympy's reduced echelon form of rows over the column order cols, as
    {pivot column: {column: entry}}."""
    if not rows:
        return {}
    dense = sympy.Matrix(
        [[sympy.Rational(str(row.get(k, 0))) for k in cols] for row in rows]
    )
    rref, pivot_positions = dense.rref()
    return {
        cols[p]: {cols[j]: rref[i, j] for j in range(len(cols)) if rref[i, j] != 0}
        for i, p in enumerate(pivot_positions)
    }


def _sympy_residual(echelon, probe):
    want = {k: sympy.Rational(str(c)) for k, c in probe.items()}
    for p, erow in echelon.items():
        c = want.get(p, 0)
        for k, e in erow.items():
            want[k] = want.get(k, 0) - c * e
    return {k: c for k, c in want.items() if c != 0}


fractional_rows = st.dictionaries(
    st.integers(0, COLUMNS - 1), st.builds(rat, st.integers(-7, 7), st.integers(1, 12)),
    min_size=1, max_size=COLUMNS,
)


@settings(max_examples=150, deadline=None)
@given(st.permutations(range(COLUMNS)), st.lists(fractional_rows, min_size=1, max_size=8))
def test_add_returns_the_exact_rational_residual(order, rows):
    """add clears denominators and eliminates in integers, yet returns each
    row's exact residual against the rows before it, as sympy computes it."""
    rank_of = {k: r for r, k in enumerate(order)}
    cols = sorted(range(COLUMNS), key=rank_of.__getitem__, reverse=True)
    space = RowSpace()
    for i, row in enumerate(rows):
        res = space.add(_relabel(row, rank_of))
        _assert_exact(res)
        got = {order[r]: sympy.Rational(str(c)) for r, c in res.items()}
        assert got == _sympy_residual(_sympy_echelon(rows[:i], cols), row)
        _check_invariants(space)


def _assert_exact(row):
    """No float, and every integral entry an int."""
    for c in row.values():
        assert not isinstance(c, float)
        assert type(c) is int or Fraction(c).denominator != 1


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.one_of(sparse_rows, binomial_rows), min_size=1, max_size=10),
    st.lists(st.one_of(sparse_rows, binomial_rows), max_size=4),
)
def test_rowspace_keeps_integral_coefficients_as_ints(rows, probes):
    space = RowSpace()
    for row in rows:
        _assert_exact(space.add(row))
        for stored in space.rows.values():
            _assert_exact(stored)
    for probe in probes:
        _assert_exact(space.reduce(probe))


def test_binomial_component_rows_are_ints(monkeypatch):
    """The antipode quotient's Hom-associativity rows are +-1 binomials, so
    their echelon form stays on int arithmetic with pivots 1, and is built
    with no gcd, lcm or scaling: the components that the antipode check of
    (a*b)*(c*d) reduces in."""
    def forbidden(*args):
        raise AssertionError(f"gcd/lcm called on a pivot-1 row: {args}")

    monkeypatch.setattr(linalg, "gcd", forbidden)
    monkeypatch.setattr(linalg, "lcm", forbidden)
    q = FreeHomAssocQuotient(("a", "b", "c", "d"), 4, 8)
    assert check_antipode(parse_poly("(a*b)*(c*d)").sorted_terms()[0][0], quotient=q).ok
    # the defect meets 8 orderings of a, b, c, d, each at phi 4 on every
    # leaf, so they share the shapes of one phi sequence: all 5 shapes of 4
    # leaves are trees there, joined by rotations into one class
    comps = list(q._components.values())
    assert [(len(c.monomials), c.rank) for c in comps] == [(5, 4)] * 8
    (shapes,) = q._shapes.values()
    assert all(type(c) is int for row in shapes.space.rows.values() for c in row.values())
    assert all(row[p] == 1 for p, row in shapes.space.rows.items())


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.dictionaries(st.sampled_from("pqrstu"), entries, max_size=4), max_size=8),
    st.permutations("pqrstu"),
)
def test_kernel_spans_the_null_space(vectors, order):
    """kernel, on string columns under a random injective key, returns as
    many tuples as the nullity sympy finds, each a combination of the
    vectors that vanishes, and the tuples are independent."""
    rank_of = {k: r for r, k in enumerate(order)}
    got = linalg.kernel(vectors, rank_of.__getitem__)
    dense = sympy.Matrix([[sympy.Rational(str(v.get(k, 0))) for k in order] for v in vectors])
    assert len(got) == len(vectors) - dense.rank()
    for combo in got:
        assert len(combo) == len(vectors)
        assert all(sum(c * v.get(k, 0) for c, v in zip(combo, vectors)) == 0 for k in order)
    if got:
        tuples = sympy.Matrix([[sympy.Rational(str(c)) for c in combo] for combo in got])
        assert tuples.rank() == len(got)
