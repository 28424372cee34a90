"""Property tests for exact sparse row reduction."""

import sympy
from hypothesis import given, settings, strategies as st

from homforge.linalg import RowSpace
from homforge.rationals import rat

COLUMNS = 6
entries = st.builds(rat, st.integers(-3, 3), st.integers(1, 3))
sparse_rows = st.dictionaries(st.integers(0, COLUMNS - 1), entries, max_size=4)


@settings(max_examples=100, deadline=None)
@given(st.lists(sparse_rows, min_size=1, max_size=8), st.lists(sparse_rows, max_size=4))
def test_rowspace_rank_and_residuals(rows, probes):
    space = RowSpace()
    space.add_all(rows)
    dense = sympy.Matrix(
        [[sympy.Rational(str(row.get(k, 0))) for k in range(COLUMNS)] for row in rows]
    )
    assert space.rank == dense.rank()
    for probe in rows + probes:
        res = space.reduce(probe)
        assert not set(res) & set(space.pivots())
        assert space.reduce(res) == res
