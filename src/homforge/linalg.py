"""Exact rational row reduction over sparse dict-keyed rows.

Rows are dicts mapping arbitrary hashable column keys to rational
coefficients. A RowSpace keeps an echelonized basis (one pivot per row,
pivots eliminated everywhere else), which is all the kernel/membership
machinery the bounded quotients need. Every coefficient it stores or
returns is normalized by rat(): an integral one is an int, so integral
rows (binomial relations above all) stay on int arithmetic.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Iterable, List, Optional, Set, Tuple

from .rationals import inverse, rat

Row = Dict[Hashable, object]


class RowSpace:
    """Span of sparse rows with incremental reduction.

    key orders columns; the pivot of a row is its maximal column under key.
    """

    def __init__(self, key: Optional[Callable] = None):
        self.key = key
        self.rows: Dict[Hashable, Row] = {}  # pivot -> normalized row
        # column -> pivots of the stored rows holding it, pivot columns
        # excluded; kept exact so add touches only the rows it must change
        self._holders: Dict[Hashable, Set[Hashable]] = {}

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, row: Row) -> Row:
        """Reduce row against the span; returns the residual (a new dict).

        One pass suffices: a stored row holds no other row's pivot, so
        subtracting it brings in no pivot and changes no other pivot's
        coefficient.
        """
        out = {k: rat(c) for k, c in row.items() if c != 0}
        for piv in [k for k in out if k in self.rows]:
            c = out[piv]
            for k, bc in self.rows[piv].items():
                s = out.get(k, 0) - c * bc
                if s == 0:
                    out.pop(k, None)
                else:
                    out[k] = s if type(s) is int else rat(s)
        return out

    def add(self, row: Row) -> Row:
        """Insert a row; returns the residual (zero dict if dependent)."""
        res = self.reduce(row)
        if not res:
            return res
        piv = max(res, key=self.key) if self.key else max(res)
        p = res[piv]
        if p == 1:
            norm = dict(res)
        elif p == -1:
            norm = {k: -c for k, c in res.items()}
        else:
            inv = inverse(p)
            norm = {k: rat(c * inv) for k, c in res.items()}
        holders = self._holders
        touched = holders.pop(piv, ())
        for k in norm:
            if k != piv:
                holders.setdefault(k, set()).add(piv)
        # eliminate the new pivot from the stored rows that hold it; every
        # other column they gain or lose is a column of the new row
        for other_piv in touched:
            other = self.rows[other_piv]
            c = other[piv]
            for k, bc in norm.items():
                s = other.get(k, 0) - c * bc
                if s == 0:
                    del other[k]
                    if k != piv:
                        holders[k].discard(other_piv)
                else:
                    if k not in other:
                        holders[k].add(other_piv)
                    other[k] = s if type(s) is int else rat(s)
        self.rows[piv] = norm
        return res

    def add_all(self, rows: Iterable[Row]) -> None:
        for r in rows:
            self.add(r)

    def pivots(self) -> List[Hashable]:
        return list(self.rows)


def kernel(vectors: List[Row], key: Callable) -> List[Tuple[object, ...]]:
    """Kernel of the linear map sending unit vector i to vectors[i].

    Returns coefficient tuples c with sum_i c_i vectors[i] = 0, echelonized.
    key orders the columns of the vectors. Implemented by reducing rows
    augmented with bookkeeping coordinates.
    """
    aux = object()  # unique tag so bookkeeping columns cannot collide

    def full_key(k):
        if isinstance(k, tuple) and len(k) == 2 and k[0] is aux:
            return (-1, k[1])
        return (0, key(k))

    space = RowSpace(key=full_key)
    out: List[Tuple[object, ...]] = []
    n = len(vectors)
    for i, v in enumerate(vectors):
        row = dict(v)
        row[(aux, i)] = 1
        res = space.add(row)
        if res and all(isinstance(k, tuple) and len(k) == 2 and k[0] is aux for k in res):
            coeffs = [0] * n
            for k, c in res.items():
                coeffs[k[1]] = c
            out.append(tuple(coeffs))
    return out
