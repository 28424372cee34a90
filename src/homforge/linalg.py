"""Exact rational row reduction over sparse int-keyed rows.

Rows are dicts mapping int columns to rational coefficients; the pivot of a
row is its largest column, so a caller numbers its columns once, in the
order it wants pivots taken. A RowSpace keeps a fully reduced echelon basis
(one pivot per row, pivots eliminated everywhere else), which is all the
kernel/membership machinery the bounded quotients need.

The basis is stored fraction-free: each row is a primitive row of ints (its
entries have gcd 1) with a positive pivot coefficient. An incoming row has
its denominators cleared once, is eliminated by integer combinations
(Bareiss, Math. Comp. 22, 1968), and the accumulated scale is divided out
once at the boundary, so every residual returned is the exact rational one,
normalized by rat(): an integral coefficient is an int. Rows whose pivots are
1 (binomial relations above all) take no gcd and no scaling at all.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import Callable, Dict, Hashable, List, Set, Tuple

from .rationals import rat

Row = Dict[int, object]


def _integral(row: Row) -> Tuple[Dict[int, int], int]:
    """(d * row as a new int row without its zero entries, d), d the least
    common denominator of the entries: 1, with no lcm taken, on an int row."""
    # the sum, taken in C, is an int only when every entry is: adding a
    # non-int rational to an int never gives an int
    if type(sum(row.values())) is int:
        out = dict(row)
        if 0 in out.values():
            out = {k: c for k, c in out.items() if c}
        return out, 1
    d = 1
    for c in row.values():
        if type(c) is not int:
            d = lcm(d, int(c.denominator))
    return {
        k: c * d if type(c) is int else int(c.numerator) * (d // int(c.denominator))
        for k, c in row.items() if c
    }, d


class RowSpace:
    """Span of sparse rows with incremental reduction; a row's pivot is its largest column."""

    def __init__(self):
        self.rows: Dict[int, Dict[int, int]] = {}  # pivot -> primitive int row
        # column -> pivots of the stored rows holding it, pivot columns
        # excluded; kept exact so add touches only the rows it must change
        self._holders: Dict[int, Set[int]] = {}

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, row: Row) -> Row:
        """Reduce row against the span; returns the residual (a new dict).

        The row's denominators are cleared and each stored pivot eliminated
        by an integer combination; the accumulated scale is divided out once
        at the end. One pass suffices: a stored row holds no other row's
        pivot, so subtracting it brings in no pivot and changes no other
        pivot's coefficient.
        """
        w, s = _integral(row)
        rows = self.rows
        for piv in [k for k in w if k in rows]:
            stored = rows[piv]
            c = w[piv]
            p = stored[piv]
            if p != 1:
                # w <- (p/g) w - (c/g) stored, g = gcd(p, c)
                g = gcd(p, c)
                c //= g
                a = p // g
                if a != 1:
                    s *= a
                    for k in w:
                        w[k] *= a
            for k, bc in stored.items():
                v = w.get(k, 0) - c * bc
                if v:
                    w[k] = v
                else:
                    del w[k]
        return w if s == 1 else {k: rat(c, s) for k, c in w.items()}

    def add(self, row: Row) -> Row:
        """Insert a row; returns the residual (zero dict if dependent)."""
        res = self.reduce(row)
        if not res:
            return res
        piv = max(res)
        # the stored row: the residual as a primitive int row, pivot positive
        norm, _ = _integral(res)
        g = norm[piv]
        if g != 1 and g != -1:
            g = gcd(*norm.values()) if g > 0 else -gcd(*norm.values())
        if g != 1:
            norm = {k: c // g for k, c in norm.items()}
        p = norm[piv]
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
            if p != 1:
                g = gcd(p, c)
                c //= g
                a = p // g
                if a != 1:
                    for k in other:
                        other[k] *= a
            for k, bc in norm.items():
                v = other.get(k, 0) - c * bc
                if v == 0:
                    del other[k]
                    if k != piv:
                        holders[k].discard(other_piv)
                else:
                    if k not in other:
                        holders[k].add(other_piv)
                    other[k] = v
            # the content divides the untouched pivot coefficient
            if other[other_piv] != 1:
                g = gcd(*other.values())
                if g != 1:
                    for k in other:
                        other[k] //= g
        self.rows[piv] = norm
        return res


def kernel(vectors: List[Dict[Hashable, object]], key: Callable) -> List[Tuple[object, ...]]:
    """Kernel of the linear map sending unit vector i to vectors[i].

    Returns coefficient tuples c with sum_i c_i vectors[i] = 0, echelonized.
    key orders the columns of the vectors and must be injective. Each vector
    is augmented with a bookkeeping column of its own, i - n for vector i of
    n: below every real column and rising with i, so a residual left with
    bookkeeping columns only is a kernel vector.
    """
    # a dict, not a set: the column order must not depend on hashing
    columns = sorted(dict.fromkeys(k for v in vectors for k in v), key=key)
    position = {k: j for j, k in enumerate(columns)}
    space = RowSpace()
    out: List[Tuple[object, ...]] = []
    n = len(vectors)
    for i, v in enumerate(vectors):
        row = {position[k]: c for k, c in v.items()}
        row[i - n] = 1
        res = space.add(row)
        if res and max(res) < 0:
            coeffs = [0] * n
            for j, c in res.items():
                coeffs[j + n] = c
            out.append(tuple(coeffs))
    return out
