"""The YIII_hom functor: q^alpha operations and derived Hom-Sabinin structure.

The q^alpha(u, v, z) operations are defined by solving

    (a^{|v|-1}[u], a^{|u|-1}[v], a^{|u|+|v|-2}z)_alpha
        = q(u, v, z)
        + sum over splittings u = (u1, u2), v = (v1, v2), |u1|+|v1| > 0 of
          a^{|u2|+|v2|}(P(u1, v1)) . a^{|u1|+|v1|-1}(q(u2, v2, z))

for q, where [w] is the homified left-combed word and
P(u1, v1) = a^{|v1|-1}[u1] . a^{|u1|-1}[v1], collapsing to the surviving
factor when one part is empty. Base cases: q vanishes when u or v is empty.
That convention is the unique one reproducing the worked q_{1,1}, q_{2,1}
and q_{1,2} formulas, and the build asserts that reproduction in the tests.

One recursion runs both symbolically (QSolver, in the free algebra on
letters) and numerically (NumericQSolver, on a structure-constant algebra);
the two differ only in their arithmetic.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict

from .expr import MUL, Poly, apply_alpha, lincomb, mul, unshuffle_pairs
from .fdalg import (
    AlgebraSpec,
    FdalgError,
    OpFamily,
    Vector,
    is_multiplicative,
    tabulate,
    tabulate_poly,
    witness_str,
)
from .rationals import ONE, rat


class _QRecursion:
    """The q^alpha recursion, Phi and the YIII bracket over the arithmetic
    of a subclass: gen(letter), mul(a, b), alpha(x, k), lincomb([(c, x)])
    and its zero."""

    def __init__(self):
        self.cache: Dict[tuple, object] = {}  # (u, v, z) -> q(u, v, z)
        self._combs: Dict[tuple, object] = {}

    def _comb(self, w: tuple):
        """[w]_alpha = (...((w1 w2) a(w3)) ...) a^{n-2}(wn), the homified left comb."""
        hit = self._combs.get(w)
        if hit is None:
            hit = self.gen(w[0])
            for j, letter in enumerate(w[1:]):
                hit = self.mul(hit, self.alpha(self.gen(letter), j))
            self._combs[w] = hit
        return hit

    def q(self, u: tuple, v: tuple, z):
        u, v = tuple(u), tuple(v)
        if not u or not v:
            return self.zero
        key = (u, v, z)
        hit = self.cache.get(key)
        if hit is not None:
            return hit
        mul, al = self.mul, self.alpha
        n, m = len(u), len(v)
        a = al(self._comb(u), m - 1)
        b = al(self._comb(v), n - 1)
        c = al(self.gen(z), n + m - 2)
        terms = [  # the Hom-associator (a, b, c)_alpha minus the corrections
            (ONE, mul(mul(a, b), al(c, 1))),
            (-ONE, mul(al(a, 1), mul(b, c))),
        ]
        for u1, u2 in unshuffle_pairs(u):
            for v1, v2 in unshuffle_pairs(v):
                if not (u1 or v1) or not u2 or not v2:
                    continue  # q vanishes on empty words
                inner = self.q(u2, v2, z)
                if inner == self.zero:
                    continue
                if u1 and v1:
                    left = mul(al(self._comb(u1), len(v1) - 1), al(self._comb(v1), len(u1) - 1))
                else:
                    left = self._comb(u1 or v1)
                term = mul(al(left, len(u2) + len(v2)), al(inner, len(u1) + len(v1) - 1))
                terms.append((-ONE, term))
        res = self.lincomb(terms)
        self.cache[key] = res
        return res

    def phi(self, u: tuple, v: tuple):
        """Phi_{n,m}: the (1/n!m!)-average of q_{n,m-1} over both permutations."""
        n, m = len(u), len(v)
        if n < 1 or m < 2:
            raise ValueError("Phi is defined for |u| >= 1 and |v| >= 2")
        weight = rat(1, math.factorial(n) * math.factorial(m))
        return self.lincomb(
            (weight, self.q(su, sv[:-1], sv[-1]))
            for su in itertools.permutations(u)
            for sv in itertools.permutations(v)
        )

    def bracket(self, u: tuple, a, b):
        """The YIII_hom bracket <u; a, b> = q(u, b, a) - q(u, a, b)."""
        return self.lincomb([(ONE, self.q(u, (b,), a)), (-ONE, self.q(u, (a,), b))])


class QSolver(_QRecursion):
    """Symbolic q^alpha in the free algebra on the letters of the words."""

    zero = Poly.zero()
    gen = staticmethod(Poly.gen)
    alpha = staticmethod(apply_alpha)
    mul = staticmethod(mul)

    @staticmethod
    def lincomb(terms) -> Poly:
        return Poly(lincomb(terms))


def q_symbolic(n: int, m: int) -> Poly:
    """q_{n,m} on canonical letters x1..xn; y1..ym; z."""
    solver = QSolver()
    u = tuple(f"x{i + 1}" for i in range(n))
    v = tuple(f"y{j + 1}" for j in range(m))
    return solver.q(u, v, "z")


class NumericQSolver(_QRecursion):
    """q^alpha evaluated on a structure-constant algebra with one binary product."""

    zero: Vector = {}
    lincomb = staticmethod(lincomb)

    def __init__(self, spec: AlgebraSpec):
        super().__init__()
        if MUL not in spec.ops:
            raise FdalgError(f"algebra has no operation {MUL!r}")
        self.spec = spec
        self.mu = spec.ops[MUL]
        self.gen = spec.basis_vector
        self.alpha = spec.apply_alpha_vec

    def mul(self, a: Vector, b: Vector) -> Vector:
        return self.mu.eval([a, b])


def yiii_hom(spec: AlgebraSpec, cutoff: int) -> OpFamily:
    """Hom-Sabinin operations of a Hom-algebra with one binary product.

    <a,b> = -(ab - ba), <u; a, b> = -q(u,a,b) + q(u,b,a) for |u| >= 1, and
    Phi_{n,m} is the symmetrized q average; tables up to word length cutoff.
    """
    binary_ops = [o for o in spec.ops.values() if o.arity == 2]
    if len(binary_ops) != 1 or MUL not in spec.ops:
        raise FdalgError("YIII_hom needs exactly one binary product")
    ok, witness = is_multiplicative(spec)
    if not ok:
        raise FdalgError(f"alpha is not multiplicative; witness {witness_str(witness)}")
    dim = spec.dim
    solver = NumericQSolver(spec)

    a, b = Poly.gen("a"), Poly.gen("b")
    brackets = {0: tabulate_poly("br0", spec, mul(b, a) - mul(a, b), "ab")}
    for n in range(1, cutoff + 1):
        brackets[n] = tabulate(
            f"br{n}", n + 2, dim, lambda idx: solver.bracket(idx[:-2], idx[-2], idx[-1])
        )
    phi = {
        (n, m): tabulate(
            f"phi{n}_{m}", n + m, dim, lambda idx, n=n: solver.phi(idx[:n], idx[n:])
        )
        for n in range(1, cutoff + 1)
        for m in range(2, cutoff + 2 - n)
    }
    return OpFamily(spec, brackets, phi, cutoff)
