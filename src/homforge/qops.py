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

The solver runs both symbolically (in the free algebra on letters) and
numerically (on a structure-constant algebra).
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, Tuple

from .expr import MUL, Poly, Word, apply_alpha, mul, unshuffle_pairs
from .fdalg import (
    AlgebraSpec,
    FdalgError,
    OpFamily,
    Vector,
    is_multiplicative,
    lincomb,
    tabulate,
    tabulate_poly,
)
from .homify import hom_associator, right_normed_homified
from .rationals import ONE, rat


class QSolver:
    """Symbolic q^alpha in the free algebra on the letters of the words."""

    def __init__(self, op: str = MUL):
        self.op = op
        self.cache: Dict[Tuple[Word, Word, str], Poly] = {}

    def _comb(self, w: Word) -> Poly:
        return Poly.monomial(right_normed_homified(w, self.op))

    def q(self, u: Word, v: Word, z: str) -> Poly:
        u, v = tuple(u), tuple(v)
        if not u or not v:
            return Poly.zero()
        key = (u, v, z)
        hit = self.cache.get(key)
        if hit is not None:
            return hit
        n, m = len(u), len(v)
        lhs = hom_associator(
            apply_alpha(self._comb(u), m - 1),
            apply_alpha(self._comb(v), n - 1),
            apply_alpha(Poly.gen(z), n + m - 2),
            self.op,
        )
        corr = Poly.zero()
        for u1, u2 in unshuffle_pairs(u):
            for v1, v2 in unshuffle_pairs(v):
                if not u1 and not v1:
                    continue
                if not u2 or not v2:
                    continue  # q vanishes on empty words
                inner = self.q(u2, v2, z)
                if inner.is_zero():
                    continue
                if u1 and v1:
                    left = mul(
                        apply_alpha(self._comb(u1), len(v1) - 1),
                        apply_alpha(self._comb(v1), len(u1) - 1),
                        self.op,
                    )
                elif u1:
                    left = self._comb(u1)
                else:
                    left = self._comb(v1)
                corr = corr + mul(
                    apply_alpha(left, len(u2) + len(v2)),
                    apply_alpha(inner, len(u1) + len(v1) - 1),
                    self.op,
                )
        res = lhs - corr
        self.cache[key] = res
        return res

    def phi(self, u: Word, v: Word) -> Poly:
        """Phi_{n,m}: the (1/n!m!)-average of q_{n,m-1} over both permutations."""
        n, m = len(u), len(v)
        if n < 1 or m < 2:
            raise ValueError("Phi is defined for |u| >= 1 and |v| >= 2")
        total = Poly.zero()
        for su in itertools.permutations(u):
            for sv in itertools.permutations(v):
                total = total + self.q(su, sv[:-1], sv[-1])
        return total.scaled(rat(1, math.factorial(n) * math.factorial(m)))


def q_symbolic(n: int, m: int, op: str = MUL) -> Poly:
    """q_{n,m} on canonical letters x1..xn; y1..ym; z."""
    solver = QSolver(op)
    u = tuple(f"x{i + 1}" for i in range(n))
    v = tuple(f"y{j + 1}" for j in range(m))
    return solver.q(u, v, "z")


class NumericQSolver:
    """q^alpha evaluated on a structure-constant algebra with one binary product."""

    def __init__(self, spec: AlgebraSpec, op: str = "mu"):
        self.spec = spec
        self.mu = spec.ops[op]
        self.cache: Dict[Tuple[Tuple[int, ...], Tuple[int, ...], int], Vector] = {}
        self._combs: Dict[Tuple[int, ...], Vector] = {}

    def _comb(self, w: Tuple[int, ...]) -> Vector:
        hit = self._combs.get(w)
        if hit is not None:
            return hit
        spec = self.spec
        acc = spec.basis_vector(w[0])
        for j, letter in enumerate(w[1:], start=1):
            acc = self.mu.eval(
                [acc, spec.apply_alpha_vec(spec.basis_vector(letter), j - 1)]
            )
        self._combs[w] = acc
        return acc

    def q(self, u: Tuple[int, ...], v: Tuple[int, ...], z: int) -> Vector:
        spec, mu, al = self.spec, self.mu, self.spec.apply_alpha_vec
        if not u or not v:
            return {}
        key = (u, v, z)
        hit = self.cache.get(key)
        if hit is not None:
            return hit
        n, m = len(u), len(v)
        a = al(self._comb(u), m - 1)
        b = al(self._comb(v), n - 1)
        c = al(spec.basis_vector(z), n + m - 2)
        terms = [  # the Hom-associator (a, b, c)_alpha minus the corrections
            (ONE, mu.eval([mu.eval([a, b]), al(c, 1)])),
            (-ONE, mu.eval([al(a, 1), mu.eval([b, c])])),
        ]
        for u1, u2 in unshuffle_pairs(u):
            for v1, v2 in unshuffle_pairs(v):
                if not u1 and not v1:
                    continue
                if not u2 or not v2:
                    continue
                inner = self.q(u2, v2, z)
                if not inner:
                    continue
                if u1 and v1:
                    left = mu.eval(
                        [al(self._comb(u1), len(v1) - 1), al(self._comb(v1), len(u1) - 1)]
                    )
                elif u1:
                    left = self._comb(u1)
                else:
                    left = self._comb(v1)
                term = mu.eval(
                    [al(left, len(u2) + len(v2)), al(inner, len(u1) + len(v1) - 1)]
                )
                terms.append((-ONE, term))
        total = lincomb(terms)
        self.cache[key] = total
        return total

    def phi(self, u: Tuple[int, ...], v: Tuple[int, ...]) -> Vector:
        n, m = len(u), len(v)
        if n < 1 or m < 2:
            raise ValueError("Phi is defined for |u| >= 1 and |v| >= 2")
        weight = rat(1, math.factorial(n) * math.factorial(m))
        return lincomb(
            (weight, self.q(su, sv[:-1], sv[-1]))
            for su in itertools.permutations(u)
            for sv in itertools.permutations(v)
        )


def yiii_hom(spec: AlgebraSpec, cutoff: int, op: str = "mu", check: bool = True) -> OpFamily:
    """Hom-Sabinin operations of a Hom-algebra with one binary product.

    <a,b> = -(ab - ba), <u; a, b> = -q(u,a,b) + q(u,b,a) for |u| >= 1, and
    Phi_{n,m} is the symmetrized q average; tables up to word length cutoff.
    """
    binary_ops = [o for o in spec.ops.values() if o.arity == 2]
    if len(binary_ops) != 1 or op not in spec.ops:
        raise FdalgError("YIII_hom needs exactly one binary product")
    if check:
        ok, witness = is_multiplicative(spec)
        if not ok:
            raise FdalgError(f"alpha is not multiplicative; witness {witness}")
    dim = spec.dim
    solver = NumericQSolver(spec, op)

    def bracket_value(idx: Tuple[int, ...]) -> Vector:
        u, a, b = idx[:-2], idx[-2], idx[-1]
        return lincomb([(ONE, solver.q(u, (b,), a)), (-ONE, solver.q(u, (a,), b))])

    a, b = Poly.gen("a"), Poly.gen("b")
    brackets = {0: tabulate_poly("br0", spec, mul(b, a, op) - mul(a, b, op), "ab")}
    for n in range(1, cutoff + 1):
        brackets[n] = tabulate(f"br{n}", n + 2, dim, bracket_value)
    phi = {
        (n, m): tabulate(
            f"phi{n}_{m}", n + m, dim, lambda idx, n=n: solver.phi(idx[:n], idx[n:])
        )
        for n in range(1, cutoff + 1)
        for m in range(2, cutoff + 2 - n)
    }
    return OpFamily(dim, spec.basis, brackets, phi, cutoff)


def higher_brackets_vanish(fam: OpFamily) -> bool:
    """Whether <u; a, b> is the zero operation for every 1 <= |u| <= cutoff."""
    return all(fam.brackets[n].is_zero() for n in range(1, fam.cutoff + 1))
