"""Tests for the q^alpha solver, Phi, and the YIII_hom functor."""

import itertools

import pytest

from homforge.expr import Leaf, Poly, apply_alpha, map_leaves, mul
from homforge.fdalg import (
    FdalgError,
    builtin_algebra,
    check_sabinin_axioms,
    commutator_algebra,
    hom_version,
    lincomb,
)
from homforge.homify import catalog, hom_associator
from homforge.qops import (
    NumericQSolver,
    QSolver,
    q_symbolic,
    yiii_hom,
)
from homforge.rationals import rat

V = Poly.gen
al = apply_alpha
A = hom_associator


def test_hom_associator_symbolic():
    got = A(V("x"), V("y"), V("z"))
    want = mul(mul(V("x"), V("y")), al(V("z"), 1)) - mul(
        al(V("x"), 1), mul(V("y"), V("z"))
    )
    assert got == want


def test_q11_equals_hom_associator():
    """Validates the empty-word base cases: all correction terms vanish."""
    s = QSolver()
    assert s.q(("x",), ("y",), "z") == A(V("x"), V("y"), V("z"))


def test_q21_matches_printed_formula():
    s = QSolver()
    got = s.q(("x", "y"), ("t",), "z")
    want = (
        A(mul(V("x"), V("y")), al(V("t"), 1), al(V("z"), 1))
        - mul(al(V("x"), 2), A(V("y"), V("t"), V("z")))
        - mul(al(V("y"), 2), A(V("x"), V("t"), V("z")))
    )
    assert got == want


def test_q12_matches_printed_formula():
    s = QSolver()
    got = s.q(("x",), ("y", "t"), "z")
    want = (
        A(al(V("x"), 1), mul(V("y"), V("t")), al(V("z"), 1))
        - mul(al(V("y"), 2), A(V("x"), V("t"), V("z")))
        - mul(al(V("t"), 2), A(V("x"), V("y"), V("z")))
    )
    assert got == want


def test_q_empty_words_vanish():
    s = QSolver()
    assert s.q((), ("y",), "z").is_zero()
    assert s.q(("x",), (), "z").is_zero()
    assert s.q((), (), "z").is_zero()


def _erase(p: Poly) -> Poly:
    out = {}
    for m, c in p.terms.items():
        key = map_leaves(m, lambda l: Leaf(l.base, 0))
        out[key] = out.get(key, 0) + c
    return Poly(out)


def _classical_q(u, v, z):
    """Independent classical (alpha = id) q: same recursion with no twisting."""

    def comb(w):
        p = V(w[0])
        for letter in w[1:]:
            p = mul(p, V(letter))
        return p

    def assoc(a, b, c):
        return mul(mul(a, b), c) - mul(a, mul(b, c))

    def q(u, v, z):
        if not u or not v:
            return Poly.zero()
        from homforge.expr import unshuffle_pairs

        total = assoc(comb(u), comb(v), V(z))
        for u1, u2 in unshuffle_pairs(u):
            for v1, v2 in unshuffle_pairs(v):
                if not u1 and not v1:
                    continue
                if not u2 or not v2:
                    continue
                inner = q(u2, v2, z)
                if inner.is_zero():
                    continue
                if u1 and v1:
                    left = mul(comb(u1), comb(v1))
                elif u1:
                    left = comb(u1)
                else:
                    left = comb(v1)
                total = total - mul(left, inner)
        return total

    return q(u, v, z)


def test_alpha_identity_recovers_classical_q():
    """Erasing exponents in q^alpha gives the untwisted q, for n+m <= 4."""
    s = QSolver()
    letters = ("a", "b", "c", "d")
    for n in range(1, 4):
        for m in range(1, 5 - n):
            u = letters[:n]
            v = letters[n : n + m]
            assert _erase(s.q(u, v, "z")) == _classical_q(u, v, "z"), (n, m)


def test_phi_12_expansion():
    s = QSolver()
    got = s.phi(("a",), ("b", "c"))
    want = (s.q(("a",), ("b",), "c") + s.q(("a",), ("c",), "b")).scaled(rat(1, 2))
    assert got == want


def test_phi_on_identical_letters():
    s = QSolver()
    assert s.phi(("a",), ("b", "b")) == s.q(("a",), ("b",), "b")


def test_phi_arity_bounds():
    s = QSolver()
    with pytest.raises(ValueError):
        s.phi((), ("b", "c"))
    with pytest.raises(ValueError):
        s.phi(("a",), ("b",))


def test_q_symbolic_helper():
    assert q_symbolic(1, 1) == QSolver().q(("x1",), ("y1",), "z")


def test_numeric_q_matches_symbolic_on_sl2():
    """Evaluate the symbolic q and compare with the numeric solver."""
    from homforge.fdalg import eval_poly

    spec = hom_version(builtin_algebra("sl2"))
    solver = NumericQSolver(spec)
    names = spec.basis
    for u in itertools.product(range(3), repeat=2):
        for a in range(3):
            for z in range(3):
                sym = QSolver().q(("u1", "u2"), ("v1",), "zz")
                assignment = {
                    "u1": spec.basis_vector(u[0]),
                    "u2": spec.basis_vector(u[1]),
                    "v1": spec.basis_vector(a),
                    "zz": spec.basis_vector(z),
                }
                assert eval_poly(spec, sym, assignment) == solver.q(u, (a,), z)


# The printed q_{1,1}, q_{2,1} and q_{1,2} on (x; y; z), (x, y; t; z) and
# (x; y, t; z), written with the Hom-associator and not through the recursion.
_X, _Y, _T, _Z = V("x"), V("y"), V("t"), V("z")
PRINTED_Q = {
    (("x",), ("y",)): A(_X, _Y, _Z),
    (("x", "y"), ("t",)): (
        A(mul(_X, _Y), al(_T, 1), al(_Z, 1))
        - mul(al(_X, 2), A(_Y, _T, _Z))
        - mul(al(_Y, 2), A(_X, _T, _Z))
    ),
    (("x",), ("y", "t")): (
        A(al(_X, 1), mul(_Y, _T), al(_Z, 1))
        - mul(al(_Y, 2), A(_X, _T, _Z))
        - mul(al(_T, 2), A(_X, _Y, _Z))
    ),
}


@pytest.mark.parametrize("name", ["sl2", "heis3"])
def test_numeric_q_matches_printed_formulas(name):
    """An oracle independent of the recursion: NumericQSolver.q equals the
    printed formulas evaluated on every basis tuple of the twisted algebra."""
    from homforge.fdalg import eval_poly

    spec = hom_version(builtin_algebra(name))
    solver = NumericQSolver(spec)
    for (u, v), formula in PRINTED_Q.items():
        letters = (*u, *v, "z")
        for idx in itertools.product(range(spec.dim), repeat=len(letters)):
            assignment = {l: spec.basis_vector(i) for l, i in zip(letters, idx)}
            want = eval_poly(spec, formula, assignment)
            got = solver.q(idx[: len(u)], idx[len(u) : -1], idx[-1])
            assert got == want, (u, v, idx)


def higher_brackets_vanish(fam):
    """Whether <u; a, b> is the zero operation for every 1 <= |u| <= cutoff."""
    return all(fam.brackets[n].is_zero() for n in range(1, fam.cutoff + 1))


def test_yiii_abelian_all_zero():
    fam = yiii_hom(builtin_algebra("abelian3"), 2)
    assert all(op.is_zero() for op in fam.brackets.values())
    assert all(op.is_zero() for op in fam.phi.values())
    assert higher_brackets_vanish(fam)


def test_yiii_hom_associative_gives_hom_lie():
    """On a Hom-associative algebra the functor lands on A^-."""
    spec = hom_version(builtin_algebra("heis3"))
    fam = yiii_hom(spec, 2)
    minus = commutator_algebra(spec)
    for i in range(3):
        for j in range(3):
            minus_ij = minus.ops["mu"].basis_value((i, j))
            assert fam.brackets[0].basis_value((i, j)) == {k: -c for k, c in minus_ij.items()}
    # higher operations vanish here; reported, not assumed in general
    assert higher_brackets_vanish(fam)
    from homforge.fdalg import check_identity

    assert check_identity(minus, catalog("hom_lie")).ok


def test_yiii_alternative_gives_malcev_formula():
    """<c;a,b> = -(1/3) J_alpha(a,b,c) on the twisted octonions."""
    spec = hom_version(builtin_algebra("octonions"))
    fam = yiii_hom(spec, 1)
    minus = commutator_algebra(spec)
    mu = minus.ops["mu"]

    def third_jac(a, b, c):
        return lincomb(
            (rat(-1, 3), mu.eval([mu.eval([p, q]), minus.apply_alpha_vec(r, 1)]))
            for p, q, r in ((a, b, c), (b, c, a), (c, a, b))
        )

    for ci, ai, bi in itertools.product(range(8), repeat=3):
        want = third_jac(spec.basis_vector(ai), spec.basis_vector(bi), spec.basis_vector(ci))
        assert fam.brackets[1].basis_value((ci, ai, bi)) == want


def test_yiii_requires_single_binary_product():
    ce = builtin_algebra("c_example")  # has a ternary operation as well
    spec = hom_version(builtin_algebra("sl2"))
    two = dict(spec.ops)
    two["mu2"] = spec.ops["mu"]
    from homforge.fdalg import AlgebraSpec

    double = AlgebraSpec(3, spec.basis, two, spec.alpha)
    with pytest.raises(FdalgError):
        yiii_hom(double, 1)


def test_yiii_sabinin_axioms_on_catalog():
    for name in ("heis3", "abelian3", "sl2", "k3prod"):
        spec = (
            builtin_algebra(name) if name == "abelian3"
            else hom_version(builtin_algebra(name))
        )
        fam = yiii_hom(spec, 2)
        assert check_sabinin_axioms(fam, 1).ok, name
