"""Tests for structure-constant algebras, identity checking, and twisting."""

import collections
import itertools
import math
import re

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from oracles import eval_poly as oracle_eval_poly, op_eval, sampled_power_check

from homforge.expr import Leaf, Node, Poly, apply_op, collect, leaves, mul, parse_poly
from homforge.fdalg import (
    _walk,
    AlgebraSpec,
    FdalgError,
    MAX_WITNESSES,
    MultilinearOp,
    akivis_ops,
    builtin_algebra,
    builtin_algebra_names,
    check_identity,
    check_power_associative,
    check_sabinin_axioms,
    classical,
    columns,
    commutator_algebra,
    commutator_table,
    eval_poly,
    hom_associator_table,
    hom_power,
    hom_version,
    identity_matrix,
    is_morphism,
    is_multiplicative,
    lincomb,
    matmul,
    matrix,
    polarization_vectors,
    sabinin_from,
    tabulate_poly,
    yau_twist,
)
from homforge.homify import IdentitySystem, catalog
from homforge.rationals import ONE, rat


@pytest.fixture(scope="module")
def sl2():
    return builtin_algebra("sl2")


@pytest.fixture(scope="module")
def octonions():
    return builtin_algebra("octonions")


def test_builtin_catalog_names():
    names = builtin_algebra_names()
    for expected in ["sl2", "heis3", "abelian3", "c_example", "octonions", "k3prod"]:
        assert expected in names
    with pytest.raises(FdalgError):
        builtin_algebra("nope")


def test_catalog_dir_override(tmp_path, monkeypatch, sl2):
    import json

    with open(tmp_path / "mini.json", "w") as fh:
        json.dump(sl2.to_json(), fh)
    monkeypatch.setenv("HOMFORGE_CATALOG", str(tmp_path))
    assert builtin_algebra_names() == ["mini"]
    assert builtin_algebra("mini").dim == 3


def test_spec_json_roundtrip(sl2):
    again = AlgebraSpec.from_json(sl2.to_json())
    assert again.ops["mu"] == sl2.ops["mu"]
    assert again.alpha == sl2.alpha


@pytest.mark.parametrize(
    "field, value",
    [("dim", "3"), ("dim", 3.0), ("dim", True), ("dim", -3),
     ("arity", 2.7), ("arity", "2"), ("arity", 2.0), ("arity", True),
     ("entry", 5), ("entry", [0, 1])],
)
def test_from_json_rejects_malformed_sizes_and_entries(sl2, field, value):
    """dim and arity are read as they are, never through int(), and an
    entry must be a list of arity + 2 items."""
    data = sl2.to_json()
    if field == "dim":
        data["dim"] = value
    elif field == "arity":
        data["ops"][0]["arity"] = value
    else:
        data["ops"][0]["entries"][0] = value
    with pytest.raises(FdalgError, match=re.escape(f"{field} {value!r} ")):
        AlgebraSpec.from_json(data)


def test_eval_examples(sl2):
    h = sl2.basis_vector(0)
    x = sl2.basis_vector(1)
    y = sl2.basis_vector(2)
    assert eval_poly(sl2, parse_poly("(x*y)"), {"x": x, "y": y}) == h
    assert eval_poly(sl2, parse_poly("2*(h*x) - (x*h)"), {"h": h, "x": x}) == {1: rat(6)}
    assert eval_poly(sl2, Poly.zero(), {}) == {}
    with pytest.raises(FdalgError, match="unbound variable 'q'"):
        eval_poly(sl2, parse_poly("(x*q)"), {"x": x})
    with pytest.raises(FdalgError, match="outside 0..2"):
        eval_poly(sl2, parse_poly("x"), {"x": {3: ONE}})


def test_unitary_axiom_eval():
    """mu(u(1), x) = alpha(x) for a unitary spec."""
    alpha = matrix([["0", "1"], ["1", "0"]])
    mu = MultilinearOp.from_sparse(
        "mu", 2, 2,
        [[0, 0, 1, "1"], [0, 1, 0, "1"], [1, 0, 0, "1"], [1, 1, 1, "1"]],
    )
    spec = AlgebraSpec(2, ["u", "g"], {"mu": mu}, alpha, unit={0: ONE})
    got = eval_poly(spec, parse_poly("(1*v)"), {"v": spec.basis_vector(1)})
    assert got == spec.apply_alpha_vec(spec.basis_vector(1), 1)


def test_unitary_validation_rejects_bad_unit(sl2):
    with pytest.raises(FdalgError):
        AlgebraSpec(3, sl2.basis, sl2.ops, sl2.alpha, unit=sl2.basis_vector(0))
    data = sl2.to_json()
    data["unit"] = ["1", "0", "0", "0"]
    with pytest.raises(FdalgError, match="unit has 4 coordinates"):
        AlgebraSpec.from_json(data)


def test_is_morphism(sl2):
    ok, witness = is_multiplicative(sl2)
    assert ok and witness is None
    ok, _ = is_morphism(sl2, identity_matrix(3))
    assert ok
    bad = matrix([["1", "0", "0"], ["0", "2", "0"], ["0", "0", "1"]])
    ok, witness = is_morphism(sl2, bad)
    assert not ok
    assert witness[0] == "mu" and witness[1] == ("x", "y")


def test_check_identity_polarization_vectors():
    pts = polarization_vectors(3, ("a", "b", "c"), 1)
    assert len(pts) == 3
    pts2 = polarization_vectors(3, ("a", "b", "c"), 2)
    assert len(pts2) == 3 + 6
    assert ("a+b", {0: 1, 1: 1}) in pts2
    assert ("2*a", {0: 2}) in pts2


def test_sl2_is_lie_and_twist_is_hom_lie(sl2):
    assert check_identity(classical(sl2), catalog("lie")).ok
    twisted = hom_version(sl2)
    assert check_identity(twisted, catalog("hom_lie")).ok
    # exponent-erasure equivalence: alpha = id makes Hom-X agree with X
    assert check_identity(classical(sl2), catalog("hom_lie")).ok


def test_yau_twist_identity_is_noop(sl2):
    same = yau_twist(sl2, identity_matrix(3))
    assert same.ops["mu"] == sl2.ops["mu"]
    assert same.alpha == sl2.alpha


def test_yau_twist_rejects_non_morphism(sl2):
    bad = matrix([["1", "0", "0"], ["0", "2", "0"], ["0", "0", "1"]])
    with pytest.raises(FdalgError):
        yau_twist(sl2, bad)


def test_double_twist_equals_squared_twist(sl2, octonions):
    """beta . beta . mu agrees with (beta^2) . mu, and the twists match."""
    for spec in (sl2, octonions):
        beta = spec.alpha
        double = yau_twist(yau_twist(classical(spec), beta), beta, check=False)
        squared = yau_twist(classical(spec), matmul(beta, beta))
        assert double.ops["mu"] == squared.ops["mu"]
        assert double.alpha == squared.alpha


def test_sl2_akivis_table_matches_paper(sl2):
    ak = akivis_ops(sl2)
    H, X, Y = 0, 1, 2
    b = lambda i, j: ak.ops["mu"].basis_value((i, j))
    t = lambda i, j, k: ak.ops["tri"].basis_value((i, j, k))
    assert b(X, Y) == {H: 2}
    assert b(H, X) == {X: 4}
    assert b(H, Y) == {Y: -4}
    assert t(X, X, Y) == {Y: -2}
    assert t(Y, X, X) == {Y: 2}
    assert t(X, X, H) == {H: -2}
    assert t(X, Y, Y) == {X: 2}
    assert t(H, Y, Y) == {H: 2}
    assert t(H, H, X) == {X: 4}
    assert t(H, H, Y) == {Y: 4}
    # (a,b,c)_alpha = mu(alpha(b), mu(c,a)) on a Lie algebra with a morphism
    mu = sl2.ops["mu"]
    for i, j, k in itertools.product(range(3), repeat=3):
        want = mu.eval(
            [
                sl2.apply_alpha_vec(sl2.basis_vector(j), 1),
                mu.eval([sl2.basis_vector(k), sl2.basis_vector(i)]),
            ]
        )
        assert t(i, j, k) == want


def test_sl2_akivis_passes_hom_akivis(sl2):
    report = check_identity(akivis_ops(sl2), catalog("hom_akivis"))
    assert report.ok


def test_corrupted_sl2_fails_with_witness(sl2):
    data = sl2.to_json()
    data["ops"][0]["entries"][0][-1] = "3"  # mu(h,x) = 3x breaks antisymmetry
    broken = AlgebraSpec.from_json(data)
    report = check_identity(classical(broken), catalog("lie"))
    assert not report.ok
    label, assignment, defect = report.witnesses[0]
    assert set(assignment.values()) <= {"h", "x", "y"}
    assert any(c != 0 for c in defect) and len(defect) == 3  # dense in reports
    # the derived-Akivis identity is formal in mu and alpha, so it cannot
    # see the corruption; the Lie system is the right detector
    assert check_identity(akivis_ops(broken, hom=True), catalog("hom_akivis")).ok


def test_c_example_morphism_and_trivial_twist():
    ce = builtin_algebra("c_example")
    ok, _ = is_multiplicative(ce)
    assert ok
    twisted = hom_version(ce)
    assert twisted.ops["tri"].is_zero()
    assert check_identity(twisted, catalog("hom_akivis")).ok


def test_octonions_alternative_and_twist(octonions):
    assert check_identity(classical(octonions), catalog("alternative")).ok
    ok, _ = is_multiplicative(octonions)
    assert ok
    twisted = hom_version(octonions)
    assert check_identity(twisted, catalog("hom_alternative")).ok
    minus = commutator_algebra(twisted)
    assert check_identity(minus, catalog("hom_malcev")).ok


def test_sabinin_from_lie(sl2):
    twisted = hom_version(sl2)
    fam = sabinin_from(twisted, "lie", cutoff=2)
    assert fam.brackets[0] == MultilinearOp(
        "br0", 2, 3,
        {idx: {k: -c for k, c in ent.items()}
         for idx, ent in twisted.ops["mu"].entries.items()},
    )
    assert fam.brackets[1].is_zero() and fam.brackets[2].is_zero()
    report = check_sabinin_axioms(fam, 1)
    assert report.ok
    assert "Hsab2[p=1,q=0]" in report.skipped  # needs brackets beyond the cutoff


def test_sabinin_from_rejects_wrong_class(sl2):
    with pytest.raises(FdalgError):
        sabinin_from(hom_version(sl2), "bol", cutoff=1)  # no ternary bracket at all


def test_sabinin_from_bol_with_zero_ternary(sl2):
    """{a,b,c} = 0 makes <c;a,b> = -[[a,b], alpha(c)]."""
    twisted = hom_version(sl2)
    spec = AlgebraSpec(
        3,
        twisted.basis,
        {"mu": twisted.ops["mu"], "tri": MultilinearOp.zero("tri", 3, 3)},
        twisted.alpha,
    )
    fam = sabinin_from(spec, "bol", cutoff=1, check=False)
    mu = spec.ops["mu"]
    for c, a, b in itertools.product(range(3), repeat=3):
        ab_c = mu.eval(
            [
                mu.eval([spec.basis_vector(a), spec.basis_vector(b)]),
                spec.apply_alpha_vec(spec.basis_vector(c), 1),
            ]
        )
        assert fam.brackets[1].basis_value((c, a, b)) == {k: -x for k, x in ab_c.items()}


def test_malcev_family_on_octonion_commutators(octonions):
    minus = commutator_algebra(hom_version(octonions))
    fam = sabinin_from(minus, "malcev", cutoff=1)
    report = check_sabinin_axioms(fam, 0)
    assert report.ok
    # the printed base case agrees with the q-recursion route on all triples
    from homforge.qops import yiii_hom

    fam_q = yiii_hom(hom_version(octonions), cutoff=1)
    assert fam.brackets[1] == fam_q.brackets[1]
    assert fam.brackets[0] == fam_q.brackets[0]


def test_ly_family_on_twisted_sl2(sl2):
    """A Hom-Lie algebra is Hom-LY with {x,y,z} = [[x,y], alpha(z)]."""
    twisted = hom_version(sl2)
    mu = twisted.ops["mu"]
    entries = {}
    for i, j, k in itertools.product(range(3), repeat=3):
        val = mu.eval(
            [
                mu.basis_value((i, j)),
                twisted.apply_alpha_vec(twisted.basis_vector(k), 1),
            ]
        )
        if val:
            entries[(i, j, k)] = val
    spec = AlgebraSpec(
        3,
        twisted.basis,
        {"mu": mu, "tri": MultilinearOp("tri", 3, 3, entries)},
        twisted.alpha,
    )
    assert check_identity(spec, catalog("hom_lie_yamaguti")).ok
    fam = sabinin_from(spec, "ly", cutoff=2)
    assert check_sabinin_axioms(fam, 1).ok


def test_all_zero_family_passes():
    ab = builtin_algebra("abelian3")
    fam = sabinin_from(ab, "lie", cutoff=2)
    assert check_sabinin_axioms(fam, 1).ok


def test_mutant_pairing_fails_hsab3(sl2):
    """The Lie-type family on a non-Hom-Lie pairing must fail Hsab3 at n=0.

    sl2 with a diagonal Lie morphism has a nonzero Hom-Jacobiator, so the
    cyclic axiom reduces to J_alpha != 0; the sign of <a,b> is immaterial
    there since the axiom is quadratic in the binary bracket.
    """
    diag = matrix([["1", "0", "0"], ["0", "2", "0"], ["0", "0", "1/2"]])
    ok, _ = is_morphism(sl2, diag)
    assert ok
    bad = sl2.with_alpha(diag)
    assert not check_identity(bad, catalog("hom_lie")).ok
    fam = sabinin_from(bad, "lie", cutoff=1, check=False)
    report = check_sabinin_axioms(fam, 0)
    assert not report.ok
    failed = {r.name for r in report.axioms if not r.ok}
    assert failed == {"Hsab3[n=0]"}


def test_sign_flip_mutant_passes_at_n0(sl2):
    """Flipping the sign of <a,b> is invisible to the quadratic n=0 axioms."""
    twisted = hom_version(sl2)
    fam = sabinin_from(twisted, "lie", cutoff=1)
    flipped = MultilinearOp(
        "br0", 2, 3,
        {idx: {k: -c for k, c in ent.items()}
         for idx, ent in fam.brackets[0].entries.items()},
    )
    fam.brackets[0] = flipped
    assert check_sabinin_axioms(fam, 0).ok


def test_hom_power_and_power_associativity():
    k3 = hom_version(builtin_algebra("k3prod"))
    report = check_power_associative(k3, max_power=6)
    assert report.ok and report.condition1 and report.condition2
    # commutative associative with alpha = id: everything holds trivially
    plain = classical(builtin_algebra("k3prod"))
    assert check_power_associative(plain, max_power=5).ok
    # x^4 = ((x x) a(x)) a^2(x) by definition
    x = {0: rat(1), 1: rat(2), 2: rat(3)}
    mu = k3.ops["mu"]
    x2 = mu.eval([x, x])
    x3 = mu.eval([x2, k3.apply_alpha_vec(x, 1)])
    assert hom_power(k3, x, 4) == mu.eval([x3, k3.apply_alpha_vec(x, 2)])


def test_power_associativity_failure_detected(sl2):
    """The Lie bracket is wildly non-power-associative: x^2 = 0 but mixed
    powers of sums expose the failure through condition (2) instead."""
    report = check_power_associative(classical(sl2), max_power=4)
    # [x,x] = 0 makes every power >= 2 vanish, so the power identities hold;
    # conditions also hold; this is a degenerate pass
    assert report.ok


def test_non_multiplicative_power_check_fails(sl2):
    bad = sl2.with_alpha(matrix([["1", "0", "0"], ["0", "2", "0"], ["0", "0", "1"]]))
    report = check_power_associative(bad, max_power=4)
    assert not report.ok


def _verdict(report):
    return report.status, report.condition1, report.condition2, report.notes


@pytest.mark.parametrize("name", ["sl2", "heis3", "abelian3", "c_example", "k3prod", "octonions"])
def test_power_check_matches_sampled_oracle(name):
    """The exact check gives the sampled check's verdict on every bundled
    algebra, classical, twisted and with its stored alpha. Octonions run at
    max power 4 only: their sampled check takes seconds at 6."""
    spec = builtin_algebra(name)
    for form in (classical(spec), hom_version(spec), spec):
        for max_power in (4,) if name == "octonions" else (4, 6):
            exact = check_power_associative(form, max_power=max_power)
            assert _verdict(exact) == _verdict(sampled_power_check(form, max_power))
            assert len(exact.witnesses) <= MAX_WITNESSES


def _two_dim(entries):
    """A product on span{a, b} with alpha = id, so alpha is multiplicative."""
    mu = MultilinearOp("mu", 2, 2, entries)
    return AlgebraSpec(2, ["a", "b"], {"mu": mu}, identity_matrix(2))


def test_power_check_fails_on_a_basis_vector():
    """a.a = b, b.a = a: x = a gives x^3 = b.a = a but a(x) x^2 = a.b = 0."""
    spec = _two_dim({(0, 0): {1: ONE}, (1, 0): {0: ONE}})
    report = check_power_associative(spec, max_power=6)
    assert not report.ok and not report.condition1 and not report.condition2
    assert report.witnesses[0] == ("a", "x^3 != a^1(x^1) a^0(x^2)")
    assert 0 < len(report.witnesses) <= MAX_WITNESSES
    assert _verdict(report) == _verdict(sampled_power_check(spec, max_power=6))


def test_power_check_fails_only_off_the_basis():
    """a.b = a and every other product 0: every power of a basis vector
    from x^2 on is 0, but x = a + b has x^2 = x^3 = a and a(x) x^2 = b.a = 0.
    Only the polarization sums see it; basis vectors alone pass."""
    spec = _two_dim({(0, 1): {0: ONE}})
    report = check_power_associative(spec, max_power=6)
    assert not report.ok and not report.condition1
    assert report.witnesses[0] == ("a+b", "x^3 != a^1(x^1) a^0(x^2)")
    assert all("+" in vector for vector, _ in report.witnesses)
    assert sampled_power_check(spec, max_power=6, samples=0).ok
    assert _verdict(report) == _verdict(sampled_power_check(spec, max_power=6))


def test_main_theorem_suite():
    """yau_twist(Q-algebra, beta) satisfies the homified Q identities."""
    cases = [
        ("sl2", "lie", "hom_lie"),
        ("heis3", "associative", "hom_associative"),
        ("k3prod", "associative", "hom_associative"),
        ("octonions", "alternative", "hom_alternative"),
    ]
    for name, ord_name, hom_name in cases:
        spec = builtin_algebra(name)
        assert check_identity(classical(spec), catalog(ord_name)).ok, name
        assert check_identity(hom_version(spec), catalog(hom_name)).ok, name
    # Akivis: ordinary Akivis ops of the octonions, twisted by the automorphism
    oct_ = builtin_algebra("octonions")
    akv = akivis_ops(classical(oct_), hom=False)
    assert check_identity(akv, catalog("akivis")).ok
    twisted = yau_twist(akv, oct_.alpha)
    assert check_identity(twisted, catalog("hom_akivis")).ok
    # the ternary example and the zero algebra round out the catalog
    assert check_identity(hom_version(builtin_algebra("c_example")), catalog("hom_akivis")).ok
    ab = builtin_algebra("abelian3")
    assert check_identity(hom_version(ab), catalog("hom_lie")).ok



def _m2():
    """M2(Q) on E11, E12, E21, E22: E_ij E_jl = E_il."""
    E = [(i, j) for i in range(2) for j in range(2)]
    mu = MultilinearOp.from_sparse(
        "mu", 2, 4,
        [[E.index((i, j)), E.index((j, l)), E.index((i, l)), 1]
         for i in range(2) for j in range(2) for l in range(2)],
    )
    return AlgebraSpec(4, ["e11", "e12", "e21", "e22"], {"mu": mu}, identity_matrix(4)), E


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(-3, 3), min_size=4, max_size=4).filter(
        lambda g: g[0] * g[3] != g[1] * g[2]
    )
)
def test_m2_conjugation_twist_is_hom_associative(g):
    """X -> g X g^-1 is an automorphism of M2(Q), so its Yau twist is
    Hom-associative; its matrix is integral exactly when g over the gcd of
    its entries is unimodular (a scalar factor of g cancels)."""
    m2, E = _m2()
    a, b, c, d = g
    det = a * d - b * c
    gm = ((a, b), (c, d))
    ginv = ((rat(d, det), rat(-b, det)), (rat(-c, det), rat(a, det)))
    beta = matrix([[gm[k][i] * ginv[j][l] for i, j in E] for k, l in E])
    h = math.gcd(a, b, c, d)
    assert any(type(e) is not int for row in beta for e in row) == (abs(det) != h * h)
    assert check_identity(m2, catalog("associative")).ok
    assert check_identity(yau_twist(m2, beta), catalog("hom_associative")).ok

def test_parallel_check_matches_sequential(sl2, octonions):
    data = sl2.to_json()
    data["ops"][0]["entries"][0][-1] = "3"  # two antisymmetry witnesses, then Jacobi
    cases = [
        (hom_version(sl2), "hom_lie", "pass"),
        (octonions, "hom_lie", "fail"),
        (hom_version(octonions), "hom_malcev", "fail"),
        (classical(AlgebraSpec.from_json(data)), "lie", "fail"),
        # 44 x 8 polarization tuples: chunks start in the middle of a radix
        (hom_version(octonions), "hom_alternative", "pass"),
    ]
    for spec, name, status in cases:
        want = check_identity(spec, catalog(name)).to_json()
        assert want["status"] == status, name
        for jobs in (2, 3, 4):
            assert check_identity(spec, catalog(name), jobs=jobs).to_json() == want, (name, jobs)


@st.composite
def small_algebras(draw):
    """2- or 3-dimensional algebras with small integer structure constants and alpha."""
    dim = draw(st.integers(2, 3))
    small = st.integers(-2, 2)
    items = [[*idx, draw(small)] for idx in itertools.product(range(dim), repeat=3)]
    alpha = [[draw(small) for _ in range(dim)] for _ in range(dim)]
    mu = MultilinearOp.from_sparse("mu", 2, dim, items)
    return AlgebraSpec(dim, [f"e{i}" for i in range(dim)], {"mu": mu}, matrix(alpha))


@settings(max_examples=40, deadline=None)
@given(small_algebras())
def test_derived_tables_match_direct_evaluation(spec):
    """The tables built from templates agree with ab - ba, (ab)alpha(c) -
    alpha(a)(bc) and (ab)c - a(bc) evaluated entry by entry."""
    mu = spec.ops["mu"]
    m = lambda p, q: mu.eval([p, q])
    al = lambda v: spec.apply_alpha_vec(v, 1)
    e = [spec.basis_vector(i) for i in range(spec.dim)]
    vsub = lambda p, q: lincomb([(ONE, p), (-ONE, q)])
    comm = commutator_table(spec)
    hom_assoc = hom_associator_table(spec)
    assoc = akivis_ops(spec, hom=False).ops["tri"]
    for i, j in itertools.product(range(spec.dim), repeat=2):
        assert comm.basis_value((i, j)) == vsub(m(e[i], e[j]), m(e[j], e[i]))
    for i, j, k in itertools.product(range(spec.dim), repeat=3):
        a, b, c = e[i], e[j], e[k]
        assert hom_assoc.basis_value((i, j, k)) == vsub(m(m(a, b), al(c)), m(al(a), m(b, c)))
        assert assoc.basis_value((i, j, k)) == vsub(m(m(a, b), c), m(a, m(b, c)))


@st.composite
def kernel_cases(draw):
    """A 2- to 4-dim algebra with one binary or ternary operation of small
    integer structure constants, its dense tensor, rational vectors and an
    integer matrix."""
    dim = draw(st.integers(2, 4))
    arity = draw(st.integers(2, 3))
    small = st.integers(-2, 2)
    tensor = {
        idx: [draw(small) for _ in range(dim)]
        for idx in itertools.product(range(dim), repeat=arity)
    }
    items = [[*idx, k, c] for idx, out in tensor.items() for k, c in enumerate(out)]
    op = MultilinearOp.from_sparse("op", arity, dim, items)
    alpha = [[draw(small) for _ in range(dim)] for _ in range(dim)]
    spec = AlgebraSpec(dim, [f"e{i}" for i in range(dim)], {"op": op}, matrix(alpha))
    coord = st.fractions(min_value=-3, max_value=3, max_denominator=4).map(rat)
    vectors = [draw(st.lists(coord, min_size=dim, max_size=dim)) for _ in range(arity)]
    beta = [[draw(small) for _ in range(dim)] for _ in range(dim)]
    return spec, tensor, alpha, vectors, beta


def _sparse(coords):
    return {i: c for i, c in enumerate(coords) if c != 0}


def _sympy_column(v, dim):
    return sympy.Matrix([sympy.Rational(str(v.get(i, 0))) for i in range(dim)])


def _no_zero_values(v):
    return all(c != 0 for c in v.values())


@settings(max_examples=40, deadline=None)
@given(kernel_cases())
def test_sparse_kernel_matches_dense_oracles(case):
    """eval, apply_alpha_vec, post_compose and lincomb against dense loops
    over every index tuple and sympy matrix products."""
    spec, tensor, alpha, vectors, beta = case
    dim, op = spec.dim, spec.ops["op"]
    # eval: sum over all index tuples of the coordinate products times the tensor
    want = [0] * dim
    for idx, out in tensor.items():
        weight = 1
        for v, i in zip(vectors, idx):
            weight *= v[i]
        for k in range(dim):
            want[k] += weight * out[k]
    got = op.eval([_sparse(v) for v in vectors])
    assert _no_zero_values(got) and got == _sparse(want)
    # apply_alpha_vec: alpha^k v as a sympy product
    v = _sparse(vectors[0])
    for k in range(4):
        image = spec.apply_alpha_vec(v, k)
        assert _no_zero_values(image)
        assert _sympy_column(image, dim) == sympy.Matrix(alpha) ** k * _sympy_column(v, dim)
    # post_compose: beta times every output column of the tensor
    composed = op.post_compose(columns(matrix(beta)))
    for idx, out in tensor.items():
        value = composed.basis_value(idx)
        assert _no_zero_values(value)
        assert _sympy_column(value, dim) == sympy.Matrix(beta) * sympy.Matrix(out)
    # lincomb: coordinatewise sums of c*v
    coeffs = [rat(c) for c in (1, -1, 2)][: len(vectors)]
    want = [sum(c * u[i] for c, u in zip(coeffs, vectors)) for i in range(dim)]
    got = lincomb(zip(coeffs, [_sparse(u) for u in vectors]))
    assert _no_zero_values(got) and got == _sparse(want)
    assert lincomb([(ONE, got), (-ONE, got)]) == {}


def _with_zero_op(spec):
    """spec with one more binary operation, "nu", whose table has no entries."""
    ops = {**spec.ops, "nu": MultilinearOp.zero("nu", 2, spec.dim)}
    return AlgebraSpec(spec.dim, spec.basis, ops, spec.alpha)


def _through_zero_table(spec, m):
    """Does some node of m apply an operation with no entries?"""
    return isinstance(m, Node) and (
        spec.ops[m.op].is_zero() or any(_through_zero_table(spec, a) for a in m.args)
    )


@st.composite
def walk_cases(draw):
    """An algebra from small_algebras, some with a second, all-zero
    operation nu; a random polynomial in up to three variables with twisted
    leaves and subtrees shared between monomials, with monomials through nu
    when the algebra has it, mixed with the others or alone; a polarization
    set per variable (of unequal sizes when the drawn multiplicities differ)
    and a slice [lo, hi) of their tuples."""
    spec = draw(small_algebras())
    if draw(st.booleans()):
        spec = _with_zero_op(spec)
    ops = st.sampled_from(sorted(spec.ops))
    variables = ["x", "y", "z"][: draw(st.integers(1, 3))]
    leaf = st.builds(Leaf, st.sampled_from(variables), st.integers(0, 2))
    tree = st.recursive(
        leaf, lambda kids: st.builds(Node, ops, st.tuples(kids, kids)), max_leaves=4
    )
    pool = draw(st.lists(tree, min_size=1, max_size=3))
    part = st.sampled_from(pool)
    mono = st.one_of(part, st.builds(Node, ops, st.tuples(part, part)))
    terms = draw(st.lists(st.tuples(mono, st.integers(-3, 3)), max_size=4))
    if "nu" in spec.ops:  # live terms and terms through nu, or the latter only
        through_nu = st.builds(Node, st.just("nu"), st.tuples(part, part))
        coeff = st.sampled_from([-2, -1, 1, 2])
        dead = st.lists(st.tuples(through_nu, coeff), min_size=1, max_size=2)
        terms = (terms if draw(st.booleans()) else []) + draw(dead)
    candidate_sets = [
        polarization_vectors(spec.dim, spec.basis, draw(st.integers(1, 3))) for _ in variables
    ]
    total = math.prod(len(cs) for cs in candidate_sets)
    lo = draw(st.integers(0, total))
    hi = draw(st.integers(lo, min(total, lo + 150)))
    return spec, Poly(collect(terms)), variables, candidate_sets, lo, hi


@settings(max_examples=80, deadline=None)
@given(walk_cases())
def test_walk_matches_recursive_evaluation(case):
    """The walk yields, for every tuple of its slice and in product order,
    the index, the positions, and the value the recursive evaluator gives.
    It is None, and the polynomial is zero on every tuple, exactly when
    every monomial passes through an operation with no entries; eval_poly
    then gives {} and tabulate_poly an empty table."""
    spec, poly, variables, candidate_sets, lo, hi = case
    walk = _walk(spec, poly, variables, candidate_sets, lo, hi)
    places = itertools.product(*(range(len(cs)) for cs in candidate_sets))
    want = []
    for index, positions in enumerate(itertools.islice(places, lo, hi), lo):
        assignment = {v: cs[p][1] for v, cs, p in zip(variables, candidate_sets, positions)}
        want.append((index, positions, oracle_eval_poly(spec, poly, assignment)))
    pruned = all(_through_zero_table(spec, m) for m in poly.terms)
    assert (walk is None) == (pruned and lo < hi)
    if walk is None:
        assert all(value == {} for _, _, value in want)
        assignment = {v: cs[-1][1] for v, cs in zip(variables, candidate_sets)}
        assert eval_poly(spec, poly, assignment) == {}
        assert tabulate_poly("t", spec, poly, [*variables, "w"]).is_zero()  # arity >= 2
    else:
        assert list(walk) == want


def test_op_eval_matches_the_definition():
    """An arity-3 operation on arguments with several nonzero coordinates,
    where a prefix has no entries and an output coordinate cancels."""
    op = MultilinearOp.from_sparse("t", 3, 3, [
        [0, 0, 0, 0, "1"], [0, 0, 0, 1, "2"], [1, 0, 2, 0, "1"],
        [1, 2, 1, 2, "1/2"], [2, 1, 0, 1, "-1"],
    ])
    a, b, c = {0: ONE, 1: ONE}, {0: ONE, 2: rat(3)}, {0: ONE, 1: rat(-2, 3), 2: -ONE}
    got = op.eval([a, b, c])
    assert got == op_eval(op, [a, b, c]) == {1: rat(2), 2: rat(-1)}  # coordinate 0 cancels
    assert op.eval([{2: ONE}, {0: ONE}, c]) == {}  # the prefix (2, 0) has no entry


def test_binary_op_eval_matches_the_definition():
    """A binary operation on arguments with several nonzero coordinates:
    an index with no row, a row with no entry at an index, and an output
    coordinate that cancels."""
    op = MultilinearOp.from_sparse("b", 2, 4, [
        [0, 0, 0, "1"], [0, 0, 1, "2"], [0, 1, 0, "-1"], [1, 0, 2, "1"], [2, 2, 1, "1/2"],
    ])
    a, b = {0: rat(1, 2), 1: ONE, 3: rat(5)}, {0: rat(2), 1: rat(2), 3: rat(-2, 3)}
    got = op.eval([a, b])
    assert got == op_eval(op, [a, b]) == {1: rat(2), 2: rat(2)}  # coordinate 0 cancels
    assert _no_zero_values(got)
    assert op.eval([{1: ONE}, {1: ONE}]) == {}  # the row of 1 has no entry at 1


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_op_eval_matches_the_definition_on_sparse_tables(data):
    """Sparse tables of arity 2 to 4, so that many prefixes have no entry,
    on rational arguments: eval equals the sum over every index tuple."""
    dim = data.draw(st.integers(1, 3))
    arity = data.draw(st.integers(2, 4))
    small = st.integers(-2, 2)
    idx = st.tuples(*[st.integers(0, dim - 1)] * arity)
    items = data.draw(st.lists(st.tuples(idx, st.integers(0, dim - 1), small), max_size=8))
    op = MultilinearOp.from_sparse("op", arity, dim, [[*i, k, c] for i, k, c in items])
    coord = st.fractions(min_value=-2, max_value=2, max_denominator=3).map(rat)
    args = [
        {i: c for i in range(dim) if (c := data.draw(coord)) != 0} for _ in range(arity)
    ]
    got = op.eval(args)
    assert got == op_eval(op, args) and _no_zero_values(got)


def test_walk_evaluates_fewer_ops_than_the_per_tuple_oracle(monkeypatch, sl2):
    """check_identity on twisted sl2 against hom_lie: the same tuples, and
    fewer op evaluations than the one per op node per tuple that evaluating
    each monomial from scratch makes."""
    spec, system = hom_version(sl2), catalog("hom_lie")
    tuples = per_tuple = 0
    for ident in system.identities:
        mults = collections.Counter(l.base for l in leaves(next(iter(ident.terms))))
        count = math.prod(
            len(polarization_vectors(spec.dim, spec.basis, k)) for k in mults.values()
        )
        nodes = sum(len(leaves(m)) - 1 for m in ident.terms)  # binary trees
        tuples += count
        per_tuple += count * nodes
    calls = []
    original = MultilinearOp.eval
    monkeypatch.setattr(
        MultilinearOp, "eval", lambda self, args: calls.append(1) or original(self, args)
    )
    report = check_identity(spec, system)
    assert report.ok and report.checked == tuples
    assert 0 < len(calls) < per_tuple


def test_zero_table_keeps_the_errors_below_it(sl2):
    """A subtree below an all-zero table is still compiled: an unknown op,
    a wrong arity and an unbound variable there raise as they do elsewhere."""
    spec = _with_zero_op(sl2)
    x, y, q = (Poly.gen(v) for v in "xyq")
    points = {"x": spec.basis_vector(0), "y": spec.basis_vector(1)}
    assert eval_poly(spec, apply_op("nu", [mul(x, y), y]), points) == {}
    cases = [
        (apply_op("nu", [apply_op("rho", [x, y]), y]), "algebra has no operation 'rho'"),
        (apply_op("nu", [apply_op("mu", [x, y, x]), y]), "'mu' has arity 2, got 3"),
        (apply_op("nu", [mul(x, q), y]), "unbound variable 'q'"),
    ]
    for poly, message in cases:
        with pytest.raises(FdalgError, match=re.escape(message)):
            eval_poly(spec, poly, points)


def test_pruned_identity_starts_no_pool(monkeypatch, sl2):
    """check_identity with jobs=2 decides an identity whose every monomial
    passes through an all-zero table without a process pool, and reports
    what the serial check reports; a live identity does reach the pool."""
    import concurrent.futures

    spec = _with_zero_op(sl2)
    x, y, z = (Poly.gen(v) for v in "xyz")
    dead = IdentitySystem("dead", spec.signature(), (apply_op("nu", [mul(x, y), z]),), True)
    live = IdentitySystem("live", spec.signature(), (mul(mul(x, y), z),), True)
    serial = check_identity(spec, dead).to_json()

    class NoPool:
        def __init__(self, *args, **kwargs):
            raise AssertionError("a process pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoPool)
    assert check_identity(spec, dead, jobs=2).to_json() == serial
    assert serial["status"] == "pass" and serial["checked"] == 27
    with pytest.raises(AssertionError, match="pool was started"):
        check_identity(spec, live, jobs=2)
