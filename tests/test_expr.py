"""Tests for operation trees, polynomials, and the unshuffle coproduct."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from homforge.expr import (
    MUL,
    Leaf,
    Node,
    ParseError,
    Poly,
    Signature,
    SignatureError,
    UNIT,
    apply_alpha,
    apply_op,
    collect,
    gen_mono,
    lincomb,
    mono_key,
    mul,
    mono_from_json,
    mono_to_json,
    mul_mono,
    parse_poly,
    poly_from_json,
    poly_to_json,
    render_poly,
    unshuffle,
    unshuffle_pairs,
)
from homforge.rationals import rat


V = Poly.gen


def test_signature_validation():
    with pytest.raises(SignatureError):
        Signature([("mu", 1)])
    with pytest.raises(SignatureError):
        Signature([("mu", 2), ("mu", 3)])
    sig = Signature([("mu", 2), ("tri", 3)], unitary=True)
    assert sig.arity("tri") == 3
    assert "mu" in sig and "nope" not in sig


def test_bilinearity():
    """apply_op(mu, [x, y+z]) = xy + xz."""
    x, y, z = V("x"), V("y"), V("z")
    assert mul(x, y + z) == mul(x, y) + mul(x, z)
    assert mul(V("x", c=2), V("y", c=3)) == mul(x, y).scaled(6)


def test_additive_inverse_and_scale():
    p = mul(V("x"), V("y")) + V("z").scaled(rat(-3, 7))
    assert (p + p.scaled(-1)).is_zero()
    assert p.scaled(0).is_zero()
    assert p.scaled(rat(1, 2)).scaled(2) == p


def test_scaled_keeps_integral_values_as_ints():
    """An integral coefficient is an int, also after scaling by a fraction
    and back: rows of such coefficients take RowSpace's int path."""
    (c,) = V("x").scaled(rat(1, 6)).scaled(6).terms.values()
    assert c == 1 and type(c) is int
    p = (V("x").scaled(rat(1, 2)) + V("y").scaled(rat(1, 3))).scaled(-6)
    assert p.terms == {Leaf("x"): -3, Leaf("y"): -2}
    assert all(type(c) is int for c in p.terms.values())


def test_multilinearity_three_args():
    a, b, c, d = (V(n) for n in "abcd")
    lhs = apply_op("tri", [a + b, c, d])
    rhs = apply_op("tri", [a, c, d]) + apply_op("tri", [b, c, d])
    assert lhs == rhs


def test_apply_alpha_examples():
    x, y = V("x"), V("y")
    assert apply_alpha(mul(x, y), 1) == mul(apply_alpha(x, 1), apply_alpha(y, 1))
    assert apply_alpha(Poly.unit(), 5) == Poly.unit()
    assert apply_alpha(mul(V("x", 1), V("z")), 2) == mul(V("x", 3), V("z", 2))


def test_apply_alpha_composes():
    rng = random.Random(11)
    mons = [
        gen_mono("x"),
        Node("mu", (gen_mono("x"), gen_mono("y"))),
        Node("mu", (Node("mu", (gen_mono("y"), gen_mono("z"))), gen_mono("x", 2))),
    ]
    for _ in range(20):
        p = Poly({m: rat(rng.randint(-4, 4)) for m in mons})
        a, b = rng.randint(0, 5), rng.randint(0, 5)
        assert apply_alpha(apply_alpha(p, a), b) == apply_alpha(p, a + b)


def test_unit_absorption():
    x = V("x")
    assert mul(Poly.unit(), x) == apply_alpha(x, 1)
    assert mul(x, Poly.unit()) == apply_alpha(x, 1)
    assert mul(Poly.unit(), Poly.unit()) == Poly.unit()
    with pytest.raises(SignatureError):
        apply_op("tri", [x, Poly.unit(), x])


def _unshuffle_oracle(w):
    """Independent coproduct: Delta(letter) = letter (x) 1 + 1 (x) letter,
    extended by concatenation on both tensor slots."""
    out = {((), ()): 1}
    for letter in w:
        nxt = {}
        for (l, r), c in out.items():
            for key in ((l + (letter,), r), (l, r + (letter,))):
                nxt[key] = nxt.get(key, 0) + c
        out = nxt
    return out


@pytest.mark.parametrize("letters", ["x", "xy", "xyz", "wxyz", "vwxyz", "xxy", "xyxz"])
def test_unshuffle_matches_iterated_coproduct(letters):
    w = tuple(letters)
    assert unshuffle(w) == _unshuffle_oracle(w)


def test_unshuffle_printed_examples():
    assert unshuffle(("x",)) == {(("x",), ()): 1, ((), ("x",)): 1}
    got = unshuffle(("x", "y"))
    assert got == {
        (("x", "y"), ()): 1,
        (("x",), ("y",)): 1,
        (("y",), ("x",)): 1,
        ((), ("x", "y")): 1,
    }
    assert len(unshuffle(("x", "y", "z"))) == 8


@pytest.mark.parametrize(
    "letters", ["", "x", "xy", "xx", "xyz", "xyx", "wxyz", "xxyy", "vwxvy", "uvwxyz", "xyxzyx"]
)
def test_unshuffle_pairs_follow_the_subset_masks(letters):
    """One (left, right) pair per subset of the positions, in subset-mask
    order, repeated letters kept apart, on words of length 0 to 6."""
    w = tuple(letters)
    n = len(w)
    want = [
        (tuple(w[i] for i in range(n) if mask >> i & 1),
         tuple(w[i] for i in range(n) if not mask >> i & 1))
        for mask in range(1 << n)
    ]
    assert unshuffle_pairs(w) == want
    assert unshuffle_pairs(w) == want  # the second call reuses the positions of length n


def test_unshuffle_cocommutative_and_counts():
    for n in range(0, 6):
        w = tuple(f"l{i}" for i in range(n))
        d = unshuffle(w)
        assert {(r, l): c for (l, r), c in d.items()} == d
        assert len(d) == 2 ** n
    assert len(unshuffle(tuple("abcdef"))) == 2 ** 6


def test_parse_render_roundtrip():
    cases = [
        "x",
        "(x*y)",
        "((x*y)*A^1(z))",
        "A^2(x)",
        "tri(x,y,(z*w))",
        "(x*y) - (y*x)",
        "2*(x*y) + 1/3*tri(a,b,c)",
        "1",
        "(1*x)",
    ]
    for s in cases:
        p = parse_poly(s)
        assert parse_poly(render_poly(p)) == p


def test_parse_unit_product_applies_alpha():
    assert parse_poly("(1*x)") == apply_alpha(V("x"), 1)


def test_parse_errors():
    for bad in ["x*y*z", "((x*y)", "A^(x)", "tri(x)", "x y"]:
        with pytest.raises(ParseError):
            parse_poly(bad)


def test_parse_top_level_product():
    assert parse_poly("x*y") == parse_poly("(x*y)")
    assert parse_poly("(x*y)*A^1(z) - A^1(x)*(y*z)") == parse_poly(
        "((x*y)*A^1(z)) - (A^1(x)*(y*z))"
    )


def test_mono_json_roundtrip():
    p = parse_poly("((x*y)*A^1(z)) - 2*tri(a,b,A^3(c))")
    assert poly_from_json(poly_to_json(p)) == p
    m = Node("mu", (UNIT, Leaf("x", 2)))
    assert mono_from_json(mono_to_json(m)) == m


def test_zero_coefficients_pruned():
    p = mul(V("x"), V("y")) - mul(V("x"), V("y"))
    assert p.is_zero() and p.terms == {}
    assert render_poly(p) == "0"


def _four_walk_mono_key(m):
    """mono_key as four separate walks (degree, arities, ops, leaves): the
    oracle for the one-walk version."""

    def degree(t):
        if t is UNIT:
            return 0
        if isinstance(t, Leaf):
            return 1
        return sum(degree(a) for a in t.args)

    def arities(t):
        if t is UNIT:
            return [-1]
        if isinstance(t, Leaf):
            return [0]
        return [len(t.args)] + [x for a in t.args for x in arities(a)]

    def ops(t):
        if not isinstance(t, Node):
            return []
        return [t.op] + [o for a in t.args for o in ops(a)]

    def leaves(t):
        if t is UNIT:
            return []
        if isinstance(t, Leaf):
            return [(t.base, t.exp)]
        return [l for a in t.args for l in leaves(a)]

    return (degree(m), tuple(arities(m)), tuple(ops(m)), tuple(leaves(m)))


monomials = st.recursive(
    st.one_of(
        st.builds(Leaf, st.sampled_from("abc"), st.integers(0, 3)),
        st.just(UNIT),
    ),
    lambda kids: st.builds(
        Node, st.sampled_from(["*", "br", "t"]), st.lists(kids, min_size=1, max_size=3).map(tuple)
    ),
    max_leaves=8,
)


@settings(max_examples=300, deadline=None)
@given(st.lists(monomials, min_size=1, max_size=6))
def test_mono_key_matches_four_walk_oracle(ms):
    for m in ms:
        assert mono_key(m) == _four_walk_mono_key(m)
    assert sorted(ms, key=mono_key) == sorted(ms, key=_four_walk_mono_key)


# Normal-form monomials (the unit only as a whole monomial) and polynomials
# over them, for the properties of the sparse-sum kernel and of printing.
coefficients = st.fractions(min_value=-3, max_value=3, max_denominator=4).map(rat)
nf_monomials = st.recursive(
    st.builds(Leaf, st.sampled_from(["x", "y", "A", "T"]), st.integers(0, 2)),
    lambda kids: st.one_of(
        st.builds(lambda op, a, b: Node(op, (a, b)), st.sampled_from([MUL, "br"]), kids, kids),
        st.builds(lambda op, *args: Node(op, args), st.sampled_from([MUL, "T"]), kids, kids, kids),
    ),
    max_leaves=5,
)
polys = st.dictionaries(
    st.one_of(st.just(UNIT), nf_monomials), coefficients, max_size=5
).map(Poly)


def _naive_sum(*dicts):
    """Coefficientwise sum of dicts, zeros dropped: the oracle for the kernel."""
    out = {}
    for d in dicts:
        for k, c in d.items():
            out[k] = out.get(k, 0) + c
    return {k: c for k, c in out.items() if c != 0}


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(st.sampled_from("abcd"), coefficients), max_size=12),
    st.lists(
        st.tuples(coefficients, st.dictionaries(st.integers(0, 3), coefficients, max_size=4)),
        max_size=5,
    ),
)
def test_collect_and_lincomb_match_naive_sums(pairs, terms):
    got = collect(pairs)
    assert got == _naive_sum(*({k: c} for k, c in pairs))
    assert all(c != 0 for c in got.values())
    got = lincomb(terms)
    assert got == _naive_sum(*({k: c * x for k, x in v.items()} for c, v in terms))
    assert all(c != 0 for c in got.values())
    assert lincomb([(rat(1), got), (rat(-1), got)]) == {}


@settings(max_examples=150, deadline=None)
@given(polys, polys, polys, coefficients)
def test_poly_arithmetic_matches_naive_dicts(p, q, r, k):
    assert (p + q).terms == _naive_sum(p.terms, q.terms)
    assert (p - q).terms == _naive_sum(p.terms, {m: -c for m, c in q.terms.items()})
    assert p.scaled(k).terms == {m: k * c for m, c in p.terms.items() if k * c != 0}
    want = {}
    for a, ca in p.terms.items():
        for b, cb in q.terms.items():
            key = mul_mono(a, b, "br")
            want[key] = want.get(key, 0) + ca * cb
    assert apply_op("br", [p, q]).terms == {m: c for m, c in want.items() if c != 0}
    p, q, r = (Poly({m: c for m, c in x.terms.items() if m is not UNIT}) for x in (p, q, r))
    want = {}
    for a, ca in p.terms.items():
        for b, cb in q.terms.items():
            for c, cc in r.terms.items():
                key = Node("T", (a, b, c))
                want[key] = want.get(key, 0) + ca * cb * cc
    assert apply_op("T", [p, q, r]).terms == {m: c for m, c in want.items() if c != 0}


@settings(max_examples=300, deadline=None)
@given(polys)
def test_render_parse_roundtrip_on_generated_polys(p):
    assert parse_poly(render_poly(p)) == p
