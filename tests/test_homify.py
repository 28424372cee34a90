"""Tests for the identity-twisting procedure and the builtin catalog."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from homforge.expr import (
    Leaf,
    Node,
    Poly,
    Signature,
    apply_alpha,
    apply_op,
    collect,
    leaves,
    mul,
    parse_poly,
    rename_leaves,
)
from homforge.homify import (
    HomifyError,
    IdentitySystem,
    bracket,
    catalog,
    catalog_names,
    hom_jacobiator,
    hom_teichmuller_terms,
    homify_identity,
    homify_monomial,
    hsab1_instance,
    hsab2_instance,
    hsab3_instance,
    hsab4_instances,
    identity_system_from_json,
    identity_system_to_json,
    right_normed_homified,
    right_normed_word,
    sabinin_axiom_instances,
)
from homforge.rationals import rat

V = Poly.gen
al = apply_alpha


def mono(s):
    ((m, _),) = parse_poly(s).terms.items()
    return m


def test_homify_printed_examples():
    assert homify_monomial(mono("((x*y)*z)")) == mono("((x*y)*A^1(z))")
    assert homify_monomial(mono("(x*(y*z))")) == mono("(A^1(x)*(y*z))")
    assert homify_monomial(mono("x")) == mono("x")
    # ternary: [u,v,[x,y,z]] -> [a^2(u), a^2(v), [x,y,z]]
    assert homify_monomial(mono("tri(u,v,tri(x,y,z))")) == mono(
        "tri(A^2(u),A^2(v),tri(x,y,z))"
    )


def test_homify_rejects_decorated_and_nonmultilinear():
    with pytest.raises(HomifyError):
        homify_monomial(mono("(A^1(x)*y)"))
    with pytest.raises(HomifyError):
        homify_identity(parse_poly("(x*x)"))
    with pytest.raises(HomifyError):
        homify_identity(parse_poly("(x*y) - (x*z)"))


def test_homify_identity_examples():
    assoc = parse_poly("((x*y)*z) - (x*(y*z))")
    assert homify_identity(assoc) == parse_poly("((x*y)*A^1(z)) - (A^1(x)*(y*z))")
    anti = parse_poly("(x*y) + (y*x)")
    assert homify_identity(anti) == anti  # no internal node excludes any leaf
    jac = parse_poly("((x*y)*z) + ((y*z)*x) + ((z*x)*y)")
    assert homify_identity(jac) == hom_jacobiator(V("x"), V("y"), V("z"))


def _all_binary_trees(n, letters):
    """All binary trees on n distinct leaves, as monomials."""
    if n == 1:
        return [Leaf(letters[0], 0)]
    out = []
    for k in range(1, n):
        for l in _all_binary_trees(k, letters[:k]):
            for r in _all_binary_trees(n - k, letters[k:]):
                out.append(Node("mu", (l, r)))
    return out


def _nodes_off_path(m, target_pos):
    """Independent recount: internal nodes not on the root path of a leaf."""
    all_nodes = []

    def collect(t, path):
        if isinstance(t, Leaf):
            return [(t, list(path))]
        all_nodes.append(t)
        out = []
        for a in t.args:
            out += collect(a, path + [t])
        return out

    leaf_paths = collect(m, [])
    leaf, path = leaf_paths[target_pos]
    on_path = {id(n) for n in path}
    return sum(1 for n in all_nodes if id(n) not in on_path)


def test_exponent_recount_up_to_six_leaves():
    """Each leaf's exponent equals the number of internal nodes off its path."""
    for n in range(1, 7):
        letters = [f"v{i}" for i in range(n)]
        for tree in _all_binary_trees(n, letters):
            hm = homify_monomial(tree)
            for pos, leaf in enumerate(leaves(hm)):
                assert leaf.exp == _nodes_off_path(tree, pos)


def test_homify_commutes_with_renaming():
    p = parse_poly("((a*b)*c) - (a*(b*c)) + tri(a,b,c)")
    mapping = {"a": "p", "b": "q", "c": "r"}
    lhs = homify_identity(
        Poly({rename_leaves(m, mapping): c for m, c in p.terms.items()})
    )
    rhs = Poly(
        {rename_leaves(m, mapping): c for m, c in homify_identity(p).terms.items()}
    )
    assert lhs == rhs


def test_right_normed_words():
    assert right_normed_homified(("x",)) == mono("x")
    assert right_normed_homified(("x", "y")) == mono("(x*y)")
    assert right_normed_homified(("x", "y", "z")) == mono("((x*y)*A^1(z))")
    assert right_normed_word(("x", "y", "z", "w")) == mono("(((x*y)*z)*w)")


def test_catalog_counts_and_contents():
    assert len(catalog("hom_associative").identities) == 1
    assert len(catalog("hom_associative").identities[0].terms) == 2
    assert len(catalog("hom_lie").identities) == 2
    assert len(catalog("hom_btqq").identities) == 5
    assert len(catalog("hom_bol").identities) == 5
    assert len(catalog("hom_lie_yamaguti").identities) == 6
    assert len(catalog("hom_lts").identities) == 3
    with pytest.raises(HomifyError):
        catalog("no_such_system")
    assert "hom_malcev" in catalog_names()


def test_catalog_roundtrip_ordinary_to_hom():
    """The derived Hom forms equal printed displays (with criterion 1 these
    cover binary, ternary, mixed and 4-ary nodes) and keep the ordinary
    system's signature and identity order."""
    printed = {
        ("hom_bol", 3): (
            "tri(A^1(x),A^1(y),(u*v)) - (tri(x,y,u)*A^2(v)) - (A^2(u)*tri(x,y,v))"
            " - tri(A^1(u),A^1(v),(x*y)) + ((A^1(u)*A^1(v))*(A^1(x)*A^1(y)))"
        ),
        ("hom_btqq", 2): (
            "tri((a*b),A^1(c),A^1(d)) - (A^2(a)*tri(b,c,d)) + (A^2(b)*tri(a,c,d))"
            " - qa(a,b,c,d) + qa(b,a,c,d)"
        ),
    }
    for (name, pos), text in printed.items():
        assert catalog(name).identities[pos] == parse_poly(text), name
    for ord_name in ("associative", "lie", "akivis", "lts", "3lie", "bol",
                     "lie_yamaguti", "btqq", "alternative"):
        ordinary = catalog(ord_name)
        hom = catalog(f"hom_{ord_name}")
        assert not ordinary.hom_form and hom.hom_form
        assert hom.name == f"hom_{ord_name}" and hom.signature == ordinary.signature
        assert len(hom.identities) == len(ordinary.identities)


def test_exponent_erasure_recovers_ordinary():
    """Interpreting alpha as the identity undoes the twisting on every entry."""

    def erase(p):
        out = {}
        for m, c in p.terms.items():
            from homforge.expr import map_leaves

            key = map_leaves(m, lambda l: Leaf(l.base, 0))
            out[key] = out.get(key, 0) + c
        return Poly(out)

    for ord_name, hom_name in [
        ("associative", "hom_associative"),
        ("lie", "hom_lie"),
        ("akivis", "hom_akivis"),
        ("bol", "hom_bol"),
        ("lts", "hom_lts"),
    ]:
        ordinary = catalog(ord_name)
        hom = catalog(hom_name)
        assert tuple(erase(p) for p in hom.identities) == ordinary.identities


def test_lts_fundamental_alpha_squared():
    fund = catalog("hom_lts").identities[2]
    u, v, x, y, z = (V(n) for n in "uvxyz")
    t = lambda a, b, c: apply_op("tri", [a, b, c])
    expected = (
        t(al(u, 2), al(v, 2), t(x, y, z))
        - t(t(u, v, x), al(y, 2), al(z, 2))
        - t(al(x, 2), t(u, v, y), al(z, 2))
        - t(al(x, 2), al(y, 2), t(u, v, z))
    )
    assert fund == expected


def test_malcev_identity_matches_paper():
    """J_alpha(alpha(x), alpha(y), [x,z]) = [J_alpha(x,y,z), alpha^2(x)]."""
    got = catalog("hom_malcev").identities[1]
    x, y, z = V("x"), V("y"), V("z")
    expected = hom_jacobiator(al(x, 1), al(y, 1), mul(x, z)) - mul(
        hom_jacobiator(x, y, z), al(x, 2)
    )
    assert got == expected


def test_teichmuller_ordinary_homifies_termwise():
    """Each ordinary Teichmuller term twists to its printed Hom counterpart."""
    from homforge.homify import hom_associator, teichmuller_terms

    A = hom_associator
    w, x, y, z = (V(n) for n in "wxyz")
    printed = [
        (1, A(mul(w, x), al(y, 1), al(z, 1))),
        (-1, A(al(w, 1), mul(x, y), al(z, 1))),
        (1, A(al(w, 1), al(x, 1), mul(y, z))),
        (-1, mul(al(w, 2), A(x, y, z))),
        (-1, mul(A(w, x, y), al(z, 2))),
    ]
    assert hom_teichmuller_terms() == printed
    ordinary = teichmuller_terms()
    assert [c for c, _ in ordinary] == [c for c, _ in printed]
    total = Poly.zero()
    for c, p in ordinary:
        total = total + p.scaled(c)
    assert total.is_zero()  # the classical identity also cancels


def test_teichmuller_expands_to_zero():
    terms = hom_teichmuller_terms()
    assert len(terms) == 5
    tree_terms = sum(len(p.terms) for _, p in terms)
    assert tree_terms == 10
    total = Poly.zero()
    for c, p in terms:
        total = total + p.scaled(c)
    assert total.is_zero()
    assert catalog("hom_teichmuller").identities[0].is_zero()


def test_hsab1_instances():
    assert hsab1_instance(0) == bracket([], V("a"), V("b")) + bracket([], V("b"), V("a"))
    inst = hsab1_instance(2)
    assert all(len(m.args) == 4 for m in inst.terms)


def test_hsab3_zero_prefix_is_akivis_shaped():
    """n=0: cyclic sum of <c;a,b> + <<a,b>, alpha(c)>, built two ways."""
    inst = hsab3_instance(0)
    expected = Poly.zero()
    names = ("a", "b", "c")
    for shift in range(3):
        a, b, c = (V(names[(i + shift) % 3]) for i in range(3))
        expected = expected + apply_op("br1", [c, a, b]) + apply_op(
            "br0", [apply_op("br0", [a, b]), al(c, 1)]
        )
    assert inst == expected


def test_hsab3_prefix_one_has_printed_exponents():
    """n=1 summands carry alpha^(|x_(2)|+1) exactly as displayed."""
    inst = hsab3_instance(1)
    x1 = V("x1")
    expected = Poly.zero()
    names = ("a", "b", "c")
    for shift in range(3):
        a, b, c = (V(names[(i + shift) % 3]) for i in range(3))
        expected = expected + apply_op("br2", [x1, c, a, b])
        # x_(1) = x1, x_(2) = empty: k = 1
        expected = expected + apply_op(
            "br1", [al(x1, 1), apply_op("br0", [a, b]), al(c, 1)]
        )
        # x_(1) = empty, x_(2) = x1: k = 2
        expected = expected + apply_op(
            "br0", [apply_op("br1", [x1, a, b]), al(c, 2)]
        )
    assert inst == expected


def test_hsab2_zero_prefix():
    inst = hsab2_instance(0, 0)
    a, b, c, e = (V(n) for n in "abce")
    expected = (
        apply_op("br2", [a, b, c, e])
        - apply_op("br2", [b, a, c, e])
        + apply_op("br1", [apply_op("br0", [a, b]), al(c, 1), al(e, 1)])
    )
    assert inst == expected


def test_hsab2_prefix_one_monomial_count():
    # |x| = 1, |y| = 0: two antisymmetrized words plus two coproduct summands
    inst = hsab2_instance(1, 0)
    assert len(inst.terms) == 4
    # |x| = 0, |y| = 1: the empty prefix has a single coproduct splitting
    inst2 = hsab2_instance(0, 1)
    assert len(inst2.terms) == 3


def test_hsab4_instances():
    out = hsab4_instances(1, 2)
    assert len(out) == 1  # only the y-swap is nontrivial
    out2 = hsab4_instances(2, 2)
    assert len(out2) == 3
    with pytest.raises(HomifyError):
        hsab4_instances(0, 2)


def test_sabinin_axiom_instance_labels():
    labels = [l for l, _ in sabinin_axiom_instances(1, ms=[2])]
    assert "Hsab1[n=1]" in labels
    assert "Hsab2[p=0,q=1]" in labels and "Hsab2[p=1,q=0]" in labels
    assert "Hsab3[n=1]" in labels
    assert any(l.startswith("Hsab4[n=1,m=2]") for l in labels)


def test_identity_system_json_roundtrip():
    system = catalog("hom_akivis")
    again = identity_system_from_json(identity_system_to_json(system))
    assert again.identities == system.identities
    assert again.signature == system.signature
    assert again.hom_form == system.hom_form


_leaf_st = st.builds(Leaf, st.sampled_from("xyz"), st.integers(0, 2))
_tree_st = st.recursive(
    _leaf_st,
    lambda kids: st.one_of(
        st.builds(lambda a, b: Node("mu", (a, b)), kids, kids),
        st.builds(lambda a, b, c: Node("tri", (a, b, c)), kids, kids, kids),
    ),
    max_leaves=5,
)
_coeff_st = st.one_of(
    st.integers(-5, 5).filter(bool).map(rat),
    st.builds(rat, st.integers(-5, 5).filter(bool), st.integers(1, 4)),
)
_poly_st = st.lists(st.tuples(_tree_st, _coeff_st), min_size=1, max_size=4).map(
    lambda terms: Poly(collect(terms))
)


@settings(max_examples=100, deadline=None)
@given(st.lists(_poly_st, min_size=1, max_size=3), st.booleans())
def test_generated_identity_json_round_trips(polys, hom_form):
    """JSON -> identity_system_from_json -> JSON is the identity on generated
    systems: arity-2 and arity-3 ops, A^k leaves, integral and rational
    coefficients; an integral coefficient reads back as an int, also when the
    file writes it as a JSON integer."""
    system = IdentitySystem("gen", Signature([("mu", 2), ("tri", 3)]), tuple(polys), hom_form)
    doc = json.loads(json.dumps(identity_system_to_json(system)))
    again = identity_system_from_json(doc)
    assert identity_system_to_json(again) == doc
    assert again.identities == system.identities
    for p in again.identities:
        assert all(type(c) is int or c.denominator != 1 for c in p.terms.values())
    for ident in doc["identities"]:
        for t in ident["terms"]:
            if "/" not in t["coeff"]:
                t["coeff"] = int(t["coeff"])
    assert identity_system_from_json(doc).identities == system.identities
