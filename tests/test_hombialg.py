"""Tests for coproducts, primitives, antipodes, and the bounded quotients."""


import itertools
import math
import re
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    all_binary_monomials,
    antipode_defect_by_polys,
    delta_by_partitions,
    delta_by_products,
    enumerate_commutative_trees,
    enumerate_pairswap_trees,
    pbw_dims,
    tree_component,
    we_colored_counts,
)

from homforge.expr import (
    Leaf,
    Node,
    Poly,
    SignatureError,
    UNIT,
    alpha_mono,
    apply_op,
    collect,
    degree,
    expand,
    leaves,
    lincomb,
    map_leaves,
    mono_key,
    mul,
    mul_mono,
    parse_poly,
    render_poly,
)
from homforge.fdalg import (
    AlgebraSpec,
    MultilinearOp,
    builtin_algebra,
    check_sabinin_axioms,
    hom_version,
    identity_matrix,
    matrix,
    sabinin_from,
    zero_matrix,
)
from homforge.hombialg import (
    _build_from_shape,
    _relation_templates,
    _shape_depths,
    _tree_shapes,
    BoundsError,
    FilteredQuotient,
    FreeHomAssocQuotient,
    Reduction,
    Template,
    TensorElement,
    alpha_injectivity_probe,
    antipode,
    antipode_defect,
    check_antipode,
    check_bialgebra,
    check_coassociative,
    check_cocommutative,
    check_counit_laws,
    check_ideal_coproduct,
    counit,
    counit_mono,
    delta,
    delta_summand,
    expand_exponents,
    is_primitive,
    phi_word,
    pi_map,
    u_hom,
    u_hom_relations,
)
from homforge.homify import hom_associator, homify_identity
from homforge.linalg import RowSpace
from homforge.qops import QSolver, yiii_hom
from homforge.rationals import ONE, rat

V = Poly.gen


def mono(s):
    ((m, _),) = parse_poly(s).terms.items()
    return m


def test_delta_on_generator_and_unit():
    x = mono("x")
    assert delta(x) == TensorElement({(UNIT, x): rat(1), (x, UNIT): rat(1)})
    assert delta(UNIT) == TensorElement({(UNIT, UNIT): rat(1)})
    # decorated generators are primitive too: alpha of a primitive is primitive
    ax = mono("A^3(x)")
    assert delta(ax) == TensorElement({(UNIT, ax): rat(1), (ax, UNIT): rat(1)})


def test_delta_of_product_of_three():
    """The worked 4-term expansion of Delta((xy)z)."""
    m = mono("((x*y)*z)")
    got = delta(m)
    pairs = {
        (m, UNIT): 1,
        (UNIT, m): 1,
        (mono("(A^1(x)*A^1(y))"), mono("A^1(z)")): 1,
        (mono("A^1(z)"), mono("(A^1(x)*A^1(y))")): 1,
        (mono("(A^1(y)*z)"), mono("A^2(x)")): 1,
        (mono("A^2(x)"), mono("(A^1(y)*z)")): 1,
        (mono("(A^1(x)*z)"), mono("A^2(y)")): 1,
        (mono("A^2(y)"), mono("(A^1(x)*z)")): 1,
    }
    assert got == TensorElement({k: rat(v) for k, v in pairs.items()})


def test_delta_summand_examples():
    m = mono("((x*y)*z)")
    assert delta_summand(m, {0}) == (mono("A^2(x)"), mono("(A^1(y)*z)"))
    assert delta_summand(m, {0, 1}) == (mono("(A^1(x)*A^1(y))"), mono("A^1(z)"))
    assert delta_summand(m, {0, 1, 2}) == (m, UNIT)
    assert delta_summand(m, set()) == (UNIT, m)
    with pytest.raises(ValueError):
        delta_summand(m, {5})


def _all_trees(letters):
    if len(letters) == 1:
        return [Leaf(letters[0], 0)]
    out = []
    for k in range(1, len(letters)):
        for l in _all_trees(letters[:k]):
            for r in _all_trees(letters[k:]):
                out.append(Node("mu", (l, r)))
    return out


def test_partition_algorithm_agrees_with_recursive():
    """Both coproduct algorithms agree on every monomial with <= 5 leaves."""
    for n in range(1, 6):
        for tree in _all_trees([f"g{i}" for i in range(n)]):
            assert delta_by_partitions(tree) == delta(tree), tree
    # repeated letters as well
    for tree in _all_trees(["x", "x", "y"]) + _all_trees(["x", "x", "x", "y"]):
        assert delta_by_partitions(tree) == delta(tree)


def test_cocommutative_and_coassociative():
    monos = [mono(s) for s in ["x", "(x*y)", "((x*y)*z)", "(x*(y*z))", "((x*y)*(z*w))", "(((x*y)*z)*w)"]]
    assert check_cocommutative(monos).ok
    assert check_coassociative(monos).ok


def test_counit_laws():
    monos = [mono(s) for s in ["x", "(x*y)", "((x*y)*z)"]]
    report = check_counit_laws(monos)
    assert report.ok
    assert counit_mono(UNIT) == 1 and counit_mono(mono("x")) == 0
    assert counit(Poly.unit(rat(5)) + V("x")) == 5


def test_primitive_elements():
    assert is_primitive(parse_poly("(x*y) - (y*x)"))
    assert not is_primitive(parse_poly("(x*y)"))
    assert not is_primitive(Poly.unit())
    assert is_primitive(hom_associator(V("x"), V("y"), V("z")))


def _comm(p, q):
    return mul(p, q) - mul(q, p)


def test_homified_classical_primitives_are_primitive():
    """Twisting a classical primitive yields a Hom-bialgebra primitive."""
    x, y, z = V("x"), V("y"), V("z")
    classical_primitives = [
        _comm(x, y),
        mul(mul(x, y), z) - mul(x, mul(y, z)),  # the associator
        _comm(_comm(x, y), z),  # Akivis-type double bracket
        _comm(_comm(x, y), z) + _comm(_comm(y, z), x) + _comm(_comm(z, x), y),
    ]
    for p in classical_primitives:
        assert is_primitive(homify_identity(p))


def test_q_operations_are_primitive():
    s = QSolver()
    for n, m in [(1, 1), (2, 1), (1, 2)]:
        u = tuple(f"x{i}" for i in range(n))
        v = tuple(f"y{j}" for j in range(m))
        assert is_primitive(s.q(u, v, "z")), (n, m)


def test_antipode_basic():
    assert antipode(V("x")) == V("x").scaled(-1)
    assert antipode(Poly.unit()) == Poly.unit()
    # S(uv) = S(v)S(u)
    assert antipode(parse_poly("(x*y)")) == parse_poly("(y*x)")
    assert antipode(parse_poly("((x*y)*z)")) == parse_poly("-(z*(y*x))")
    assert antipode(parse_poly("A^2(x)")) == parse_poly("A^2(x)").scaled(-1)


def test_antipode_defect_shapes():
    # |u| = 1 and |u| = 2 cancel before any quotient reduction
    assert antipode_defect(mono("x")).is_zero()
    assert antipode_defect(mono("(x*y)")).is_zero()
    # |u| = 3 leaves the four-term residue the paper displays
    defect = antipode_defect(mono("((x*y)*z)"))
    assert len(defect.terms) == 4
    want = (
        parse_poly("A^3(x)*(A^1(z)*A^2(y))")
        + parse_poly("A^3(y)*(A^1(z)*A^2(x))")
        - parse_poly("(A^2(y)*A^1(z))*A^3(x)")
        - parse_poly("(A^2(x)*A^1(z))*A^3(y)")
    )
    assert defect == want


def test_antipode_printed_examples():
    for s in ["x", "(x*y)", "((x*y)*z)", "((a*(b*c))*d)"]:
        res = check_antipode(mono(s))
        assert res.ok, (s, render_poly(res.normal_form))


def test_antipode_exhaustive_degree_three():
    """Every unit-free monomial of degree <= 3 over three generators."""
    gens = ("a", "b", "c")
    quotient = FreeHomAssocQuotient(gens, 3, 6)
    for d in range(1, 4):
        for m in all_binary_monomials(gens, d):
            res = check_antipode(m, quotient=quotient)
            assert res.ok, m


def _dec(m):
    return map_leaves(m, lambda l: Leaf(l.base, l.exp - 1))


def _two_way_rewrites(m):
    """Every rewrite of one subtree of m by Hom-associativity, in both
    directions: alpha(A)(BC) -> (AB)alpha(C) and (AB)alpha(C) -> alpha(A)(BC)."""
    if isinstance(m, Leaf):
        return []
    a, b = m.args
    out = []
    if isinstance(b, Node) and min(l.exp for l in leaves(a)) >= 1:
        out.append(Node(m.op, (Node(m.op, (_dec(a), b.args[0])),
                               alpha_mono(b.args[1], 1))))
    if isinstance(a, Node) and min(l.exp for l in leaves(b)) >= 1:
        out.append(Node(m.op, (alpha_mono(a.args[0], 1),
                               Node(m.op, (a.args[1], _dec(b))))))
    out += [Node(m.op, (s, b)) for s in _two_way_rewrites(a)]
    out += [Node(m.op, (a, s)) for s in _two_way_rewrites(b)]
    return out


def _two_way_component(signature, exp_bound):
    """A reference component: rows for the rewrites in both directions,
    truncated when the enumeration or a rewrite target leaves the exponent
    bound. The enumeration meets a tree above the bound only when none of
    its exponents is negative: a negative one means there is no tree. The
    members are numbered in mono_key order, as the component numbers its
    own, so the two row spaces share their columns."""
    members, truncated = set(), False
    for shape in _tree_shapes(len(signature)):
        depths = _shape_depths(shape)
        for perm in set(itertools.permutations(signature)):
            exps = [phi - d for (_, phi), d in zip(perm, depths)]
            if all(0 <= e <= exp_bound for e in exps):
                lvs = (Leaf(base, e) for (base, _), e in zip(perm, exps))
                members.add(_build_from_shape(shape, lvs))
            elif min(exps) >= 0:
                truncated = True
    position = {m: i for i, m in enumerate(sorted(members, key=mono_key))}
    space = RowSpace()
    for m in members:
        for m2 in _two_way_rewrites(m):
            if m2 in members:
                space.add({position[m]: rat(1), position[m2]: rat(-1)})
            else:
                truncated = True
    return members, space, truncated


def test_component_matches_two_way_rewrites():
    """Rewriting in one direction within each phi word, with truncation
    taken from the enumeration alone, gives over the words that order a
    signature the same monomials, summed rank and row space, and the same
    truncated flag, as both directions on the signature's trees with
    out-of-bounds targets marking truncation. Every relation of the latter
    joins trees of one word."""
    words = [m for d in range(1, 5)
             for m in FreeHomAssocQuotient(("a", "b", "c"), d, 1).monomials_of_degree(d)]
    words += FreeHomAssocQuotient(("a", "b"), 5, 1).monomials_of_degree(5)
    signatures = {tuple(sorted(phi_word(m))) for m in words}
    assert len(signatures) > 1000
    for exp_bound in (1, 2, 3, 6):
        q = FreeHomAssocQuotient(("a", "b", "c"), 5, exp_bound)
        for sig in signatures:
            members, space, truncated = _two_way_component(sig, exp_bound)
            ordered = sorted(members, key=mono_key)
            position = {m: i for i, m in enumerate(ordered)}
            comps = [q.component(w) for w in set(itertools.permutations(sig))]
            trees = [list(comp.monomials) for comp in comps]
            column = {m: (comp, i) for comp, ts in zip(comps, trees) for i, m in enumerate(ts)}
            assert column.keys() == members and sum(map(len, trees)) == len(members)
            assert (sum(c.rank for c in comps), any(c.truncated for c in comps)) == (
                space.rank, truncated), sig
            for comp, ts in zip(comps, trees):
                for row in comp.shapes.space.rows.values():
                    assert not space.reduce({position[ts[i]]: c for i, c in row.items()}), sig
            for row in space.rows.values():
                (comp,) = {column[ordered[i]][0] for i in row}
                assert not comp.shapes.space.reduce(
                    {column[ordered[i]][1]: c for i, c in row.items()}), sig


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.tuples(st.sampled_from("abc"), st.integers(0, 6)), min_size=1, max_size=6),
    st.integers(0, 6),
)
def test_component_matches_tree_enumeration(word, exp_bound):
    """Columns from the shape tables and rows from shape rotations give a
    phi word's trees in the same order, its rows stored in the same order
    and its truncated flag, as enumerating the trees of the word's
    signature, sorting them by mono_key and rewriting subtrees."""
    word = tuple(word)
    comp = FreeHomAssocQuotient(("a", "b", "c"), len(word), exp_bound).component(word)
    monomials, space, above = tree_component(tuple(sorted(word)), exp_bound)
    mine = [m for m in monomials if phi_word(m) == word]
    assert (list(comp.monomials), comp.truncated) == (mine, word in above)
    position = {m: i for i, m in enumerate(monomials)}
    assert [(position[mine[p]], {position[mine[i]]: c for i, c in row.items()})
            for p, row in comp.shapes.space.rows.items()] == [
        (p, row) for p, row in space.rows.items() if phi_word(monomials[p]) == word]


@st.composite
def _bounded_polys(draw):
    """(exponent bound, a polynomial of trees over a, b of degree <= 5
    inside it): drawn trees, each with some of its Hom-associativity
    rewrites in bounds, on small integer coefficients."""
    exp_bound = draw(st.integers(0, 3))
    leaf = st.builds(Leaf, st.sampled_from("ab"), st.integers(0, exp_bound))
    tree = st.recursive(leaf, lambda t: st.builds(lambda a, b: Node("mu", (a, b)), t, t),
                        max_leaves=5).filter(lambda m: degree(m) <= 5)
    terms = []
    for m in draw(st.lists(tree, min_size=1, max_size=4)):
        terms.append(m)
        near = [r for r in _two_way_rewrites(m) if max(l.exp for l in leaves(r)) <= exp_bound]
        if near:
            terms += draw(st.lists(st.sampled_from(near), max_size=3))
    coeffs = draw(st.lists(st.integers(-2, 2), min_size=len(terms), max_size=len(terms)))
    return exp_bound, Poly(collect(zip(terms, coeffs)))


@settings(max_examples=150, deadline=None)
@given(_bounded_polys())
def test_reduce_matches_signature_components(case):
    """Reducing by phi word gives the normal form that reducing each
    signature's terms against all of that signature's trees gives, and the
    status that the words met with a tree above the bound give."""
    exp_bound, p = case
    groups = {}
    for m, c in p.terms.items():
        groups.setdefault(tuple(sorted(phi_word(m))), {})[m] = c
    nf, truncated = {}, False
    for sig, terms in groups.items():
        monomials, space, above = tree_component(sig, exp_bound)
        position = {m: i for i, m in enumerate(monomials)}
        res = space.reduce({position[m]: c for m, c in terms.items()})
        nf.update((monomials[i], c) for i, c in res.items())
        truncated = truncated or any(phi_word(m) in above for m in terms)
    red = FreeHomAssocQuotient(("a", "b"), 5, exp_bound).reduce(p)
    assert red.normal_form == Poly(nf)
    assert red.status == Reduction(Poly(nf), truncated).status


def _rewrite_classes(comp):
    """Classes of the component's monomials under Hom-associativity
    rewrites, by union-find over the edges that stay inside the component."""
    members = set(comp.monomials)
    parent = {m: m for m in members}

    def find(m):
        while parent[m] != m:
            parent[m] = parent[parent[m]]
            m = parent[m]
        return m

    for m in comp.monomials:
        for m2 in _two_way_rewrites(m):
            if m2 in members:
                parent[find(m)] = find(m2)
    return len({find(m) for m in members})


# the degree-5 antipode words of the benchmark's cost classes
DEGREE_FIVE_WORDS = [
    "(((a*b)*a)*(b*c))", "((a*b)*(c*(b*c)))", "((a*b)*((a*c)*c))", "((a*b)*(c*(a*b)))",
    "(a*((b*c)*(d*e)))", "(((a*a)*(b*b))*c)", "(((a*b)*(b*a))*c)",
]


def test_quotient_rank_matches_union_find():
    """The relations are binomial, so each component's rank is its number of
    monomials minus its number of rewrite classes."""
    shared = FreeHomAssocQuotient(("a", "b", "c"), 4, 8)
    for d in range(1, 5):
        for m in all_binary_monomials(("a", "b", "c"), d):
            shared.component(phi_word(m))
            assert check_antipode(m, quotient=shared).ok, m
    components = list(shared._components.values())
    for w in DEGREE_FIVE_WORDS:
        m = mono(w)
        # the quotient check_antipode builds by default: degree 5, exponent 10
        q = FreeHomAssocQuotient(sorted(set(w) - set("(*)")), 5, 10)
        assert check_antipode(m, quotient=q).ok, w
        components += q._components.values()
    assert len(components) > 100
    for comp in components:
        assert comp.rank == len(comp.monomials) - _rewrite_classes(comp), comp.word


def test_truncation_needs_a_tree_above_the_bound():
    """A shape that gives a negative exponent on any leaf is no tree, so it
    cannot truncate its word's component, whichever leaf is met first."""
    m = mono("((A^1(a)*b)*c)")
    # the word (a, 3), (b, 2), (c, 1) on the other shape, x*(y*z), would be
    # A^2(a)*(b*A^-1(c)): a above the bound, then c negative, so m is the
    # only tree
    comp = FreeHomAssocQuotient(("a", "b", "c"), 3, 1).component(phi_word(m))
    assert (len(comp.monomials), comp.rank, comp.truncated) == (1, 0, False)
    assert FreeHomAssocQuotient(("a", "b", "c"), 3, 1).reduce(Poly.monomial(m)).status == "nonzero"
    abc = Poly.monomial(mono("((a*b)*c)"))
    assert FreeHomAssocQuotient(("a", "b", "c"), 3, 0).reduce(abc).status == "nonzero"


def test_antipode_degree_six_repeated_word():
    assert check_antipode(mono("((a*b)*(a*b))*(a*b)")).status == "pass"


def test_antipode_degree_six_distinct_letters():
    """The defect meets 32 phi words, whose components hold 980 monomials,
    with the default bounds."""
    assert check_antipode(mono("((a*b)*(c*d))*(e*f)")).status == "pass"


def test_antipode_degree_seven_and_eight():
    """The degree-7 word meets 64 phi words of 4,720 monomials, the degree-8
    word 126 of 12,068, with the default bounds."""
    assert check_antipode(mono("((a*b)*(c*d))*((e*f)*g)")).status == "pass"
    assert check_antipode(mono("(((a*b)*(c*d))*((e*f)*g))*h")).status == "pass"


def test_antipode_inconclusive_on_tight_bounds():
    """Only a caller's quotient can leave the check inconclusive."""
    m = mono("((x*y)*z)")
    res = check_antipode(m, quotient=FreeHomAssocQuotient(("x", "y", "z"), 3, 1))
    assert res.status in ("inconclusive", "pass")
    # with exponent bound 0 the defect itself is out of bounds
    res2 = check_antipode(m, quotient=FreeHomAssocQuotient(("x", "y", "z"), 3, 0))
    assert res2.status == "inconclusive" and res2.bounds_error


@st.composite
def twisted_words(draw):
    """A binary word of degree <= 5 over a-c, leaf exponents 0 to 9."""
    n = draw(st.integers(1, 5))
    shape = draw(st.sampled_from(_tree_shapes(n)))
    lvs = [Leaf(draw(st.sampled_from("abc")), draw(st.integers(0, 9))) for _ in range(n)]
    return _build_from_shape(shape, iter(lvs))


@settings(max_examples=100, deadline=None)
@given(twisted_words())
def test_antipode_decides_every_twisted_word(m):
    """The bounds check_antipode takes from the word truncate nothing: the
    defect reduces to zero, and its components in the quotient of degree d
    and exponent 2d + e_max hold every tree of their phi words."""
    res = check_antipode(m)
    assert res.status == "pass", render_poly(res.normal_form)
    d, lvs = degree(m), leaves(m)
    e_max = max(l.exp for l in lvs)
    assert (res.degree_bound, res.exp_bound) == (d, 2 * d + e_max)
    q = FreeHomAssocQuotient(sorted({l.base for l in lvs}), d, 2 * d + e_max)
    assert not q.reduce(antipode_defect(m)).truncated


def test_quotient_kills_hom_associativity_generator():
    q = FreeHomAssocQuotient(("x", "y", "z"), 3, 3)
    gen = parse_poly("(A^1(x)*(y*z)) - ((x*y)*A^1(z))")
    assert q.reduce(gen).is_zero()
    # nf is idempotent
    p = parse_poly("(A^1(x)*(y*z))")
    assert q.nf(q.nf(p)) == q.nf(p)


def _degree_report(q, n):
    """(quotient dimension, relation rank) of the degree-n piece of q."""
    monos = q.monomials_of_degree(n)
    rank = sum(q.component(word).rank for word in {phi_word(m) for m in monos})
    return len(monos) - rank, rank


def test_quotient_degree_two_has_no_relations():
    q = FreeHomAssocQuotient(("x", "y"), 3, 2)
    dim, rank = _degree_report(q, 2)
    assert rank == 0
    # 1 shape, 2^2 letter choices, 3^2 exponent choices
    assert dim == 4 * 9
    p = parse_poly("(x*A^2(y)) + 2*(y*x)")
    assert q.nf(p) == p


def test_quotient_bounds_errors():
    q = FreeHomAssocQuotient(("x",), 2, 1)
    with pytest.raises(BoundsError):
        q.nf(parse_poly("((x*x)*x)"))
    with pytest.raises(BoundsError):
        q.nf(parse_poly("A^2(x)"))
    with pytest.raises(BoundsError):
        q.nf(parse_poly("q"))
    # the quotient has only the product mu: another product is refused, not
    # left standing as a nonzero normal form
    with pytest.raises(SignatureError, match="only the product 'mu', not 'br'"):
        FreeHomAssocQuotient(("a", "b"), 2, 2).nf(parse_poly("br(a,b)"))
    with pytest.raises(SignatureError, match="binary products only"):
        FreeHomAssocQuotient(("a", "b", "c"), 3, 2).nf(parse_poly("mu(a,b,c)"))
    with pytest.raises(SignatureError):
        check_antipode(mono("br(a,b)"))


def test_alpha_injectivity_probe():
    report = alpha_injectivity_probe(("x", "y"), 3, 2)
    assert report == {1: "pass", 2: "pass", 3: "pass"}
    # the kernel vector of degree 4 that does not reduce lies in a component
    # with no tree above the exponent bound, so the section fails
    assert alpha_injectivity_probe(("x",), 4, 1)[4] == "fail"
    assert alpha_injectivity_probe(("x",), 4, 2)[4] == "fail"


def _relation_polys(fam, degree_bound):
    """u_hom_relations' rows as polynomials, each column mapped back to its
    tree through the columns of the quotient they number."""
    columns = FilteredQuotient(fam.spec, [], degree_bound)._columns
    return [Poly({columns[i]: c for i, c in r.items()})
            for r in u_hom_relations(fam, degree_bound)]


def test_u_hom_alpha_zero_relations_collapse():
    """With alpha = 0 the ideal reduces to <xy - yx - [x,y]>."""
    sl2 = builtin_algebra("sl2").with_alpha(zero_matrix(3))
    fam = sabinin_from(sl2, "lie", cutoff=2)
    rels = _relation_polys(fam, 4)
    # q vanishes identically at alpha = 0, so only the commutator family remains
    assert len(rels) == 3
    for r in rels:
        degrees = sorted({sum(1 for _ in _leaves(m)) for m in r.terms})
        assert degrees == [1, 2]


def _leaves(m):
    from homforge.expr import leaves

    return leaves(m)


def test_u_hom_alpha_zero_sl2_dimensions():
    sl2 = builtin_algebra("sl2").with_alpha(zero_matrix(3))
    fam = sabinin_from(sl2, "lie", cutoff=2)
    U = u_hom(fam, 4)
    # degree-1 dimension 3: pi is injective on L
    assert U.filtration_dim(1) == 3
    for i in range(3):
        assert pi_map(U, i) == Poly.gen(U.spec.basis[i])
    # the graded dimensions match the paper's associated graded model,
    # K{L} / <xy - yx : x, y generators>, enumerated independently
    graded = U.graded_dims()
    expected = {d: enumerate_pairswap_trees(3, d) for d in range(1, 5)}
    assert graded == expected
    assert graded == {1: 3, 2: 6, 3: 36, 4: 252}


def test_commutative_magma_oracles_agree():
    counts = we_colored_counts(3, 6)
    for d in range(1, 6):
        assert counts[d] == enumerate_commutative_trees(3, d)
    assert [counts[d] for d in range(1, 5)] == [3, 6, 18, 75]


def test_u_hom_report_shape():
    sl2 = builtin_algebra("sl2").with_alpha(zero_matrix(3))
    fam = sabinin_from(sl2, "lie", cutoff=1)
    U = u_hom(fam, 3)
    report = U.report()
    assert set(report) == {1, 2, 3}
    dim, rank = report[2]
    assert (dim, rank) == (6, 3)


def test_u_hom_nonzero_alpha_smoke():
    """The enveloping quotient of a Hom-Lie algebra with a genuine twist."""
    spec = hom_version(builtin_algebra("sl2"))
    fam = sabinin_from(spec, "lie", cutoff=1)
    U = u_hom(fam, 3)
    # family 1 contributes associator-antisymmetry relations beyond degree 2
    assert any(r.degree() == 3 for r in _relation_polys(fam, 3))
    p = mul(Poly.gen("h"), Poly.gen("x")) - mul(Poly.gen("x"), Poly.gen("h"))
    bracket = Poly.gen("y", c=rat(2))  # [h,x] = sigma(2x) = 2y in the twist
    assert U.nf(p - bracket).is_zero()
    q = mul(Poly.gen("h"), mul(Poly.gen("x"), Poly.gen("y")))
    assert U.nf(U.nf(q)) == U.nf(q)  # reduction is idempotent
    # a degree bound the family cannot supply is an error, not a truncation
    with pytest.raises(BoundsError):
        u_hom(fam, 4)


def _expand(p, spec, letters=None, word=None):
    """p expanded through spec.alpha by the compiled kernel, its columns
    mapped back to trees: by default the basis letters stand for
    themselves."""
    template = Template(p, spec.basis if letters is None else letters, spec)
    got = collect(expand_exponents(template, range(spec.dim) if word is None else word))
    columns = FilteredQuotient(spec, [], max(map(degree, p.terms), default=1))._columns
    return Poly({columns[i]: c for i, c in got.items()})


def _direct_u_hom_relations(fam, alpha, degree_bound):
    """The enveloping relations from QSolver run on the basis letters
    themselves, over every word: no template, no renaming and no orbits."""
    basis, dim, s = fam.spec.basis, fam.spec.dim, QSolver()
    spec = AlgebraSpec(dim, basis, {}, alpha)

    def vec(v):
        return Poly({Leaf(basis[i], 0): c for i, c in v.items()})

    def word(idx):
        return tuple(basis[i] for i in idx)

    out = []
    for a in range(dim):
        for b in range(a, dim):
            ga, gb = V(basis[a]), V(basis[b])
            out.append(mul(ga, gb) - mul(gb, ga) + vec(fam.brackets[0].basis_value((a, b))))
    for n in range(1, min(fam.cutoff, degree_bound - 2) + 1):
        for idx in itertools.product(range(dim), repeat=n + 2):
            if idx[-2] < idx[-1]:
                q = s.bracket(word(idx[:-2]), basis[idx[-2]], basis[idx[-1]])
                out.append(vec(fam.brackets[n].basis_value(idx)) - _expand(q, spec))
    for (n, m), op in fam.phi.items():
        if n + m <= degree_bound:
            for idx in itertools.product(range(dim), repeat=n + m):
                q = s.phi(word(idx[:n]), word(idx[n:]))
                out.append(vec(op.basis_value(idx)) - _expand(q, spec))
    return [r for r in out if not r.is_zero()]


def _term_sets(relations):
    """Each relation in primitive form, coprime ints with a positive
    coefficient on its mono_key-largest monomial: relations that differ by
    a nonzero factor, as u_hom_relations' integer multiples do, compare
    equal."""
    out = set()
    for r in relations:
        d = math.lcm(*(c.denominator for c in r.terms.values()))
        ints = {m: int(c * d) for m, c in r.terms.items()}
        g = math.gcd(*ints.values())
        if ints[max(ints, key=mono_key)] < 0:
            g = -g
        out.add(frozenset((m, c // g) for m, c in ints.items()))
    return out


@pytest.mark.parametrize("name, cls", [("sl2", "lie"), ("heis3", "yiii")])
def test_u_hom_relations_match_q_on_basis_letters(name, cls):
    """Relations from the per-shape templates, one per Phi orbit, are the
    distinct relations computed directly over every word, including the
    words that repeat a basis letter."""
    spec = hom_version(builtin_algebra(name))
    fam = yiii_hom(spec, 2) if cls == "yiii" else sabinin_from(spec, cls, 2)
    rels = _relation_polys(fam, 4)
    assert _term_sets(rels) == _term_sets(_direct_u_hom_relations(fam, spec.alpha, 4))
    # integral tables and alpha: the q weights are cleared, no Fraction is left
    assert all(type(c) is int for r in u_hom_relations(fam, 4) for c in r.values())


@pytest.mark.parametrize("n, m", [(1, 2), (1, 3), (2, 2)])
def test_phi_template_is_symmetric_in_u_and_in_v(n, m):
    """Permuting the u letters, or the v letters, leaves the Phi template
    unchanged: the fact that lets u_hom_relations take one word per orbit."""
    s = QSolver()
    u = tuple(f"u{i}" for i in range(n))
    v = tuple(f"v{j}" for j in range(m))
    template = s.phi(u, v)
    assert not template.is_zero()
    for su in itertools.permutations(u):
        for sv in itertools.permutations(v):
            assert s.phi(su, sv) == template, (su, sv)
            renamed = dict(zip(u + v, su + sv))
            assert collect(
                (map_leaves(mono, lambda l: l._replace(base=renamed.get(l.base, l.base))), c)
                for mono, c in template.terms.items()
            ) == template.terms, (su, sv)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.integers(-2, 2), min_size=4, max_size=4),
    st.sampled_from(["yiii", "lie"]),
)
def test_u_hom_relations_match_every_word_for_random_alpha(entries, cls):
    """On the zero product every alpha is multiplicative and Hom-Lie, so a
    random alpha twists the q templates arbitrarily. Cutoff 3 and degree 4
    reach the Phi shapes (1, 2), (1, 3) and (2, 2)."""
    alpha = (tuple(entries[:2]), tuple(entries[2:]))
    spec = AlgebraSpec(2, ("p", "q"), {"mu": MultilinearOp.zero("mu", 2, 2)}, alpha)
    fam = yiii_hom(spec, 3) if cls == "yiii" else sabinin_from(spec, cls, 3)
    assert {(1, 2), (1, 3), (2, 2)} <= set(fam.phi)
    rels = _relation_polys(fam, 4)
    assert _term_sets(rels) == _term_sets(_direct_u_hom_relations(fam, alpha, 4))


def test_substitution_sums_colliding_monomials():
    """Renaming (u0, u1; v0; zz) to (h, h; x; y) merges monomials of the
    (2, 1) template; their coefficients are summed, not overwritten."""
    spec = hom_version(builtin_algebra("sl2"))
    assert spec.basis == ("h", "x", "y")
    s = QSolver()
    template = s.q(("u0", "u1"), ("v0",), "zz")
    assert len(template.terms) == 6
    got = _expand(template, spec, ("u0", "u1", "v0", "zz"), (0, 0, 1, 2))
    assert got == _expand(s.q(("h", "h"), ("x",), "y"), spec)
    assert got == _rename_then_expand(template, ("u0", "u1", "v0", "zz"), (0, 0, 1, 2), spec)


def _expand_node_by_node(p, basis, alpha):
    """The former expand_exponents: a polynomial at every tree node,
    multiplied again with apply_op at each internal node, and alpha^k(e_i)
    by k dense matrix-vector products."""
    index = {b: i for i, b in enumerate(basis)}

    def leaf_poly(l):
        if l.exp == 0:
            return Poly.monomial(l)
        v = [rat(int(i == index[l.base])) for i in range(len(basis))]
        for _ in range(l.exp):
            v = [sum((alpha[i][j] * v[j] for j in range(len(v))), rat(0)) for i in range(len(v))]
        return Poly({Leaf(basis[i], 0): c for i, c in enumerate(v)})

    def mono_poly(m):
        if m is UNIT:
            return Poly.unit()
        if isinstance(m, Leaf):
            return leaf_poly(m)
        return apply_op(m.op, [mono_poly(a) for a in m.args])

    out = Poly()
    for m, c in p.terms.items():
        out = out + mono_poly(m).scaled(c)
    return out


@st.composite
def _expansion_cases(draw):
    """(polynomial, basis, alpha): 2-3 basis letters, exponents 0-3, binary
    mu trees, and random, singular or zero alpha. Template takes binary mu
    trees over its letters only (see test_template_refuses_what_has_no_column)."""
    basis = ("p", "q", "r")[: draw(st.integers(2, 3))]
    n = len(basis)
    leaf = st.builds(Leaf, st.sampled_from(basis), st.integers(0, 3))
    mono_st = st.recursive(
        leaf, lambda kids: st.builds(lambda a, b: Node("mu", (a, b)), kids, kids), max_leaves=3
    )
    coeff = st.builds(rat, st.integers(-3, 3), st.integers(1, 3))
    terms = draw(st.lists(st.tuples(mono_st, coeff), min_size=1, max_size=3))
    entry = st.builds(rat, st.integers(-2, 2), st.integers(1, 2))
    square = st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)
    # a repeated row makes alpha singular
    singular = square.map(lambda rows: [rows[0]] + rows[:-1])
    alpha = draw(st.one_of(square, singular, st.just([[rat(0)] * n for _ in range(n)])))
    p = Poly({})
    for m, c in terms:
        p = p + Poly.monomial(m, c)
    return p, basis, alpha


@settings(max_examples=150, deadline=None)
@given(_expansion_cases())
def test_expand_exponents_matches_node_by_node_expansion(case):
    """One product of the leaves' alpha-columns per monomial equals the
    node-by-node expansion."""
    p, basis, alpha = case
    spec = AlgebraSpec(len(basis), basis, {}, alpha)
    assert _expand(p, spec) == _expand_node_by_node(p, basis, alpha)


@pytest.mark.parametrize("term", ["1", "T(p,q,p)", "p*z", "br(p,q)"])
def test_template_refuses_what_has_no_column(term):
    """A template term must be a binary mu tree over its letters: the unit,
    a ternary root, a leaf that is no letter and another product raise."""
    spec = AlgebraSpec(2, ("p", "q"), {}, identity_matrix(2))
    with pytest.raises(BoundsError, match=f"^{re.escape(term)} is no product of the letters"):
        Template(parse_poly(f"{term} + p*q"), spec.basis, spec)


def test_template_columns_follow_the_rule():
    """A term's column is base(n) + s dim^n + sum r_i dim^(n-1-i), with r_i
    the rank of a letter among the sorted basis letters: over the basis
    (z, a) the letter z has rank 1. Degree 1 holds 2 trees and degree 2
    holds 4, so base(3) = 6; the shape x(yz) comes first (its preorder
    arity sequence 2, 0, 2, 0, 0 is the smaller), (xy)z second."""
    spec = AlgebraSpec(2, ("z", "a"), {}, ((0, 1), (1, 0)))
    template = Template(parse_poly("z*(a*A^1(z)) - 2*A^2(a)"), ("z", "a"), spec)
    got = collect(expand_exponents(template, (0, 1)))
    # z*(a*A^1(z)) = z*(a*a) is word (1, 0, 0) in shape 0: 6 + 0 + 4;
    # A^2(a) = a is column 0
    assert got == {10: 1, 0: -2}
    assert FilteredQuotient(spec, [], 3)._columns[10] == parse_poly("z*(a*a)").terms.popitem()[0]


def _rename_then_expand(template, letters, word, spec):
    """The former substitution: each template monomial renamed to the
    word's basis letters, then each leaf expanded through alpha and the
    whole tree rebuilt for every choice of one entry per leaf."""
    mapping = {l: spec.basis[i] for l, i in zip(letters, word)}
    renamed = collect(
        (map_leaves(m, lambda l: l._replace(base=mapping.get(l.base, l.base))), c)
        for m, c in template.terms.items()
    )

    def leaf_terms(l):
        if l.exp == 0:
            return {l: ONE}
        column = spec.alpha_columns(l.exp)[spec.basis_index(l.base)]
        return {Leaf(spec.basis[i], 0): c for i, c in column.items()}

    def mono_terms(m):
        if m is UNIT:
            return {UNIT: ONE}

        def rebuild(*chosen):
            it = iter(chosen)
            return map_leaves(m, lambda _: next(it))

        return expand([leaf_terms(l) for l in leaves(m)], rebuild)

    return Poly(lincomb((c, mono_terms(m)) for m, c in renamed.items()))


@pytest.mark.parametrize("spec", [
    hom_version(builtin_algebra("sl2")),
    AlgebraSpec(2, ("p", "q"), {"mu": MultilinearOp.zero("mu", 2, 2)}, ((1, -2), (2, 1))),
], ids=["sl2", "zero-product"])
def test_compiled_templates_match_rename_then_expand(spec):
    """Every template u_hom_relations uses at degree 4 (the lie family
    reaches the Phi shapes (1, 2), (1, 3) and (2, 2)), compiled once and
    expanded over every word, repeated letters included, equals renaming
    the template to the word's letters and expanding leaf by leaf."""
    fam = sabinin_from(spec, "lie", 2)
    templates = list(_relation_templates(fam, 4))
    assert len(templates) == 6
    exps = set()
    columns = FilteredQuotient(spec, [], 4)._columns
    for _, template, letters, _ in templates:
        compiled = Template(template, letters, spec)
        exps |= {k for _, k, _ in compiled.slots}
        for word in itertools.product(range(spec.dim), repeat=len(letters)):
            got = Poly({columns[i]: c for i, c in collect(expand_exponents(compiled, word)).items()})
            assert got == _rename_then_expand(template, letters, word, spec), (letters, word)
    assert exps == {0, 1, 2}


def _closure_by_trees(quotient, relations):
    """The former FilteredQuotient closure: each relation multiplied by each
    monomial as Poly trees, numbered only afterwards."""
    seen, work, out = set(), [r for r in relations if not r.is_zero()], []
    while work:
        r = work.pop()
        key = frozenset(r.terms.items())
        if key in seen or not key:
            continue
        seen.add(key)
        out.append(r)
        for n in range(1, quotient.degree_bound - r.degree() + 1):
            for m in quotient.monomials_of_degree(n):
                pm = Poly.monomial(m)
                work.append(mul(pm, r))
                work.append(mul(r, pm))
    return out


@settings(max_examples=20, deadline=None)
@given(
    st.lists(st.integers(-2, 2), min_size=4, max_size=4),
    st.sampled_from(["yiii", "lie"]),
    st.integers(2, 4),
)
def test_closure_over_columns_matches_closure_by_trees(entries, cls, d):
    """Closing the numbered relations through the column product table
    gives the echelon rows and the report of closing them as trees. On the
    zero product every relation is homogeneous."""
    alpha = (tuple(entries[:2]), tuple(entries[2:]))
    spec = AlgebraSpec(2, ("p", "q"), {"mu": MultilinearOp.zero("mu", 2, 2)}, alpha)
    _assert_closure_matches_trees(spec, cls, d)


@pytest.mark.parametrize("name, cls", [("sl2", "lie"), ("heis3", "yiii")])
def test_inhomogeneous_closure_matches_closure_by_trees(name, cls):
    """The bracket relations of a nonzero product join degree 1 to degree
    2, so a row's degree must be its highest term's."""
    _assert_closure_matches_trees(hom_version(builtin_algebra(name)), cls, 4)


def _assert_closure_matches_trees(spec, cls, d):
    fam = yiii_hom(spec, d - 2) if cls == "yiii" else sabinin_from(spec, cls, d - 2)
    U = FilteredQuotient(spec, u_hom_relations(fam, d), d)
    space = RowSpace()
    for r in _closure_by_trees(U, _relation_polys(fam, d)):
        space.add(U._numbered(r))
    assert U.space.rows == space.rows
    monos = {n: U.monomials_of_degree(n) for n in range(1, d + 1)}
    ranks = Counter(degree(U._columns[piv]) for piv in space.rows)
    assert U.report() == {n: (len(ms) - ranks[n], ranks[n]) for n, ms in monos.items()}


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from([("z", "a", "m"), ("y", "x"), ("e10", "e2", "e1")]).flatmap(st.permutations),
    st.integers(1, 5),
)
def test_columns_are_numbered_in_mono_key_order(basis, d):
    """The quotient enumerates its columns in mono_key order, which sorts
    leaves by letter, not by basis index: the same list as sorting every
    product tree, with the degrees in consecutive blocks. The column rule
    numbers each tree by its place in that list."""
    spec = AlgebraSpec(len(basis), basis, {}, zero_matrix(len(basis)))
    U = FilteredQuotient(spec, [], d)
    want = sorted(
        itertools.chain(*(all_binary_monomials(basis, n) for n in range(1, d + 1))),
        key=mono_key,
    )
    assert U._columns == want
    assert [U._column(m) for m in want] == list(range(len(want)))
    assert U._degree == [degree(m) for m in want]
    assert {n: list(U._by_degree[n]) for n in range(1, d + 1)} == {
        n: [i for i, m in enumerate(want) if degree(m) == n] for n in range(1, d + 1)
    }


@pytest.mark.parametrize("basis", [("z", "a", "m"), ("y", "x")])
def test_envelope_over_an_unsorted_basis(basis):
    """A basis out of sorted order. On the zero product with alpha = id the
    Lie envelope is a polynomial algebra, and a normal form takes the
    mono_key-least order of the letters, which is their sorted order."""
    dim = len(basis)
    spec = AlgebraSpec(dim, basis, {"mu": MultilinearOp.zero("mu", 2, dim)}, identity_matrix(dim))
    U = u_hom(sabinin_from(spec, "lie", 2), 4)
    assert U.report() == {
        n: (k, len(all_binary_monomials(basis, n)) - k) for n, k in pbw_dims(dim, 4).items()
    }
    for a, b in itertools.product(basis, repeat=2):
        assert U.nf(mul(V(a), V(b))) == mul(V(min(a, b)), V(max(a, b)))


def _lie_triple_system(alpha):
    """The 2-dim Lie triple system p = span(e, f) in sl2, {x,y,z} = [[x,y],z]
    ([[e,f],e] = [h,e] = 2e and [[e,f],f] = -2f), with a zero binary
    product, Yau-twisted through hom_version by alpha (diag(2, 1/2) is an
    automorphism of it)."""
    tri = MultilinearOp("tri", 3, 2, {(0, 1, 0): {0: 2}, (0, 1, 1): {1: -2},
                                      (1, 0, 0): {0: -2}, (1, 0, 1): {1: 2}})
    ops = {"mu": MultilinearOp.zero("mu", 2, 2), "tri": tri}
    return hom_version(AlgebraSpec(2, ("e", "f"), ops, alpha))


_LTS_ALPHAS = pytest.mark.parametrize(
    "alpha", [identity_matrix(2), matrix([["2", "0"], ["0", "1/2"]])], ids=["id", "diag"]
)


def _assert_lts_known_answer(cls, alpha):
    """The Sabinin axioms pass at cutoff 3, and the degree-5 envelope has
    the PBW dimensions d + 1 of the 2-dim abelian Lie algebra's."""
    spec = _lie_triple_system(alpha)
    report = check_sabinin_axioms(sabinin_from(spec, cls, 3), 2)
    assert [r.name for r in report.axioms if not r.ok] == []
    assert report.status == "pass"
    assert u_hom(sabinin_from(spec, cls, 3), 5).graded_dims() == pbw_dims(2, 5)


@_LTS_ALPHAS
def test_lie_triple_system_as_lie_yamaguti(alpha):
    """A ternary-op family through the Sabinin checks and the enveloping
    relations: the Lie-Yamaguti construction on a Lie triple system."""
    _assert_lts_known_answer("ly", alpha)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason=(
        "ROADMAP item 9: the Bol construction fails Hsab2[p=0,q=1] and "
        "Hsab2[p=1,q=0] on this Lie triple system, and its envelope has "
        "degree-1 dimension 0"
    ),
)
@_LTS_ALPHAS
def test_lie_triple_system_as_bol(alpha):
    _assert_lts_known_answer("bol", alpha)


@pytest.mark.parametrize("outside", ["A^1(x)", "1"])
def test_filtered_quotient_rejects_relations_outside_it(outside):
    """A relation holding a twisted leaf or the unit is no row of the
    quotient: numbering it raises, naming the bound."""
    U = FilteredQuotient(hom_version(builtin_algebra("sl2")), [], 3)
    with pytest.raises(BoundsError, match="outside the quotient: degree 1 to 3"):
        U._numbered(parse_poly(f"{outside} - h*x"))


def test_ideal_coproduct_membership_alpha_zero():
    sl2 = builtin_algebra("sl2").with_alpha(zero_matrix(3))
    fam = sabinin_from(sl2, "lie", cutoff=1)
    rels = _relation_polys(fam, 2)
    U = u_hom(fam, 2)
    report = check_ideal_coproduct(U, rels)
    assert report.ok


def test_ideal_coproduct_membership_twisted():
    """With a genuine twist the coproduct summands carry exponents, which
    the quotient expands through its own algebra's twisting map: no spec
    is passed, and every generator's coproduct lies in B (x) I + I (x) B."""
    fam = sabinin_from(hom_version(builtin_algebra("sl2")), "lie", cutoff=1)
    rels = _relation_polys(fam, 3)
    U = u_hom(fam, 3)
    assert U.spec is fam.spec
    for report in (check_ideal_coproduct(U, rels), check_bialgebra(quotient=U, generators=rels)):
        assert report.ok
        assert [name for name, _ in report.checks] == [f"ideal_coproduct[{i}]" for i in range(30)]


@pytest.mark.parametrize("generator", ["(h*x)*y - h*(x*y)", "q*h - h*q", "br(h,x)"])
def test_ideal_coproduct_is_inconclusive_outside_the_bounds(generator):
    """A generator above the degree bound, off the basis or with another
    product has coproduct summands with no column: its check is
    inconclusive, neither a pass nor a fail."""
    U = u_hom(sabinin_from(hom_version(builtin_algebra("sl2")), "lie", cutoff=1), 2)
    report = check_ideal_coproduct(U, [parse_poly(generator)])
    assert (report.status, report.checks) == ("inconclusive", [("ideal_coproduct[0]", "inconclusive")])


@pytest.mark.parametrize("outside", ["q", "A^1(x)", "(h*x)*(y*h)", "1", "br(h,x)"])
def test_filtered_nf_rejects_monomials_outside_the_quotient(outside):
    """A letter outside the basis, a twisted leaf, a degree above the
    bound, the unit or another product is no monomial of the quotient: nf
    raises and names it instead of passing it through."""
    U = u_hom(sabinin_from(hom_version(builtin_algebra("sl2")), "lie", cutoff=1), 3)
    with pytest.raises(BoundsError, match=f"^{re.escape(outside)} is outside the quotient"):
        U.nf(parse_poly(f"{outside} + h*x"))


def test_check_bialgebra_umbrella():
    sl2 = builtin_algebra("sl2").with_alpha(zero_matrix(3))
    fam = sabinin_from(sl2, "lie", cutoff=1)
    rels = _relation_polys(fam, 2)
    U = u_hom(fam, 2)
    monos = [mono(s) for s in ["x", "(x*y)", "((x*y)*z)"]]
    report = check_bialgebra(monomials=monos, quotient=U, generators=rels)
    assert report.ok
    names = [n for n, _ in report.checks]
    assert any(n.startswith("counit") for n in names)
    assert any(n.startswith("ideal_coproduct") for n in names)


mu_monomials = st.recursive(
    st.builds(Leaf, st.sampled_from("xy"), st.integers(0, 2)),
    lambda kids: st.builds(lambda a, b: Node("mu", (a, b)), kids, kids),
    max_leaves=6,
)


@settings(max_examples=150, deadline=None)
@given(mu_monomials)
def test_partition_algorithm_agrees_on_random_monomials(m):
    """Both coproduct algorithms agree on binary monomials with twisting
    exponents and repeated letters."""
    assert delta_by_partitions(m) == delta(m)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(mu_monomials, min_size=1, max_size=3),
    st.lists(mu_monomials, min_size=1, max_size=3),
    st.sampled_from(["mu", "br"]),
)
def test_tensor_product_matches_naive_dicts(ms, ns, op):
    s, t = delta(ms[0]), delta(ns[0])
    for m in ms[1:]:
        s = s + delta(m).scaled(rat(-1, 2))
    for n in ns[1:]:
        t = t - delta(n)
    want = {}
    for (l1, r1), c1 in s.terms.items():
        for (l2, r2), c2 in t.terms.items():
            key = (mul_mono(l1, l2, op), mul_mono(r1, r2, op))
            want[key] = want.get(key, 0) + c1 * c2
    got = s.product(t, op)
    assert got.terms == {k: c for k, c in want.items() if c != 0}
    for x in (got, s + t, s - t, -s, s.scaled(3), TensorElement.zero()):
        assert type(x) is TensorElement


small_monomials = st.recursive(
    st.builds(Leaf, st.sampled_from("xy"), st.integers(0, 2)),
    lambda kids: st.builds(lambda a, b: Node("mu", (a, b)), kids, kids),
    max_leaves=3,
)
defect_inputs = st.one_of(
    mu_monomials,
    st.just(UNIT),
    # a br product on top and inside a mu product
    st.builds(lambda a, b: Node("br", (a, b)), small_monomials, small_monomials),
    st.builds(lambda a, b, c: Node("mu", (a, Node("br", (b, c)))),
              small_monomials, small_monomials, small_monomials),
    # a ternary node, which both coproducts refuse
    st.builds(lambda a, b, c: Node("mu", (a, Node("mu", (a, b, c)))),
              small_monomials, small_monomials, small_monomials),
)


def _terms_or_error(f, m):
    try:
        return list(f(m).terms.items())
    except SignatureError as e:
        return f"SignatureError: {e}"


@settings(max_examples=150, deadline=None)
@given(defect_inputs)
def test_defect_and_coproduct_match_whole_poly_compositions(m):
    """The one-pass antipode_defect and the dict-level delta give the terms
    of the compositions through Poly products, antipode() and apply_alpha,
    and through TensorElement.product, in the same order, or raise the same
    SignatureError."""
    assert _terms_or_error(antipode_defect, m) == _terms_or_error(antipode_defect_by_polys, m)
    assert _terms_or_error(delta, m) == _terms_or_error(delta_by_products, m)


def test_tensor_element_algebra():
    a, b = mono("x"), mono("y")
    t = TensorElement.pair(a, b) + TensorElement.pair(b, a)
    assert t.swap() == t
    assert (t - t).is_zero()
    got = TensorElement.pair(a, UNIT).product(TensorElement.pair(UNIT, b))
    assert got == TensorElement.pair(mono("A^1(x)"), mono("A^1(y)"))
