"""Tests for coproducts, primitives, antipodes, and the bounded quotients."""


import itertools

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    all_binary_monomials,
    enumerate_commutative_trees,
    enumerate_pairswap_trees,
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
    leaves,
    map_leaves,
    mono_key,
    mul,
    mul_mono,
    parse_poly,
    render_poly,
)
from homforge.fdalg import AlgebraSpec, builtin_algebra, hom_version, sabinin_from, zero_matrix
from homforge.hombialg import (
    _PhiComponent,
    _build_from_shape,
    _shape_depths,
    _substitute,
    _tree_shapes,
    BoundsError,
    FreeHomAssocQuotient,
    TensorElement,
    alpha_injectivity_probe,
    antipode,
    antipode_defect,
    check_antipode,
    check_coassociative,
    check_cocommutative,
    check_counit_laws,
    check_ideal_coproduct,
    counit,
    counit_mono,
    delta,
    delta_by_partitions,
    delta_summand,
    expand_exponents,
    is_primitive,
    phi_signature,
    pi_map,
    u_hom,
    u_hom_relations,
)
from homforge.homify import hom_associator, homify_identity
from homforge.linalg import RowSpace
from homforge.qops import QSolver, yiii_hom
from homforge.rationals import rat

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
    its exponents is negative: a negative one means there is no tree."""
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
    space = RowSpace(key=mono_key)
    for m in members:
        for m2 in _two_way_rewrites(m):
            if m2 in members:
                space.add({m: rat(1), m2: rat(-1)})
            else:
                truncated = True
    return members, space, truncated


def test_component_matches_two_way_rewrites():
    """Rewriting in one direction, with truncation taken from the enumeration
    alone, gives the same monomials, row space and truncated flag as both
    directions with out-of-bounds targets marking truncation."""
    words = [m for d in range(1, 5)
             for m in FreeHomAssocQuotient(("a", "b", "c"), d, 1).monomials_of_degree(d)]
    words += FreeHomAssocQuotient(("a", "b"), 5, 1).monomials_of_degree(5)
    signatures = {phi_signature(m) for m in words}
    assert len(signatures) > 1000
    for exp_bound in (1, 2, 3, 6):
        for sig in signatures:
            comp = _PhiComponent(sig, exp_bound)
            members, space, truncated = _two_way_component(sig, exp_bound)
            assert set(comp.monomials) == members and len(comp.monomials) == len(members)
            assert (comp.rank, comp.truncated) == (space.rank, truncated), sig
            assert all(not space.reduce(row) for row in comp.space.rows.values()), sig
            assert all(not comp.reduce(row) for row in space.rows.values()), sig


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
            shared.component(phi_signature(m))
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
        assert comp.rank == len(comp.monomials) - _rewrite_classes(comp), comp.signature


def test_truncation_needs_a_tree_above_the_bound():
    """A (shape, permutation) pair with a negative exponent on any leaf is
    no tree, so it cannot truncate its component, whichever leaf is met first."""
    m = mono("((A^1(a)*b)*c)")
    comp = _PhiComponent(phi_signature(m), 1)
    assert (len(comp.monomials), comp.rank, comp.truncated) == (4, 0, False)
    assert FreeHomAssocQuotient(("a", "b", "c"), 3, 1).reduce(Poly.monomial(m)).status == "nonzero"
    abc = Poly.monomial(mono("((a*b)*c)"))
    assert FreeHomAssocQuotient(("a", "b", "c"), 3, 0).reduce(abc).status == "nonzero"


def test_antipode_degree_six_repeated_word():
    assert check_antipode(mono("((a*b)*(a*b))*(a*b)")).status == "pass"


def test_antipode_inconclusive_on_tight_bounds():
    res = check_antipode(mono("((x*y)*z)"), degree_bound=3, exp_bound=1)
    assert res.status in ("inconclusive", "pass")
    # with exponent bound 0 the defect itself is out of bounds
    res2 = check_antipode(mono("((x*y)*z)"), degree_bound=3, exp_bound=0)
    assert res2.status == "inconclusive"


def test_quotient_kills_hom_associativity_generator():
    q = FreeHomAssocQuotient(("x", "y", "z"), 3, 3)
    gen = parse_poly("(A^1(x)*(y*z)) - ((x*y)*A^1(z))")
    assert q.reduce(gen).is_zero()
    # nf is idempotent
    p = parse_poly("(A^1(x)*(y*z))")
    assert q.nf(q.nf(p)) == q.nf(p)


def test_quotient_degree_two_has_no_relations():
    q = FreeHomAssocQuotient(("x", "y"), 3, 2)
    dim, rank = q.degree_report(2)
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
    with pytest.raises(SignatureError):
        check_antipode(mono("br(a,b)"))


def test_alpha_injectivity_probe():
    report = alpha_injectivity_probe(("x", "y"), 3, 2)
    assert report == {1: "pass", 2: "pass", 3: "pass"}
    # the kernel vector of degree 4 that does not reduce lies in a component
    # with no tree above the exponent bound, so the section fails
    assert alpha_injectivity_probe(("x",), 4, 1)[4] == "fail"
    assert alpha_injectivity_probe(("x",), 4, 2)[4] == "fail"


def test_u_hom_alpha_zero_relations_collapse():
    """With alpha = 0 the ideal reduces to <xy - yx - [x,y]>."""
    sl2 = builtin_algebra("sl2").with_alpha(zero_matrix(3))
    fam = sabinin_from(sl2, "lie", cutoff=2)
    rels = u_hom_relations(fam, 4)
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
        assert pi_map(U, i) == Poly.gen(U.basis[i])
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
    assert any(r.degree() == 3 for r in u_hom_relations(fam, 3))
    p = mul(Poly.gen("h"), Poly.gen("x")) - mul(Poly.gen("x"), Poly.gen("h"))
    bracket = Poly.gen("y", c=rat(2))  # [h,x] = sigma(2x) = 2y in the twist
    assert U.nf(p - bracket).is_zero()
    q = mul(Poly.gen("h"), mul(Poly.gen("x"), Poly.gen("y")))
    assert U.nf(U.nf(q)) == U.nf(q)  # reduction is idempotent
    # a degree bound the family cannot supply is an error, not a truncation
    with pytest.raises(BoundsError):
        u_hom(fam, 4)


def _direct_u_hom_relations(fam, alpha, degree_bound):
    """The enveloping relations in u_hom_relations's order, from QSolver run
    on the basis letters themselves: no template and no renaming."""
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
                out.append(vec(fam.brackets[n].basis_value(idx)) - expand_exponents(q, spec))
    for (n, m), op in fam.phi.items():
        if n + m <= degree_bound:
            for idx in itertools.product(range(dim), repeat=n + m):
                q = s.phi(word(idx[:n]), word(idx[n:]))
                out.append(vec(op.basis_value(idx)) - expand_exponents(q, spec))
    return [r for r in out if not r.is_zero()]


@pytest.mark.parametrize("name, cls", [("sl2", "lie"), ("heis3", "yiii")])
def test_u_hom_relations_match_q_on_basis_letters(name, cls):
    """Relations from the per-shape templates equal those computed directly,
    including the words that repeat a basis letter."""
    spec = hom_version(builtin_algebra(name))
    fam = yiii_hom(spec, 2) if cls == "yiii" else sabinin_from(spec, cls, 2)
    rels = u_hom_relations(fam, 4)
    assert rels == _direct_u_hom_relations(fam, spec.alpha, 4)


def test_substitution_sums_colliding_monomials():
    """Renaming (u0, u1; v0; zz) to (h, h; x; y) merges monomials of the
    (2, 1) template; their coefficients are summed, not overwritten."""
    spec = hom_version(builtin_algebra("sl2"))
    assert spec.basis == ("h", "x", "y")
    s = QSolver()
    template = s.q(("u0", "u1"), ("v0",), "zz")
    assert len(template.terms) == 6
    got = _substitute(template, ("u0", "u1", "v0", "zz"), (0, 0, 1, 2), spec)
    assert got == expand_exponents(s.q(("h", "h"), ("x",), "y"), spec)


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
    mu trees with an occasional ternary root, the unit, an undecorated leaf
    outside the basis, and random, singular or zero alpha."""
    basis = ("p", "q", "r")[: draw(st.integers(2, 3))]
    n = len(basis)
    leaf = st.one_of(
        st.builds(Leaf, st.sampled_from(basis), st.integers(0, 3)), st.just(Leaf("z", 0))
    )
    tree = st.recursive(
        leaf, lambda kids: st.builds(lambda a, b: Node("mu", (a, b)), kids, kids), max_leaves=3
    )
    ternary = st.builds(lambda a, b, c: Node("T", (a, b, c)), tree, tree, tree)
    mono_st = st.one_of(tree, tree, ternary, st.just(UNIT))
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
    assert expand_exponents(p, spec) == _expand_node_by_node(p, basis, alpha)


def test_ideal_coproduct_membership_alpha_zero():
    sl2 = builtin_algebra("sl2").with_alpha(zero_matrix(3))
    fam = sabinin_from(sl2, "lie", cutoff=1)
    rels = u_hom_relations(fam, 2)
    U = u_hom(fam, 2)
    report = check_ideal_coproduct(U, rels, sl2)
    assert report.ok


def test_check_bialgebra_umbrella():
    from homforge.hombialg import check_bialgebra

    sl2 = builtin_algebra("sl2").with_alpha(zero_matrix(3))
    fam = sabinin_from(sl2, "lie", cutoff=1)
    rels = u_hom_relations(fam, 2)
    U = u_hom(fam, 2)
    monos = [mono(s) for s in ["x", "(x*y)", "((x*y)*z)"]]
    report = check_bialgebra(
        monomials=monos, quotient=U, generators=rels, spec=sl2,
    )
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


def test_tensor_element_algebra():
    a, b = mono("x"), mono("y")
    t = TensorElement.pair(a, b) + TensorElement.pair(b, a)
    assert t.swap() == t
    assert (t - t).is_zero()
    got = TensorElement.pair(a, UNIT).product(TensorElement.pair(UNIT, b))
    assert got == TensorElement.pair(mono("A^1(x)"), mono("A^1(y)"))
