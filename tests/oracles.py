"""Independent combinatorial oracles used by the test suite.

These are computed by enumeration or closed recursions, never through the
code paths they check.
"""

import itertools
from functools import lru_cache


def we_colored_counts(colors: int, max_degree: int) -> dict:
    """Dimensions of the free commutative magmatic algebra on `colors`
    generators: commutative (unordered) binary trees with colored leaves.

    c_1 = colors; c_d = sum_{i < d-i} c_i c_{d-i} + C(c_{d/2} + 1, 2) for even d.
    """
    c = {1: colors}
    for d in range(2, max_degree + 1):
        total = sum(c[i] * c[d - i] for i in range(1, (d - 1) // 2 + 1))
        if d % 2 == 0:
            half = c[d // 2]
            total += half * (half + 1) // 2
        c[d] = total
    return c


def enumerate_commutative_trees(colors: int, degree: int) -> int:
    """Direct enumeration: canonical forms of fully commutative binary trees."""

    @lru_cache(maxsize=None)
    def trees(d):
        if d == 1:
            return frozenset(("leaf", i) for i in range(colors))
        out = set()
        for i in range(1, d):
            for l in trees(i):
                for r in trees(d - i):
                    pair = tuple(sorted((l, r), key=repr))
                    out.add(("node",) + pair)
        return frozenset(out)

    return len(trees(degree))


def enumerate_pairswap_trees(colors: int, degree: int) -> int:
    """Trees modulo swapping children only at nodes whose children are both
    leaves: the graded model of K{V} / <xy - yx : x, y generators>."""

    @lru_cache(maxsize=None)
    def trees(d):
        if d == 1:
            return frozenset(("leaf", i) for i in range(colors))
        out = set()
        for i in range(1, d):
            for l in trees(i):
                for r in trees(d - i):
                    if l[0] == "leaf" and r[0] == "leaf":
                        pair = tuple(sorted((l, r), key=repr))
                        out.add(("node",) + pair)
                    else:
                        out.add(("node", l, r))
        return frozenset(out)

    return len(trees(degree))


def all_binary_monomials(generators, degree):
    """All product trees of the exact degree over the generator alphabet."""
    from homforge.expr import Leaf, Node

    @lru_cache(maxsize=None)
    def shapes(n):
        if n == 1:
            return (None,)
        out = []
        for k in range(1, n):
            for l in shapes(k):
                for r in shapes(n - k):
                    out.append((l, r))
        return tuple(out)

    def build(shape, it):
        if shape is None:
            return Leaf(next(it), 0)
        return Node("mu", (build(shape[0], it), build(shape[1], it)))

    out = []
    for shape in shapes(degree):
        for bases in itertools.product(generators, repeat=degree):
            out.append(build(shape, iter(bases)))
    return out


def pbw_dims(dim: int, max_degree: int) -> dict:
    """Graded dimensions of a polynomial algebra on dim generators, the PBW
    answer for an enveloping algebra: the number of distinct commutative
    monomials of each degree, counted as words modulo reordering."""
    return {
        d: len({tuple(sorted(w)) for w in itertools.product(range(dim), repeat=d)})
        for d in range(1, max_degree + 1)
    }


def delta_by_partitions(m):
    """The coproduct of a monomial as the sum of hombialg.delta_summand over
    every ordered partition of its leaf positions: the partition-labeling
    rule, independent of the recursive hombialg.delta."""
    from homforge.expr import collect, degree
    from homforge.hombialg import TensorElement, delta_summand

    n = degree(m)
    return TensorElement(collect(
        (delta_summand(m, (i for i in range(n) if mask >> i & 1)), 1)
        for mask in range(1 << n)
    ))


def delta_by_products(m):
    """The recursive coproduct with a TensorElement at every level, each
    node's coproduct the TensorElement.product of its children's."""
    from homforge.expr import UNIT, Leaf, SignatureError
    from homforge.hombialg import TensorElement

    if m is UNIT:
        return TensorElement.pair(UNIT, UNIT)
    if isinstance(m, Leaf):
        return TensorElement.pair(UNIT, m) + TensorElement.pair(m, UNIT)
    if len(m.args) != 2:
        raise SignatureError("the coproduct is defined for binary products only")
    return delta_by_products(m.args[0]).product(delta_by_products(m.args[1]), m.op)


def antipode_defect_by_polys(m):
    """alpha( sum u_(1) S(u_(2)) - u(eps(u)) ) composed from whole Poly
    operations: a Poly per coproduct pair, antipode() on it, mul, lincomb
    and apply_alpha, over delta_by_products."""
    from homforge.expr import Poly, apply_alpha, lincomb, mul
    from homforge.hombialg import antipode, counit_mono
    from homforge.rationals import ONE

    terms = [(c, mul(Poly.monomial(m1), antipode(Poly.monomial(m2))))
             for (m1, m2), c in delta_by_products(m).terms.items()]
    terms.append((-ONE, Poly.unit(counit_mono(m))))
    return apply_alpha(Poly(lincomb(terms)), 1)


def op_eval(op, args):
    """A MultilinearOp on the vectors args, by its definition: the sum over
    every choice of one coordinate per argument of the product of the
    coordinates times the entry of those indices."""
    from homforge.expr import lincomb

    terms = []
    for combo in itertools.product(*(a.items() for a in args)):
        ent = op.entries.get(tuple(i for i, _ in combo))
        if ent is not None:
            c = 1
            for _, x in combo:
                c = c * x
            terms.append((c, ent))
    return lincomb(terms)


def eval_monomial(spec, m, assignment):
    """A monomial on an algebra, recursively, every subtree evaluated anew."""
    from homforge.expr import UNIT, Leaf

    if m is UNIT:
        return spec.unit
    if isinstance(m, Leaf):
        return spec.apply_alpha_vec(assignment[m.base], m.exp)
    return op_eval(spec.ops[m.op], [eval_monomial(spec, a, assignment) for a in m.args])


def eval_poly(spec, p, assignment):
    """A polynomial on an algebra, one monomial at a time."""
    from homforge.expr import lincomb

    return lincomb((c, eval_monomial(spec, m, assignment)) for m, c in p.terms.items())


def sampled_power_check(spec, max_power=6, samples=100, seed=2024):
    """The Hom-power check on the basis vectors and `samples` seeded random
    vectors, each power computed by fdalg.hom_power: a pass here is only
    probably right, a fail is certain. Returns an fdalg.PowerReport whose
    witnesses are (vector label, relation) pairs for every failure."""
    import random

    from homforge.expr import MUL, lincomb
    from homforge.fdalg import PowerReport, hom_power, is_multiplicative, witness_str
    from homforge.rationals import rat

    ok_mult, witness = is_multiplicative(spec)
    report = PowerReport(status="pass", max_power=max_power)
    if not ok_mult:
        report.notes.append(f"alpha is not multiplicative; witness {witness_str(witness)}")
        report.status = "fail"
        return report
    rng = random.Random(seed)
    vectors = [(spec.basis[i], spec.basis_vector(i)) for i in range(spec.dim)]
    for s in range(samples):
        x = lincomb(
            (rat(rng.randint(-9, 9), rng.randint(1, 9)), spec.basis_vector(i))
            for i in range(spec.dim)
        )
        vectors.append((f"sample{s}", x))
    mu, al = spec.ops[MUL], spec.apply_alpha_vec
    for label, x in vectors:
        powers = {n: hom_power(spec, x, n) for n in range(1, max_power + 1)}
        x2, x4 = powers[2], powers.get(4)
        if mu.eval([x2, al(x, 1)]) != mu.eval([al(x, 1), x2]):
            report.condition1 = False
        if max_power >= 4 and x4 != mu.eval([al(x2, 1), al(x2, 1)]):
            report.condition1 = False
        assoc = (
            mu.eval([mu.eval([x, x]), al(x, 1)]) == mu.eval([al(x, 1), mu.eval([x, x])])
        )
        assoc2 = (
            mu.eval([mu.eval([x2, al(x, 1)]), al(x, 2)])
            == mu.eval([al(x2, 1), mu.eval([al(x, 1), al(x, 1)])])
        )
        if not (assoc and assoc2):
            report.condition2 = False
        for n in range(1, max_power):
            for m in range(1, max_power - n + 1):
                if powers[n + m] != mu.eval([al(powers[n], m - 1), al(powers[m], n - 1)]):
                    report.status = "fail"
                    report.witnesses.append(
                        (label, f"x^{n + m} != a^{m - 1}(x^{n}) a^{n - 1}(x^{m})")
                    )
    if report.condition1 and report.condition2 and report.ok:
        report.notes.append(
            "conditions (1) and (2) hold and all checked Hom-power identities hold"
        )
    elif (report.condition1 and report.condition2) and not report.ok:
        report.notes.append(
            "conditions hold but a power identity failed: theorem violated in range"
        )
    else:
        report.notes.append("low-degree conditions fail; no implication expected")
    return report


def tree_component(signature, exp_bound):
    """The quotient's relations on the trees of one (generator, exp + depth)
    multiset: (monomials, row space, above). Every (shape, permutation) pair
    with no negative exponent is a tree; above is the set of permutations,
    as phi words, that give a tree above the bound, and the other trees are
    the members, sorted by mono_key into columns. Each member gets one row
    per one-way rewrite alpha(A)(BC) -> (AB)alpha(C) of a subtree whose
    target is a member, members in column order, subtrees in preorder."""
    from homforge.expr import Leaf, Node, alpha_mono, leaves, map_leaves, mono_key
    from homforge.hombialg import _build_from_shape, _shape_depths, _tree_shapes
    from homforge.linalg import RowSpace

    monomials, above = [], set()
    for shape in _tree_shapes(len(signature)):
        depths = _shape_depths(shape)
        for perm in set(itertools.permutations(signature)):
            exps = [phi - d for (_, phi), d in zip(perm, depths)]
            if min(exps) < 0:
                continue
            if max(exps) > exp_bound:
                above.add(perm)
            else:
                lvs = (Leaf(base, e) for (base, _), e in zip(perm, exps))
                monomials.append(_build_from_shape(shape, lvs))
    monomials.sort(key=mono_key)
    position = {m: i for i, m in enumerate(monomials)}

    def rewrites(t):
        if not isinstance(t, Node):
            return []
        a, b = t.args
        out = []
        if isinstance(b, Node) and all(l.exp for l in leaves(a)):
            dec_a = map_leaves(a, lambda l: Leaf(l.base, l.exp - 1))
            out.append(Node(t.op, (Node(t.op, (dec_a, b.args[0])), alpha_mono(b.args[1], 1))))
        out += [Node(t.op, (s, b)) for s in rewrites(a)]
        out += [Node(t.op, (a, s)) for s in rewrites(b)]
        return out

    space = RowSpace()
    for i, m in enumerate(monomials):
        for m2 in rewrites(m):
            if m2 in position:
                space.add({i: 1, position[m2]: -1})
    return monomials, space, above
