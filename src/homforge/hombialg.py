"""Free Hom-algebras as Hom-bialgebras.

The coproduct here makes generators primitive and is extended as an algebra
morphism into the componentwise tensor product; multiplication by the unit
applies the twisting map, which is what separates this coproduct from the
classical one. Two independent algorithms compute it: the recursive morphism
extension and a direct partition-labeling rule, cross-checked in the tests.

Quotients are degree/exponent bounded: ideal membership inside the bounds is
decided by exact row reduction; a nonzero normal form in a truncated
component is reported as inconclusive, never as a refutation.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .expr import (
    MUL,
    Leaf,
    Monomial,
    Node,
    Poly,
    SignatureError,
    UNIT,
    alpha_mono,
    apply_alpha,
    collect,
    degree,
    expand,
    leaves,
    lincomb,
    map_leaves,
    mono_key,
    mul,
    mul_mono,
    rename_leaves,
    render_mono,
    render_poly,
)
from .fdalg import AlgebraSpec, OpFamily, Vector
from .linalg import RowSpace, kernel
from .qops import QSolver
from .rationals import ONE, ZERO, rat, rat_str


class BoundsError(ValueError):
    """An element does not fit inside the quotient's degree/exponent bounds."""


# ---------------------------------------------------------------------------
# Tensor elements and the coproduct


class TensorElement(Poly):
    """Rational combination of ordered pairs of monomials (an element of B (x) B).

    Sums, differences, scaling and equality are Poly's."""

    __slots__ = ()

    @staticmethod
    def pair(a: Monomial, b: Monomial, c=ONE) -> "TensorElement":
        return TensorElement({(a, b): rat(c)})

    def product(self, other: "TensorElement", op: str = MUL) -> "TensorElement":
        return TensorElement(expand(
            [self.terms, other.terms],
            lambda x, y: (mul_mono(x[0], y[0], op), mul_mono(x[1], y[1], op)),
        ))

    def swap(self) -> "TensorElement":
        return TensorElement({(b, a): c for (a, b), c in self.terms.items()})

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for (a, b), c in sorted(
            self.terms.items(), key=lambda kv: (mono_key(kv[0][0]), mono_key(kv[0][1]))
        ):
            coeff = "" if c == 1 else f"{rat_str(c)}*"
            bits.append(f"{coeff}{render_mono(a)}(x){render_mono(b)}")
        return " + ".join(bits)


def delta(m: Monomial) -> TensorElement:
    """Recursive coproduct: unit grouplike, decorated generators primitive,
    extended through binary products componentwise."""
    if m is UNIT:
        return TensorElement.pair(UNIT, UNIT)
    if isinstance(m, Leaf):
        return TensorElement.pair(UNIT, m) + TensorElement.pair(m, UNIT)
    if len(m.args) != 2:
        raise SignatureError("the coproduct is defined for binary products only")
    return delta(m.args[0]).product(delta(m.args[1]), m.op)


def delta_poly(p: Poly) -> TensorElement:
    return TensorElement(lincomb((c, delta(m)) for m, c in p.terms.items()))


def counit_mono(m: Monomial):
    return ONE if m is UNIT else ZERO


def counit(p: Poly):
    return p.coeff(UNIT)


def is_primitive(p: Poly) -> bool:
    """Delta(p) = u(1) (x) p + p (x) u(1), exactly."""
    want = collect(
        kc for m, c in p.terms.items() for kc in (((UNIT, m), c), ((m, UNIT), c))
    )
    return delta_poly(p).terms == want


def delta_summand(m: Monomial, part1: Iterable[int]) -> Tuple[Monomial, Monomial]:
    """One coproduct summand by the partition-labeling rule.

    part1 is a set of leaf positions (preorder). Leaves get labels +1/-1 by
    the partition; labels propagate toward the root (equal labels survive,
    mixed become 0); each 0-labeled node with a nonzero child applies the
    twisting map to the opposite-label leaves of the other branch. The two
    restricted monomials are returned, with an empty part giving the unit.
    """
    n = degree(m)
    part1 = frozenset(part1)
    if not part1 <= frozenset(range(n)):
        raise ValueError(f"part1 must be a subset of leaf positions 0..{n - 1}")
    extra: Dict[int, int] = {}
    counter = itertools.count()

    def label(t: Monomial) -> Tuple[int, List[Tuple[int, int]]]:
        # returns (node label, [(leaf position, leaf label)])
        if t is UNIT:
            raise ValueError("partition labeling applies to unit-free monomials")
        if isinstance(t, Leaf):
            pos = next(counter)
            l = 1 if pos in part1 else -1
            return l, [(pos, l)]
        if len(t.args) != 2:
            raise ValueError("partition labeling applies to binary products only")
        la, lva = label(t.args[0])
        lb, lvb = label(t.args[1])
        mine = la if la == lb else 0
        if mine == 0:
            for lc, other in ((la, lvb), (lb, lva)):
                if lc != 0:
                    for pos, ll in other:
                        if ll == -lc:
                            extra[pos] = extra.get(pos, 0) + 1
        return mine, lva + lvb

    label(m)

    def restrict(t: Monomial, keep_label: int, counter2) -> Optional[Monomial]:
        if isinstance(t, Leaf):
            pos = next(counter2)
            mylabel = 1 if pos in part1 else -1
            if mylabel != keep_label:
                return None
            return Leaf(t.base, t.exp + extra.get(pos, 0))
        parts = []
        for a in t.args:
            r = restrict(a, keep_label, counter2)
            if r is not None:
                parts.append(r)
        if not parts:
            return None
        if len(parts) == 1:
            return parts[0]
        return Node(t.op, tuple(parts))

    left = restrict(m, 1, itertools.count())
    right = restrict(m, -1, itertools.count())
    return (left if left is not None else UNIT, right if right is not None else UNIT)


def delta_by_partitions(m: Monomial) -> TensorElement:
    """The coproduct as the sum of delta_summand over all ordered partitions."""
    n = degree(m)
    return TensorElement(collect(
        (delta_summand(m, (i for i in range(n) if mask >> i & 1)), ONE)
        for mask in range(1 << n)
    ))


# ---------------------------------------------------------------------------
# Antipode


def antipode_mono(m: Monomial) -> Tuple[object, Monomial]:
    """S on one monomial: S(g) = -g on generators, S(uv) = S(v)S(u), S(1) = 1."""
    if m is UNIT:
        return ONE, UNIT
    if isinstance(m, Leaf):
        return -ONE, m
    if len(m.args) != 2:
        raise SignatureError("the antipode is defined for binary products only")
    sa, ma = antipode_mono(m.args[0])
    sb, mb = antipode_mono(m.args[1])
    return sa * sb, mul_mono(mb, ma, m.op)


def antipode(p: Poly) -> Poly:
    images = ((antipode_mono(m), c) for m, c in p.terms.items())
    return Poly(collect((mm, s * c) for (s, mm), c in images))


def antipode_defect(m: Monomial) -> Poly:
    """alpha( sum u_(1) S(u_(2)) - u(eps(u)) ), the element that must die in
    the free Hom-associative quotient."""
    terms = [(c, mul(Poly.monomial(m1), antipode(Poly.monomial(m2))))
             for (m1, m2), c in delta(m).terms.items()]
    terms.append((-ONE, Poly.unit(counit_mono(m))))
    return apply_alpha(Poly(lincomb(terms)), 1)


# ---------------------------------------------------------------------------
# The bounded free Hom-associative quotient
#
# Relations alpha(a)(bc) - (ab)alpha(c) preserve, leaf by leaf, the quantity
# exponent + depth. The relation span therefore decomposes over the multiset
# of (generator, exponent + depth) pairs, and each graded component is a
# small space of tree shapes that can be row-reduced exactly.


def _leaf_depths(m: Monomial, depth: int = 0) -> List[Tuple[Leaf, int]]:
    if m is UNIT:
        return []
    if isinstance(m, Leaf):
        return [(m, depth)]
    if m.op != MUL:
        raise SignatureError(f"the quotient has only the product {MUL!r}, not {m.op!r}")
    out: List[Tuple[Leaf, int]] = []
    for a in m.args:
        out.extend(_leaf_depths(a, depth + 1))
    return out


def phi_signature(m: Monomial) -> Tuple[Tuple[str, int], ...]:
    return tuple(sorted((l.base, l.exp + d) for l, d in _leaf_depths(m)))


def _tree_shapes(n: int, _cache={}) -> List:
    """All binary tree shapes with n leaves; a shape is None or (left, right)."""
    if n in _cache:
        return _cache[n]
    if n == 1:
        out = [None]
    else:
        out = []
        for k in range(1, n):
            for ls in _tree_shapes(k):
                for rs in _tree_shapes(n - k):
                    out.append((ls, rs))
    _cache[n] = out
    return out


def _shape_depths(shape, depth=0) -> List[int]:
    if shape is None:
        return [depth]
    return _shape_depths(shape[0], depth + 1) + _shape_depths(shape[1], depth + 1)


def _build_from_shape(shape, leaves_iter) -> Monomial:
    if shape is None:
        return next(leaves_iter)
    return Node(
        MUL, (_build_from_shape(shape[0], leaves_iter), _build_from_shape(shape[1], leaves_iter))
    )


def _monomials(generators: Sequence[str], n: int, exp_bound: int) -> List[Monomial]:
    """Every binary-product monomial of degree n over the generators with
    leaf exponents <= exp_bound, by shape, then letters, then exponents."""
    out = []
    for shape in _tree_shapes(n):
        for bases in itertools.product(generators, repeat=n):
            for exps in itertools.product(range(exp_bound + 1), repeat=n):
                out.append(_build_from_shape(shape, map(Leaf, bases, exps)))
    return out


class _PhiComponent:
    """One (generator, exp + depth) multiset component of the quotient."""

    def __init__(self, signature: Tuple[Tuple[str, int], ...], exp_bound: int):
        self.signature = signature
        self.exp_bound = exp_bound
        self.truncated = False
        self.monomials: List[Monomial] = []
        n = len(signature)
        # distinct (shape, permutation) pairs give distinct trees
        for shape in _tree_shapes(n):
            depths = _shape_depths(shape)
            for perm in set(itertools.permutations(signature)):
                lvs = []
                for (base, phi), d in zip(perm, depths):
                    e = phi - d
                    if e < 0:
                        break  # no tree: a later leaf cannot make this one
                    lvs.append(Leaf(base, e))
                else:
                    # a whole tree; only one above the bound truncates
                    if any(l.exp > exp_bound for l in lvs):
                        self.truncated = True
                    else:
                        self.monomials.append(_build_from_shape(shape, iter(lvs)))
        self.monomials.sort(key=mono_key)
        # the pivot order is mono_key's, read off each monomial's position
        position = {m: i for i, m in enumerate(self.monomials)}
        self.space = RowSpace(key=position.__getitem__)
        # A rewrite keeps the phi signature and non-negative exponents, so a
        # target that is not a member is a tree the enumeration met with no
        # negative exponent and one above the bound: truncated is already set.
        for m in self.monomials:
            for m2 in self._rewrites(m):
                if m2 in position:
                    self.space.add({m: ONE, m2: -ONE})

    def _rewrites(self, m: Monomial) -> List[Monomial]:
        """Every alpha(A)(BC) -> (AB)alpha(C) rewrite of one subtree of m.

        The reverse direction is not needed: a relation inside the component
        joins a member of the form alpha(A)(BC) to one of the form
        (AB)alpha(C), so rewriting the first finds it."""
        out: List[Monomial] = []

        def walk(t: Monomial, rebuild):
            if not isinstance(t, Node):
                return
            a, b = t.args
            if isinstance(b, Node) and all(l.exp for l in leaves(a)):
                dec_a = map_leaves(a, lambda l: Leaf(l.base, l.exp - 1))
                out.append(
                    rebuild(
                        Node(
                            t.op,
                            (
                                Node(t.op, (dec_a, b.args[0])),
                                alpha_mono(b.args[1], 1),
                            ),
                        )
                    )
                )
            walk(a, lambda s: rebuild(Node(t.op, (s, b))))
            walk(b, lambda s: rebuild(Node(t.op, (a, s))))

        walk(m, lambda s: s)
        return out

    @property
    def rank(self) -> int:
        return self.space.rank

    def reduce(self, terms: Dict[Monomial, object]) -> Dict[Monomial, object]:
        return self.space.reduce(terms)


@dataclass
class Reduction:
    normal_form: Poly
    truncated: bool

    def is_zero(self) -> bool:
        return self.normal_form.is_zero()

    @property
    def status(self) -> str:
        if self.is_zero():
            return "zero"
        return "inconclusive" if self.truncated else "nonzero"


class FreeHomAssocQuotient:
    """F_{alpha,ass}(X) truncated to degree <= d and leaf exponents <= E.

    Basis: all binary-product monomials over the generators inside the
    bounds. Relations: every instance of Hom-associativity, closed under
    multiplication by monomials, whose two sides both stay inside the bounds.
    """

    def __init__(self, generators: Sequence[str], degree_bound: int, exp_bound: int):
        if degree_bound < 1 or exp_bound < 0:
            raise BoundsError("need degree >= 1 and exponent bound >= 0")
        self.generators = tuple(generators)
        self.degree_bound = degree_bound
        self.exp_bound = exp_bound
        self._components: Dict[Tuple[Tuple[str, int], ...], _PhiComponent] = {}

    def component(self, signature: Tuple[Tuple[str, int], ...]) -> _PhiComponent:
        comp = self._components.get(signature)
        if comp is None:
            comp = _PhiComponent(signature, self.exp_bound)
            self._components[signature] = comp
        return comp

    def _check_in_bounds(self, m: Monomial) -> None:
        if m is UNIT:
            raise BoundsError("the quotient models the unit-free part")
        lvs = _leaf_depths(m)
        if len(lvs) > self.degree_bound:
            raise BoundsError(f"monomial degree {len(lvs)} exceeds bound {self.degree_bound}")
        for l, _ in lvs:
            if l.base not in self.generators:
                raise BoundsError(f"unknown generator {l.base!r}")
            if l.exp > self.exp_bound:
                raise BoundsError(f"exponent {l.exp} exceeds bound {self.exp_bound}")

    def reduce(self, p: Poly) -> Reduction:
        groups: Dict[Tuple[Tuple[str, int], ...], Dict[Monomial, object]] = {}
        for m, c in p.terms.items():
            if m is not UNIT:
                self._check_in_bounds(m)
                groups.setdefault(phi_signature(m), {})[m] = c
        out = [(UNIT, p.coeff(UNIT))]
        truncated = False
        for sig, terms in groups.items():
            comp = self.component(sig)
            truncated = truncated or comp.truncated
            out.extend(comp.reduce(terms).items())
        return Reduction(Poly(collect(out)), truncated)

    def nf(self, p: Poly) -> Poly:
        return self.reduce(p).normal_form

    def monomials_of_degree(self, n: int) -> List[Monomial]:
        return _monomials(self.generators, n, self.exp_bound)

    def degree_report(self, n: int) -> Tuple[int, int]:
        """(quotient dimension, relation rank) of the degree-n piece."""
        signatures = set()
        count = 0
        for m in self.monomials_of_degree(n):
            signatures.add(phi_signature(m))
            count += 1
        rank = sum(self.component(sig).rank for sig in signatures)
        return count - rank, rank


@dataclass
class AntipodeResult:
    word: str
    status: str  # "pass" | "fail" | "inconclusive"
    degree_bound: int
    exp_bound: int
    normal_form: Poly

    @property
    def ok(self) -> bool:
        return self.status == "pass"

    def to_json(self) -> dict:
        return {
            "word": self.word,
            "status": self.status,
            "bounds": {"degree": self.degree_bound, "exp": self.exp_bound},
            "normal_form": render_poly(self.normal_form),
        }


def check_antipode(
    m: Monomial,
    quotient: Optional[FreeHomAssocQuotient] = None,
    degree_bound: Optional[int] = None,
    exp_bound: Optional[int] = None,
) -> AntipodeResult:
    """Reduce alpha(sum u_(1) S(u_(2)) - u(eps(u))) in the bounded quotient.

    Default bounds: degree = |u| and exponent = 2|u|, twice the margin the
    worked low-degree computations ever need.
    """
    d = degree(m)
    if quotient is None:
        degree_bound = degree_bound if degree_bound is not None else max(d, 1)
        exp_bound = exp_bound if exp_bound is not None else 2 * max(d, 1)
        gens = sorted({l.base for l in leaves(m)}) or ["x"]
        quotient = FreeHomAssocQuotient(gens, degree_bound, exp_bound)
    defect = antipode_defect(m)
    try:
        red = quotient.reduce(defect)
    except BoundsError:
        red = Reduction(defect, truncated=True)
    status = {"zero": "pass", "nonzero": "fail", "inconclusive": "inconclusive"}[red.status]
    return AntipodeResult(
        render_mono(m, top=True),
        status,
        quotient.degree_bound,
        quotient.exp_bound,
        red.normal_form,
    )


def alpha_injectivity_probe(
    generators: Sequence[str], max_degree: int, exp_bound: int
) -> Dict[int, str]:
    """Finite sections of injectivity of the twisting map on F_{alpha,ass}.

    For each degree n: whenever alpha(p) lies in the bounded relation span,
    check that p already does. Returns {degree: "pass", "fail" or
    "inconclusive"}: a p with a nonzero normal form fails the section when
    none of the components it meets was truncated, and leaves it
    inconclusive otherwise.
    """
    quotient = FreeHomAssocQuotient(generators, max_degree, exp_bound + 1)
    inner = FreeHomAssocQuotient(generators, max_degree, exp_bound)
    out: Dict[int, str] = {}
    for n in range(1, max_degree + 1):
        monos = inner.monomials_of_degree(n)
        images = [dict(quotient.nf(apply_alpha(Poly.monomial(m), 1)).terms) for m in monos]
        out[n] = "pass"
        for combo in kernel(images, key=mono_key):
            p = Poly({m: c for m, c in zip(monos, combo) if c != 0})
            status = inner.reduce(p).status
            if status == "nonzero":
                out[n] = "fail"
                break
            if status == "inconclusive":
                out[n] = "inconclusive"
    return out


# ---------------------------------------------------------------------------
# Universal enveloping Hom-algebras (truncated)


def expand_exponents(p: Poly, spec: AlgebraSpec) -> Poly:
    """Rewrite decorated leaves through spec.alpha: a^k(e_i) expands linearly.

    A monomial expands as one product of its leaves' combinations, rebuilt on
    its own tree: A^k(e_i) is column i of alpha^k, an undecorated leaf stays.
    spec computes each alpha power once, so callers expanding many
    polynomials over one basis and alpha share one spec."""

    def leaf_terms(l: Leaf) -> Dict[Monomial, object]:
        if l.exp == 0:
            return {l: ONE}
        return _vector_poly(spec.alpha_columns(l.exp)[spec.basis_index(l.base)], spec.basis).terms

    def mono_terms(m: Monomial) -> Dict[Monomial, object]:
        if m is UNIT:
            return {UNIT: ONE}

        def rebuild(*chosen: Leaf) -> Monomial:
            it = iter(chosen)
            return map_leaves(m, lambda _: next(it))

        return expand([leaf_terms(l) for l in leaves(m)], rebuild)

    return Poly(lincomb((c, mono_terms(m)) for m, c in p.terms.items()))


def _vector_poly(v: Vector, basis: Sequence[str]) -> Poly:
    return Poly({Leaf(basis[i], 0): c for i, c in v.items()})


class FilteredQuotient:
    """K{S} monomials of degree <= d modulo (possibly inhomogeneous) relations.

    Relations are closed under multiplication by monomials within the degree
    bound and row-reduced with a degree-dominant column order, so rows whose
    pivot sits in degree <= k span exactly the computed ideal section there.
    """

    def __init__(self, basis: Sequence[str], relations: Sequence[Poly], degree_bound: int):
        self.basis = tuple(basis)
        self.degree_bound = degree_bound
        self._monos = {n: _monomials(self.basis, n, 0) for n in range(1, degree_bound + 1)}
        rows = self._closure([r for r in relations if not r.is_zero()])
        self.space = RowSpace(key=mono_key)
        for r in rows:
            self.space.add(dict(r.terms))
        # pivots per degree; the degree-dominant order makes the ones in
        # degree k the relation rank there
        self._ranks = Counter(degree(piv) for piv in self.space.rows)

    def _closure(self, relations: Sequence[Poly]) -> List[Poly]:
        seen = set()
        work = list(relations)
        out: List[Poly] = []
        while work:
            r = work.pop()
            key = frozenset(r.terms.items())
            if key in seen or not key:
                continue
            seen.add(key)
            out.append(r)
            lead = r.degree()
            for n in range(1, self.degree_bound - lead + 1):
                for m in self._monos[n]:
                    pm = Poly.monomial(m)
                    work.append(mul(pm, r))
                    work.append(mul(r, pm))
        return out

    def monomials_of_degree(self, n: int) -> List[Monomial]:
        return list(self._monos[n])

    def nf(self, p: Poly) -> Poly:
        for m in p.terms:
            if degree(m) > self.degree_bound:
                raise BoundsError("element exceeds the degree bound")
        return Poly(self.space.reduce(dict(p.terms)))

    def _graded_dim(self, k: int) -> int:
        return len(self._monos[k]) - self._ranks[k]

    def filtration_dim(self, k: int) -> int:
        return sum(self._graded_dim(n) for n in range(1, k + 1))

    def graded_dims(self) -> Dict[int, int]:
        return {k: self._graded_dim(k) for k in range(1, self.degree_bound + 1)}

    def report(self) -> Dict[int, Tuple[int, int]]:
        """(dimension, relation rank) in each degree up to the bound."""
        return {k: (dim, self._ranks[k]) for k, dim in self.graded_dims().items()}


def _substitute(
    template: Poly, letters: Sequence[str], word: Sequence[int], spec: AlgebraSpec
) -> Poly:
    """template with letters[i] -> spec.basis[word[i]], expanded through
    spec.alpha.

    A word that repeats a basis letter merges template monomials; their
    coefficients are summed."""
    mapping = {l: spec.basis[i] for l, i in zip(letters, word)}
    renamed = collect((rename_leaves(m, mapping), c) for m, c in template.terms.items())
    return expand_exponents(Poly(renamed), spec)


def u_hom_relations(fam: OpFamily, degree_bound: int) -> List[Poly]:
    """Generators of the enveloping ideal, as elements of K{S}.

    Three families: [a,b] + <a,b> with [a,b] the free commutator,
    <u;a,b> + q(u,a,b) - q(u,b,a) for nonempty basis words u, and Phi(u,v)
    minus the symmetrized q-average wherever Phi tables exist. Each relation
    is a table value minus a symbolic template, one per shape on fixed
    letters, with the basis letters substituted and expanded through the
    family's twisting map.
    """
    spec = fam.spec
    basis, dim = spec.basis, spec.dim
    solver = QSolver()
    relations: List[Poly] = []

    def relate(op, template: Poly, letters: Sequence[str], indices) -> None:
        for idx in indices:
            value = _vector_poly(op.basis_value(idx), basis)
            r = value - _substitute(template, letters, idx, spec)
            if not r.is_zero():
                relations.append(r)

    a, b = Poly.gen("a"), Poly.gen("b")
    pairs = [(i, j) for i in range(dim) for j in range(i, dim)]
    relate(fam.brackets[0], mul(b, a) - mul(a, b), ("a", "b"), pairs)
    for n in range(1, min(fam.cutoff, degree_bound - 2) + 1):
        u = tuple(f"u{i}" for i in range(n))
        words = (w for w in itertools.product(range(dim), repeat=n + 2) if w[-2] < w[-1])
        relate(fam.brackets[n], solver.bracket(u, "a", "b"), (*u, "a", "b"), words)
    for (n, m), phi_op in fam.phi.items():
        if n + m <= degree_bound:
            letters = tuple(f"u{i}" for i in range(n)) + tuple(f"v{j}" for j in range(m))
            template = solver.phi(letters[:n], letters[n:])
            relate(phi_op, template, letters, itertools.product(range(dim), repeat=n + m))
    return relations


def u_hom(fam: OpFamily, degree_bound: int) -> FilteredQuotient:
    """Truncated universal enveloping Hom-algebra of a Sabinin operation family.

    Every bracket relation with word length up to degree_bound - 2 is needed,
    so the family must have been built at least that far.
    """
    if fam.cutoff < degree_bound - 2:
        raise BoundsError(
            f"family cutoff {fam.cutoff} cannot supply bracket relations "
            f"up to degree {degree_bound}; need cutoff >= {degree_bound - 2}"
        )
    return FilteredQuotient(fam.spec.basis, u_hom_relations(fam, degree_bound), degree_bound)


def pi_map(quotient: FilteredQuotient, basis_index: int) -> Poly:
    """The unit map pi(s) = nf(s) on a generator."""
    return quotient.nf(Poly.gen(quotient.basis[basis_index]))


# ---------------------------------------------------------------------------
# Bialgebra checks


@dataclass
class BialgebraReport:
    status: str
    checks: List[Tuple[str, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.status == "pass"

    def note(self, name: str, outcome: str) -> None:
        self.checks.append((name, outcome))
        if outcome == "fail":
            self.status = "fail"
        elif outcome == "inconclusive" and self.status == "pass":
            self.status = "inconclusive"

    def to_json(self) -> dict:
        return {"status": self.status, "checks": [list(c) for c in self.checks]}


def check_counit_laws(monomials: Sequence[Monomial]) -> BialgebraReport:
    """Scalar counit laws and the unit-composed form on sample monomials.

    (eps (x) id) Delta = id and (id (x) eps) Delta = id exactly, while
    sum x_(1) u(eps(x_(2))) = sum u(eps(x_(1))) x_(2) = alpha(x).
    """
    report = BialgebraReport(status="pass")
    for m in monomials:
        dm = delta(m).terms.items()
        left = collect((m2, c * counit_mono(m1)) for (m1, m2), c in dm)
        right = collect((m1, c * counit_mono(m2)) for (m1, m2), c in dm)
        u_left = collect((mul_mono(m1, UNIT), c * counit_mono(m2)) for (m1, m2), c in dm)
        u_right = collect((mul_mono(UNIT, m2), c * counit_mono(m1)) for (m1, m2), c in dm)
        me, am = {m: ONE}, {alpha_mono(m, 1): ONE}
        ok = left == me and right == me and u_left == am and u_right == am
        report.note(f"counit[{render_mono(m, top=True)}]", "pass" if ok else "fail")
    return report


def check_cocommutative(monomials: Sequence[Monomial]) -> BialgebraReport:
    report = BialgebraReport(status="pass")
    for m in monomials:
        dm = delta(m)
        report.note(
            f"cocomm[{render_mono(m, top=True)}]",
            "pass" if dm.swap() == dm else "fail",
        )
    return report


def check_coassociative(monomials: Sequence[Monomial]) -> BialgebraReport:
    """(Delta (x) id) Delta = (id (x) Delta) Delta on sample monomials."""
    report = BialgebraReport(status="pass")
    for m in monomials:
        dm = delta(m).terms.items()
        left = collect(
            ((m11, m12, m2), c * c2)
            for (m1, m2), c in dm for (m11, m12), c2 in delta(m1).terms.items()
        )
        right = collect(
            ((m1, m21, m22), c * c2)
            for (m1, m2), c in dm for (m21, m22), c2 in delta(m2).terms.items()
        )
        report.note(
            f"coassoc[{render_mono(m, top=True)}]", "pass" if left == right else "fail"
        )
    return report


def check_ideal_coproduct(
    quotient: FilteredQuotient, generators: Sequence[Poly], spec: AlgebraSpec
) -> BialgebraReport:
    """Delta(r) in B (x) I + I (x) B for ideal generators r, within bounds.

    Membership is tested through the quotient map on each tensor factor:
    the combination vanishes in (B/I) (x) (B/I) exactly when it lies in
    B (x) I + I (x) B. Coproduct summands carry twisting exponents, which are
    expanded through spec's twisting map before reduction.
    """

    def image(m: Monomial) -> Dict[Monomial, object]:
        # m expanded through alpha and reduced; the unit part stays as it is
        p = expand_exponents(Poly.monomial(m), spec)
        nf = quotient.nf(Poly({k: c for k, c in p.terms.items() if k is not UNIT}))
        return collect([*nf.terms.items(), (UNIT, p.coeff(UNIT))])

    report = BialgebraReport(status="pass")
    for pos, r in enumerate(generators):
        try:
            acc = lincomb(
                (c, expand([image(m1), image(m2)], lambda a, b: (a, b)))
                for (m1, m2), c in delta_poly(r).terms.items()
            )
        except BoundsError:
            report.note(f"ideal_coproduct[{pos}]", "inconclusive")
            continue
        report.note(f"ideal_coproduct[{pos}]", "pass" if not acc else "fail")
    return report


def check_bialgebra(
    monomials: Sequence[Monomial] = (),
    quotient: Optional[FilteredQuotient] = None,
    generators: Sequence[Poly] = (),
    spec: Optional[AlgebraSpec] = None,
) -> BialgebraReport:
    """Counit laws, cocommutativity and coassociativity on sample monomials,
    plus Delta(ideal) membership in B (x) I + I (x) B when a quotient is given."""
    report = BialgebraReport(status="pass")
    if monomials:
        for sub in (
            check_counit_laws(monomials),
            check_cocommutative(monomials),
            check_coassociative(monomials),
        ):
            for name, outcome in sub.checks:
                report.note(name, outcome)
    if quotient is not None and generators:
        sub = check_ideal_coproduct(quotient, generators, spec)
        for name, outcome in sub.checks:
            report.note(name, outcome)
    return report
