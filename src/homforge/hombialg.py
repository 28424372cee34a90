"""Free Hom-algebras as Hom-bialgebras.

The coproduct here makes generators primitive and is extended as an algebra
morphism into the componentwise tensor product; multiplication by the unit
applies the twisting map, which is what separates this coproduct from the
classical one. delta computes it by the recursive morphism extension over
plain dicts of pairs, through the one pair-product loop TensorElement.product
uses too; delta_summand gives one summand by the direct partition-labeling
rule, which the tests sum over all partitions as an independent check. The
antipode defect is built in one pass over the coproduct of alpha(u), one tree
per summand.

Quotients are degree/exponent bounded: ideal membership inside the bounds is
decided by exact row reduction; a nonzero normal form in a truncated
component is reported as inconclusive, never as a refutation. The bounds
check_antipode and alpha_injectivity_probe take truncate nothing they meet.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from math import lcm
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

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
    mono_key,
    mul_mono,
    render_mono,
    render_poly,
)
from .fdalg import AlgebraSpec, OpFamily
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
        return TensorElement(_pair_product(self.terms, other.terms, op))

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


def _pair_product(s: Dict, t: Dict, op: str) -> Dict:
    """The product of two combinations of pairs, side by side: every pair of
    s times every pair of t, each side by mul_mono, the coefficients summed
    into one dict in that order. A sum that cancels stays, as 0."""
    out: Dict = {}
    for (a1, b1), c1 in s.items():
        for (a2, b2), c2 in t.items():
            k = (mul_mono(a1, a2, op), mul_mono(b1, b2, op))
            out[k] = out[k] + c1 * c2 if k in out else c1 * c2
    return out


def _delta_terms(m: Monomial) -> Dict:
    if m is UNIT:
        return {(UNIT, UNIT): ONE}
    if isinstance(m, Leaf):
        return {(UNIT, m): ONE, (m, UNIT): ONE}
    if len(m.args) != 2:
        raise SignatureError("the coproduct is defined for binary products only")
    return _pair_product(_delta_terms(m.args[0]), _delta_terms(m.args[1]), m.op)


def delta(m: Monomial) -> TensorElement:
    """Recursive coproduct: unit grouplike, decorated generators primitive,
    extended through binary products componentwise, on plain dicts."""
    return TensorElement(_delta_terms(m))


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
    the free Hom-associative quotient.

    One tree per coproduct summand. alpha is a morphism of algebras and of
    coalgebras, so alpha(u1 S(u2)) = alpha(u1) S(alpha(u2)), and the pairs
    (alpha(u1), alpha(u2)) are those of Delta(alpha(u)), in the same order."""
    out: Dict[Monomial, object] = {}
    for (m1, m2), c in delta(alpha_mono(m, 1)).terms.items():
        s, t = antipode_mono(m2)
        t = mul_mono(m1, t)
        out[t] = out[t] + s * c if t in out else s * c
    if m is UNIT:  # u(eps(u)), nonzero on the unit only
        out[UNIT] -= ONE
    return Poly(out)


# ---------------------------------------------------------------------------
# The bounded free Hom-associative quotient
#
# Relations alpha(a)(bc) - (ab)alpha(c) preserve, leaf by leaf and in order,
# the pairs (generator, exponent + depth): the phi word. The relation span
# therefore decomposes over phi words, and each component is the small space
# of one word's tree shapes, which can be row-reduced exactly.


def _shape_leaves(m: Monomial, lvs: List[Tuple[Leaf, int]], depth: int = 0):
    """The shape of m; appends m's (leaf, depth) pairs to lvs in preorder."""
    if isinstance(m, Leaf):
        lvs.append((m, depth))
        return None
    if m is UNIT:
        raise SignatureError("the quotient's trees hold no unit")
    if m.op != MUL:
        raise SignatureError(f"the quotient has only the product {MUL!r}, not {m.op!r}")
    if len(m.args) != 2:
        raise SignatureError("the quotient has binary products only")
    return (_shape_leaves(m.args[0], lvs, depth + 1), _shape_leaves(m.args[1], lvs, depth + 1))


PhiWord = Tuple[Tuple[str, int], ...]


def phi_word(m: Monomial) -> PhiWord:
    """m's leaves' (base, exponent + depth) pairs, in preorder."""
    lvs: List[Tuple[Leaf, int]] = []
    _shape_leaves(m, lvs)
    return tuple((l.base, l.exp + d) for l, d in lvs)


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


def _shape_key(shape) -> Tuple[int, ...]:
    """A shape's preorder arity sequence, which mono_key orders trees by."""
    return (0,) if shape is None else (2, *_shape_key(shape[0]), *_shape_key(shape[1]))


def _shape_depths(shape, depth=0) -> List[int]:
    if shape is None:
        return [depth]
    return _shape_depths(shape[0], depth + 1) + _shape_depths(shape[1], depth + 1)


def _rotations(shape) -> List:
    """The shapes one rotation X(YZ) -> (XY)Z reaches, one per node whose
    right child is a node, nodes in preorder."""
    if shape is None:
        return []
    a, b = shape
    out = [] if b is None else [((a, b[0]), b[1])]
    return out + [(s, b) for s in _rotations(a)] + [(a, s) for s in _rotations(b)]


class _ShapeTable(NamedTuple):
    shapes: List  # in _shape_key order
    index: Dict[object, int]
    depths: List[List[int]]
    rotations: List[List[int]]  # shape indices, in _rotations order


def _shape_table(n: int, _cache={}) -> _ShapeTable:
    """The shapes with n leaves, in the order mono_key gives their trees,
    with their leaf depths and rotations."""
    if n not in _cache:
        shapes = sorted(_tree_shapes(n), key=_shape_key)
        index = {s: i for i, s in enumerate(shapes)}
        _cache[n] = _ShapeTable(shapes, index, [_shape_depths(s) for s in shapes],
                                [[index[t] for t in _rotations(s)] for s in shapes])
    return _cache[n]


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


class _PhiShapes:
    """The columns and relations of every phi word with one phi sequence,
    the word's phis without its letters.

    A phi word is a tree's leaves' (base, exp + depth) pairs in preorder. A
    column is a shape of the shape table that puts every leaf exponent, the
    leaf's phi less its depth, inside [0, exp_bound]; the columns follow the
    shape index, which is mono_key order within one word, and the pivots
    follow it. A shape that gives no negative exponent but one above the
    bound is a tree outside the quotient, and sets truncated.

    A rewrite alpha(A)(BC) -> (AB)alpha(C) keeps the word and rotates the
    shape: A's exponents fall by one, C's rise by one. So no relation joins
    two words, truncation is exact per word, and each column's rows join it
    to its rotations that are columns too, in preorder of the rotated node.
    The reverse direction is not needed: a relation inside the component
    joins a member of the form alpha(A)(BC) to one of the form (AB)alpha(C),
    so rotating the first finds it. None of this reads the letters.
    """

    __slots__ = ("table", "truncated", "columns", "position", "space")

    def __init__(self, phis: Tuple[int, ...], exp_bound: int):
        self.table = table = _shape_table(len(phis))
        self.truncated = False
        self.columns: List[int] = []  # column -> shape index
        # shape index -> column, None at a shape that is no column
        self.position: List[Optional[int]] = [None] * len(table.shapes)
        for s, depths in enumerate(table.depths):
            exps = [phi - d for phi, d in zip(phis, depths)]
            if min(exps) < 0:
                continue
            if max(exps) > exp_bound:
                self.truncated = True
                continue
            self.position[s] = len(self.columns)
            self.columns.append(s)
        self.space = RowSpace()
        for i, s in enumerate(self.columns):
            for t in table.rotations[s]:
                j = self.position[t]
                if j is not None:
                    self.space.add({i: ONE, j: -ONE})


class _PhiComponent:
    """One phi word's component of the quotient: the word's trees on the
    columns of its phi sequence's shapes, which it shares with every word
    of that phi sequence."""

    __slots__ = ("word", "shapes")

    def __init__(self, word: PhiWord, shapes: _PhiShapes):
        self.word = word
        self.shapes = shapes

    def _tree(self, column: int) -> Monomial:
        table = self.shapes.table
        s = self.shapes.columns[column]
        lvs = (Leaf(base, phi - d) for (base, phi), d in zip(self.word, table.depths[s]))
        return _build_from_shape(table.shapes[s], lvs)

    @property
    def monomials(self) -> "_Trees":
        """The columns as trees, in column order."""
        return _Trees(self)

    @property
    def rank(self) -> int:
        return self.shapes.space.rank

    @property
    def truncated(self) -> bool:
        return self.shapes.truncated

    def reduce(self, terms: Dict[object, object]) -> Dict[Monomial, object]:
        """Reduce terms keyed by the shapes of columns; the residual is
        keyed by tree."""
        index, position = self.shapes.table.index, self.shapes.position
        row = {position[index[shape]]: c for shape, c in terms.items()}
        return {self._tree(i): c for i, c in self.shapes.space.reduce(row).items()}


class _Trees(Sequence):
    """A component's columns as trees, each built when it is read: counting
    them builds none."""

    def __init__(self, comp: _PhiComponent):
        self._comp = comp

    def __len__(self) -> int:
        return len(self._comp.shapes.columns)

    def __getitem__(self, column: int) -> Monomial:
        return self._comp._tree(column)


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
        self._components: Dict[PhiWord, _PhiComponent] = {}
        self._shapes: Dict[Tuple[int, ...], _PhiShapes] = {}  # by phi sequence

    def component(self, word: PhiWord) -> _PhiComponent:
        comp = self._components.get(word)
        if comp is None:
            phis = tuple(phi for _, phi in word)
            shapes = self._shapes.get(phis)
            if shapes is None:
                shapes = self._shapes[phis] = _PhiShapes(phis, self.exp_bound)
            comp = self._components[word] = _PhiComponent(word, shapes)
        return comp

    def _shape_word(self, m: Monomial) -> Tuple[object, PhiWord]:
        """The shape and phi word of a unit-free m inside the bounds."""
        lvs: List[Tuple[Leaf, int]] = []
        shape = _shape_leaves(m, lvs)
        if len(lvs) > self.degree_bound:
            raise BoundsError(f"monomial degree {len(lvs)} exceeds bound {self.degree_bound}")
        for l, _ in lvs:
            if l.base not in self.generators:
                raise BoundsError(f"unknown generator {l.base!r}")
            if l.exp > self.exp_bound:
                raise BoundsError(f"exponent {l.exp} exceeds bound {self.exp_bound}")
        return shape, tuple((l.base, l.exp + d) for l, d in lvs)

    def reduce(self, p: Poly) -> Reduction:
        groups: Dict[PhiWord, Dict[object, object]] = {}
        for m, c in p.terms.items():
            if m is not UNIT:
                shape, word = self._shape_word(m)
                groups.setdefault(word, {})[shape] = c
        out = [(UNIT, p.coeff(UNIT))]
        truncated = False
        for word, terms in groups.items():
            comp = self.component(word)
            truncated = truncated or comp.truncated
            out.extend(comp.reduce(terms).items())
        return Reduction(Poly(collect(out)), truncated)

    def nf(self, p: Poly) -> Poly:
        return self.reduce(p).normal_form

    def monomials_of_degree(self, n: int) -> List[Monomial]:
        return _monomials(self.generators, n, self.exp_bound)


@dataclass
class AntipodeResult:
    word: str
    status: str  # "pass" | "fail" | "inconclusive"
    degree_bound: int
    exp_bound: int
    normal_form: Poly
    # the BoundsError message when the defect itself is outside a caller's
    # quotient; normal_form is then the unreduced defect
    bounds_error: Optional[str] = None

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


def check_antipode(m: Monomial, quotient: Optional[FreeHomAssocQuotient] = None) -> AntipodeResult:
    """Reduce alpha(sum u_(1) S(u_(2)) - u(eps(u))) in the free
    Hom-associative quotient: "pass" or "fail".

    Without a quotient, u's own has degree d = max(|u|, 1) and exponent
    2d + e, e being u's largest leaf exponent, which truncates nothing. A
    defect leaf's exponent is at most e, + 1 for alpha, + 1 per ancestor
    whose sibling the coproduct sent to the unit side (at most |u| - 1),
    + 1 for a final unit factor: e + |u| + 1. Its depth is at most |u| - 1,
    so its phi is at most 2d + e, and so is every phi of its component: no
    tree is out of bounds and no shape is truncated. Only a caller's
    quotient can be tighter, and leave the result "inconclusive".
    """
    if quotient is None:
        d = max(degree(m), 1)
        lvs = leaves(m)
        gens = sorted({l.base for l in lvs}) or ["x"]
        quotient = FreeHomAssocQuotient(gens, d, 2 * d + max((l.exp for l in lvs), default=0))
    defect = antipode_defect(m)
    bounds_error = None
    try:
        red = quotient.reduce(defect)
    except BoundsError as e:
        red, bounds_error = Reduction(defect, truncated=True), str(e)
    status = {"zero": "pass", "nonzero": "fail", "inconclusive": "inconclusive"}[red.status]
    return AntipodeResult(
        render_mono(m, top=True),
        status,
        quotient.degree_bound,
        quotient.exp_bound,
        red.normal_form,
        bounds_error,
    )


def alpha_injectivity_probe(
    generators: Sequence[str], max_degree: int, exp_bound: int
) -> Dict[int, str]:
    """Finite sections of injectivity of the twisting map on F_{alpha,ass}.

    For each degree n, over the monomials of degree n with leaf exponents
    <= exp_bound: whenever alpha(p) lies in the relation span, check that p
    already does. Returns {degree: "pass" or "fail"}. The quotient's
    exponent bound exp_bound + max_degree is at least every phi of those
    monomials and of their images under alpha, so the components they meet
    are not truncated and both memberships are decided.
    """
    quotient = FreeHomAssocQuotient(generators, max_degree, exp_bound + max_degree)
    out: Dict[int, str] = {}
    for n in range(1, max_degree + 1):
        monos = _monomials(generators, n, exp_bound)
        images = [dict(quotient.nf(apply_alpha(Poly.monomial(m), 1)).terms) for m in monos]
        out[n] = "pass"
        for combo in kernel(images, key=mono_key):
            p = Poly({m: c for m, c in zip(monos, combo) if c != 0})
            if not quotient.reduce(p).is_zero():
                out[n] = "fail"
                break
    return out


# ---------------------------------------------------------------------------
# Universal enveloping Hom-algebras (truncated)


def _ranks(basis: Sequence[str]) -> List[int]:
    """Each basis index's rank among the sorted letters: its digit in a column."""
    return [sorted(basis).index(b) for b in basis]


class Template:
    """A polynomial compiled once for expand_exponents, over letters that
    stand for basis indices, against the column rule of FilteredQuotient.

    Each term must be a binary product tree over the letters (else
    BoundsError). A term of n leaves becomes its column with every digit 0,
    base(n) + s dim^n with s the index of its shape in _shape_table(n), and
    one slot per leaf A^k(letters[s]): (s, k, the place value dim^(n-1-i)
    of leaf i). A slot's list under basis index j, built once per template,
    is column j of alpha^k as (digit times place value, coefficient) pairs,
    a digit being the rank of a letter among the sorted basis letters."""

    def __init__(self, p: Poly, letters: Sequence[str], spec: AlgebraSpec):
        dim, letter_slot = spec.dim, {l: s for s, l in enumerate(letters)}
        self.slots: Dict[Tuple[int, int, int], int] = {}  # (slot, exponent, place) -> position
        self.terms: List[Tuple[int, Tuple[int, ...], object]] = []
        for m, c in p.terms.items():
            lvs: List[Tuple[Leaf, int]] = []
            try:
                shape, n = _shape_leaves(m, lvs), len(lvs)
                slots = tuple(self.slots.setdefault((letter_slot[l.base], l.exp, dim ** (n - 1 - i)),
                                                    len(self.slots)) for i, (l, _) in enumerate(lvs))
            except (SignatureError, KeyError):
                raise BoundsError(f"{render_mono(m, top=True)} is no product of the letters "
                                  f"{tuple(letters)}") from None
            base = sum(len(_shape_table(k).shapes) * dim ** k for k in range(1, n))
            self.terms.append((base + _shape_table(n).index[shape] * dim ** n, slots, c))
        rank = _ranks(spec.basis)
        self.columns = {
            (j, k, place): [(rank[i] * place, x) for i, x in spec.alpha_columns(k)[j].items()]
            for _, k, place in self.slots for j in range(dim)
        }


def expand_exponents(template: Template, word: Sequence[int]) -> List[Tuple[int, object]]:
    """The template with letters[s] -> basis[word[s]], expanded through
    spec.alpha, as (column, coefficient) pairs to be summed with collect.

    A^k(letters[s]) reads column word[s] of alpha^k, an undecorated letter
    becomes its basis element; every choice of one entry per leaf gives one
    column, the term's base column plus the chosen digits at their places,
    weighted by the product of the chosen coefficients. A word that repeats
    a basis letter merges template monomials, and so may the expansion: the
    caller sums them."""
    columns = template.columns
    entries = [columns[word[s], k, place] for s, k, place in template.slots]
    out: List[Tuple[int, object]] = []
    for base, slots, c in template.terms:
        acc = [(base, c)]
        for s in slots:
            acc = [(col + r, x * y) for col, x in acc for r, y in entries[s]]
        out += acc
    return out


class FilteredQuotient:
    """K{S} monomials of degree <= d modulo (possibly inhomogeneous) relations.

    S is the basis of spec, the algebra of the relations. The columns are
    the binary product trees over S of degree 1 to d, numbered by one rule:
    a tree of degree n, with shape index s in _shape_table(n) and leaf word
    r_0 .. r_(n-1) over the letters of S in sorted order (not basis order),
    is column base(n) + s dim^n + sum_i r_i dim^(n-1-i), where base(n)
    counts the trees of lower degree. That is mono_key order, which is
    degree-dominant: a row's degree is that of its largest column, and rows
    whose pivot sits in degree <= k span the computed ideal section there.
    The relations are rows over these columns, as u_hom_relations gives
    them, closed under multiplication by monomials within the bound through
    a product table of columns and added in pivot order as primitive
    integer rows (a repeated relation adds a dependent row). nf numbers a
    monomial through its Template over S, by the same rule, divides once,
    returns exact rationals, and rejects a monomial with no column (the
    unit, a twisted leaf, a letter outside S, a degree above d).
    """

    def __init__(self, spec: AlgebraSpec, relations: Sequence[Dict[int, object]],
                 degree_bound: int):
        self.spec = spec
        self.degree_bound = degree_bound
        # column -> tree by the rule: a shape's trees, its subtrees' trees
        # multiplied left-major, come in leaf-word order; times[i][j]
        # numbers columns[i] * columns[j], each product column split once
        self._columns = columns = [Leaf(b, 0) for b in sorted(spec.basis)]
        self._by_degree: Dict[int, range] = {1: range(spec.dim)}
        blocks = {None: range(spec.dim)}  # shape -> its columns
        times: Dict[int, Dict[int, int]] = {}
        for n in range(2, degree_bound + 1):
            for shape in _shape_table(n).shapes:
                first = len(columns)
                for i in blocks[shape[0]]:
                    for j in blocks[shape[1]]:
                        times.setdefault(i, {})[j] = len(columns)
                        columns.append(Node(MUL, (columns[i], columns[j])))
                blocks[shape] = range(first, len(columns))
            self._by_degree[n] = range(self._by_degree[n - 1].stop, len(columns))
        self._degree = [n for n, block in self._by_degree.items() for _ in block]
        rows = self._closure([r for r in relations if r], times)
        self.space = RowSpace()
        # in pivot order a stored row seldom holds a new pivot; the fully
        # reduced basis of the span is the same in any order
        for r in sorted(rows, key=max):
            self.space.add(r)
        # pivots per degree; the degree-dominant order makes the ones in
        # degree k the relation rank there
        self._ranks = Counter(self._degree[piv] for piv in self.space.rows)

    def _column(self, m: Monomial) -> int:
        """m's column, the one term of m's template over the basis;
        BoundsError when m has none."""
        if degree(m) <= self.degree_bound and not any(l.exp for l in leaves(m)):
            try:
                template = Template(Poly.monomial(m), self.spec.basis, self.spec)
                return expand_exponents(template, range(self.spec.dim))[0][0]
            except BoundsError:
                pass
        raise BoundsError(f"{render_mono(m, top=True)} is outside the quotient: degree 1 to "
                          f"{self.degree_bound} over {self.spec.basis}, untwisted")

    def _numbered(self, p: Poly) -> Dict[int, object]:
        return {self._column(m): c for m, c in p.terms.items()}

    def _closure(self, relations: Sequence[Dict[int, object]],
                 times: Dict[int, Dict[int, int]]) -> List[Dict[int, object]]:
        work = list(relations)
        out: List[Dict[int, object]] = []
        while work:
            r = work.pop()
            out.append(r)
            # distinct monomials have distinct products: nothing to collect
            for n in range(1, self.degree_bound - self._degree[max(r)] + 1):
                for j in self._by_degree[n]:
                    work.append({times[j][i]: c for i, c in r.items()})
                    work.append({times[i][j]: c for i, c in r.items()})
        return out

    def monomials_of_degree(self, n: int) -> List[Monomial]:
        return [self._columns[i] for i in self._by_degree[n]]

    def nf(self, p: Poly) -> Poly:
        res = self.space.reduce(self._numbered(p))
        return Poly({self._columns[i]: c for i, c in res.items()})

    def _graded_dim(self, k: int) -> int:
        return len(self._by_degree[k]) - self._ranks[k]

    def filtration_dim(self, k: int) -> int:
        return sum(self._graded_dim(n) for n in range(1, k + 1))

    def graded_dims(self) -> Dict[int, int]:
        return {k: self._graded_dim(k) for k in range(1, self.degree_bound + 1)}

    def report(self) -> Dict[int, Tuple[int, int]]:
        """(dimension, relation rank) in each degree up to the bound."""
        return {k: (dim, self._ranks[k]) for k, dim in self.graded_dims().items()}


def u_hom_relations(fam: OpFamily, degree_bound: int) -> List[Dict[int, object]]:
    """Generators of the enveloping ideal, as rows over the columns of
    FilteredQuotient (elements of K{S} numbered by its column rule).

    Three families: [a,b] + <a,b> with [a,b] the free commutator,
    <u;a,b> + q(u,a,b) - q(u,b,a) for nonempty basis words u, and Phi(u,v)
    minus the symmetrized q-average wherever Phi tables exist. Each relation
    is a table value minus a symbolic template, one per shape on fixed
    letters; the template is compiled once and expanded for each word of
    basis indices through the family's twisting map, straight into
    columns: no relation tree is built.

    Phi words are taken one per orbit: u and v each as a sorted multiset of
    basis indices. Phi is symmetric in its u arguments and in its v
    arguments (a Sabinin axiom; the yiii tables average over both
    permutation groups) and so is the q-average, so a permuted word gives
    the same relation. Bracket words are all taken, q not being symmetric
    in u.

    Each relation is scaled by L, the lcm of its template's denominators
    (the q weights 1/(n! m!)): a positive integer multiple of table value
    minus template, so the ideal is the same, and with an integral table
    and twisting map every coefficient is an int.
    """
    rank = _ranks(fam.spec.basis)  # the degree-1 columns
    relations: List[Dict[int, object]] = []
    for table, template, letters, words in _relation_templates(fam, degree_bound):
        scale = lcm(*(int(c.denominator) for c in template.terms.values()))
        compiled = Template(template.scaled(-scale), letters, fam.spec)
        for word in words:
            value = ((rank[i], rat(c * scale)) for i, c in table.basis_value(word).items())
            r = collect(itertools.chain(value, expand_exponents(compiled, word)))
            if r:
                relations.append(r)
    return relations


def _relation_templates(fam: OpFamily, degree_bound: int):
    """(table, template, letters, words) for each shape of enveloping
    relation: the relation of a word is the table's value on it minus the
    template with letters[s] standing for basis index word[s]."""
    dim = fam.spec.dim
    solver = QSolver()
    a, b = Leaf("a"), Leaf("b")
    if degree_bound >= 2:
        yield (fam.brackets[0], Poly({mul_mono(b, a): ONE, mul_mono(a, b): -ONE}), ("a", "b"),
               [(i, j) for i in range(dim) for j in range(i, dim)])
    for n in range(1, min(fam.cutoff, degree_bound - 2) + 1):
        u = tuple(f"u{i}" for i in range(n))
        words = (w for w in itertools.product(range(dim), repeat=n + 2) if w[-2] < w[-1])
        yield fam.brackets[n], solver.bracket(u, "a", "b"), (*u, "a", "b"), words
    for (n, m), phi_op in fam.phi.items():
        if n + m <= degree_bound:
            letters = tuple(f"u{i}" for i in range(n)) + tuple(f"v{j}" for j in range(m))
            words = (
                u + v
                for u in itertools.combinations_with_replacement(range(dim), n)
                for v in itertools.combinations_with_replacement(range(dim), m)
            )
            yield phi_op, solver.phi(letters[:n], letters[n:]), letters, words


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
    return FilteredQuotient(fam.spec, u_hom_relations(fam, degree_bound), degree_bound)


def pi_map(quotient: FilteredQuotient, basis_index: int) -> Poly:
    """The unit map pi(s) = nf(s) on a generator."""
    return quotient.nf(Poly.gen(quotient.spec.basis[basis_index]))


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
    quotient: FilteredQuotient, generators: Sequence[Poly]
) -> BialgebraReport:
    """Delta(r) in B (x) I + I (x) B for ideal generators r, within bounds.

    Membership is tested through the quotient map on each tensor factor:
    the combination vanishes in (B/I) (x) (B/I) exactly when it lies in
    B (x) I + I (x) B. Coproduct summands carry twisting exponents, which are
    expanded through the quotient algebra's twisting map and reduced over
    its columns; a summand with no column leaves the check inconclusive.
    """
    spec = quotient.spec

    def image(m: Monomial) -> Dict[object, object]:
        # m expanded through alpha, each basis letter standing for itself,
        # and reduced over the quotient's columns; the unit stays as it is
        if m is UNIT:
            return {UNIT: ONE}
        if degree(m) > quotient.degree_bound:
            raise BoundsError(f"monomial degree {degree(m)} exceeds bound {quotient.degree_bound}")
        template = Template(Poly.monomial(m), spec.basis, spec)
        return quotient.space.reduce(collect(expand_exponents(template, range(spec.dim))))

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
        sub = check_ideal_coproduct(quotient, generators)
        for name, outcome in sub.checks:
            report.note(name, outcome)
    return report
