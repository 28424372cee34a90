"""Twisting ordinary identities into Hom-type identities.

The procedure: view a monomial as an operation tree; every internal node of
arity a contributes a twisting exponent (a - 1) to each leaf that is not a
descendant of it. Identities (linear combinations of trees) are twisted
monomial by monomial with coefficients unchanged. The catalog below carries
one identity system per algebra class handled by the workbench, in both
ordinary and Hom form where both make sense.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

from .expr import (
    BINARY,
    MUL,
    Leaf,
    Monomial,
    Node,
    Poly,
    Signature,
    SignatureError,
    UNIT,
    Word,
    apply_alpha,
    apply_op,
    gen_mono,
    json_field,
    json_key,
    json_typed,
    leaves,
    lincomb,
    mul,
    poly_from_json,
    poly_to_json,
    unshuffle_pairs,
)
from .rationals import ONE


class HomifyError(ValueError):
    pass


def _internal_nodes(m: Monomial) -> List[Node]:
    if not isinstance(m, Node):
        return []
    out = [m]
    for a in m.args:
        out.extend(_internal_nodes(a))
    return out


def homify_monomial(m: Monomial) -> Monomial:
    """Decorate the leaves of an undecorated monomial with twisting exponents.

    A leaf receives alpha^(a-1) for every internal node of arity a it is not
    comparable to, i.e. every node off its root path. Equivalently its
    exponent is the total node weight minus the weight along its root path.
    """
    if any(l.exp for l in leaves(m)):
        raise HomifyError("monomial already carries twisting exponents")
    total = sum(len(n.args) - 1 for n in _internal_nodes(m))

    def rec(t: Monomial, path_weight: int) -> Monomial:
        if t is UNIT:
            return t
        if isinstance(t, Leaf):
            return Leaf(t.base, total - path_weight)
        w = path_weight + len(t.args) - 1
        return Node(t.op, tuple(rec(a, w) for a in t.args))

    return rec(m, 0)


def homify_identity(p: Poly) -> Poly:
    """Twist a multilinear homogeneous identity monomial by monomial."""
    varsets = []
    for m in p.terms:
        bases = [l.base for l in leaves(m)]
        if len(set(bases)) != len(bases):
            raise HomifyError("identity is not multilinear (repeated variable)")
        varsets.append(frozenset(bases))
    if len(set(varsets)) > 1:
        raise HomifyError("variables differ across monomials; identity not homogeneous")
    out: Dict[Monomial, object] = {}
    for m, c in p.terms.items():
        out[homify_monomial(m)] = c
    return Poly(out)


def right_normed_word(w: Word) -> Monomial:
    """The left-combed product tree (...((x1 x2) x3)...) xn."""
    if not w:
        raise HomifyError("empty word has no product tree")
    m: Monomial = gen_mono(w[0])
    for letter in w[1:]:
        m = Node(MUL, (m, gen_mono(letter)))
    return m


def right_normed_homified(w: Word) -> Monomial:
    """[u]_alpha: the homified left-combed product of the word u."""
    return homify_monomial(right_normed_word(w))


def hom_associator(a: Poly, b: Poly, c: Poly) -> Poly:
    """(a, b, c)_alpha = (ab) alpha(c) - alpha(a) (bc)."""
    return mul(mul(a, b), apply_alpha(c, 1)) - mul(apply_alpha(a, 1), mul(b, c))


def hom_jacobiator(x: Poly, y: Poly, z: Poly) -> Poly:
    """J_alpha(x,y,z) = [[x,y],alpha(z)] + [[y,z],alpha(x)] + [[z,x],alpha(y)]."""
    return (
        mul(mul(x, y), apply_alpha(z, 1))
        + mul(mul(y, z), apply_alpha(x, 1))
        + mul(mul(z, x), apply_alpha(y, 1))
    )


# ---------------------------------------------------------------------------
# Identity catalog


@dataclass(frozen=True)
class IdentitySystem:
    """A named list of identities over a signature.

    Identities are polynomials in variable leaves, homogeneous in every
    variable; hom_form records whether twisting exponents are already present.
    """

    name: str
    signature: Signature
    identities: Tuple[Poly, ...]
    hom_form: bool

    def __iter__(self):
        return iter(self.identities)


_V = Poly.gen
_al = apply_alpha
_b = mul


def _t(x: Poly, y: Poly, z: Poly) -> Poly:
    return apply_op("tri", [x, y, z])


def _qa(a, b, c, d) -> Poly:
    return apply_op("qa", [a, b, c, d])


def _qb(a, b, c, d) -> Poly:
    return apply_op("qb", [a, b, c, d])


_SIG_B = BINARY
_SIG_T = Signature([("tri", 3)])
_SIG_BT = Signature([(MUL, 2), ("tri", 3)])
_SIG_BTQQ = Signature([(MUL, 2), ("tri", 3), ("qa", 4), ("qb", 4)])


def _assoc_ordinary() -> Poly:
    x, y, z = _V("x"), _V("y"), _V("z")
    return _b(_b(x, y), z) - _b(x, _b(y, z))


def _alt_sum(op3, a, b, c) -> Poly:
    return Poly(lincomb((sign, op3(*perm)) for perm, sign in (
        ((a, b, c), 1), ((a, c, b), -1), ((b, a, c), -1),
        ((b, c, a), 1), ((c, a, b), 1), ((c, b, a), -1),
    )))


def _lts_fundamental() -> Poly:
    u, v, x, y, z = (_V(n) for n in "uvxyz")
    return (
        _t(u, v, _t(x, y, z))
        - _t(_t(u, v, x), y, z)
        - _t(x, _t(u, v, y), z)
        - _t(x, y, _t(u, v, z))
    )


# Classes whose Hom form is the homify twist of every ordinary identity.
_HOMIFIED = (
    "associative", "lie", "akivis", "lts", "3lie",
    "bol", "lie_yamaguti", "btqq", "alternative",
)


def _catalog_builders() -> Dict[str, object]:
    x, y, z, u, v, w = (_V(n) for n in "xyzuvw")
    a, b, c, d, e = (_V(n) for n in "abcde")

    def associative():
        return IdentitySystem("associative", _SIG_B, (_assoc_ordinary(),), False)

    def lie():
        jac = _b(_b(x, y), z) + _b(_b(y, z), x) + _b(_b(z, x), y)
        return IdentitySystem("lie", _SIG_B, (_b(x, y) + _b(y, x), jac), False)

    def hom_malcev():
        # J_alpha(alpha(x), alpha(y), [x,z]) = [J_alpha(x,y,z), alpha^2(x)];
        # written out because x repeats, so homify does not apply
        lhs = hom_jacobiator(_al(x, 1), _al(y, 1), _b(x, z))
        rhs = _b(hom_jacobiator(x, y, z), _al(x, 2))
        return IdentitySystem(
            "hom_malcev", _SIG_B, (_b(x, y) + _b(y, x), lhs - rhs), True
        )

    def akivis():
        jac = _b(_b(a, b), c) + _b(_b(b, c), a) + _b(_b(c, a), b)
        return IdentitySystem(
            "akivis", _SIG_BT, (_b(a, b) + _b(b, a), jac - _alt_sum(_t, a, b, c)), False
        )

    def lts():
        return IdentitySystem(
            "lts",
            _SIG_T,
            (
                _t(x, y, z) + _t(y, x, z),
                _t(x, y, z) + _t(z, x, y) + _t(y, z, x),
                _lts_fundamental(),
            ),
            False,
        )

    def three_lie():
        return IdentitySystem(
            "3lie",
            _SIG_T,
            (_t(x, y, z) + _t(y, x, z), _t(x, y, z) - _t(y, z, x), _lts_fundamental()),
            False,
        )

    def bol():
        b3 = (
            _t(x, y, _b(u, v))
            - _b(_t(x, y, u), v)
            - _b(u, _t(x, y, v))
            - _t(u, v, _b(x, y))
            + _b(_b(u, v), _b(x, y))
        )
        b4 = (
            _t(x, y, _t(u, v, w))
            - _t(_t(x, y, u), v, w)
            - _t(u, _t(x, y, v), w)
            - _t(u, v, _t(x, y, w))
        )
        return IdentitySystem(
            "bol",
            _SIG_BT,
            (
                _b(x, y) + _b(y, x),
                _t(x, y, z) + _t(y, x, z),
                _t(x, y, z) + _t(z, x, y) + _t(y, z, x),
                b3,
                b4,
            ),
            False,
        )

    def lie_yamaguti():
        ly2 = (
            _b(_b(x, y), z)
            + _b(_b(z, x), y)
            + _b(_b(y, z), x)
            + _t(x, y, z)
            + _t(z, x, y)
            + _t(y, z, x)
        )
        ly3 = _t(_b(x, y), z, u) + _t(_b(z, x), y, u) + _t(_b(y, z), x, u)
        ly4 = _t(x, y, _b(u, v)) - _b(_t(x, y, u), v) - _b(u, _t(x, y, v))
        ly5 = (
            _t(u, v, _t(x, y, z))
            - _t(_t(u, v, x), y, z)
            - _t(x, _t(u, v, y), z)
            - _t(x, y, _t(u, v, z))
        )
        return IdentitySystem(
            "lie_yamaguti",
            _SIG_BT,
            (_b(x, y) + _b(y, x), _t(x, y, z) + _t(y, x, z), ly2, ly3, ly4, ly5),
            False,
        )

    def btqq():
        jac = _b(_b(a, b), c) + _b(_b(b, c), a) + _b(_b(c, a), b)
        q1 = (
            _t(_b(a, b), c, d)
            - _b(a, _t(b, c, d))
            + _b(b, _t(a, c, d))
            - _qa(a, b, c, d)
            + _qa(b, a, c, d)
        )
        q2 = (
            _t(a, _b(b, c), d)
            - _b(b, _t(a, c, d))
            + _b(c, _t(a, b, d))
            - _qb(a, b, c, d)
            + _qb(a, c, b, d)
        )
        q3 = (
            _b(b, _t(a, c, d))
            - _b(b, _t(a, d, c))
            - _t(a, b, _b(c, d))
            - _qa(a, b, c, d)
            + _qa(a, b, d, c)
            + _qb(a, b, c, d)
            - _qb(a, b, d, c)
        )
        return IdentitySystem(
            "btqq",
            _SIG_BTQQ,
            (_b(a, b) + _b(b, a), jac - _alt_sum(_t, a, b, c), q1, q2, q3),
            False,
        )

    def alternative():
        asc = lambda p, q, r: _b(_b(p, q), r) - _b(p, _b(q, r))
        return IdentitySystem(
            "alternative",
            _SIG_B,
            (asc(x, y, z) + asc(y, x, z), asc(x, y, z) + asc(x, z, y)),
            False,
        )

    def hom_teichmuller():
        total = Poly(lincomb(hom_teichmuller_terms()))
        return IdentitySystem("hom_teichmuller", _SIG_B, (total,), True)

    def jacobi():
        jac = _b(_b(x, y), z) + _b(_b(y, z), x) + _b(_b(z, x), y)
        return IdentitySystem("jacobi", _SIG_B, (jac,), False)

    def lts_fundamental():
        return IdentitySystem("lts_fundamental", _SIG_T, (_lts_fundamental(),), False)

    builders = {
        "associative": associative,
        "lie": lie,
        "hom_malcev": hom_malcev,
        "akivis": akivis,
        "lts": lts,
        "3lie": three_lie,
        "bol": bol,
        "lie_yamaguti": lie_yamaguti,
        "btqq": btqq,
        "alternative": alternative,
        "hom_teichmuller": hom_teichmuller,
        "jacobi": jacobi,
        "lts_fundamental": lts_fundamental,
    }
    for name in _HOMIFIED:
        builders[f"hom_{name}"] = lambda ordinary=builders[name]: _homified(ordinary())
    return builders


def _homified(ordinary: IdentitySystem) -> IdentitySystem:
    """The Hom form of an ordinary system: homify every identity, in order."""
    return IdentitySystem(
        f"hom_{ordinary.name}",
        ordinary.signature,
        tuple(homify_identity(p) for p in ordinary.identities),
        True,
    )


_ALIASES = {
    "hom-associative": "hom_associative",
    "hom-lie": "hom_lie",
    "hom-malcev": "hom_malcev",
    "malcev": "hom_malcev",
    "hom-akivis": "hom_akivis",
    "hom-lts": "hom_lts",
    "3-lie": "3lie",
    "3_lie": "3lie",
    "hom-3lie": "hom_3lie",
    "3-hom-lie": "hom_3lie",
    "3_hom_lie": "hom_3lie",
    "hom-bol": "hom_bol",
    "ly": "lie_yamaguti",
    "lie-yamaguti": "lie_yamaguti",
    "hom-ly": "hom_lie_yamaguti",
    "hom_ly": "hom_lie_yamaguti",
    "hom-lie-yamaguti": "hom_lie_yamaguti",
    "hom-btqq": "hom_btqq",
    "hom-alternative": "hom_alternative",
    "hom-teichmuller": "hom_teichmuller",
    "teichmuller": "hom_teichmuller",
    "lts-fundamental": "lts_fundamental",
    "associativity": "associative",
}


def catalog_names() -> List[str]:
    return sorted(_catalog_builders())


def catalog(name: str) -> IdentitySystem:
    """Look up a builtin identity system by name."""
    key = name.strip().lower()
    key = _ALIASES.get(key, key)
    builders = _catalog_builders()
    if key not in builders:
        raise HomifyError(f"unknown identity system {name!r}; known: {catalog_names()}")
    return builders[key]()


def hom_teichmuller_terms() -> List[Tuple[object, Poly]]:
    """The five signed Hom-associator terms of the Hom-Teichmuller identity.

    Expanded into product trees their sum is the zero polynomial: the ten
    tree monomials cancel in pairs.
    """
    return [(c, homify_identity(p)) for c, p in teichmuller_terms()]


def teichmuller_terms() -> List[Tuple[object, Poly]]:
    """The ordinary Teichmuller terms, (ab)c - a(bc) spelled out."""
    w, x, y, z = (_V(n) for n in "wxyz")
    asc = lambda a, b, c: _b(_b(a, b), c) - _b(a, _b(b, c))
    return [
        (ONE, asc(_b(w, x), y, z)),
        (-ONE, asc(w, _b(x, y), z)),
        (ONE, asc(w, x, _b(y, z))),
        (-ONE, _b(w, asc(x, y, z))),
        (-ONE, _b(asc(w, x, y), z)),
    ]


# ---------------------------------------------------------------------------
# Hom-Sabinin axiom instances
#
# Bracket operations <x1..xn; a, b> are encoded as symbols "br{n}" of arity
# n + 2; the multilinear Phi_{n,m} as "phi{n}_{m}" of arity n + m. Instances
# are generated by twisting the ordinary Sabinin axioms, which reproduces the
# displayed exponents k = |x_(2)| + 1 on every coproduct summand.


def sabinin_signature(max_n: int, phi_shapes: Sequence[Tuple[int, int]] = ()) -> Signature:
    ops = [(f"br{n}", n + 2) for n in range(max_n + 1)]
    ops += [(f"phi{n}_{m}", n + m) for n, m in phi_shapes]
    return Signature(ops)


def bracket(word_args: Sequence[Poly], a: Poly, b: Poly) -> Poly:
    """<x1...xn; a, b> as a polynomial in the bracket signature."""
    return apply_op(f"br{len(word_args)}", [*word_args, a, b])


def _letters(prefix: str, n: int) -> List[Poly]:
    return [_V(f"{prefix}{i + 1}") for i in range(n)]


def hsab1_instance(n: int) -> Poly:
    xs = _letters("x", n)
    a, b = _V("a"), _V("b")
    return bracket(xs, a, b) + bracket(xs, b, a)


def _ordinary_hsab2(p: int, q: int) -> Poly:
    xs = _letters("x", p)
    ys = _letters("y", q)
    a, b, c, e = _V("a"), _V("b"), _V("c"), _V("e")
    out = bracket(xs + [a, b] + ys, c, e) - bracket(xs + [b, a] + ys, c, e)
    xword = tuple(f"x{i + 1}" for i in range(p))
    for left, right in unshuffle_pairs(xword):
        inner = bracket([_V(l) for l in right], a, b)
        out = out + bracket([_V(l) for l in left] + [inner] + ys, c, e)
    return out


def hsab2_instance(p: int, q: int) -> Poly:
    """Second Hom-Sabinin axiom with |x| = p and |y| = q, twisted."""
    return homify_identity(_ordinary_hsab2(p, q))


def _ordinary_hsab3(n: int) -> Poly:
    xs = _letters("x", n)
    names = ("a", "b", "c")
    out = Poly.zero()
    xword = tuple(f"x{i + 1}" for i in range(n))
    for shift in range(3):
        a, b, c = (_V(names[(i + shift) % 3]) for i in range(3))
        out = out + bracket(xs + [c], a, b)
        for left, right in unshuffle_pairs(xword):
            inner = bracket([_V(l) for l in right], a, b)
            out = out + bracket([_V(l) for l in left], inner, c)
    return out


def hsab3_instance(n: int) -> Poly:
    """Third Hom-Sabinin axiom (cyclic in a, b, c) with prefix length n, twisted."""
    return homify_identity(_ordinary_hsab3(n))


def hsab4_instances(n: int, m: int) -> List[Poly]:
    """Phi(x, y) = Phi(tau.x, sigma.y) for every permutation pair."""
    if n < 1 or m < 2:
        raise HomifyError("Phi is defined for n >= 1 and m >= 2")
    xs = [f"x{i + 1}" for i in range(n)]
    ys = [f"y{i + 1}" for i in range(m)]
    base = apply_op(f"phi{n}_{m}", [_V(l) for l in xs + ys])
    out = []
    for tau in itertools.permutations(range(n)):
        for sigma in itertools.permutations(range(m)):
            if tau == tuple(range(n)) and sigma == tuple(range(m)):
                continue
            permuted = [_V(xs[i]) for i in tau] + [_V(ys[j]) for j in sigma]
            out.append(apply_op(f"phi{n}_{m}", permuted) - base)
    return out


def sabinin_axiom_instances(n: int, ms: Iterable[int] = ()) -> List[Tuple[str, Poly]]:
    """All axiom templates with prefix length exactly n, then Hsab4 for Phi_{n,m}
    with each m of ms, in order."""
    out: List[Tuple[str, Poly]] = [(f"Hsab1[n={n}]", hsab1_instance(n))]
    for p in range(n + 1):
        q = n - p
        out.append((f"Hsab2[p={p},q={q}]", hsab2_instance(p, q)))
    out.append((f"Hsab3[n={n}]", hsab3_instance(n)))
    for m in ms:
        for i, inst in enumerate(hsab4_instances(n, m)):
            out.append((f"Hsab4[n={n},m={m}]#{i}", inst))
    return out


def max_bracket_length(p: Poly) -> int:
    """Largest n among the br{n} symbols used by a template."""
    best = 0
    for m in p.terms:
        for nd in _internal_nodes(m):
            if nd.op.startswith("br"):
                best = max(best, int(nd.op[2:]))
    return best


# ---------------------------------------------------------------------------
# Identity files (JSON)


def identity_system_to_json(system: IdentitySystem) -> dict:
    return {
        "name": system.name,
        "signature": system.signature.to_json(),
        "hom_form": system.hom_form,
        "identities": [
            {"variables": p.variables(), "terms": poly_to_json(p)}
            for p in system.identities
        ],
    }


def identity_system_from_json(data: dict) -> IdentitySystem:
    """An identity system from its JSON form. Every tree must use the ops of
    the declared signature with their arities, or SignatureError is raised."""
    sig = Signature.from_json(json_key(data, "signature", HomifyError, "identity JSON"))
    if "identities" in data:
        polys = tuple(
            poly_from_json(json_field(i, "terms", list, HomifyError, "an identity"))
            for i in json_field(data, "identities", list, HomifyError, "identity JSON")
        )
    else:
        polys = (poly_from_json(json_field(data, "terms", list, HomifyError, "identity JSON")),)
    for p in polys:
        for m in p.terms:
            for nd in _internal_nodes(m):
                arity = sig.arity(nd.op)
                if arity != len(nd.args):
                    raise SignatureError(f"{nd.op!r} has arity {arity}, got {len(nd.args)} arguments")
    return IdentitySystem(
        json_typed(data.get("name", "anonymous"), str, HomifyError, "'name'"),
        sig,
        polys,
        json_typed(data.get("hom_form", False), bool, HomifyError, "'hom_form'"),
    )
