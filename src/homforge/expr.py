"""Operation trees with twisting exponents, rational polynomials, tensor words.

Monomials are trees: leaves are generators decorated with a nonnegative
twisting exponent (number of applications of the twisting map), internal
nodes carry an operation symbol. The normal form keeps all exponents on
leaves, since the twisting map is an algebra morphism and fixes the unit.
All values are immutable; operations are pure functions.
"""

from __future__ import annotations

import itertools
import re
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple, Union

from .rationals import ONE, ZERO, rat, rat_from_json

MUL = "mu"  # the symbol of the binary product


# ---------------------------------------------------------------------------
# Sparse combinations: {key: nonzero coefficient} dicts. Polynomials, tensor
# elements and vectors are all summed by these three functions.


def collect(pairs: Iterable[Tuple[object, object]]) -> Dict:
    """The sum of the coefficients of each key over the (key, coefficient)
    pairs, zeros dropped."""
    out: Dict = {}
    for k, c in pairs:
        # the first coefficient is stored as it is: ZERO + c costs a
        # rational addition per key
        out[k] = out[k] + c if k in out else c
    return {k: c for k, c in out.items() if c != 0}


def lincomb(terms: Iterable[Tuple[object, object]]) -> Dict:
    """The sum of c*v over the (c, v) pairs, zeros dropped; each v is a dict
    or a Poly."""
    return collect((k, c * x) for c, v in terms for k, x in v.items())


def expand(factors: Sequence[Dict], combine: Callable) -> Dict:
    """The product of sparse combinations: every choice of one key per
    factor, mapped through combine(*keys) and weighted by the product of
    their coefficients."""

    def terms():
        for choice in itertools.product(*(f.items() for f in factors)):
            c = choice[0][1]
            for _, x in choice[1:]:
                c = c * x
            yield combine(*(k for k, _ in choice)), c

    return collect(terms())


class SignatureError(ValueError):
    pass


class Signature:
    """A family of operation symbols with arities >= 2, optionally unitary."""

    def __init__(self, ops: Sequence[Tuple[str, int]], unitary: bool = False):
        names = [name for name, _ in ops]
        if len(set(names)) != len(names):
            raise SignatureError("operation symbols must be pairwise distinct")
        for name, arity in ops:
            if arity < 2:
                raise SignatureError(f"arity of {name!r} must be >= 2, got {arity}")
        self.ops: Tuple[Tuple[str, int], ...] = tuple((n, int(a)) for n, a in ops)
        self.unitary = bool(unitary)
        self._arity = dict(self.ops)

    def arity(self, name: str) -> int:
        try:
            return self._arity[name]
        except KeyError:
            raise SignatureError(f"unknown operation symbol {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._arity

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Signature)
            and self.ops == other.ops
            and self.unitary == other.unitary
        )

    def __repr__(self) -> str:
        return f"Signature({list(self.ops)}, unitary={self.unitary})"

    def to_json(self) -> dict:
        return {
            "ops": [{"name": n, "arity": a} for n, a in self.ops],
            "unitary": self.unitary,
        }

    @staticmethod
    def from_json(data: dict) -> "Signature":
        ops = json_field(data, "ops", list, SignatureError, "a signature")
        return Signature(
            [
                (json_field(o, "name", str, SignatureError, "an operation"),
                 json_field(o, "arity", int, SignatureError, "an operation"))
                for o in ops
            ],
            unitary=json_typed(data.get("unitary", False), bool, SignatureError, "'unitary'"),
        )


BINARY = Signature([(MUL, 2)])


class Leaf(NamedTuple):
    """A generator reference: base identifier plus twisting exponent."""

    base: str
    exp: int = 0


class Node(NamedTuple):
    """An internal node: operation symbol applied to child monomials."""

    op: str
    args: Tuple["Monomial", ...]


class _Unit:
    """The unit u(1) of a unitary Hom-algebra; never carries exponents."""

    _instance = None
    __slots__ = ()

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "1"


UNIT = _Unit()
Monomial = Union[Leaf, Node, _Unit]


def gen_mono(base: str, exp: int = 0) -> Leaf:
    if exp < 0:
        raise ValueError("twisting exponent must be nonnegative")
    return Leaf(base, exp)


def leaves(m: Monomial) -> List[Leaf]:
    """Leaves of m in preorder (left to right)."""
    if m is UNIT:
        return []
    if isinstance(m, Leaf):
        return [m]
    out: List[Leaf] = []
    for a in m.args:
        out.extend(leaves(a))
    return out


def degree(m: Monomial) -> int:
    """Number of leaves; the unit has degree 0."""
    if m is UNIT:
        return 0
    if isinstance(m, Leaf):
        return 1
    return sum(degree(a) for a in m.args)


def alpha_mono(m: Monomial, k: int) -> Monomial:
    """Apply the twisting map k times: push exponents onto leaves, fix the unit."""
    if k < 0:
        raise ValueError("twisting exponent must be nonnegative")
    if k == 0 or m is UNIT:
        return m
    if isinstance(m, Leaf):
        return Leaf(m.base, m.exp + k)
    return Node(m.op, tuple(alpha_mono(a, k) for a in m.args))


def map_leaves(m: Monomial, f) -> Monomial:
    if m is UNIT:
        return m
    if isinstance(m, Leaf):
        return f(m)
    return Node(m.op, tuple(map_leaves(a, f) for a in m.args))


def rename_leaves(m: Monomial, mapping: Dict[str, str]) -> Monomial:
    return map_leaves(m, lambda l: Leaf(mapping.get(l.base, l.base), l.exp))


def mono_key(m: Monomial):
    """Total order: degree, then tree shape (preorder arity sequence with op
    symbols), then leaves by (base, exp). Used for deterministic printing.

    One preorder walk collects the arities (0 for a leaf, -1 for the unit),
    the op symbols and the leaves."""
    shape: List[int] = []
    ops: List[str] = []
    lvs: List[Leaf] = []
    stack = [m]
    while stack:
        t = stack.pop()
        if t is UNIT:
            shape.append(-1)
        elif isinstance(t, Leaf):
            shape.append(0)
            lvs.append(t)
        else:
            shape.append(len(t.args))
            ops.append(t.op)
            stack.extend(reversed(t.args))
    return (len(lvs), tuple(shape), tuple(ops), tuple(lvs))


def mul_mono(a: Monomial, b: Monomial, op: str = MUL) -> Monomial:
    """Binary product of monomials; the unit acts by the twisting map."""
    if a is UNIT and b is UNIT:
        return UNIT
    if a is UNIT:
        return alpha_mono(b, 1)
    if b is UNIT:
        return alpha_mono(a, 1)
    return Node(op, (a, b))


class Poly:
    """Finite rational combination of monomials; zero coefficients are pruned.

    The arithmetic returns the caller's class, so subclasses over other keys
    (TensorElement) share it."""

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Dict[Monomial, object]] = None):
        if terms is None:
            terms = {}
        self.terms = {m: c for m, c in terms.items() if c != 0}

    @classmethod
    def zero(cls) -> "Poly":
        return cls()

    @staticmethod
    def monomial(m: Monomial, c=ONE) -> "Poly":
        return Poly({m: rat(c)})

    @staticmethod
    def gen(base: str, exp: int = 0, c=ONE) -> "Poly":
        return Poly.monomial(gen_mono(base, exp), c)

    @staticmethod
    def unit(c=ONE) -> "Poly":
        return Poly.monomial(UNIT, c)

    def is_zero(self) -> bool:
        return not self.terms

    def items(self):
        return self.terms.items()

    def coeff(self, m: Monomial):
        return self.terms.get(m, ZERO)

    def degree(self) -> int:
        return max((degree(m) for m in self.terms), default=0)

    def variables(self) -> List[str]:
        seen = []
        for m in sorted(self.terms, key=mono_key):
            for l in leaves(m):
                if l.base not in seen:
                    seen.append(l.base)
        return seen

    def __add__(self, other: "Poly") -> "Poly":
        return type(self)(collect(itertools.chain(self.terms.items(), other.terms.items())))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __neg__(self) -> "Poly":
        return type(self)({m: -c for m, c in self.terms.items()})

    def scaled(self, c) -> "Poly":
        c = rat(c)
        if c == 0:
            return self.zero()
        return type(self)({m: c * v for m, v in self.terms.items()})

    def __rmul__(self, c) -> "Poly":
        return self.scaled(c)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self) -> str:
        return render_poly(self)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda mc: mono_key(mc[0]))


def apply_op(op: str, args: Sequence[Poly]) -> Poly:
    """Apply an operation symbol multilinearly to polynomial arguments.

    For binary ops the unit is absorbed via mu(u(1), x) = mu(x, u(1)) = alpha(x).
    Unit arguments to higher-arity ops are rejected: the unitary axiom only
    speaks about the binary product.
    """
    if len(args) < 2:
        raise SignatureError("operations have arity >= 2")
    if len(args) == 2:
        return Poly(expand([args[0].terms, args[1].terms], lambda a, b: mul_mono(a, b, op)))

    def combine(*monos: Monomial) -> Node:
        if any(x is UNIT for x in monos):
            raise SignatureError("unit argument in an operation of arity > 2")
        return Node(op, monos)

    return Poly(expand([p.terms for p in args], combine))


def mul(p: Poly, q: Poly) -> Poly:
    return apply_op(MUL, [p, q])


def apply_alpha(p: Poly, k: int) -> Poly:
    """Apply the twisting map k times to every monomial of p."""
    if k == 0:
        return p
    return Poly(collect((alpha_mono(m, k), c) for m, c in p.terms.items()))


# ---------------------------------------------------------------------------
# Tensor words and the unshuffle coproduct of T(V)

Word = Tuple[str, ...]


def word(letters: Iterable[str]) -> Word:
    return tuple(letters)


def unshuffle(w: Word) -> Dict[Tuple[Word, Word], object]:
    """All ordered splittings of w into two complementary subwords.

    This is the coproduct of T(V) with V primitive: Delta(x) = x (x) 1 + 1 (x) x
    on letters, extended multiplicatively. Coefficients accumulate when the
    word has repeated letters.
    """
    return collect((pair, 1) for pair in unshuffle_pairs(w))


def unshuffle_pairs(w: Word) -> List[Tuple[Word, Word]]:
    """The splittings of w, one per subset, in subset-mask order."""
    n = len(w)
    out = []
    for mask in range(1 << n):
        left = tuple(w[i] for i in range(n) if mask >> i & 1)
        right = tuple(w[i] for i in range(n) if not mask >> i & 1)
        out.append((left, right))
    return out


# ---------------------------------------------------------------------------
# Printing and parsing of the expression grammar:
#   binary product (a*b); named ops T(a,b,c); twisting powers A^k(x); unit 1.


def render_mono(m: Monomial, top: bool = False) -> str:
    if m is UNIT:
        return "1"
    if isinstance(m, Leaf):
        if m.exp == 0:
            return m.base
        return f"A^{m.exp}({m.base})"
    if len(m.args) == 2 and m.op == MUL:
        body = f"{render_mono(m.args[0])}*{render_mono(m.args[1])}"
        return body if top else f"({body})"
    inner = ",".join(render_mono(a) for a in m.args)
    return f"{m.op}({inner})"


def render_poly(p: Poly) -> str:
    if p.is_zero():
        return "0"
    parts = []
    for i, (m, c) in enumerate(p.sorted_terms()):
        sign = "-" if c < 0 else "+"
        mag = -c if c < 0 else c
        body = render_mono(m, top=True)
        if mag == 1 and m is not UNIT:
            text = body
        elif m is UNIT:
            text = str(mag)
        else:
            text = f"{mag}*{render_mono(m)}"
        if i == 0:
            parts.append(text if sign == "+" else f"-{text}")
        else:
            parts.append(f" {sign} {text}")
    return "".join(parts)


class ParseError(ValueError):
    pass


_TOKEN = re.compile(
    r"\s*(?:(?P<alpha>A\^\d+)|(?P<num>\d+(?:/\d+)?)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<sym>[()*+,\-]))"
)


def _tokenize(s: str) -> List[str]:
    out = []
    pos = 0
    while pos < len(s):
        m = _TOKEN.match(s, pos)
        if not m:
            if s[pos:].strip():
                raise ParseError(f"bad character at {pos}: {s[pos:pos + 8]!r}")
            break
        out.append(m.group(m.lastgroup))
        pos = m.end()
    return out


class _Parser:
    def __init__(self, tokens: List[str]):
        self.toks = tokens
        self.i = 0

    def peek(self) -> Optional[str]:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def next(self) -> str:
        t = self.peek()
        if t is None:
            raise ParseError("unexpected end of input")
        self.i += 1
        return t

    def expect(self, t: str) -> None:
        got = self.next()
        if got != t:
            raise ParseError(f"expected {t!r}, got {got!r}")

    def parse_poly(self) -> Poly:
        sign = ONE
        if self.peek() == "-":
            self.next()
            sign = -ONE
        p = self.parse_term().scaled(sign)
        while self.peek() in ("+", "-"):
            op = self.next()
            q = self.parse_term()
            p = p + q if op == "+" else p - q
        return p

    def parse_term(self) -> Poly:
        t = self.peek()
        if t is not None and re.fullmatch(r"\d+(?:/\d+)?", t):
            if t == "1":
                # the unit literal; "(1*x)" is a unit product, not a coefficient
                self.next()
                return Poly.unit(ONE)
            self.next()
            if re.fullmatch(r"\d+/0+", t):
                raise ParseError(f"zero denominator in {t!r}")
            c = rat(t)
            if self.peek() == "*":
                self.next()
                return self.parse_factor().scaled(c)
            return Poly.unit(c)
        p = self.parse_factor()
        if self.peek() == "*":
            # one unparenthesized product is allowed per term (outermost parens
            # may be dropped when printing); deeper products need parens
            self.next()
            q = self.parse_factor()
            if self.peek() == "*":
                raise ParseError("chained products need parentheses")
            return mul(p, q)
        return p

    def parse_factor(self) -> Poly:
        t = self.next()
        if t == "(":
            p = self.parse_poly()
            if self.peek() == "*":
                self.next()
                q = self.parse_poly()
                self.expect(")")
                return mul(p, q)
            self.expect(")")
            return p
        if t.startswith("A^"):
            k = int(t[2:])
            self.expect("(")
            p = self.parse_poly()
            self.expect(")")
            return apply_alpha(p, k)
        if re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", t):
            if self.peek() == "(":
                self.next()
                args = [self.parse_poly()]
                while self.peek() == ",":
                    self.next()
                    args.append(self.parse_poly())
                self.expect(")")
                if len(args) < 2:
                    raise ParseError(f"operation {t!r} needs at least 2 arguments")
                return apply_op(t, args)
            return Poly.gen(t)
        if t == "1":
            return Poly.unit()
        raise ParseError(f"unexpected token {t!r}")


def parse_poly(s: str) -> Poly:
    parser = _Parser(_tokenize(s))
    p = parser.parse_poly()
    if parser.peek() is not None:
        raise ParseError(f"trailing input: {parser.toks[parser.i:]}")
    return p


# ---------------------------------------------------------------------------
# JSON encoding of monomials/trees: nested arrays [op, child, ...] with
# leaves {"var": name, "exp": k} and the unit {"unit": true}.


def json_key(data, key: str, error, what: str):
    """data[key] of a JSON object (`what`). A missing key raises `error`,
    the caller's domain error class, with a message naming the key."""
    if not isinstance(data, dict) or key not in data:
        raise error(f"missing {key!r} key in {what}")
    return data[key]


_JSON_KINDS = {list: "a list", str: "a string", int: "an integer", bool: "a boolean"}


def json_typed(value, kind: type, error, what: str):
    """value when it is of JSON type kind (a boolean is no integer); else
    `error`, naming `what`."""
    if isinstance(value, kind) and (kind is bool or not isinstance(value, bool)):
        return value
    raise error(f"{what} is not {_JSON_KINDS[kind]}: {value!r}")


def json_field(data, key: str, kind: type, error, what: str):
    """data[key] of a JSON object (`what`), checked to be of JSON type kind."""
    return json_typed(json_key(data, key, error, what), kind, error, repr(key))


def mono_to_json(m: Monomial):
    if m is UNIT:
        return {"unit": True}
    if isinstance(m, Leaf):
        out = {"var": m.base}
        if m.exp:
            out["exp"] = m.exp
        return out
    return [m.op] + [mono_to_json(a) for a in m.args]


def mono_from_json(data) -> Monomial:
    if isinstance(data, dict):
        if data.get("unit"):
            return UNIT
        exp = data.get("exp", 0)
        if not isinstance(exp, int) or isinstance(exp, bool) or exp < 0:
            raise ParseError(f"exponent {exp!r} is not a non-negative integer")
        return Leaf(json_field(data, "var", str, ParseError, "a leaf"), exp)
    if isinstance(data, list):
        if len(data) < 3:
            raise ParseError("operation nodes need an op symbol and >= 2 children")
        op = json_typed(data[0], str, ParseError, "an op symbol")
        return Node(op, tuple(mono_from_json(d) for d in data[1:]))
    raise ParseError(f"bad tree encoding: {data!r}")


def poly_to_json(p: Poly) -> list:
    from .rationals import rat_str

    return [
        {"coeff": rat_str(c), "tree": mono_to_json(m)} for m, c in p.sorted_terms()
    ]


def poly_from_json(terms: list) -> Poly:
    return Poly(collect(
        (mono_from_json(json_key(t, "tree", ParseError, "a term")),
         rat_from_json(json_key(t, "coeff", ParseError, "a term"), ParseError))
        for t in terms
    ))
