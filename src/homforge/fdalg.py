"""Finite-dimensional algebras over exact rationals.

Structure-constant algebras with a twisting endomorphism, exhaustive
multilinear identity checking (with polarization for homogeneous identities
of higher degree), Yau twisting, derived Hom-Akivis operations, the Sabinin
operation constructions for the Lie/Malcev/Bol/Lie-Yamaguti classes, and
Hom-power associativity checks.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .expr import (
    MUL,
    Leaf,
    Monomial,
    Poly,
    Signature,
    UNIT,
    apply_alpha,
    apply_op,
    json_field,
    json_key,
    json_typed,
    leaves,
    lincomb,
    mul,
    unshuffle_pairs,
)
from .homify import (
    IdentitySystem,
    bracket,
    catalog,
    hom_associator,
    hom_jacobiator,
    max_bracket_length,
    sabinin_axiom_instances,
    sabinin_signature,
)
from .rationals import ONE, ZERO, rat, rat_from_json, rat_str

# A vector is a sparse {basis index: nonzero rational}; {} is zero. Vectors
# are summed by expr.lincomb, as polynomials are. Tables and solver caches
# share vectors, so no function mutates one.
Vector = Dict[int, object]
Matrix = Tuple[Tuple[object, ...], ...]  # dense rows: the JSON shape of alpha


def dense(v: Vector, dim: int) -> Tuple[object, ...]:
    """The coordinate tuple of v, for reports."""
    return tuple(v.get(i, ZERO) for i in range(dim))


def identity_matrix(dim: int) -> Matrix:
    return tuple(
        tuple(ONE if i == j else ZERO for j in range(dim)) for i in range(dim)
    )


def zero_matrix(dim: int) -> Matrix:
    return tuple((ZERO,) * dim for _ in range(dim))


def matrix(rows: Iterable[Iterable]) -> Matrix:
    return tuple(tuple(rat(e) for e in r) for r in rows)


def matmul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    return tuple(
        tuple(sum((a[i][k] * b[k][j] for k in range(n)), ZERO) for j in range(n))
        for i in range(n)
    )


def columns(m: Matrix) -> List[Vector]:
    n = len(m)
    return [{i: m[i][j] for i in range(n) if m[i][j] != 0} for j in range(n)]


def apply_linear(cols: Sequence[Vector], v: Vector) -> Vector:
    """The image of v under the linear map whose j-th column is cols[j]."""
    return lincomb((c, cols[j]) for j, c in v.items())


class FdalgError(ValueError):
    pass


def _index_from_json(i, dim: int) -> int:
    if isinstance(i, int) and not isinstance(i, bool) and 0 <= i < dim:
        return i
    raise FdalgError(f"basis index {i!r} is not an integer in 0..{dim - 1}")


def _size_from_json(n, what: str) -> int:
    if isinstance(n, int) and not isinstance(n, bool) and n >= 0:
        return n
    raise FdalgError(f"{what} {n!r} is not a non-negative integer")


class MultilinearOp:
    """A multilinear operation given by its structure-constant tensor.

    entries maps a basis index tuple to a sparse output vector
    {coordinate: coefficient}; missing tuples are zero.
    """

    def __init__(self, name: str, arity: int, dim: int, entries: Dict[Tuple[int, ...], Dict[int, object]]):
        if arity < 2:
            raise FdalgError("operations have arity >= 2")
        self.name = name
        self.arity = arity
        self.dim = dim
        self.entries = {
            idx: {k: c for k, c in out.items() if c != 0}
            for idx, out in entries.items()
            if any(c != 0 for c in out.values())
        }

    @staticmethod
    def from_sparse(name: str, arity: int, dim: int, items: Iterable[Sequence]) -> "MultilinearOp":
        entries: Dict[Tuple[int, ...], Dict[int, object]] = {}
        for item in items:
            if not isinstance(item, (list, tuple)) or len(item) != arity + 2:
                raise FdalgError(f"entry {item!r} does not match arity {arity}")
            *idx, k, c = item
            idx = tuple(_index_from_json(i, dim) for i in idx)
            k = _index_from_json(k, dim)
            out = entries.setdefault(idx, {})
            out[k] = out.get(k, ZERO) + rat_from_json(c, FdalgError)
        return MultilinearOp(name, arity, dim, entries)

    def to_sparse(self) -> List[List]:
        out = []
        for idx in sorted(self.entries):
            for k in sorted(self.entries[idx]):
                out.append([*idx, k, rat_str(self.entries[idx][k])])
        return out

    @staticmethod
    def zero(name: str, arity: int, dim: int) -> "MultilinearOp":
        return MultilinearOp(name, arity, dim, {})

    def basis_value(self, idx: Tuple[int, ...]) -> Vector:
        return self.entries.get(idx, {})

    def eval(self, args: Sequence[Vector]) -> Vector:
        if len(args) != self.arity:
            raise FdalgError(f"{self.name!r} has arity {self.arity}, got {len(args)}")
        terms = []
        for combo in itertools.product(*(a.items() for a in args)):
            ent = self.entries.get(tuple(i for i, _ in combo))
            if ent is not None:
                c = ONE
                for _, cc in combo:
                    c = c * cc
                terms.append((c, ent))
        return lincomb(terms)

    def post_compose(self, cols: Sequence[Vector]) -> "MultilinearOp":
        """The operation followed by the linear map with columns cols."""
        entries = {idx: apply_linear(cols, ent) for idx, ent in self.entries.items()}
        return MultilinearOp(self.name, self.arity, self.dim, entries)

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultilinearOp)
            and (self.arity, self.dim) == (other.arity, other.dim)
            and self.entries == other.entries
        )


class AlgebraSpec:
    """A finite-dimensional algebra: basis, structure constants, twisting map."""

    def __init__(
        self,
        dim: int,
        basis: Sequence[str],
        ops: Dict[str, MultilinearOp],
        alpha: Matrix,
        unit: Optional[Vector] = None,
        name: str = "",
        cls: str = "",
    ):
        if len(basis) != dim:
            raise FdalgError("basis size does not match dim")
        if len(alpha) != dim or any(len(r) != dim for r in alpha):
            raise FdalgError("alpha must be a dim x dim matrix")
        self.dim = dim
        self.basis = tuple(basis)
        self.ops = dict(ops)
        self.alpha = matrix(alpha)
        self.unit = unit
        self.name = name
        self.cls = cls
        # _alpha_cols[k] holds the columns of alpha^k
        self._alpha_cols = [[{i: ONE} for i in range(dim)], columns(self.alpha)]
        if self.unit is not None:
            self._check_unitary()

    def _check_unitary(self) -> None:
        mu = self.ops.get(MUL)
        if mu is None:
            raise FdalgError(f"unitary spec needs a binary product named {MUL!r}")
        for i in range(self.dim):
            e = self.basis_vector(i)
            want = self.apply_alpha_vec(e, 1)
            if mu.eval([self.unit, e]) != want or mu.eval([e, self.unit]) != want:
                raise FdalgError(f"unit axiom fails on basis element {self.basis[i]}")

    def basis_vector(self, i: int) -> Vector:
        return {i: ONE}

    def basis_index(self, name: str) -> int:
        if name not in self.basis:
            raise FdalgError(f"unknown basis element {name!r}; basis: {list(self.basis)}")
        return self.basis.index(name)

    def alpha_columns(self, k: int) -> List[Vector]:
        """The columns of alpha^k; each power is computed once per spec."""
        cols = self._alpha_cols
        while len(cols) <= k:
            cols.append([apply_linear(cols[1], c) for c in cols[-1]])
        return cols[k]

    def apply_alpha_vec(self, v: Vector, k: int = 1) -> Vector:
        if k == 0:
            return v
        return apply_linear(self.alpha_columns(k), v)

    def with_alpha(self, alpha: Matrix) -> "AlgebraSpec":
        return AlgebraSpec(
            self.dim, self.basis, self.ops, alpha, self.unit, self.name, self.cls
        )

    def signature(self) -> Signature:
        return Signature(sorted((op.name, op.arity) for op in self.ops.values()))

    def describe(self, v: Vector) -> str:
        parts = []
        for i, c in sorted(v.items()):
            prefix = "" if c == 1 else f"{rat_str(c)}*"
            parts.append(f"{prefix}{self.basis[i]}")
        return " + ".join(parts) if parts else "0"

    def to_json(self) -> dict:
        data = {
            "dim": self.dim,
            "basis": list(self.basis),
            "ops": [
                {"name": op.name, "arity": op.arity, "entries": op.to_sparse()}
                for op in self.ops.values()
            ],
            "alpha": [[rat_str(c) for c in row] for row in self.alpha],
            "unit": (
                [rat_str(c) for c in dense(self.unit, self.dim)]
                if self.unit is not None else None
            ),
        }
        if self.name:
            data["name"] = self.name
        if self.cls:
            data["class"] = self.cls
        return data

    @staticmethod
    def from_json(data: dict) -> "AlgebraSpec":
        def need(obj, key, what="algebra JSON"):
            return json_key(obj, key, FdalgError, what)

        dim = _size_from_json(need(data, "dim"), "dim")
        basis = json_field(data, "basis", list, FdalgError, "algebra JSON")
        if not all(isinstance(b, str) for b in basis) or len(set(basis)) != len(basis):
            raise FdalgError(f"'basis' is not a list of distinct strings: {basis!r}")
        ops = {}
        for o in json_field(data, "ops", list, FdalgError, "algebra JSON"):
            name = json_field(o, "name", str, FdalgError, "an operation")
            arity = _size_from_json(need(o, "arity", "an operation"), "arity")
            entries = json_typed(o.get("entries", []), list, FdalgError, f"'entries' of {name!r}")
            if name in ops:
                raise FdalgError(f"'ops' names the operation {name!r} twice")
            ops[name] = MultilinearOp.from_sparse(name, arity, dim, entries)
        unit = data.get("unit")
        if unit is not None:
            unit = json_typed(unit, list, FdalgError, "'unit'")
            if len(unit) != dim:
                raise FdalgError(f"unit has {len(unit)} coordinates, not {dim}")
            coords = [rat_from_json(c, FdalgError) for c in unit]
            unit = {i: coords[i] for i in range(dim) if coords[i] != 0}
        alpha = [json_typed(row, list, FdalgError, "a row of 'alpha'")
                 for row in json_field(data, "alpha", list, FdalgError, "algebra JSON")]
        return AlgebraSpec(
            dim,
            basis,
            ops,
            tuple(tuple(rat_from_json(c, FdalgError) for c in row) for row in alpha),
            unit,
            name=json_typed(data.get("name", ""), str, FdalgError, "'name'"),
            cls=json_typed(data.get("class", ""), str, FdalgError, "'class'"),
        )


def load_algebra_file(path: str) -> AlgebraSpec:
    with open(path) as fh:
        return AlgebraSpec.from_json(json.load(fh))


_BUILTIN_DIR = os.path.join(os.path.dirname(__file__), "algebras")


def catalog_dir() -> str:
    return os.environ.get("HOMFORGE_CATALOG", _BUILTIN_DIR)


def builtin_algebra_names() -> List[str]:
    return sorted(
        os.path.splitext(f)[0] for f in os.listdir(catalog_dir()) if f.endswith(".json")
    )


def builtin_algebra(name: str) -> AlgebraSpec:
    path = os.path.join(catalog_dir(), f"{name}.json")
    if not os.path.exists(path):
        raise FdalgError(
            f"unknown algebra {name!r}; bundled: {builtin_algebra_names()}"
        )
    return load_algebra_file(path)


# ---------------------------------------------------------------------------
# Evaluation


def eval_monomial(spec: AlgebraSpec, m: Monomial, assignment: Dict[str, Vector]) -> Vector:
    if m is UNIT:
        if spec.unit is None:
            raise FdalgError("monomial uses the unit but the algebra has none")
        return spec.unit
    if isinstance(m, Leaf):
        try:
            v = assignment[m.base]
        except KeyError:
            raise FdalgError(f"unbound variable {m.base!r}") from None
        return spec.apply_alpha_vec(v, m.exp)
    try:
        op = spec.ops[m.op]
    except KeyError:
        raise FdalgError(f"algebra has no operation {m.op!r}") from None
    return op.eval([eval_monomial(spec, a, assignment) for a in m.args])


def eval_poly(spec: AlgebraSpec, p: Poly, assignment: Dict[str, Vector]) -> Vector:
    for name, v in assignment.items():
        if any(not 0 <= i < spec.dim for i in v):
            raise FdalgError(f"variable {name!r} has an index outside 0..{spec.dim - 1}")
    return lincomb((c, eval_monomial(spec, m, assignment)) for m, c in p.terms.items())


# ---------------------------------------------------------------------------
# Morphisms and identity checking


def is_morphism(spec: AlgebraSpec, beta: Matrix) -> Tuple[bool, Optional[tuple]]:
    """Is beta an endomorphism of every operation? Returns (ok, witness)."""
    beta = matrix(beta)
    if len(beta) != spec.dim or any(len(r) != spec.dim for r in beta):
        raise FdalgError("beta must be a dim x dim matrix")
    cols = columns(beta)
    for op in spec.ops.values():
        for idx in itertools.product(range(spec.dim), repeat=op.arity):
            lhs = apply_linear(cols, op.basis_value(idx))
            rhs = op.eval([cols[i] for i in idx])
            if lhs != rhs:
                defect = dense(lincomb([(ONE, lhs), (-ONE, rhs)]), spec.dim)
                return False, (op.name, tuple(spec.basis[i] for i in idx), defect)
    return True, None


def is_multiplicative(spec: AlgebraSpec) -> Tuple[bool, Optional[tuple]]:
    return is_morphism(spec, spec.alpha)


def witness_str(witness: tuple) -> str:
    """A (name, arguments, dense defect) witness for messages, the defect
    coordinates printed through rat_str."""
    name, args, defect = witness
    return f"{name} at {args}: defect {[rat_str(c) for c in defect]}"


@dataclass
class CheckReport:
    name: str
    status: str  # "pass" | "fail"
    checked: int = 0
    witnesses: List[tuple] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.status == "pass"

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "checked": self.checked,
            "witnesses": [
                {
                    "identity": ident,
                    "assignment": assign,
                    "defect": [rat_str(c) for c in defect],
                }
                for ident, assign, defect in self.witnesses
            ],
            "notes": list(self.notes),
        }


def _variable_multiplicities(p: Poly) -> Dict[str, int]:
    mults: Optional[Dict[str, int]] = None
    for m in p.terms:
        cur: Dict[str, int] = {}
        for l in leaves(m):
            cur[l.base] = cur.get(l.base, 0) + 1
        if mults is None:
            mults = cur
        elif mults != cur:
            raise FdalgError(
                "identity is not homogeneous: variable degrees differ across monomials"
            )
    return mults or {}


def polarization_vectors(dim: int, basis: Sequence[str], mult: int) -> List[Tuple[str, Vector]]:
    """Evaluation points that certify vanishing of a degree-`mult` form.

    Multiplicity one needs basis vectors only; higher multiplicity adds all
    sums of up to `mult` basis vectors (with repetition), which determine the
    full polarization over a characteristic-zero field.
    """
    out: List[Tuple[str, Vector]] = []
    for size in range(1, mult + 1):
        for combo in itertools.combinations_with_replacement(range(dim), size):
            counts = {i: combo.count(i) for i in combo}  # ascending, as combo is
            label = "+".join(
                basis[i] if c == 1 else f"{c}*{basis[i]}" for i, c in counts.items()
            )
            out.append((label, {i: rat(c) for i, c in counts.items()}))
    return out


def _failures(
    spec: AlgebraSpec, ident: Poly, variables: Sequence[str],
    candidate_sets: Sequence[Sequence], lo: int, hi: int, limit: int,
) -> List[Tuple[int, Dict[str, str], Tuple[object, ...]]]:
    """(tuple index, labels, dense defect) of the first `limit` failing tuples in [lo, hi)."""
    out = []
    combos = itertools.islice(itertools.product(*candidate_sets), lo, hi)
    for index, combo in enumerate(combos, lo):
        assignment = {v: w for v, (_, w) in zip(variables, combo)}
        defect = eval_poly(spec, ident, assignment)
        if defect:
            labels = {v: lab for v, (lab, _) in zip(variables, combo)}
            out.append((index, labels, dense(defect, spec.dim)))
            if len(out) >= limit:
                break
    return out


MAX_WITNESSES = 5


def check_identity(spec: AlgebraSpec, system: IdentitySystem, jobs: int = 1) -> CheckReport:
    """Evaluate every identity of the system on enough tuples to be exhaustive.

    Multilinear identities are checked on all basis tuples; identities with a
    repeated variable are checked on polarization sums as well. The check
    stops at the tuple that brings MAX_WITNESSES witnesses; `checked` counts
    the tuples up to there. With jobs > 1 the tuple space is split into
    contiguous chunks evaluated in worker processes and merged in order, so
    the report does not depend on jobs.
    """
    report = CheckReport(name=system.name, status="pass")
    for pos, ident in enumerate(system.identities):
        mults = _variable_multiplicities(ident)
        variables = sorted(mults)
        candidate_sets = [
            polarization_vectors(spec.dim, spec.basis, mults[v]) for v in variables
        ]
        if any(mults[v] > 1 for v in variables):
            report.notes.append(
                f"identity {pos}: non-multilinear, checked on polarization sums"
            )
        total = 1
        for cs in candidate_sets:
            total *= len(cs)
        room = MAX_WITNESSES - len(report.witnesses)
        if jobs > 1 and total >= 4 * jobs:
            from concurrent.futures import ProcessPoolExecutor

            step = -(-total // jobs)
            los = range(0, total, step)
            his = [min(lo + step, total) for lo in los]
            chunk = functools.partial(_failures, spec, ident, variables, candidate_sets)
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                parts = pool.map(chunk, los, his, itertools.repeat(room))
                found = [f for part in parts for f in part]
        else:
            found = _failures(spec, ident, variables, candidate_sets, 0, total, room)
        label = f"{system.name}[{pos}]"
        report.witnesses += [(label, labels, defect) for _, labels, defect in found[:room]]
        if found:
            report.status = "fail"
        if len(found) >= room:
            report.checked += found[room - 1][0] + 1
            return report
        report.checked += total
    return report


# ---------------------------------------------------------------------------
# Yau twisting and derived operations


def yau_twist(spec: AlgebraSpec, beta: Matrix, check: bool = True, name: str = "") -> AlgebraSpec:
    """Post-compose every arity-a operation with beta^(a-1); alpha <- beta.alpha."""
    beta = matrix(beta)
    if check:
        ok, witness = is_morphism(spec, beta)
        if not ok:
            raise FdalgError(f"beta is not a morphism; witness {witness_str(witness)}")
    cols = columns(beta)
    ops = {}
    for opname, op in spec.ops.items():
        for _ in range(op.arity - 1):
            op = op.post_compose(cols)
        ops[opname] = op
    unit = spec.unit
    return AlgebraSpec(
        spec.dim,
        spec.basis,
        ops,
        matmul(beta, spec.alpha),
        unit,
        name=name or (f"{spec.name}_twisted" if spec.name else "twisted"),
        cls=spec.cls,
    )


def classical(spec: AlgebraSpec) -> AlgebraSpec:
    """View the bundled operations as an ordinary algebra (identity twist)."""
    return spec.with_alpha(identity_matrix(spec.dim))


def hom_version(spec: AlgebraSpec) -> AlgebraSpec:
    """Yau-twist the classical view of a bundled algebra by its stored map.

    Bundled catalog entries store a classical algebra together with an
    interesting endomorphism in the alpha slot; the Hom-algebra the paper
    studies is the twist of the classical structure by that endomorphism.
    """
    return yau_twist(
        classical(spec), spec.alpha,
        name=f"{spec.name}_hom" if spec.name else "hom",
    )


def tabulate(
    name: str, arity: int, dim: int, value: Callable[[Tuple[int, ...]], Vector]
) -> MultilinearOp:
    """The operation whose value on each basis index tuple idx is value(idx)."""
    return MultilinearOp(
        name, arity, dim,
        {idx: value(idx) for idx in itertools.product(range(dim), repeat=arity)},
    )


def tabulate_poly(
    name: str, spec: AlgebraSpec, template: Poly, variables: Sequence[str]
) -> MultilinearOp:
    """The multilinear operation (variables) -> template, evaluated on spec."""
    basis = [spec.basis_vector(i) for i in range(spec.dim)]
    return tabulate(
        name, len(variables), spec.dim,
        lambda idx: eval_poly(spec, template, {v: basis[i] for v, i in zip(variables, idx)}),
    )


def commutator_table(spec: AlgebraSpec) -> MultilinearOp:
    a, b = Poly.gen("a"), Poly.gen("b")
    return tabulate_poly(MUL, spec, mul(a, b) - mul(b, a), "ab")


def hom_associator_table(spec: AlgebraSpec) -> MultilinearOp:
    """(a,b,c)_alpha = (ab) alpha(c) - alpha(a) (bc) as a structure tensor."""
    a, b, c = (Poly.gen(v) for v in "abc")
    return tabulate_poly("tri", spec, hom_associator(a, b, c), "abc")


def akivis_ops(spec: AlgebraSpec, hom: bool = True) -> AlgebraSpec:
    """Commutator plus (Hom-)associator of the binary product.

    With hom=True this is the Hom-Akivis structure attached to a
    multiplicative Hom-algebra; with hom=False, the ordinary Akivis structure.
    """
    tri = hom_associator_table(spec if hom else classical(spec))
    return AlgebraSpec(
        spec.dim,
        spec.basis,
        {MUL: commutator_table(spec), "tri": tri},
        spec.alpha,
        name=f"{spec.name}_akivis" if spec.name else "akivis",
        cls="hom_akivis" if hom else "akivis",
    )


def commutator_algebra(spec: AlgebraSpec) -> AlgebraSpec:
    """A^-: same space with the commutator bracket and the same twisting map."""
    return AlgebraSpec(
        spec.dim,
        spec.basis,
        {MUL: commutator_table(spec)},
        spec.alpha,
        name=f"{spec.name}_minus" if spec.name else "minus",
        cls="",
    )


# ---------------------------------------------------------------------------
# Sabinin operation families


@dataclass
class OpFamily:
    """Bracket tables <x1..xn; a, b> for n <= cutoff plus Phi tables, with
    the algebra they were built from: its basis and twisting map are theirs."""

    spec: AlgebraSpec
    brackets: Dict[int, MultilinearOp]
    phi: Dict[Tuple[int, int], MultilinearOp]
    cutoff: int


_SABININ_CLASSES = ("lie", "malcev", "bol", "ly")


def sabinin_from(
    spec: AlgebraSpec, cls: str, cutoff: int, check: bool = True
) -> OpFamily:
    """Build the printed Sabinin operations of a Hom-Lie/Malcev/Bol/LY algebra.

    Bracket tables are built by increasing word length; the recursions expand
    the unshuffle coproduct of the prefix. Phi is identically zero for all
    four classes.
    """
    cls = {"lie_yamaguti": "ly", "hom_lie_yamaguti": "ly"}.get(cls, cls)
    cls = cls.replace("hom_", "")
    if cls not in _SABININ_CLASSES:
        raise FdalgError(f"unknown Sabinin construction class {cls!r}")
    if check:
        system = {
            "lie": "hom_lie",
            "malcev": "hom_malcev",
            "bol": "hom_bol",
            "ly": "hom_lie_yamaguti",
        }[cls]
        rep = check_identity(spec, catalog(system))
        if not rep.ok:
            raise FdalgError(
                f"algebra does not satisfy the {system} identities; "
                f"witness {witness_str(rep.witnesses[0])}"
            )
    a, b, c = (Poly.gen(v) for v in "abc")
    printed = {  # <c; a, b>
        "lie": Poly.zero(),
        "malcev": hom_jacobiator(a, b, c).scaled(rat(-1, 3)),
        "bol": apply_op("tri", [a, b, c]) - mul(mul(a, b), apply_alpha(c, 1)),
        "ly": apply_op("tri", [a, b, c]),
    }
    brackets = {0: tabulate_poly("br0", spec, -mul(a, b), "ab")}
    if cutoff >= 1:
        brackets[1] = tabulate_poly("br1", spec, printed[cls], "cab")
    for n in range(2, cutoff + 1):
        # <x c; a, b> (<c x; a, b> for Bol) expands the unshuffle coproduct of x
        xs = tuple(f"x{i + 1}" for i in range(n - 1))
        template = Poly.zero()
        for left, right in unshuffle_pairs(xs):
            k = len(right) + 1
            inner = bracket([Poly.gen(l) for l in right], a, b)
            template = template + bracket(
                [Poly.gen(l, k) for l in left], Poly.gen("c", k), inner
            )
        if cls == "bol":
            template = -template
        if cls == "ly":
            template = template + bracket(
                [Poly.gen(l, 1) for l in xs], Poly.gen("c", 1), mul(a, b)
            )
        ops = {f"br{j}": op for j, op in brackets.items()}
        ops[MUL] = spec.ops[MUL]
        lower = AlgebraSpec(spec.dim, spec.basis, ops, spec.alpha)
        variables = ("c", *xs) if cls == "bol" else (*xs, "c")
        brackets[n] = tabulate_poly(f"br{n}", lower, template, (*variables, "a", "b"))

    phi = {
        (n, m): MultilinearOp.zero(f"phi{n}_{m}", n + m, spec.dim)
        for n in range(1, cutoff + 1)
        for m in range(2, cutoff + 2)
        if n + m <= cutoff + 2
    }
    return OpFamily(spec, brackets, phi, cutoff)


def family_spec(fam: OpFamily) -> AlgebraSpec:
    """Wrap bracket/Phi tables as an algebra so identity templates can run."""
    ops = {f"br{n}": op for n, op in fam.brackets.items()}
    ops.update({f"phi{n}_{m}": op for (n, m), op in fam.phi.items()})
    spec = fam.spec
    return AlgebraSpec(spec.dim, spec.basis, ops, spec.alpha, name="sabinin_family")


@dataclass
class SabininAxiomReport:
    status: str
    axioms: List[CheckReport] = field(default_factory=list)
    skipped: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.status == "pass"

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "axioms": [r.to_json() for r in self.axioms],
            "skipped": list(self.skipped),
        }


def check_sabinin_axioms(fam: OpFamily, cutoff: int) -> SabininAxiomReport:
    """Exhaustively evaluate the four Hom-Sabinin axioms up to prefix length cutoff.

    Instances that need bracket tables beyond fam.cutoff are reported as
    skipped, not failed (Hsab2 raises the word length by two, Hsab3 by one).
    """
    pseudo = family_spec(fam)
    report = SabininAxiomReport(status="pass")
    phi_shapes = sorted(fam.phi)
    for n in range(cutoff + 1):
        instances = sabinin_axiom_instances(n, [m for nn, m in phi_shapes if nn == n])
        for label, template in instances:
            if max_bracket_length(template) > fam.cutoff:
                report.skipped.append(label)
                continue
            system = IdentitySystem(
                label, sabinin_signature(fam.cutoff, phi_shapes), (template,), True
            )
            res = check_identity(pseudo, system)
            res.name = label
            report.axioms.append(res)
            if not res.ok:
                report.status = "fail"
    return report


# ---------------------------------------------------------------------------
# Hom-powers


def hom_power(spec: AlgebraSpec, v: Vector, n: int) -> Vector:
    """x^1 = x, x^n = x^(n-1) . alpha^(n-2)(x)."""
    if n < 1:
        raise FdalgError("powers start at 1")
    mu = spec.ops[MUL]
    out = v
    for k in range(2, n + 1):
        out = mu.eval([out, spec.apply_alpha_vec(v, k - 2)])
    return out


@dataclass
class PowerReport:
    status: str
    max_power: int
    samples: int
    seed: int
    condition1: bool = True
    condition2: bool = True
    witnesses: List[tuple] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.status == "pass"

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "max_power": self.max_power,
            "samples": self.samples,
            "seed": self.seed,
            "condition1": self.condition1,
            "condition2": self.condition2,
            "witnesses": [
                {"vector": label, "relation": rel} for label, rel in self.witnesses
            ],
            "notes": list(self.notes),
        }


def _sample_vectors(spec: AlgebraSpec, samples: int, seed: int) -> List[Tuple[str, Vector]]:
    rng = random.Random(seed)
    out = [(spec.basis[i], spec.basis_vector(i)) for i in range(spec.dim)]
    for s in range(samples):
        x = lincomb(
            (rat(rng.randint(-9, 9), rng.randint(1, 9)), spec.basis_vector(i))
            for i in range(spec.dim)
        )
        out.append((f"sample{s}", x))
    return out


def check_power_associative(
    spec: AlgebraSpec, max_power: int = 6, samples: int = 100, seed: int = 2024
) -> PowerReport:
    """Check x^(n+m) = alpha^(m-1)(x^n) . alpha^(n-1)(x^m) for n+m <= max_power.

    Also evaluates the two equivalent low-degree conditions
    x^2 alpha(x) = alpha(x) x^2, x^4 = alpha(x^2) alpha(x^2) and
    (x,x,x)_alpha = 0 = (x^2, alpha(x), alpha(x))_alpha, and reports whether
    the implication "conditions hold => Hom-power associative" was observed.
    """
    if sum(1 for o in spec.ops.values() if o.arity == 2) != 1 or MUL not in spec.ops:
        raise FdalgError("power associativity needs a single binary product")
    if max_power < 2:
        raise FdalgError("max_power must be at least 2")
    ok_mult, witness = is_multiplicative(spec)
    report = PowerReport(
        status="pass", max_power=max_power, samples=samples, seed=seed
    )
    if not ok_mult:
        report.notes.append(f"alpha is not multiplicative; witness {witness_str(witness)}")
        report.status = "fail"
        return report
    mu = spec.ops[MUL]
    for label, x in _sample_vectors(spec, samples, seed):
        powers = {n: hom_power(spec, x, n) for n in range(1, max_power + 1)}
        al = spec.apply_alpha_vec
        x2, x4 = powers[2], powers.get(4)
        lhs1 = mu.eval([x2, al(x, 1)])
        rhs1 = mu.eval([al(x, 1), x2])
        if lhs1 != rhs1:
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
                lhs = powers[n + m]
                rhs = mu.eval([al(powers[n], m - 1), al(powers[m], n - 1)])
                if lhs != rhs:
                    report.status = "fail"
                    report.witnesses.append((label, f"x^{n + m} != a^{m - 1}(x^{n}) a^{n - 1}(x^{m})"))
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
