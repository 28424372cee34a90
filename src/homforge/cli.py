"""Command-line front end: parse specs and expressions, dispatch, report.

One subcommand per engine capability; batch verification only. Exit codes:
0 pass, 1 fail/counterexample, 2 usage or parse error, 3 inconclusive within
bounds. JSON reports are deterministic for fixed inputs (timing is printed
on the human side only).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from typing import List, Optional

from .expr import MUL, ParseError, SignatureError, parse_poly, render_mono, render_poly
from .fdalg import (
    AlgebraSpec,
    FdalgError,
    akivis_ops,
    builtin_algebra,
    check_identity,
    check_power_associative,
    check_sabinin_axioms,
    classical,
    dense,
    hom_version,
    sabinin_from,
    witness_str,
    yau_twist,
    zero_matrix,
)
from .homify import (
    HomifyError,
    catalog,
    catalog_names,
    homify_identity,
    identity_system_from_json,
)
from .hombialg import (
    BoundsError,
    check_antipode,
    delta_poly,
    is_primitive,
    u_hom,
)
from .qops import q_symbolic, yiii_hom
from .rationals import rat_from_json, rat_str

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3

_STATUS_CODE = {"pass": EXIT_PASS, "fail": EXIT_FAIL, "inconclusive": EXIT_INCONCLUSIVE}


def _emit(args, command: str, status: str, payload: dict, human: List[str], t0: float) -> int:
    try:
        if args.json:
            doc = {"command": command, "status": status}
            doc.update(payload)
            print(json.dumps(doc, indent=2))
        else:
            for line in human:
                print(line)
            print(f"status: {status}  ({(time.perf_counter() - t0) * 1000:.1f} ms)")
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe; the verdict stands. Python flushes
        # stdout again at exit, so send what is left to the null device.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return _STATUS_CODE[status]


# Bad input raises these; any other exception is a bug and keeps its traceback.
DOMAIN_ERRORS = (ParseError, SignatureError, HomifyError, FdalgError, BoundsError)


def _read_file(option: str, path: str, parse):
    """parse() of the JSON document in the file given to option. When the
    file cannot be read, is not JSON or is rejected by parse, the error
    names the option and the file."""
    try:
        with open(path) as fh:
            return parse(json.load(fh))
    except (OSError, json.JSONDecodeError, UnicodeDecodeError, *DOMAIN_ERRORS) as exc:
        raise FdalgError(f"{option} {path}: {exc}") from None


def _load_algebra(args) -> AlgebraSpec:
    name = args.algebra
    if os.path.exists(name):
        spec = _read_file("--algebra", name, AlgebraSpec.from_json)
    else:
        spec = builtin_algebra(name)
    if getattr(args, "alpha_zero", False):
        spec = spec.with_alpha(zero_matrix(spec.dim))
    twist = getattr(args, "twist", None)
    if twist:
        if twist == "bundled":
            spec = hom_version(spec)
        else:
            spec = yau_twist(classical(spec), _read_file("--twist", twist, _twist_matrix))
    return spec


def _twist_matrix(data):
    """The --twist FILE matrix: a JSON list of rows, or {"matrix": rows},
    whose entries are ints or "p/q" strings."""
    rows = data.get("matrix") if isinstance(data, dict) else data
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise FdalgError('expected a list of rows or {"matrix": rows}')
    return tuple(tuple(rat_from_json(c, FdalgError) for c in r) for r in rows)


def _load_identity(name: str, option: str = "--identity"):
    if os.path.exists(name):
        return _read_file(option, name, identity_system_from_json)
    return catalog(name)


def cmd_homify(args) -> int:
    t0 = time.perf_counter()
    system = _load_identity(
        args.builtin or args.identity, "--builtin" if args.builtin else "--identity"
    )
    if system.hom_form:
        raise HomifyError(
            f"{system.name} already carries twisting exponents; pick the ordinary form"
        )
    twisted = [homify_identity(p) for p in system.identities]
    human = [f"{system.name}:"] + [f"  {render_poly(p)} = 0" for p in twisted]
    return _emit(
        args,
        "homify",
        "pass",
        {"name": system.name, "identities": [render_poly(p) for p in twisted]},
        human,
        t0,
    )


def cmd_check(args) -> int:
    t0 = time.perf_counter()
    spec = _load_algebra(args)
    system = _load_identity(args.identity)
    notes = []
    needs_tri = any(op == "tri" for op, _ in system.signature.ops)
    if needs_tri and "tri" not in spec.ops and MUL in spec.ops:
        spec = akivis_ops(spec)
        notes.append("derived Akivis operations (commutator and Hom-associator)")
    report = check_identity(spec, system, jobs=args.jobs)
    if all(op.is_zero() for op in spec.ops.values()):
        notes.append("operations vanish")
    doc = report.to_json()
    doc["notes"] = doc.get("notes", []) + notes
    human = [f"check {spec.name or args.algebra} against {system.name}: {report.status}"]
    human += [f"  note: {n}" for n in doc["notes"]]
    human += [f"  witness {witness_str(w)}" for w in report.witnesses]
    return _emit(args, "check", report.status, doc, human, t0)


_Q_LETTERS = {  # the worked low-order cases use the paper's letters
    (1, 1): (("x",), ("y",)),
    (2, 1): (("x", "y"), ("t",)),
    (1, 2): (("x",), ("y", "t")),
}


def cmd_qalpha(args) -> int:
    t0 = time.perf_counter()
    if args.symbolic or not args.algebra:
        from .qops import QSolver

        if (args.n, args.m) in _Q_LETTERS:
            u, v = _Q_LETTERS[(args.n, args.m)]
            p = QSolver().q(u, v, "z")
        else:
            p = q_symbolic(args.n, args.m)
        human = [f"q_{{{args.n},{args.m}}} = {render_poly(p)}"]
        return _emit(args, "qalpha", "pass", {"formula": render_poly(p)}, human, t0)
    spec = _load_algebra(args)
    from .qops import NumericQSolver

    solver = NumericQSolver(spec)
    parts = [part for part in (args.args or "").split(";") if part]
    if len(parts) != 3:
        raise ParseError('numeric mode needs --args "u1,u2;v1,...;z"')
    u = tuple(spec.basis_index(s.strip()) for s in parts[0].split(",") if s.strip())
    v = tuple(spec.basis_index(s.strip()) for s in parts[1].split(",") if s.strip())
    z = spec.basis_index(parts[2].strip())
    val = solver.q(u, v, z)
    human = [f"q = {spec.describe(val)}"]
    value = [rat_str(c) for c in dense(val, spec.dim)]
    return _emit(args, "qalpha", "pass", {"value": value}, human, t0)


def _family(spec: AlgebraSpec, cls: str, cutoff: int):
    """The Sabinin operation family of a --class: YIII_hom or a printed construction."""
    return yiii_hom(spec, cutoff) if cls == "yiii" else sabinin_from(spec, cls, cutoff)


def cmd_sabinin(args) -> int:
    t0 = time.perf_counter()
    spec = _load_algebra(args)
    fam = _family(spec, args.cls, args.cutoff)
    report = check_sabinin_axioms(fam, max(args.cutoff - 1, 0))
    human = [f"sabinin[{args.cls}] on {spec.name or args.algebra}: {report.status}"]
    human += [f"  {r.name}: {r.status} ({r.checked} tuples)" for r in report.axioms]
    human += [f"  skipped: {s}" for s in report.skipped]
    return _emit(args, "sabinin", report.status, report.to_json(), human, t0)


def cmd_coproduct(args) -> int:
    t0 = time.perf_counter()
    p = parse_poly(args.expr)
    d = delta_poly(p)
    human = [f"Delta({render_poly(p)}) = {d!r}"]
    pairs = [
        {
            "left": render_mono(a),
            "right": render_mono(b),
            "coeff": rat_str(c),
        }
        for (a, b), c in sorted(
            d.terms.items(), key=lambda kv: (str(kv[0][0]), str(kv[0][1]))
        )
    ]
    return _emit(args, "coproduct", "pass", {"pairs": pairs}, human, t0)


def cmd_primitive(args) -> int:
    t0 = time.perf_counter()
    p = parse_poly(args.expr)
    ok = is_primitive(p)
    status = "pass" if ok else "fail"
    return _emit(
        args,
        "primitive",
        status,
        {"expr": render_poly(p), "primitive": ok},
        [f"{render_poly(p)} primitive: {ok}"],
        t0,
    )


def cmd_envelope(args) -> int:
    t0 = time.perf_counter()
    spec = _load_algebra(args)
    quotient = u_hom(_family(spec, args.cls, max(args.degree - 2, 0)), args.degree)
    report = quotient.report()
    human = [f"U_hom({spec.name or args.algebra}) up to degree {args.degree}:"]
    human += [
        f"  degree {k}: dimension {dim}, relation rank {rank}"
        for k, (dim, rank) in report.items()
    ]
    payload = {"degrees": {str(k): list(v) for k, v in report.items()}}
    return _emit(args, "envelope", "pass", payload, human, t0)


def cmd_antipode(args) -> int:
    t0 = time.perf_counter()
    p = parse_poly(args.word)
    if len(p.terms) != 1:
        raise ParseError("--word must be a single monomial")
    (mono, coeff), = p.terms.items()
    if coeff != 1:
        raise ParseError("--word must be an unscaled monomial")
    res = check_antipode(mono, degree_bound=args.degree, exp_bound=args.exp_bound)
    human = [
        f"antipode check for {res.word}: {res.status} "
        f"(degree <= {res.degree_bound}, exponents <= {res.exp_bound})"
    ]
    if res.bounds_error:
        human.append(f"  the defect is outside the bounds: {res.bounds_error}")
    elif not res.ok:
        human.append(f"  residual normal form: {render_poly(res.normal_form)}")
    return _emit(args, "antipode", res.status, res.to_json(), human, t0)


def cmd_powerassoc(args) -> int:
    t0 = time.perf_counter()
    spec = _load_algebra(args)
    report = check_power_associative(spec, max_power=args.max)
    human = [
        f"power associativity on {spec.name or args.algebra}: {report.status}",
        f"  condition (1): {report.condition1}, condition (2): {report.condition2}",
    ] + [f"  {n}" for n in report.notes]
    return _emit(args, "powerassoc", report.status, report.to_json(), human, t0)


def _at_least(lo: int):
    """An argparse type: an integer no smaller than lo."""

    def integer(text: str) -> int:  # argparse names it in "invalid integer value"
        n = int(text)
        if n < lo:
            raise argparse.ArgumentTypeError(f"must be at least {lo}, got {n}")
        return n

    return integer


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="homforge",
        description="Symbolic and numeric workbench for Hom-type nonassociative algebras",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, algebra=False):
        p.add_argument("--json", action="store_true", help="machine-readable report")
        if algebra:
            p.add_argument("--algebra", required=True, help="bundled name or JSON file")
            p.add_argument("--twist", help="JSON matrix file, or 'bundled'")
            p.add_argument("--alpha-zero", action="store_true", dest="alpha_zero")

    p = sub.add_parser("homify", help="twist an ordinary identity system")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--builtin", help=f"one of {catalog_names()}")
    g.add_argument("--identity", help="identity JSON file")
    common(p)
    p.set_defaults(func=cmd_homify)

    p = sub.add_parser("check", help="check an identity system on an algebra")
    p.add_argument("--identity", required=True, help="builtin name or JSON file")
    p.add_argument("--jobs", type=_at_least(1), default=1)
    common(p, algebra=True)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("qalpha", help="q^alpha operations")
    p.add_argument("--n", type=_at_least(0), required=True)
    p.add_argument("--m", type=_at_least(0), required=True)
    p.add_argument("--symbolic", action="store_true")
    p.add_argument("--algebra", help="bundled name or JSON file")
    p.add_argument("--twist", help="JSON matrix file, or 'bundled'")
    p.add_argument("--alpha-zero", action="store_true", dest="alpha_zero")
    p.add_argument("--args", help='numeric arguments, e.g. "e1,e2;e3;e4"')
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_qalpha)

    p = sub.add_parser("sabinin", help="build Sabinin operations and check the axioms")
    p.add_argument("--class", dest="cls", default="yiii",
                   choices=["yiii", "lie", "malcev", "bol", "ly"])
    p.add_argument("--cutoff", type=_at_least(0), default=2)
    common(p, algebra=True)
    p.set_defaults(func=cmd_sabinin)

    p = sub.add_parser("coproduct", help="coproduct of a free Hom-algebra element")
    p.add_argument("--expr", required=True)
    common(p)
    p.set_defaults(func=cmd_coproduct)

    p = sub.add_parser("primitive", help="primitivity test")
    p.add_argument("--expr", required=True)
    common(p)
    p.set_defaults(func=cmd_primitive)

    p = sub.add_parser("envelope", help="truncated universal enveloping Hom-algebra")
    p.add_argument("--class", dest="cls", default="lie",
                   choices=["yiii", "lie", "malcev", "bol", "ly"])
    p.add_argument("--degree", type=_at_least(1), required=True)
    common(p, algebra=True)
    p.set_defaults(func=cmd_envelope)

    p = sub.add_parser("antipode", help="antipode identity in the bounded quotient")
    p.add_argument("--word", required=True, help="monomial in the expression grammar")
    p.add_argument("--degree", type=_at_least(1), default=None)
    p.add_argument("--exp-bound", type=_at_least(0), default=None, dest="exp_bound")
    common(p)
    p.set_defaults(func=cmd_antipode)

    p = sub.add_parser("powerassoc", help="Hom-power associativity")
    p.add_argument("--max", type=_at_least(2), default=6)
    common(p, algebra=True)
    p.set_defaults(func=cmd_powerassoc)

    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser every main call shares, built on the first one: parsing
    leaves it unchanged, and building it costs more than most commands."""
    return build_parser()


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except DOMAIN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
