"""CLI tests: exit codes, report schema, determinism."""

import json

import pytest

from oracles import pbw_dims

from homforge.cli import _parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_homify_builtin_associative(capsys):
    code, out, _ = run(capsys, "homify", "--builtin", "associative")
    assert code == 0
    assert "(x*y)*A^1(z)" in out and "A^1(x)*(y*z)" in out


def test_homify_builtin_jacobi_text(capsys):
    code, out, _ = run(capsys, "homify", "--builtin", "lie")
    assert code == 0
    assert "(x*y)*A^1(z) + (y*z)*A^1(x) + (z*x)*A^1(y)" in out


def test_homify_lts_fundamental(capsys):
    code, out, _ = run(capsys, "homify", "--builtin", "lts")
    assert code == 0
    assert "A^2" in out


def test_homify_single_identity_builtins(capsys):
    code, out, _ = run(capsys, "homify", "--builtin", "jacobi")
    assert code == 0
    assert "(x*y)*A^1(z) + (y*z)*A^1(x) + (z*x)*A^1(y)" in out
    code, out, _ = run(capsys, "homify", "--builtin", "lts-fundamental")
    assert code == 0
    assert "tri(A^2(u),A^2(v),tri(x,y,z))" in out


def test_check_identity_from_file(capsys, tmp_path):
    from homforge.homify import catalog, identity_system_to_json

    path = tmp_path / "homlie.json"
    path.write_text(json.dumps(identity_system_to_json(catalog("hom_lie")), indent=2))
    code, out, _ = run(
        capsys, "check", "--algebra", "sl2", "--twist", "bundled",
        "--identity", str(path),
    )
    assert code == 0


def test_homify_rejects_hom_form(capsys):
    code, _, err = run(capsys, "homify", "--builtin", "hom_lie")
    assert code == 2
    assert "already carries" in err


def test_check_sl2_hom_akivis(capsys):
    code, out, _ = run(capsys, "check", "--algebra", "sl2", "--identity", "hom-akivis")
    assert code == 0
    assert "derived Akivis operations" in out


def test_check_c_example_vanishing(capsys):
    code, out, _ = run(
        capsys, "check", "--algebra", "c_example", "--twist", "bundled",
        "--identity", "hom-akivis",
    )
    assert code == 0
    assert "operations vanish" in out


def test_check_corrupted_algebra_fails(capsys, tmp_path):
    import homforge.fdalg as fdalg

    spec = fdalg.builtin_algebra("sl2")
    data = spec.to_json()
    data["ops"][0]["entries"][0][-1] = "3"
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(data))
    code, out, _ = run(
        capsys, "check", "--algebra", str(path), "--identity", "lie", "--json"
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["status"] == "fail" and doc["witnesses"]


def test_check_json_deterministic(capsys):
    code1, out1, _ = run(
        capsys, "check", "--algebra", "sl2", "--twist", "bundled",
        "--identity", "hom_lie", "--json",
    )
    code2, out2, _ = run(
        capsys, "check", "--algebra", "sl2", "--twist", "bundled",
        "--identity", "hom_lie", "--json",
    )
    assert code1 == code2 == 0
    assert out1 == out2


def test_qalpha_symbolic(capsys):
    code, out, _ = run(capsys, "qalpha", "--n", "2", "--m", "1", "--symbolic")
    assert code == 0
    assert "q_{2,1}" in out
    # the printed three-term shape in the paper's letters
    assert "((x*y)*A^1(t))*A^2(z)" in out and "A^2(x)" in out and "A^2(y)" in out
    code, out, _ = run(capsys, "qalpha", "--n", "3", "--m", "1", "--symbolic")
    assert code == 0
    assert "x1" in out  # canonical letters beyond the worked cases


def test_check_twist_matrix_file(capsys, tmp_path):
    import homforge.fdalg as fdalg

    spec = fdalg.builtin_algebra("sl2")
    path = tmp_path / "twist.json"
    path.write_text(json.dumps({"matrix": [[str(c) for c in row] for row in spec.alpha]}))
    code, _, _ = run(
        capsys, "check", "--algebra", "sl2", "--twist", str(path),
        "--identity", "hom_lie",
    )
    assert code == 0


def test_qalpha_numeric(capsys):
    code, out, _ = run(
        capsys, "qalpha", "--n", "1", "--m", "1", "--algebra", "sl2",
        "--twist", "bundled", "--args", "h;x;y", "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["value"]) == 3


def test_coproduct_output(capsys):
    code, out, _ = run(capsys, "coproduct", "--expr", "((x*y)*z)", "--json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["pairs"]) == 8  # four circle-terms, eight ordered pairs


def test_primitive_pass_and_fail(capsys):
    code, _, _ = run(capsys, "primitive", "--expr", "(x*y)-(y*x)")
    assert code == 0
    code, _, _ = run(capsys, "primitive", "--expr", "(x*y)")
    assert code == 1


def test_envelope_alpha_zero(capsys):
    code, out, _ = run(
        capsys, "envelope", "--algebra", "sl2", "--alpha-zero", "--degree", "3",
        "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["degrees"]["1"] == [3, 0]
    assert doc["degrees"]["2"] == [6, 3]


def _envelope_dims(capsys, *argv, degree=4):
    code, out, _ = run(capsys, "envelope", *argv, "--degree", str(degree), "--json")
    assert code == 0
    return {int(k): dim for k, (dim, _) in json.loads(out)["degrees"].items()}


_ALPHAS = [["--twist", "bundled"], []]  # the Yau twist, or the stored alpha as it is


def test_pbw_dims_enumerate_commutative_monomials():
    assert pbw_dims(3, 4) == {1: 3, 2: 6, 3: 10, 4: 15}
    assert pbw_dims(2, 5) == {1: 2, 2: 3, 3: 4, 4: 5, 5: 6}


@pytest.mark.parametrize("algebra, twist, degree", [
    pytest.param(algebra, twist, 4, id=f"{algebra}-{mode}")
    for algebra in ("sl2", "abelian3") for mode, twist in zip(("twisted", "stored"), _ALPHAS)
] + [pytest.param("sl2", _ALPHAS[0], 5, id="sl2-twisted-degree5")])
def test_lie_envelope_has_pbw_dims(capsys, algebra, twist, degree):
    """Observed, not a theorem applied: the Hom-Lie envelopes of the bundled
    Lie algebras, twisted by or paired with their invertible alpha, have
    the graded dimensions of a polynomial algebra up to degree 4, and
    twisted sl2 up to degree 5."""
    got = _envelope_dims(capsys, "--algebra", algebra, *twist, "--class", "lie", degree=degree)
    assert got == pbw_dims(3, degree)


@pytest.mark.xfail(
    strict=True,
    reason=(
        "ROADMAP item 1: envelope builds the yiii Phi tables to n + m <= degree - 1 "
        "and drops the top-degree Phi relations, so degree 4 has dimension 81, not 15"
    ),
)
def test_yiii_envelope_has_pbw_dims(capsys):
    """The same known answer for yiii envelopes of heis3, k3prod and
    abelian3, twisted or with the stored alpha."""
    got = {
        (algebra, *twist): _envelope_dims(capsys, "--algebra", algebra, *twist, "--class", "yiii")
        for algebra in ("heis3", "k3prod", "abelian3") for twist in _ALPHAS
    }
    assert got == {case: pbw_dims(3, 4) for case in got}


def test_antipode_cli(capsys):
    code, out, _ = run(capsys, "antipode", "--word", "((x*y)*z)")
    assert code == 0
    code, _, _ = run(
        capsys, "antipode", "--word", "((x*y)*z)", "--degree", "3",
        "--exp-bound", "0",
    )
    assert code == 3  # inconclusive within bounds


def test_antipode_names_the_bound_the_defect_exceeds(capsys):
    """A defect outside the bounds is reported as such, not as a residual
    normal form; the JSON report is the same as before."""
    for bounds, why in (
        (["--degree", "1"], "monomial degree 3 exceeds bound 1"),
        (["--exp-bound", "0"], "exponent 3 exceeds bound 0"),
    ):
        code, out, _ = run(capsys, "antipode", "--word", "(a*b)*c", *bounds)
        assert code == 3
        assert f"  the defect is outside the bounds: {why}\n" in out
        assert "residual" not in out
        code, out, _ = run(capsys, "antipode", "--word", "(a*b)*c", *bounds, "--json")
        assert set(json.loads(out)) == {"command", "status", "word", "bounds", "normal_form"}
    code, out, _ = run(capsys, "antipode", "--word", "(a*b)*c", "--exp-bound", "3")
    assert code == 0 and "outside" not in out


# SHA-256 of reports made when the antipode defect was composed from whole
# Poly operations and the coproduct recursed through TensorElement.product:
# building them over plain dicts must not change a byte.
_PINNED_REPORTS = [
    (["antipode", "--word", "((a*b)*(c*d))"], 0,
     "db7103927ac56552a5aab7786b282a7d7c2a6b14248db8e354dfd8396853ad5e"),
    (["antipode", "--word", "(a*((b*c)*(d*e)))"], 0,
     "3d04056ab36000cd7f047af37cafeac49269f40828d4d9003b584a65b009efa9"),
    (["antipode", "--word", "(((a*a)*(a*b))*(a*a))"], 0,
     "46361e8cb1b9fd1271683801be14007909ba3a749d05adca6509d84d723d77ba"),
    (["antipode", "--word", "((a*b)*(c*d))*((e*f)*g)"], 0,
     "1bf7d727c7f930fa65bb2ffaecf17397a438ecfe3a780ece5c415dea7413b7b0"),
    (["antipode", "--word", "(a*b)*c", "--degree", "1"], 3,
     "7ef0fc8950405f6d89d12bd48acb1ee2a1aadb1ce8d1f33492be1ee3951b2370"),
    (["antipode", "--word", "(a*b)*c", "--exp-bound", "0"], 3,
     "5c4d4ad00a1b38b9fc87caad70c792400c65218fa93480bc101ea9541b3a1ec1"),
    (["coproduct", "--expr", "((x*y)*z)"], 0,
     "86278c9b24a949aadbb50163566a983f6251842ba488099bf5b4bca63a43a313"),
    (["coproduct", "--expr", "(x*1)"], 0,
     "895f7ba59d42e97a006187bfb07bb368ffd2fb30caef7f6c914b8e573a5e8332"),
    (["coproduct", "--expr", "1/2*(x*y)"], 0,
     "21f0c0efeb5ac5be1807cbb6d651991a6a45043259b23a2a90a25577a23c46e6"),
    (["coproduct", "--expr", "br(a,b)"], 0,
     "528ba990b1692caab61ebecb9e718c746adafc340474b459aaa23ccbecca6c28"),
]


@pytest.mark.parametrize("argv, code, sha256", _PINNED_REPORTS,
                         ids=[" ".join(argv) for argv, _, _ in _PINNED_REPORTS])
def test_antipode_and_coproduct_reports_are_pinned(capsys, argv, code, sha256):
    import hashlib

    got, out, _ = run(capsys, *argv, "--json")
    assert got == code
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


def test_sabinin_cli(capsys):
    code, out, _ = run(
        capsys, "sabinin", "--algebra", "heis3", "--twist", "bundled",
        "--class", "yiii", "--cutoff", "2",
    )
    assert code == 0
    assert "Hsab3" in out


# Twisted sl2 at cutoff 3 gives the same report for the printed lie and
# malcev constructions: its Hom-Jacobiator vanishes, so both <c; a, b> are 0.
_SL2_SABININ_SHA256 = "3d1ea75c6311a24ef46c8e0e6364a904d7f19b0d784c9ea708fdf1df4e722447"
_SL2_SABININ_CHECKED = (
    [9, 81, 27, 27, 243, 243, 81, 27] + [81] * 5 + [243] * 23 + [81, 243] + [81] * 3 + [243] * 11
)


@pytest.mark.parametrize("cls, evals", [("lie", 29439), ("malcev", 30708)])
def test_printed_sabinin_reports_skip_zero_tables(capsys, monkeypatch, cls, evals):
    """sabinin --class lie|malcev --cutoff 3 on twisted sl2, where every Phi
    table and the brackets of |x| >= 1 are zero: the JSON report is pinned
    byte for byte with each axiom's tuple count, and no operation with no
    entries is evaluated. `evals` is the number of MultilinearOp.eval calls
    the run makes when it evaluates the zero tables too; it must fall."""
    import hashlib

    from homforge.fdalg import MultilinearOp

    calls = []
    original = MultilinearOp.eval
    monkeypatch.setattr(
        MultilinearOp, "eval", lambda self, args: calls.append(self) or original(self, args)
    )
    code, out, _ = run(capsys, "sabinin", "--algebra", "sl2", "--twist", "bundled",
                       "--class", cls, "--cutoff", "3", "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _SL2_SABININ_SHA256
    assert [a["checked"] for a in json.loads(out)["axioms"]] == _SL2_SABININ_CHECKED
    assert 0 < len(calls) < evals
    assert not any(op.is_zero() for op in calls)


def test_powerassoc_cli(capsys):
    argv = ["powerassoc", "--algebra", "k3prod", "--twist", "bundled", "--max", "5"]
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["condition1"] and doc["condition2"]
    assert "seed" not in doc and "samples" not in doc
    # the check is exact, so it has no sampling options
    for option in ("--samples", "--seed"):
        code, out, err = run(capsys, *argv, option, "5")
        assert code == 2 and not out and option in err


@pytest.mark.parametrize("first", [
    ["check", "--algebra", "sl2", "--identity", "lie", "--jobs", "0"],
    ["--help"],
    ["check", "--algebra", "sl2", "--twist", "bundled", "--identity", "hom_lie", "--json"],
], ids=["usage-error", "help", "valid"])
def test_main_reuses_one_parser(capsys, first):
    """main builds its parser once per process. After a call that failed to
    parse, printed help or ran with other options, a call gives the exit
    code and report of a call on a freshly built parser."""
    argv = ["check", "--algebra", "sl2", "--identity", "lie", "--json"]
    _parser.cache_clear()
    fresh = run(capsys, *argv)
    assert fresh[0] == 0 and json.loads(fresh[1])["status"] == "pass"
    _parser.cache_clear()
    run(capsys, *first)
    assert run(capsys, *argv) == fresh


def test_usage_errors(capsys):
    assert run(capsys, "coproduct", "--expr", "((x*y)")[0] == 2
    assert run(capsys, "check", "--algebra", "nope_algebra", "--identity", "lie")[0] == 2
    assert run(capsys, "antipode", "--word", "(x*y)-(y*x)")[0] == 2


@pytest.mark.parametrize(
    "position, value",
    [(2, 5), (0, 7), (3, 0.1)],
    ids=["output-index", "input-index", "float-coefficient"],
)
def test_check_rejects_malformed_algebra(capsys, tmp_path, position, value):
    """An out-of-range index or a float coefficient is a usage error."""
    import homforge.fdalg as fdalg

    data = fdalg.builtin_algebra("sl2").to_json()
    data["ops"][0]["entries"][0][position] = value
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "check", "--algebra", str(path), "--identity", "lie")
    assert code == 2 and not out
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "field, value",
    [("coeff", 0.1), ("exp", 1.7)],
    ids=["float-coefficient", "float-exponent"],
)
def test_check_rejects_malformed_identity_file(capsys, tmp_path, field, value):
    """A float coefficient or exponent in an identity file is a usage error."""
    from homforge.homify import catalog, identity_system_to_json

    data = identity_system_to_json(catalog("lie"))
    term = data["identities"][0]["terms"][0]
    if field == "coeff":
        term["coeff"] = value
    else:
        term["tree"][1]["exp"] = value
    path = tmp_path / "lie.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "check", "--algebra", "sl2", "--identity", str(path))
    assert code == 2 and not out
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "tree, named",
    [
        (["mu", {"var": "x"}, {"var": "y"}, {"var": "z"}], "'mu' has arity 2, got 3 arguments"),
        (["br", {"var": "x"}, {"var": "y"}], "unknown operation symbol 'br'"),
    ],
    ids=["wrong-arity", "unknown-op"],
)
def test_identity_trees_must_match_their_signature(capsys, tmp_path, tree, named):
    """An identity file whose tree uses an op with the wrong arity, or one
    its signature does not declare, is a usage error."""
    data = {
        "signature": {"ops": [{"name": "mu", "arity": 2}]},
        "terms": [{"coeff": "1", "tree": tree}],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "homify", "--identity", str(path))
    assert code == 2 and not out
    assert err.startswith(f"error: --identity {path}: ") and err.count("\n") == 1
    assert named in err


@pytest.mark.parametrize(
    "argv, named",
    [
        (["check", "--algebra", "sl2", "--identity", "lie", "--jobs", "0"], "--jobs"),
        (["check", "--algebra", "sl2", "--identity", "lie", "--jobs", "-3"], "--jobs"),
        (["sabinin", "--algebra", "sl2", "--cutoff", "-1"], "--cutoff"),
        (["envelope", "--algebra", "sl2", "--degree", "0"], "--degree"),
        (["powerassoc", "--algebra", "k3prod", "--max", "1"], "--max"),
        (["qalpha", "--n", "-1", "--m", "1", "--algebra", "sl2", "--args", ";x;h"], "--n"),
        (["qalpha", "--n", "1", "--m", "-1", "--algebra", "sl2", "--args", "h;;h"], "--m"),
        (["qalpha", "--n", "1", "--m", "1", "--algebra", "sl2", "--args", "h;w;h"], "'w'"),
        (["antipode", "--word", "(a*b)*c", "--degree", "0"], "--degree"),
        (["antipode", "--word", "(a*b)*c", "--exp-bound", "-1"], "--exp-bound"),
    ],
    ids=[
        "jobs-0", "jobs-negative", "cutoff-negative", "degree-0", "max-1",
        "n-negative", "m-negative", "unknown-basis-letter", "antipode-degree-0",
        "exp-bound-negative",
    ],
)
def test_integer_options_and_basis_letters_are_checked(capsys, argv, named):
    """Out-of-range counts and unknown basis letters are usage errors that
    name the option or the letter."""
    code, out, err = run(capsys, *argv)
    assert code == 2 and not out
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and named in errors[0]


def test_power_check_rejects_max_power_below_two():
    import homforge.fdalg as fdalg

    with pytest.raises(fdalg.FdalgError):
        fdalg.check_power_associative(fdalg.builtin_algebra("k3prod"), max_power=1)


def test_check_witness_wire_format(capsys):
    """Witness defects are dense coordinate lists in the JSON report."""
    code, out, _ = run(
        capsys, "check", "--algebra", "sl2", "--identity", "associative", "--json"
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["checked"] == 10 and len(doc["witnesses"]) == 5
    first = doc["witnesses"][0]
    assert first["assignment"] == {"x": "h", "y": "h", "z": "x"}
    assert first["defect"] == ["0", "-4", "0"]


def test_qalpha_numeric_wire_format(capsys):
    argv = ["qalpha", "--n", "2", "--m", "1", "--algebra", "sl2", "--twist", "bundled",
            "--args", "h,x;y;h"]
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0 and json.loads(out)["value"] == ["4", "0", "0"]
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out.splitlines()[0] == "q = 4*h"


def test_twist_witness_message(capsys, tmp_path):
    path = tmp_path / "twist.json"
    path.write_text(json.dumps([[1, 0, 0], [0, 2, 0], [0, 0, 1]]))
    code, out, err = run(
        capsys, "check", "--algebra", "sl2", "--twist", str(path), "--identity", "hom_lie"
    )
    assert code == 2 and not out
    assert err == "error: beta is not a morphism; witness mu at ('x', 'y'): defect ['-1', '0', '0']\n"


@pytest.mark.parametrize(
    "content, named",
    [
        ("[[1,0,0],[0,0.1,0],[0,0,10]]", '"p/q"'),
        ("", "Expecting value"),
        ('{"mat": []}', '"matrix"'),
        (None, "No such file"),
    ],
    ids=["float-entry", "empty-file", "no-matrix-key", "missing-file"],
)
def test_twist_file_is_read_strictly(capsys, tmp_path, content, named):
    """A bad --twist file is a usage error naming the file and the fault."""
    path = tmp_path / "twist.json"
    if content is not None:
        path.write_text(content)
    code, out, err = run(
        capsys, "check", "--algebra", "sl2", "--twist", str(path), "--identity", "hom_lie"
    )
    assert code == 2 and not out
    assert err.startswith(f"error: --twist {path}: ") and err.count("\n") == 1
    assert named in err


def _readme_commands():
    import shlex
    from pathlib import Path

    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```", 2)[1]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("homforge ")]


def test_readme_commands_run(capsys):
    """Every command in the README's command-line block exits 0."""
    commands = _readme_commands()
    assert len(commands) == 11
    for argv in commands:
        code, _, err = run(capsys, *argv)
        assert code == 0, (argv, err)


def test_zero_denominator_is_a_parse_error(capsys):
    for expr in ("1/0*x", "(x*y) + 3/00*z"):
        code, out, err = run(capsys, "coproduct", "--expr", expr)
        assert code == 2 and not out
        assert err.startswith("error: ") and err.count("\n") == 1 and "zero denominator" in err


def _sl2_without(key):
    import homforge.fdalg as fdalg

    data = fdalg.builtin_algebra("sl2").to_json()
    if key == "arity":
        del data["ops"][0]["arity"]
    else:
        del data[key]
    return json.dumps(data)


def _lie_without(key):
    from homforge.homify import catalog, identity_system_to_json

    data = identity_system_to_json(catalog("lie"))
    if key == "signature":
        return "{}"
    del data["identities"][0]["terms"][0][key]
    return json.dumps(data)


@pytest.mark.parametrize(
    "option, content, named",
    [
        ("--algebra", _sl2_without("dim"), "missing 'dim' key"),
        ("--algebra", _sl2_without("alpha"), "missing 'alpha' key"),
        ("--algebra", _sl2_without("arity"), "missing 'arity' key"),
        ("--algebra", "{not json", "--algebra FILE: Expecting property name"),
        ("--identity", _lie_without("signature"), "missing 'signature' key"),
        ("--identity", _lie_without("coeff"), "missing 'coeff' key"),
        ("--identity", "", "--identity FILE: Expecting value"),
    ],
    ids=[
        "algebra-no-dim", "algebra-no-alpha", "algebra-op-no-arity", "algebra-bad-json",
        "identity-empty-object", "identity-term-no-coeff", "identity-empty-file",
    ],
)
def test_missing_keys_and_bad_json_are_named(capsys, tmp_path, option, content, named):
    """A malformed algebra or identity file is a usage error that names the
    missing key, or the option and the file when it is not JSON."""
    path = tmp_path / "input.json"
    path.write_text(content)
    argv = {"--algebra": "sl2", "--identity": "lie"}
    argv[option] = str(path)
    code, out, err = run(capsys, "check", *(x for kv in argv.items() for x in kv))
    assert code == 2 and not out
    assert err.startswith("error: ") and err.count("\n") == 1
    assert named.replace("FILE", str(path)) in err


def _sl2_with(key, value):
    import homforge.fdalg as fdalg

    data = fdalg.builtin_algebra("sl2").to_json()
    if key == "entries":
        data["ops"][0]["entries"] = value
    elif key == "alpha row":
        data["alpha"][1] = value
    elif key == "extra op":
        data["ops"].append(value)
    else:
        data[key] = value
    return json.dumps(data)


@pytest.mark.parametrize(
    "key, value, named",
    [
        ("ops", 3, "'ops'"),
        ("entries", 5, "'entries'"),
        ("alpha", 5, "'alpha'"),
        ("alpha row", 5, "'alpha'"),
        ("unit", 7, "'unit'"),
        ("basis", "hxy", "'basis'"),
        ("basis", ["h", "h", "y"], "'basis'"),
        ("extra op", {"name": "mu", "arity": 2, "entries": []}, "'mu' twice"),
        ("extra op", {"name": ["mu"], "arity": 2, "entries": []}, "'name' is not a string"),
        ("name", ["sl2"], "'name' is not a string"),
        ("class", 5, "'class' is not a string"),
        # checked before any op entry, which would otherwise be blamed
        ("dim", 2, "'dim' is 2 but 'basis' has 3 letters"),
        ("dim", 4, "'dim' is 4 but 'basis' has 3 letters"),
    ],
    ids=["ops-int", "entries-int", "alpha-int", "alpha-row-int", "unit-int",
         "basis-string", "basis-repeated", "ops-repeated", "op-name-list",
         "name-list", "class-int", "dim-below-basis", "dim-above-basis"],
)
def test_algebra_json_shapes_are_checked(capsys, tmp_path, key, value, named):
    """An algebra file whose lists are not lists, whose names are not
    strings, whose basis is not a list of distinct strings, whose dim is not
    the basis size, or whose ops repeat a name, is a usage error naming the
    file and the key."""
    path = tmp_path / "algebra.json"
    path.write_text(_sl2_with(key, value))
    code, out, err = run(capsys, "check", "--algebra", str(path), "--identity", "lie")
    assert code == 2 and not out
    assert err.startswith(f"error: --algebra {path}: ") and err.count("\n") == 1
    assert named in err


def _lie_with(path, value):
    """The JSON of the lie system with the value at path (keys and indices)
    replaced."""
    from homforge.homify import catalog, identity_system_to_json

    data = identity_system_to_json(catalog("lie"))
    *parents, last = path
    target = data
    for key in parents:
        target = target[key]
    target[last] = value
    return json.dumps(data)


_FIRST_TERM = ("identities", 0, "terms", 0)


@pytest.mark.parametrize(
    "path, value, named",
    [
        (("identities",), 5, "'identities' is not a list"),
        (("signature",), {"ops": 5}, "'ops' is not a list"),
        (("signature", "ops", 0, "arity"), "2", "'arity' is not an integer"),
        (("signature", "ops", 0, "arity"), True, "'arity' is not an integer"),
        (("signature", "ops", 0, "name"), 5, "'name' is not a string"),
        (("signature", "unitary"), "no", "'unitary' is not a boolean"),
        (("hom_form",), "no", "'hom_form' is not a boolean"),
        (("identities", 0, "terms"), 5, "'terms' is not a list"),
        ((*_FIRST_TERM, "tree", 1), {"var": 5}, "'var' is not a string"),
        ((*_FIRST_TERM, "tree", 0), 5, "op symbol is not a string"),
    ],
    ids=["identities-int", "ops-int", "arity-string", "arity-bool", "op-name-int",
         "unitary-string", "hom-form-string", "terms-int", "var-int", "op-symbol-int"],
)
def test_identity_json_types_are_checked(capsys, tmp_path, path, value, named):
    """An identity file whose lists are not lists, whose arities are not
    integers, whose names are not strings or whose flags are not booleans is
    a usage error naming the file and the key, not a traceback or a silent
    coercion."""
    ident_file = tmp_path / "identity.json"
    ident_file.write_text(_lie_with(path, value))
    code, out, err = run(capsys, "check", "--algebra", "sl2", "--identity", str(ident_file))
    assert code == 2 and not out
    assert err.startswith(f"error: --identity {ident_file}: ") and err.count("\n") == 1
    assert named in err


def test_witness_messages_print_rationals(capsys):
    code, out, err = run(
        capsys, "sabinin", "--algebra", "octonions", "--class", "malcev", "--cutoff", "1"
    )
    assert code == 2 and not out
    assert "Fraction(" not in err
    assert err.startswith("error: algebra does not satisfy the hom_malcev identities; "
                          "witness hom_malcev[0] at ")
    assert err.endswith(": defect ['2', '0', '0', '0', '0', '0', '0', '0']\n")


def test_domain_errors_exit_two_with_plain_messages(capsys):
    code, out, err = run(capsys, "check", "--algebra", "sl2", "--identity", "no_such")
    assert code == 2 and not out
    assert err.startswith("error: unknown identity system 'no_such'")  # not quoted
    for argv, named in (
        (["coproduct", "--expr", "T(a,b,c)"], "binary products only"),
        (["antipode", "--word", "T(a,b,c)"], "binary products only"),
        # the quotient has only the product mu: a br word is refused, not refuted
        (["antipode", "--word", "br(a,b)"], "only the product 'mu', not 'br'"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and not out
        assert err.startswith("error: ") and named in err and err.count("\n") == 1
    # the coproduct is defined for any binary product
    assert run(capsys, "coproduct", "--expr", "br(a,b)")[0] == 0
    assert run(capsys, "primitive", "--expr", "br(a,b)-br(b,a)")[0] == 0


def test_internal_errors_are_not_usage_errors(capsys, monkeypatch):
    """Only the domain errors become exit 2; a KeyError or ValueError raised
    by a bug inside a command propagates."""
    import homforge.cli as cli

    for exc in (KeyError("boom"), ValueError("boom")):
        def broken(p, exc=exc):
            raise exc

        monkeypatch.setattr(cli, "delta_poly", broken)
        with pytest.raises(type(exc)):
            cli.main(["coproduct", "--expr", "(x*y)"])


_UNITARY = {  # u is the unit; mu(u, x) = mu(x, u) = alpha(x), alpha swaps u and g
    "dim": 2, "basis": ["u", "g"], "unit": ["1", "0"],
    "alpha": [["0", "1"], ["1", "0"]],
    "ops": [{"name": "mu", "arity": 2,
             "entries": [[0, 0, 1, "1"], [0, 1, 0, "1"], [1, 0, 0, "1"], [1, 1, 1, "1"]]}],
}
_UNIT = {"unit": True}


def test_nodes_over_the_unit_are_evaluated(capsys, tmp_path):
    """A node whose children are all units has no variable: its value is
    computed once, and every witness carries the value the recursive oracle
    gives."""
    from oracles import eval_poly

    from homforge.expr import poly_from_json
    from homforge.fdalg import AlgebraSpec

    uu = ["mu", _UNIT, _UNIT]
    terms = [
        {"coeff": "1", "tree": ["mu", uu, {"var": "x"}]},
        {"coeff": "-3", "tree": ["mu", {"var": "x"}, ["mu", _UNIT, uu]]},
    ]
    algebra, identity = tmp_path / "unitary.json", tmp_path / "ident.json"
    algebra.write_text(json.dumps(_UNITARY))
    identity.write_text(json.dumps({
        "name": "units", "signature": {"ops": [{"name": "mu", "arity": 2}], "unitary": True},
        "terms": terms,
    }))
    code, out, _ = run(capsys, "check", "--algebra", str(algebra),
                       "--identity", str(identity), "--json")
    spec, poly = AlgebraSpec.from_json(_UNITARY), poly_from_json(terms)
    want = []
    for i, name in enumerate(spec.basis):
        value = eval_poly(spec, poly, {"x": spec.basis_vector(i)})
        want.append({"x": name, "defect": [str(value.get(k, 0)) for k in range(spec.dim)]})
    assert all(w["defect"] != ["0", "0"] for w in want)
    report = json.loads(out)
    assert code == 1 and report["checked"] == 2
    assert [{"x": w["assignment"]["x"], "defect": w["defect"]}
            for w in report["witnesses"]] == want


def _tree_ops(tree):
    """(name, arity) of every node of a JSON tree."""
    if not isinstance(tree, list):
        return set()
    return {(tree[0], len(tree) - 1)}.union(*(_tree_ops(t) for t in tree[1:]))


_X, _Y, _Z = ({"var": v} for v in "xyz")


@pytest.mark.parametrize(
    "algebra, tree, named",
    [
        ("sl2", ["nu", _X, _Y], "algebra has no operation 'nu'"),
        ("sl2", ["mu", _UNIT, _Y], "monomial uses the unit but the algebra has none"),
        ("zero", ["zero", ["nu", _X, _Y], _Z], "algebra has no operation 'nu'"),
        ("zero", ["zero", ["mu", _X, _Y, _Z], _X], "'mu' has arity 2, got 3"),
        ("zero", ["zero", ["mu", _UNIT, _Y], _Z],
         "monomial uses the unit but the algebra has none"),
    ],
    ids=["missing-op", "unit-without-unit", "missing-op-below-zero-table",
         "wrong-arity-below-zero-table", "unit-below-zero-table"],
)
def test_identities_the_algebra_cannot_evaluate(capsys, tmp_path, algebra, tree, named):
    """An identity whose op the algebra lacks, or has with another arity,
    or that uses a unit the algebra does not have, is a usage error, also
    below an operation with no entries ("zero", added to sl2), where the
    identity is zero on every tuple. An unbound variable cannot reach check,
    whose variables are the identity's leaves; test_fdalg covers it."""
    if algebra == "zero":
        from homforge.fdalg import builtin_algebra

        data = builtin_algebra("sl2").to_json()
        data["ops"].append({"name": "zero", "arity": 2, "entries": []})
        algebra = tmp_path / "zero.json"
        algebra.write_text(json.dumps(data))
    ops = [{"name": n, "arity": a} for n, a in sorted(_tree_ops(tree))]
    data = {
        "signature": {"ops": ops, "unitary": True},
        "terms": [{"coeff": "1", "tree": tree}],
    }
    path = tmp_path / "ident.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "check", "--algebra", str(algebra), "--identity", str(path))
    assert code == 2 and not out
    assert err == f"error: {named}\n"


@pytest.mark.parametrize(
    "argv, code",
    [(["--identity", "lie", "--json"], 0), (["--identity", "lie"], 0),
     (["--identity", "associative", "--json"], 1)],
    ids=["pass-json", "pass-text", "fail-json"],
)
def test_closed_stdout_keeps_the_verdict(argv, code):
    """A reader that closes the pipe early (`| true`) changes neither the
    exit code nor stderr."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "homforge.cli", "check", "--algebra", "sl2", *argv],
            stdout=write, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(write)
    assert proc.returncode == code and proc.stderr == b""
