"""CLI tests: exit codes, report schema, determinism."""

import json

import pytest

from homforge.cli import main


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
    from homforge.homify import catalog, save_identity_file

    path = tmp_path / "homlie.json"
    save_identity_file(catalog("hom_lie"), str(path))
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


def test_antipode_cli(capsys):
    code, out, _ = run(capsys, "antipode", "--word", "((x*y)*z)")
    assert code == 0
    code, _, _ = run(
        capsys, "antipode", "--word", "((x*y)*z)", "--degree", "3",
        "--exp-bound", "0",
    )
    assert code == 3  # inconclusive within bounds


def test_sabinin_cli(capsys):
    code, out, _ = run(
        capsys, "sabinin", "--algebra", "heis3", "--twist", "bundled",
        "--class", "yiii", "--cutoff", "2",
    )
    assert code == 0
    assert "Hsab3" in out


def test_powerassoc_cli(capsys):
    code, out, _ = run(
        capsys, "powerassoc", "--algebra", "k3prod", "--twist", "bundled",
        "--max", "5", "--samples", "10", "--seed", "7", "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["seed"] == 7 and doc["condition1"] and doc["condition2"]


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
        (["powerassoc", "--algebra", "k3prod", "--samples", "-1"], "--samples"),
        (["qalpha", "--n", "-1", "--m", "1", "--algebra", "sl2", "--args", ";x;h"], "--n"),
        (["qalpha", "--n", "1", "--m", "-1", "--algebra", "sl2", "--args", "h;;h"], "--m"),
        (["qalpha", "--n", "1", "--m", "1", "--algebra", "sl2", "--args", "h;w;h"], "'w'"),
    ],
    ids=[
        "jobs-0", "jobs-negative", "cutoff-negative", "degree-0", "max-1",
        "samples-negative", "n-negative", "m-negative", "unknown-basis-letter",
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
    ],
    ids=["ops-int", "entries-int", "alpha-int", "alpha-row-int", "unit-int",
         "basis-string", "basis-repeated", "ops-repeated", "op-name-list",
         "name-list", "class-int"],
)
def test_algebra_json_shapes_are_checked(capsys, tmp_path, key, value, named):
    """An algebra file whose lists are not lists, whose names are not
    strings, whose basis is not a list of distinct strings, or whose ops
    repeat a name, is a usage error naming the file and the key."""
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
