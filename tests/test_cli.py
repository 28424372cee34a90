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
