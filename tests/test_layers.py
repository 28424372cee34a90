"""The benchmark's traced layers name functions that exist in homforge."""

import importlib
import importlib.util
from pathlib import Path

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def _layertrace():
    spec = importlib.util.spec_from_file_location("_layertrace", LAYERTRACE)
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    return layertrace


def test_traced_layers_resolve():
    layertrace = _layertrace()
    assert layertrace.LAYERS
    for module, qualname, _ in layertrace.LAYERS:
        obj = importlib.import_module(f"homforge.{module}")
        for part in qualname.split("."):
            assert hasattr(obj, part), f"{module}.{qualname} is gone"
            obj = getattr(obj, part)
        assert callable(obj), f"{module}.{qualname}"


def test_component_hooks_read_what_a_component_has():
    """The component layer's hooks read the quotient's component cache and a
    built component's monomials (their number), rank and truncated flag."""
    from homforge.hombialg import FreeHomAssocQuotient

    layertrace = _layertrace()
    before, after = layertrace.HOOKS["hombialg.FreeHomAssocQuotient.component"]
    q = FreeHomAssocQuotient(("a", "b", "c", "d"), 4, 1)
    word = (("a", 2), ("b", 3), ("c", 3), ("d", 3))
    layer = layertrace.Layer()
    for hit in (False, True):
        token = before((q, word))
        assert token is hit
        comp = q.component(word)
        after(layer, token, (q, word), comp)
    # three trees, joined in one class by two rotations:
    # A^1(a)*(A^1(b)*(c*d)) = A^1(a)*((b*c)*A^1(d)) = (a*A^1(b))*(A^1(c)*A^1(d));
    # (a*(b*c))*A^2(d) is above the bound, and the left comb would give a
    # the exponent -1
    assert (len(comp.monomials), comp.rank, comp.truncated) == (3, 2, True)
    assert layer.counts == {"built": 1, "monomials": 3, "rank": 2, "truncated": 1, "hits": 1}


def test_envelope_metrics_move_under_the_tracer(capsys):
    """The benchmark's hook contract on two degree-4 envelopes, twisted
    heis3 yiii and twisted sl2 lie: every binding of a traced function is
    wrapped, every metric the layer table says should move on the envelope
    workload is nonzero, and u_hom_relations counts the rows it returns."""
    from homforge import cli
    from homforge.fdalg import builtin_algebra, hom_version, sabinin_from
    from homforge.hombialg import u_hom_relations
    from homforge.qops import yiii_hom

    layertrace = _layertrace()
    with layertrace.Tracer() as tracer:
        assert tracer.unwrapped_bindings() == []
        for algebra, cls in (("heis3", "yiii"), ("sl2", "lie")):
            argv = ["envelope", "--algebra", algebra, "--twist", "bundled", "--class", cls,
                    "--degree", "4", "--json"]
            assert cli.main(argv) == 0
    values = tracer.metrics(1)
    assert [m for m in layertrace.SHOULD_MOVE["envelope"] if not values[m]] == []
    rows = (u_hom_relations(yiii_hom(hom_version(builtin_algebra("heis3")), 2), 4)
            + u_hom_relations(sabinin_from(hom_version(builtin_algebra("sl2")), "lie", 2), 4))
    assert values["hombialg.u_hom_relations.relations"] == len(rows)
