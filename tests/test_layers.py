"""The benchmark's traced layers name functions that exist in homforge."""

import importlib
import importlib.util
from pathlib import Path

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def test_traced_layers_resolve():
    spec = importlib.util.spec_from_file_location("_layertrace", LAYERTRACE)
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    assert layertrace.LAYERS
    for module, qualname, _ in layertrace.LAYERS:
        obj = importlib.import_module(f"homforge.{module}")
        for part in qualname.split("."):
            assert hasattr(obj, part), f"{module}.{qualname} is gone"
            obj = getattr(obj, part)
        assert callable(obj), f"{module}.{qualname}"
