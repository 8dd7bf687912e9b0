"""The benchmark's traced run rebinds drokit functions by name; every name it
lists must still exist, or the traced run breaks."""

import importlib
import importlib.util
from pathlib import Path

import drokit.rng
import drokit.verify

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    spans = load_spans()
    for mod_name, fns in spans.TRACED.items():
        module = importlib.import_module(f"drokit.{mod_name}")
        for fn_name in fns:
            assert callable(getattr(module, fn_name, None)), f"drokit.{mod_name}.{fn_name}"
    assert callable(importlib.import_module("drokit.dp").enumerate_policies)
    ambiguity = importlib.import_module("drokit.ambiguity")
    for cls_name in spans.FAMILIES:
        assert isinstance(getattr(ambiguity, cls_name, None), type), cls_name
    for method in spans.RNG_METHODS:
        assert callable(getattr(drokit.rng.Rng, method, None)), method
    assert drokit.verify.CRITERIA
