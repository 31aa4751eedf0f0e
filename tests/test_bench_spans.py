"""The benchmark's span tracer wraps names that the package still defines."""

import importlib
import importlib.util
import pathlib

import pytest

SPANS_PATH = pathlib.Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = _load_spans()


@pytest.mark.parametrize("module_name, attr", [(m, a) for m, a, _ in SPANS.LAYERS])
def test_every_wrapped_layer_resolves(module_name, attr):
    module = importlib.import_module(f"entrobound.{module_name}")
    assert callable(getattr(module, attr, None)), f"entrobound.{module_name}.{attr}"


def test_wrapped_table_constructor_resolves():
    module_name, class_name = SPANS.TABLE_INIT.split(".")
    cls = getattr(importlib.import_module(f"entrobound.{module_name}"), class_name)
    assert "__init__" in vars(cls)
