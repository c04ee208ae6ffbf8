"""The benchmark tracer (``perfbench/tracer.py``) patches the functions it
lists in ``SPANS`` by name; a refactor that drops or moves one of them
breaks traced benchmark runs, so each name must stay a function of its
``convergence_lab`` module.  The tracer file is read, not imported."""
import ast
import importlib
import inspect
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _spans() -> dict:
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "SPANS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACER} assigns no SPANS")


@pytest.mark.parametrize("module, name", [(m, f) for m, funcs in _spans().items() for f in funcs])
def test_traced_name_is_a_function_of_its_module(module, name):
    mod = importlib.import_module(f"convergence_lab.{module}")
    fn = getattr(mod, name, None)
    assert inspect.isfunction(fn), f"convergence_lab.{module} has no function {name}"
    assert fn.__module__ == mod.__name__
