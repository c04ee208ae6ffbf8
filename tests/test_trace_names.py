"""The benchmark tracer (``perfbench/tracer.py``) patches the functions it
lists in ``SPANS`` by name; a refactor that drops or moves one of them
breaks traced benchmark runs, so each name must stay a function of its
``convergence_lab`` module.  Its ``COUNTERS`` read a traced call's
arguments by parameter name, so each name they read must stay a parameter
of the traced function.  The tracer file is read, not imported."""
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


def _counter_keys() -> dict:
    """Each traced name in ``COUNTERS``, with the keys its counter function
    reads from the bound arguments, its first parameter."""
    tree = ast.parse(TRACER.read_text())
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "COUNTERS" for t in node.targets):
            keys = {}
            for name, counter in zip(node.value.keys, node.value.values):
                fn = defs[counter.id]
                args = fn.args.args[0].arg
                keys[ast.literal_eval(name)] = sorted(
                    sub.slice.value
                    for sub in ast.walk(fn)
                    if isinstance(sub, ast.Subscript) and getattr(sub.value, "id", None) == args
                )
            return keys
    raise AssertionError(f"{TRACER} assigns no COUNTERS")


@pytest.mark.parametrize("module, name", [(m, f) for m, funcs in _spans().items() for f in funcs])
def test_traced_name_is_a_function_of_its_module(module, name):
    mod = importlib.import_module(f"convergence_lab.{module}")
    fn = getattr(mod, name, None)
    assert inspect.isfunction(fn), f"convergence_lab.{module} has no function {name}"
    assert fn.__module__ == mod.__name__


@pytest.mark.parametrize("name", sorted(_counter_keys()))
def test_counter_reads_parameters_of_its_traced_function(name):
    read, (module, func) = _counter_keys()[name], name.split(".")
    params = inspect.signature(getattr(importlib.import_module(f"convergence_lab.{module}"), func)).parameters
    assert set(read) <= set(params), f"convergence_lab.{name} has no parameter {sorted(set(read) - set(params))}"


def test_counter_keys_are_found():
    # Guards the reading itself: the transform counter reads both its inputs.
    assert _counter_keys()["spectral.fourier_eval"] == ["grid_size", "mu"]
