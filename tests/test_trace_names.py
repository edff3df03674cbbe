"""The benchmark's tracer wraps methods it looks up by name
(``perfbench/tracer.py`` ``METHODS``); a method deleted or renamed in the
package would crash a traced run, so each name must still resolve."""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def traced_methods():
    tree = ast.parse(TRACER.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "METHODS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("METHODS not found in perfbench/tracer.py")


def test_every_traced_method_exists():
    methods = traced_methods()
    assert methods
    for module, cls, meth in methods:
        owner = getattr(importlib.import_module(f"flatcover.{module}"), cls)
        assert meth in vars(owner), f"{module}.{cls}.{meth} is traced but gone"
