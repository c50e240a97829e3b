"""Every function the benchmark's tracer wraps exists where it looks it up.

``perfbench/child.py`` wraps functions by module and attribute name, so a
renamed or deleted one would crash traced benchmark runs; here it fails
a test instead.
"""
import ast
import importlib
from pathlib import Path

import pytest

CHILD = Path(__file__).resolve().parent.parent / "perfbench" / "child.py"


def _traced() -> tuple:
    for node in ast.parse(CHILD.read_text()).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["TRACED"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"{CHILD} defines no TRACED")


@pytest.mark.parametrize("module, attr, span", _traced(), ids=lambda v: str(v))
def test_traced_function_resolves(module, attr, span):
    assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr}"


@pytest.mark.parametrize("module, attr, span", _traced(), ids=lambda v: str(v))
def test_traced_name_is_the_function_of_its_defining_module(module, attr, span):
    # every traced name is imported from where it is defined, so its span
    # times the real function and not a copy or a wrapper
    fn = getattr(importlib.import_module(module), attr)
    assert fn.__module__ != module, f"{module}.{attr} is defined where it is traced"
    assert getattr(importlib.import_module(fn.__module__), fn.__name__) is fn, f"{module}.{attr}"


def test_traced_state_write_resolves():
    from voxseg.pipeline import PipelineState

    assert callable(PipelineState.persist)
