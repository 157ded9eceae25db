"""The benchmark's traced runs wrap functions by name; check every name
resolves, so a rename or deletion fails here instead of in a traced run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

CHILD = Path(__file__).resolve().parent.parent / "perfbench" / "child.py"


def _load_child():
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)  # its top level imports only the stdlib
    return child


TRACED = _load_child().TRACED


@pytest.mark.parametrize("module_name, attr, span", TRACED, ids=[t[2] for t in TRACED])
def test_traced_function_resolves(module_name, attr, span):
    module = importlib.import_module("gammagraphs." + module_name)
    assert callable(getattr(module, attr, None)), f"gammagraphs.{module_name}.{attr} is gone"
