"""The benchmark's trace hooks still resolve against the library.

``perfbench/spans.py`` wraps library functions, methods and cached
properties by name. A traced run would fail, or time the wrong thing, if
one of those names moved or changed kind, so each target is checked here.
"""

import importlib
import importlib.util
import inspect
from functools import cached_property
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


TARGETS = load_targets()


@pytest.mark.parametrize("module_name,attr,span", TARGETS, ids=[t[1] for t in TARGETS])
def test_trace_target_resolves(module_name, attr, span):
    module = importlib.import_module(module_name)
    if "." in attr:
        cls_name, member = attr.split(".")
        # the tracer reads the class __dict__: an inherited or plain
        # property member would not be wrapped as a cached property or method
        raw = vars(getattr(module, cls_name)).get(member)
        assert isinstance(raw, cached_property) or inspect.isfunction(raw), attr
    else:
        assert inspect.isfunction(getattr(module, attr, None)), attr
