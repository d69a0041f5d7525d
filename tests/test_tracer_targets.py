"""The benchmark tracer wraps program functions by name; every name it lists
must still resolve, or a refactor would silently zero a layer metric."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


@pytest.mark.parametrize(
    "name, target", sorted({**tracer.SPAN_TARGETS, **tracer.COUNT_TARGETS}.items())
)
def test_tracer_target_resolves(name, target):
    module_name, path = target
    assert module_name == "rrdlab" or module_name.startswith("rrdlab.")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    # the tracer reads the attribute from the owner's own namespace
    raw = vars(owner).get(attr)
    assert callable(raw) or isinstance(raw, classmethod), f"{name}: {path} is missing"
