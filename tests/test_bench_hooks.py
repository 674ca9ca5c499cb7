"""The benchmark tracer's hooks must resolve.

``bench/tracing.py`` wraps each ``(module, attribute)`` of its ``HOOKS`` in
place; a hook whose attribute is gone is reported as untraced and its layer
metric silently disappears.  This checks every hook without running the
benchmark.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def hooks():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(module_name, attribute) for module_name, attribute, *_ in module.HOOKS]


@pytest.mark.parametrize("module_name, attribute", hooks())
def test_hook_resolves(module_name, attribute):
    assert callable(getattr(importlib.import_module(module_name), attribute, None))
