"""Every name the benchmark's tracer wraps exists.

``bench/tracer.py`` patches functions and methods by name only under
``bench/run.py --trace 1``, so a renamed or moved name would otherwise fail
there alone.  The tracer is loaded by path and only read, as
``scripts/output_set.py`` loads ``bench/workloads.py``.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    writes, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:  # no __pycache__ under bench/
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = writes
    return module


tracer = _load_tracer()


@pytest.mark.parametrize("span", sorted(tracer.FUNCTIONS))
def test_every_traced_function_resolves_to_a_callable(span):
    module, attr = tracer.FUNCTIONS[span]
    assert callable(getattr(importlib.import_module(module), attr, None))


@pytest.mark.parametrize("span", sorted(tracer.METHODS))
def test_every_traced_method_is_defined_on_its_class(span):
    module, cls_name, methods = tracer.METHODS[span]
    cls = getattr(importlib.import_module(module), cls_name)
    for method in methods:
        assert method in cls.__dict__, f"{cls_name}.{method}"
