"""Every name the benchmark's tracer wraps exists, and its hooks read what
the wrapped functions return.

``bench/tracer.py`` patches functions and methods by name only under
``bench/run.py --trace 1``, so a renamed or moved name would otherwise fail
there alone.  The tracer is loaded by path and only read, as
``scripts/output_set.py`` loads ``bench/workloads.py``.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from gncoder.grids import make_grid
from gncoder.pseudoinverse import weighted_qr

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


def test_the_qr_hook_counts_what_weighted_qr_returns():
    traced = tracer.Tracer()
    count_qr = traced.wrap("pseudoinverse.weighted_qr", weighted_qr,
                           traced._count_qr)
    grid = make_grid(1, 16)
    matrix = np.random.default_rng(0).standard_normal((16, 3))
    count_qr(matrix, grid)
    matrix[:, 2] = matrix[:, 0]
    count_qr(matrix, grid, 1e-10)
    assert traced.counts["weighted_qr.full_rank"] == 1
    assert [span[0] for span in traced.spans] == [
        "pseudoinverse.weighted_qr"] * 2
