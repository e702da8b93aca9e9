"""Every stage of ``scripts/layer_times.py`` runs in this tree.

The script times the library's layers by name, in workers started only when
it is run by hand, so a renamed or deleted name would otherwise fail there
alone.  It is loaded by path, as ``tests/test_bench_tracer.py`` loads the
tracer, and each stage of its independence, desk, probes and fresh shapes
is called once.  The wide shape is left out: it builds the same stages on
a 256 x 256 grid.
"""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "layer_times.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("layer_times", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


layer_times = _load_script()


@pytest.mark.parametrize("shape", ["independence", "desk", "probes", "fresh"])
def test_every_stage_of_the_shape_runs(shape):
    calls = layer_times.SHAPES[shape]()
    assert calls
    for call in calls.values():
        call()


def test_the_solve_stages_are_the_steps_layers():
    stages = layer_times.SHAPES["desk"]()
    assert list(stages) == [
        "eval_psi", "jacobian_rows", "apply_rows", "augmented_qr",
        "householder_r", "solve_upper", "gauss_newton_step", "solve", "lipschitz_constants",
        "independence_svd", "independence_qr_svd", "cli_main"]
    assert layer_times.SHAPES["wide"].args == (layer_times.WIDE,)
