"""``scripts/output_drift.py`` on two tiny output sets.

Both sets are written by ``scripts/output_set.py``'s ``write_set`` through
``gncoder.cli.main``; each test edits a copy of the second set by hand.
Both scripts are loaded by path, as ``tests/test_layer_times.py`` loads
its script.
"""

import importlib.util
import json
import math
import shutil
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

#: (label, command, config, seeds): a small solve and the default cone
TINY_GROUPS = [
    ("solve", "solve", {"points_per_axis": 16, "constants_samples": 2}, [0]),
    ("cone", "cone", None, [0, 1]),
]


def _load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


output_set = _load_script("output_set")
output_drift = _load_script("output_drift")


@pytest.fixture(scope="module")
def sets(tmp_path_factory):
    root = tmp_path_factory.mktemp("sets")
    for side in ("a", "b"):
        output_set.write_set(root / side, TINY_GROUPS)
    return root / "a", root / "b"


@pytest.fixture
def edited(sets, tmp_path):
    """The first set and a copy of the second one to edit."""
    copy = tmp_path / "b"
    shutil.copytree(sets[1], copy)
    return sets[0], copy


def _only(directory, pattern):
    (path,) = directory.glob(pattern)
    return path


def _rewrite_json(path, edit):
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data, indent=2))


def test_two_runs_of_one_tree_have_zero_drift(sets, capsys):
    report = output_drift.drift_report(*sets)
    assert report.files == report.identical == 7  # 3 runs of 2 files, runs.tsv
    assert output_drift.main([str(d) for d in sets]) == 0
    assert "no value differs" in capsys.readouterr().out


def test_a_one_ulp_nudge_is_named_with_its_path(edited, capsys):
    a, b = edited
    meta = _only(b / "solve", "*.meta.json")
    before = json.loads(meta.read_text())["final_residual"]
    _rewrite_json(meta, lambda d: d.update(
        final_residual=math.nextafter(before, math.inf)))
    report = output_drift.drift_report(a, b)
    path = "solve/solve*.meta.json:final_residual"
    assert list(report.drift) == [path]
    drift = report.drift[path]
    assert drift.moved == 1 and drift.where == f"solve/{meta.name}:final_residual"
    assert 0 < drift.worst <= 2**-52
    assert not (report.flips or report.mismatches or report.structural)
    assert output_drift.main([str(a), str(b)]) == 0
    assert path in capsys.readouterr().out


def test_an_edited_status_is_listed_as_a_flip(edited):
    a, b = edited
    meta = _only(b / "solve", "*.meta.json")
    status = json.loads(meta.read_text())["status"]
    _rewrite_json(meta, lambda d: d.update(status="max_iters"))
    runs = b / "runs.tsv"
    runs.write_text(runs.read_text().replace("cone\t1\t0\t", "cone\t1\t2\t"))
    report = output_drift.drift_report(a, b)
    assert report.flips == [
        "runs.tsv cone seed 1:exit_code: 0 -> 2",
        f"solve/{meta.name}:status: {status!r} -> 'max_iters'",
    ]
    assert not (report.drift or report.mismatches or report.structural)
    assert output_drift.main([str(a), str(b)]) == 1


def test_a_deleted_file_exits_non_zero(edited, capsys):
    a, b = edited
    trace = _only(b / "solve", "*.trace.csv")
    trace.unlink()
    report = output_drift.drift_report(a, b)
    assert report.structural == [f"solve/{trace.name}: missing from B"]
    assert output_drift.main([str(a), str(b)]) == 2
    assert "missing from B" in capsys.readouterr().out
