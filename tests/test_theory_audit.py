"""``scripts/theory_audit.py`` on a tiny output set.

The set is written by ``scripts/output_set.py``'s ``write_set`` through
``gncoder.cli.main``; the test of an older set adds ``radius_satisfied``
to a copy of its metas by hand.  Both scripts are loaded by path, as
``tests/test_output_drift.py`` loads them.
"""

import importlib.util
import json
import shutil
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

#: (label, command, config, seeds): two solve groups and a cone; default
#: solve seeds 1, 4, 5 and 7 converge with Θ_0 >= 1/2 and < 1/2, and stop
#: rank deficient after one step and after two
TINY_GROUPS = [
    ("solve", "solve", None, [1, 4, 5, 7]),
    ("gauss-solve", "solve", {"points_per_axis": 16, "operator": "gauss:0.1"},
     [0, 1]),
    ("cone", "cone", None, [0]),
]


def _load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


output_set = _load_script("output_set")
theory_audit = _load_script("theory_audit")


@pytest.fixture(scope="module")
def tiny_set(tmp_path_factory):
    out = tmp_path_factory.mktemp("set")
    output_set.write_set(out, TINY_GROUPS)
    return out


def solve_metas(out):
    return sorted(out.rglob("solve_*.meta.json"))


def write_trace(path, step_norms):
    rows = ["iter,residual,step_norm,param_error,rank,status"]
    rows += [f"{k},1.0,{s!r},,6," for k, s in enumerate(step_norms)]
    rows.append(f"{len(step_norms)},1.0,,,,max_iters")
    path.write_text("\n".join(rows) + "\n")
    return path


@pytest.mark.parametrize("step_norms, column", [
    ([2.0, 0.5], "Θ0 < 1/2"),
    ([2.0, 0.9999999], "Θ0 < 1/2"),
    ([2.0, 1.0], "Θ0 ≥ 1/2"),
    ([2.0, 3.0, 1e-3], "Θ0 ≥ 1/2"),
    ([0.3], "no 2nd step"),
    ([], "no 2nd step"),
])
def test_the_first_contraction_picks_its_bucket(tmp_path, step_norms, column):
    trace = write_trace(tmp_path / "t.trace.csv", step_norms)
    theta = theory_audit.first_contraction(trace)
    assert theory_audit.theta_column(theta) == column
    if len(step_norms) > 1:
        assert theta == step_norms[1] / step_norms[0]


def test_each_solve_run_counts_once_per_indicator(tiny_set):
    counts = theory_audit.audit(tiny_set)
    groups = {group for group, _, _ in counts}
    assert groups == {"solve", "gauss-solve"}  # the cone is not a solve
    expected = {}
    for meta_path in solve_metas(tiny_set):
        meta = json.loads(meta_path.read_text())
        contractions = meta["step_contractions"]
        column = theory_audit.theta_column(
            contractions[0] if contractions else None)
        converged = meta["status"] in theory_audit.CONVERGED
        key = meta_path.parent.name, column, converged
        expected[key] = expected.get(key, 0) + 1
    theta_counts = {key: n for key, n in counts.items()
                    if key[1] in theory_audit.THETA_COLUMNS}
    assert theta_counts == expected
    assert {key[1:] for key in expected} >= {
        ("Θ0 < 1/2", True), ("Θ0 ≥ 1/2", True), ("Θ0 ≥ 1/2", False),
        ("no 2nd step", False)}
    radius_counts = {key: n for key, n in counts.items()
                     if key[1] in theory_audit.RADIUS_COLUMNS}
    assert {column for _, column, _ in radius_counts} == {"rs absent"}
    assert sum(radius_counts.values()) == sum(theta_counts.values()) == 6


def test_a_set_with_radius_satisfied_reads_it(tiny_set, tmp_path):
    older = tmp_path / "older"
    shutil.copytree(tiny_set, older)
    values = [True, False, None, True, True, False]
    for meta_path, value in zip(solve_metas(older), values):
        meta = json.loads(meta_path.read_text())
        meta["radius_satisfied"] = value
        meta_path.write_text(json.dumps(meta))
    counts = theory_audit.audit(older)
    radius = {}
    for (_, column, _), n in counts.items():
        if column in theory_audit.RADIUS_COLUMNS:
            radius[column] = radius.get(column, 0) + n
    assert radius == {"rs true": 3, "rs false": 2, "rs null": 1}
    theta = {key: n for key, n in counts.items()
             if key[1] in theory_audit.THETA_COLUMNS}
    assert theta == {key: n for key, n in theory_audit.audit(tiny_set).items()
                     if key[1] in theory_audit.THETA_COLUMNS}


def test_the_table_has_a_row_per_group_and_a_total(tiny_set, capsys):
    assert theory_audit.main([str(tiny_set)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == [
        "group", "gauss-solve", "solve", "total"]
    assert lines[-1].split()[1:3] == ["6", "0/0"]
    assert lines[-1].split()[5] == "{}/{}".format(*(
        sum(1 for m in solve_metas(tiny_set)
            if (json.loads(m.read_text())["status"]
                in theory_audit.CONVERGED) == ok)
        for ok in (True, False)))


def test_bad_usage_and_a_set_without_solves_exit_one(tmp_path, capsys):
    assert theory_audit.main([]) == 1
    assert "Usage" in capsys.readouterr().err
    assert theory_audit.main([str(tmp_path)]) == 1
    assert "no solve runs" in capsys.readouterr().err
