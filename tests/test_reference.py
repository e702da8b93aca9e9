"""Recorded reference runs that numerical refactors must reproduce.

Each case runs one CLI subcommand with a fixed config and seed and compares
what it writes with the files under ``tests/reference/``.  Strings, integers
and flags (statuses, iteration counts, ranks) must match exactly.  Floats
must agree to ``RTOL`` relative with an ``ATOL`` absolute floor: values near
convergence (residuals around 1e-15, parameter errors around 1e-12) are
rounding noise, and a change of summation order moves them freely.

Rerunning is bitwise reproducible, so this gate only matters for changes
that alter floating-point arithmetic on purpose.  After such a change has
been checked, re-record the files of the cases it moves with

    PYTHONPATH=src python tests/test_reference.py NAME...

which rewrites only the named cases, or every case when none is named.
"""

import csv
import json
import math
import sys
import tempfile
from pathlib import Path

import pytest

from gncoder.cli import main

REFERENCE_DIR = Path(__file__).parent / "reference"

RTOL = 1e-6
ATOL = 1e-9

#: Absolute floors of their own, near rounding level, for fields whose
#: recorded values are themselves rounding-sized: the cone's share of the
#: ``p2`` columns left outside the ``p1`` span reads 9e-17 to 2.1e-16 on
#: ``cone_default``, so ``ATOL`` would pass a cone that lost seven digits.
FIELD_ATOLS = {"decomposition_residual": 1e-13,
               "max_decomposition_residual": 1e-13}

#: Meta keys fitted through noise-level values: ``convergence_order`` is a
#: log-log slope over parameter errors down to 1e-14, so rounding alone
#: moves it in the second digit.
SKIPPED_KEYS = frozenset({"convergence_order"})

_SMALL_CONSTANTS = {"constants_samples": 4}

#: case name -> (subcommand, config, seed)
CASES = {
    "solve_default_seed0": ("solve", {}, 0),
    "solve_default_seed1": ("solve", {}, 1),
    "solve_default_seed5": ("solve", {}, 5),
    "solve_gauss2d": (
        "solve",
        {"dim": 2, "points_per_axis": 16, "operator": "gauss:0.1",
         **_SMALL_CONSTANTS},
        0,
    ),
    "solve_gauss1d": (
        "solve",
        {"points_per_axis": 64, "operator": "gauss:0.05", **_SMALL_CONSTANTS},
        0,
    ),
    "cone_default": ("cone", {}, 0),
    "cone_gauss2d": (
        "cone", {"dim": 2, "points_per_axis": 8, "operator": "gauss:0.1"}, 0,
    ),
    "mysovskii_default": ("mysovskii", {}, 0),
    "mysovskii_gauss1d": (
        "mysovskii",
        {"operator": "gauss:0.05", "probes": 5, **_SMALL_CONSTANTS},
        0,
    ),
    "check_derivatives_default_seed0": ("check-derivatives", {}, 0),
    "independence_default": (
        "independence",
        {"units": 3, "dim": 2, "points_per_axis": 64, "trials": 20},
        0,
    ),
    # 15 nodes for 9 columns: below LAPACK's QR-first crossover
    "independence_short": (
        "independence",
        {"units": 3, "dim": 1, "points_per_axis": 15, "trials": 20},
        0,
    ),
}

#: Output suffixes of each subcommand.
SUFFIXES = {
    "solve": (".meta.json", ".trace.csv"),
    "cone": (".meta.json", ".reports.jsonl"),
    "mysovskii": (".meta.json", ".reports.jsonl"),
    "check-derivatives": (".report.json",),
    "independence": (".meta.json", ".reports.jsonl"),
}


def run_case(name, work_dir):
    """Run one case into ``work_dir``; return ``{suffix: path}``."""
    command, config, seed = CASES[name]
    config_path = work_dir / f"{name}.json"
    config_path.write_text(json.dumps(config))
    out = work_dir / name
    code = main([command, "--config", str(config_path), "--seed", str(seed),
                 "--out", str(out)])
    assert code == 0, f"{name} exited {code}"
    found = {}
    for suffix in SUFFIXES[command]:
        (path,) = out.glob(f"{command}_*_seed{seed}{suffix}")
        found[suffix] = path
    return found


def read_output(path):
    text = path.read_text()
    if path.name.endswith(".json"):
        return json.loads(text)
    if path.name.endswith(".jsonl"):
        return [json.loads(line) for line in text.splitlines()]
    return [[_csv_field(f) for f in row] for row in csv.reader(text.splitlines())]


def _csv_field(text):
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def assert_matches(actual, expected, where, atol=ATOL):
    if isinstance(expected, dict):
        assert isinstance(actual, dict) and actual.keys() == expected.keys(), where
        for key in expected:
            if key not in SKIPPED_KEYS:
                assert_matches(actual[key], expected[key], f"{where}.{key}",
                               FIELD_ATOLS.get(key, atol))
    elif isinstance(expected, list):
        assert isinstance(actual, list) and len(actual) == len(expected), where
        for i, (a, e) in enumerate(zip(actual, expected)):
            assert_matches(a, e, f"{where}[{i}]", atol)
    elif isinstance(expected, float):
        assert isinstance(actual, float), f"{where}: {actual!r} != {expected!r}"
        if math.isnan(expected):
            assert math.isnan(actual), f"{where}: {actual!r} != nan"
        else:
            assert math.isclose(actual, expected, rel_tol=RTOL, abs_tol=atol), (
                f"{where}: {actual!r} != {expected!r}"
            )
    else:
        assert type(actual) is type(expected) and actual == expected, (
            f"{where}: {actual!r} != {expected!r}"
        )


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_match_reference(name, tmp_path):
    for suffix, path in run_case(name, tmp_path).items():
        reference = REFERENCE_DIR / f"{name}{suffix}"
        assert_matches(read_output(path), read_output(reference), reference.name)


def test_tolerance_catches_a_changed_number():
    reference = read_output(REFERENCE_DIR / "solve_default_seed0.trace.csv")
    residual = reference[1][1]
    changed = [list(row) for row in reference]
    changed[1][1] = residual * (1 + 10 * RTOL)
    with pytest.raises(AssertionError):
        assert_matches(changed, reference, "trace")
    changed[1][1] = residual * (1 + 0.1 * RTOL)
    assert_matches(changed, reference, "trace")


def test_the_cone_residual_floor_catches_seven_lost_digits():
    for suffix in (".reports.jsonl", ".meta.json"):
        reference = read_output(REFERENCE_DIR / f"cone_default{suffix}")
        rows = reference if isinstance(reference, list) else [reference]
        key = ("decomposition_residual" if suffix == ".reports.jsonl"
               else "max_decomposition_residual")
        changed = [dict(row) for row in rows]
        for row in changed:
            row[key] = row[key] + 1e-14  # rounding-level drift passes
        assert_matches(changed, rows, "cone")
        # 2.1e-16 -> 8.4e-10: seven digits lost, yet inside ``ATOL``
        changed[0][key] = rows[0][key] * 4e6
        with pytest.raises(AssertionError):
            assert_matches(changed, rows, "cone")


def test_recording_rewrites_only_the_named_cases(tmp_path, monkeypatch):
    monkeypatch.setitem(globals(), "REFERENCE_DIR", tmp_path / "ref")
    record(tmp_path, ["check_derivatives_default_seed0"])
    assert [p.name for p in (tmp_path / "ref").iterdir()] == [
        "check_derivatives_default_seed0.report.json"]
    with pytest.raises(KeyError):
        record(tmp_path, ["no_such_case"])


def record(work_dir, names):
    """Overwrite the reference files of the cases ``names`` with the outputs
    of the current code; an unknown name raises ``KeyError`` before any file
    is written."""
    unknown = [name for name in names if name not in CASES]
    if unknown:
        raise KeyError(f"unknown cases {unknown}; expected some of {list(CASES)}")
    REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names:
        for suffix, path in run_case(name, work_dir).items():
            (REFERENCE_DIR / f"{name}{suffix}").write_bytes(path.read_bytes())


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        record(Path(tmp), sys.argv[1:] or CASES)
