"""Report what moved between two output sets of ``scripts/output_set.py``.

Usage, from the root of a checkout:

    python3 scripts/output_drift.py OUT_A OUT_B

Both directories are walked and every file of one is matched with the file
of the same relative path in the other.  JSON, JSONL, CSV and ``runs.tsv``
files are parsed and their values matched by field path; a byte-identical
file is not parsed.  Strings, integers, flags and exit codes must match
exactly.  Floats are compared as ``tests/test_reference.py`` compares them:
the drift of ``a`` against ``b`` is ``|a - b| / max(|a|, |b|, FLOOR)``, a
relative drift with an absolute floor.

The report gives, per field path (the file's group and kind, then the keys
and columns with list indices dropped), the worst drift, the worst
relative drift without the floor, how many values moved, and the file
where the worst one is; then the flips of a status, a
rank or an exit code, each with its file; then every other exact field
that differs.  Exit status: 0 when at most floats moved, 1 when an exact
field differs as well (a list or a file of another length counts as one),
2 when a file is missing from one side or two files differ in structure
(dict keys or a CSV header, a container against a scalar, another run at
one line of ``runs.tsv``, a file that does not parse).
"""

from __future__ import annotations

import csv
import json
import math
import re
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

#: The absolute floor of ``tests/test_reference.py`` (``ATOL``).
FLOOR = 1e-9

#: Field names whose changes are listed as flips rather than as drift.
_FLIP_NAMES = re.compile(r"status|rank|degenerate|exit_code")


@dataclass
class Drift:
    """The drift of one field path: its worst value, where, and how often."""

    worst: float = 0.0
    where: str = ""
    before: float = 0.0
    after: float = 0.0
    moved: int = 0
    #: the worst ``|a - b| / max(|a|, |b|)``, without the floor
    relative: float = 0.0


@dataclass
class Report:
    files: int = 0
    identical: int = 0
    drift: dict = field(default_factory=lambda: defaultdict(Drift))
    flips: list = field(default_factory=list)
    mismatches: list = field(default_factory=list)
    structural: list = field(default_factory=list)

    def float_moved(self, path, where, a, b):
        d = abs(a - b) / max(abs(a), abs(b), FLOOR)
        entry = self.drift[path]
        entry.moved += 1
        entry.relative = max(entry.relative, abs(a - b) / max(abs(a), abs(b)))
        if d > entry.worst or not entry.where:
            entry.worst, entry.where, entry.before, entry.after = d, where, a, b

    def exact_moved(self, path, where, a, b):
        name = re.split(r"[ .:]", path)[-1]
        target = self.flips if _FLIP_NAMES.search(name) else self.mismatches
        target.append(f"{where}: {a!r} -> {b!r}")


def _child(path: str, key) -> str:
    return f"{path}{key}" if path.endswith(":") else f"{path}.{key}"


def compare(a, b, path: str, where: str, report: Report) -> None:
    """Match two parsed values field by field into ``report``."""
    if isinstance(a, dict) or isinstance(b, dict):
        if not (isinstance(a, dict) and isinstance(b, dict)) or a.keys() != b.keys():
            report.structural.append(f"{where.rstrip(':')}: keys or type differ")
            return
        for key in a:
            compare(a[key], b[key], _child(path, key), _child(where, key),
                    report)
    elif isinstance(a, list) or isinstance(b, list):
        if not (isinstance(a, list) and isinstance(b, list)):
            report.structural.append(f"{where}: a list against a scalar")
            return
        if len(a) != len(b):
            report.exact_moved(path, f"{where} length", len(a), len(b))
        for i, (x, y) in enumerate(zip(a, b)):
            compare(x, y, f"{path}[]", f"{where}[{i}]", report)
    elif isinstance(a, float) and isinstance(b, float):
        if a == b or math.isnan(a) and math.isnan(b):
            return
        if math.isfinite(a) and math.isfinite(b):
            report.float_moved(path, where, a, b)
        else:
            report.exact_moved(path, where, a, b)
    elif not (a == b and type(a) is type(b)):
        report.exact_moved(path, where, a, b)


def _csv_field(text: str):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _records(path: Path):
    """``path`` parsed as ``(key, record)`` pairs: one for a JSON file, one
    per line of a JSONL file, one per row of a CSV (a dict by its header)
    or of ``runs.tsv`` (keyed by label and seed)."""
    text = path.read_text()
    if path.suffix == ".json":
        return [("", json.loads(text))]
    if path.suffix == ".jsonl":
        return [(f" line {i + 1}", json.loads(line))
                for i, line in enumerate(text.splitlines())]
    if path.name == "runs.tsv":
        out = []
        for line in text.splitlines():
            label, seed, code, stderr = line.split("\t")
            out.append((f" {label} seed {seed}",
                        {"exit_code": int(code), "stderr": stderr}))
        return out
    if path.suffix == ".csv":
        header, *rows = csv.reader(text.splitlines())
        return [(f" row {i + 1}", dict(zip(header, map(_csv_field, row))))
                for i, row in enumerate(rows)]
    raise ValueError(f"no parser for {path.name}")


def _kind(rel: Path) -> str:
    """The field-path prefix of a file: its group and its kind, the name
    with the config hash and seed replaced by ``*``."""
    return str(rel.parent / re.sub(r"_[0-9a-f]+_seed\d+", "*", rel.name))


def compare_files(a: Path, b: Path, rel: Path, report: Report) -> None:
    try:
        left, right = _records(a), _records(b)
    except (ValueError, json.JSONDecodeError) as err:
        report.structural.append(f"{rel}: {err}")
        return
    if len(left) != len(right):
        report.exact_moved(f"{_kind(rel)} records", f"{rel} records",
                           len(left), len(right))
    for (key, x), (other, y) in zip(left, right):
        if key != other:  # runs.tsv lists other runs
            report.structural.append(f"{rel}:{key} against{other}")
            return
        compare(x, y, f"{_kind(rel)}:", f"{rel}{key}:", report)


def drift_report(dir_a: Path, dir_b: Path) -> Report:
    report = Report()
    names_a = {p.relative_to(dir_a) for p in dir_a.rglob("*") if p.is_file()}
    names_b = {p.relative_to(dir_b) for p in dir_b.rglob("*") if p.is_file()}
    for rel in sorted(names_a ^ names_b):
        side = "B" if rel in names_a else "A"
        report.structural.append(f"{rel}: missing from {side}")
    for rel in sorted(names_a & names_b):
        report.files += 1
        a, b = dir_a / rel, dir_b / rel
        if a.read_bytes() == b.read_bytes():
            report.identical += 1
        else:
            compare_files(a, b, rel, report)
    return report


def render(report: Report) -> str:
    lines = [f"{report.files} files in both sets, {report.identical} "
             f"byte-identical, {report.files - report.identical} differ"]
    if report.drift:
        lines.append(f"\nfloat drift per field path (|a - b| / max(|a|, |b|, "
                     f"{FLOOR:g})), worst first:")
        for path, d in sorted(report.drift.items(), key=lambda kv: -kv[1].worst):
            lines.append(f"  {path:<56} {d.worst:.2e} over {d.moved} values"
                         f" (unfloored {d.relative:.1e})")
            lines.append(f"      worst at {d.where} {d.before!r} -> {d.after!r}")
    for title, items in (("flips of a status, rank or exit code",
                          report.flips),
                         ("other exact fields that differ", report.mismatches),
                         ("structural differences", report.structural)):
        if items:
            lines.append(f"\n{title} ({len(items)}):")
            lines += [f"  {item}" for item in items]
    if not (report.drift or report.flips or report.mismatches
            or report.structural):
        lines.append("no value differs")
    return "\n".join(lines)


def exit_status(report: Report) -> int:
    if report.structural:
        return 2
    return 1 if report.flips or report.mismatches else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("\n\n".join(__doc__.split("\n\n")[1:3]), file=sys.stderr)
        return 2
    dirs = [Path(arg) for arg in argv]
    for d in dirs:
        if not d.is_dir():
            print(f"not a directory: {d}", file=sys.stderr)
            return 2
    report = drift_report(*dirs)
    print(render(report))
    return exit_status(report)


if __name__ == "__main__":
    sys.exit(main())
