"""Tabulate how the solves of an output set end against two convergence
indicators.

Usage, from the root of a checkout:

    python3 scripts/theory_audit.py OUT_DIR

OUT_DIR is a set written by ``scripts/output_set.py``; each directory
holding ``solve`` runs is one group.  A run converged when its status is
``converged_residual`` or ``converged_step`` and failed otherwise.  Per
group and over all groups, the table gives converged/failed counts

- by ``radius_satisfied``, the a-priori test of the convergence constants
  that older ``gncoder solve`` versions sampled around the true
  coefficients: ``true``, ``false``, ``null`` (the constants could not be
  computed), or ``absent`` from the meta;
- by Deuflhard's a-posteriori contraction ``Θ_0 = ‖Δp_1‖/‖Δp_0‖``, the
  ratio of the first two ``step_norm`` entries of the trace: below 1/2,
  at least 1/2, or no second step.

Only the ``.meta.json`` and ``.trace.csv`` files are read and nothing is
recomputed, so sets written before and after ``solve`` stopped sampling
the constants read alike.  Exit status: 0, or 1 on bad usage or a set
without solve runs.
"""

from __future__ import annotations

import csv
import json
import sys
from collections import Counter
from pathlib import Path

CONVERGED = ("converged_residual", "converged_step")

RADIUS_COLUMNS = ("rs true", "rs false", "rs null", "rs absent")
THETA_COLUMNS = ("Θ0 < 1/2", "Θ0 ≥ 1/2", "no 2nd step")
COLUMNS = RADIUS_COLUMNS + THETA_COLUMNS

_RADIUS = {True: "rs true", False: "rs false", None: "rs null"}


def first_contraction(trace: Path) -> float | None:
    """``Θ_0`` of a solve trace, or None when it has fewer than two steps."""
    with open(trace, newline="") as fh:
        norms = [float(row["step_norm"]) for row in csv.DictReader(fh)
                 if row["step_norm"]]
    return norms[1] / norms[0] if len(norms) > 1 else None


def theta_column(theta: float | None) -> str:
    if theta is None:
        return THETA_COLUMNS[2]
    return THETA_COLUMNS[0] if theta < 0.5 else THETA_COLUMNS[1]


def audit(out_dir: Path) -> Counter:
    """``{(group, column, converged): runs}`` over the solve runs of a set;
    each run counts once in a radius column and once in a Θ column."""
    counts = Counter()
    for meta_path in sorted(out_dir.rglob("*.meta.json")):
        meta = json.loads(meta_path.read_text())
        if meta.get("command") != "solve":
            continue
        group = str(meta_path.parent.relative_to(out_dir))
        converged = meta["status"] in CONVERGED
        radius = (_RADIUS[meta["radius_satisfied"]]
                  if "radius_satisfied" in meta else "rs absent")
        trace = meta_path.with_name(
            meta_path.name.removesuffix(".meta.json") + ".trace.csv")
        theta = theta_column(first_contraction(trace))
        for column in (radius, theta):
            counts[group, column, converged] += 1
    return counts


def render(counts: Counter) -> str:
    """One row per group and a total row; each cell is converged/failed."""
    groups = sorted({group for group, _, _ in counts})
    cells = Counter(counts)
    for (_, column, converged), runs in counts.items():
        cells["total", column, converged] += runs
    width = max(len("total"), *map(len, groups))
    lines = []
    for group in ["group", *groups, "total"]:
        if group == "group":
            row = ["runs", *COLUMNS]
        else:
            row = [str(sum(cells[group, c, ok] for c in THETA_COLUMNS
                           for ok in (True, False))),
                   *(f"{cells[group, c, True]}/{cells[group, c, False]}"
                     for c in COLUMNS)]
        lines.append("  ".join([f"{group:<{width}}", f"{row[0]:>5}",
                                *(f"{c:>11}" for c in row[1:])]))
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("\n\n".join(__doc__.split("\n\n")[1:3]), file=sys.stderr)
        return 1
    counts = audit(Path(argv[0]))
    if not counts:
        print(f"no solve runs in {argv[0]}", file=sys.stderr)
        return 1
    print(render(counts))
    return 0


if __name__ == "__main__":
    sys.exit(main())
