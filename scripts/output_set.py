"""Write the byte-identity output set of ``gncoder.cli.main`` to OUT_DIR.

Usage, from the root of a checkout:

    python3 scripts/output_set.py OUT_DIR

The set is seeds 0-49 of all six subcommands at their defaults, seeds 0-49
of the solve-desk, independence and probes (cone, mysovskii) configs of
``bench/workloads.py``, seeds 0-13 of its solve-wide config, and seeds 0-19
of each ``EXTRA_GROUPS`` config (the 1-D Gaussian operator's solve, cone
and mysovskii, an ``identity`` solve and a gradient-descent solve), plus
the seeds in ``REFUSED_SEEDS``, whose draws exit 2 as rank deficient: 624
runs and 1179 files.  Each run writes into ``OUT_DIR/<label>/``;
``OUT_DIR/runs.tsv`` records every run's label, seed, exit code and
standard error.  A change that keeps every output bit is one with no
difference in

    diff -r OUT_BEFORE OUT_AFTER

and ``scripts/output_drift.py OUT_BEFORE OUT_AFTER`` reports what moved.

``gncoder`` is imported from ``PYTHONPATH`` when it is found there and from
this checkout's ``src/`` otherwise, so another tree's code runs with
``PYTHONPATH=<that tree>/src``.  The benchmark module is only read.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.append(str(ROOT / "src"))

import gncoder.cli as cli  # noqa: E402

COMMANDS = ("solve", "independence", "cone", "mysovskii", "manifold",
            "check-derivatives")
SEEDS = range(50)
WIDE_SEEDS = range(14)
EXTRA_SEEDS = range(20)

#: (label, command, config) groups run at ``EXTRA_SEEDS``: paths that the
#: defaults and the benchmark configs never take
EXTRA_GROUPS = (
    ("gauss1d-solve", "solve", {"operator": "gauss:0.05"}),
    ("gauss1d-cone", "cone", {"operator": "gauss:0.05", "points_per_axis": 64}),
    ("gauss1d-mysovskii", "mysovskii", {"operator": "gauss:0.05"}),
    ("identity-solve", "solve", {"operator": "identity"}),
    ("descent-solve", "solve", {"mode": "gradient_descent"}),
)

#: label -> extra seeds whose draw is refused with exit 2, "derivative at p
#: has rank 5 < 6" (p1 for cone), so the set covers the full-rank gates
REFUSED_SEEDS = {
    "default-cone": (245,),
    "probes-mysovskii": (110, 158, 234, 245, 297, 308, 362, 390, 399),
}


def _bench_workloads():
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module.WORKLOADS


def runs():
    """``(label, command, config, seeds)`` for every group of the set."""
    groups = [(f"default-{command}", command, None, SEEDS)
              for command in COMMANDS]
    for name, workload in _bench_workloads().items():
        seeds = WIDE_SEEDS if name == "solve-wide" else SEEDS
        groups += [(f"{name}-{command}", command, cfg, seeds)
                   for command, cfg in workload.commands]
    groups += [(label, command, cfg, EXTRA_SEEDS)
               for label, command, cfg in EXTRA_GROUPS]
    for label, command, cfg, seeds in groups:
        yield label, command, cfg, [*seeds, *REFUSED_SEEDS.get(label, ())]


def write_set(out: Path, groups) -> int:
    """Run every ``(label, command, config, seeds)`` group into
    ``out/<label>/`` and record each run in ``out/runs.tsv``; the number of
    runs."""
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for label, command, cfg, seeds in groups:
            args = [command]
            if cfg is not None:
                config = Path(tmp) / f"{label}.json"
                config.write_text(json.dumps(cfg, sort_keys=True))
                args += ["--config", str(config)]
            for seed in seeds:
                stderr = io.StringIO()
                with contextlib.redirect_stderr(stderr):
                    code = cli.main(args + ["--seed", str(seed),
                                            "--out", str(out / label)])
                rows.append(f"{label}\t{seed}\t{code}\t{stderr.getvalue()!r}")
            print(f"{label}: {len(seeds)} runs")
    (out / "runs.tsv").write_text("\n".join(rows) + "\n")
    return len(rows)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("\n\n".join(__doc__.split("\n\n")[1:3]), file=sys.stderr)
        return 1
    out = Path(argv[0])
    print(f"gncoder from {Path(cli.__file__).parent}")
    count = write_set(out, runs())
    files = sum(1 for p in out.rglob("*") if p.is_file())
    print(f"{count} runs, {files} files in {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
