"""Run alternating benchmark pairs of two checkouts and compare them.

Usage, from anywhere:

    python3 scripts/bench_pairs.py PARENT_TREE CHANGE_TREE \
        --workload solve-desk --seeds 701-710

Pair ``k`` runs each tree's own ``bench/run.py --workload W --seed S
--seconds 20 --trace 0`` as a subprocess from that tree's root, with the
same seed ``S`` on both sides and the benchmark's fixed 20 s run length.  Even pairs run the parent first, odd pairs
the change first.  The script prints every pair's end-to-end metrics, then
per metric each side's q1/median/q3, the parent's IQR, the median change
and the change's wins (ties count for neither side).  A gain holds when the
change wins at least nine pairs in ten and the median moves by more than
the parent's IQR.

A run whose outputs fail the benchmark's checks keeps its pair: the pair
line is followed by each side's failed-job count and failure notes, and the
script exits 1 after the summary.

Only ``bench/`` of each tree is run; nothing in either tree is written
except what ``bench/run.py`` itself leaves under ``.bench_build/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

#: End-to-end metrics where a larger value is better; the rest are costs.
HIGHER_IS_BETTER = {"jobs_per_s", "ok_frac"}

#: Run length of every benchmark run, the same on both trees.
SECONDS = 20

#: How ``bench/run.py`` begins the line it prints for each failed job.
FAILURE_NOTES = ("job seed ", "traced job seed ")


def seed_range(text: str) -> list:
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def run_bench(tree: Path, workload: str, seed: int) -> tuple:
    """One ``bench/run.py`` run of ``tree``: its metrics as name -> value,
    its failed-job count and its failure notes."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"error: {tree} seed {seed} exited {proc.returncode}\n"
                 f"{proc.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    notes = [line for line in lines[:-1] if line.startswith(FAILURE_NOTES)]
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    return metrics, result["failed"], notes


def quartiles(values) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=seed_range,
                        help="inclusive range A-B, one pair per seed")
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for tree in trees.values():
        if not (tree / "bench" / "run.py").is_file():
            parser.error(f"no bench/run.py under {tree}")

    runs = {"parent": [], "change": []}
    failed_runs = 0
    for k, seed in enumerate(args.seeds):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        failures = {}
        for side in order:
            metrics, failed, notes = run_bench(trees[side], args.workload, seed)
            runs[side].append(metrics)
            failures[side] = (failed, notes)
        cells = "  ".join(
            f"{side} " + " ".join(f"{n}={v:.6g}" for n, v in runs[side][-1].items())
            for side in ("parent", "change"))
        print(f"pair {k + 1} seed {seed} ({order[0]} first): {cells}", flush=True)
        if any(failed for failed, _ in failures.values()):
            for side in ("parent", "change"):
                failed, notes = failures[side]
                failed_runs += failed > 0
                print(f"  {side} failed jobs: {failed}")
                for note in notes:
                    print(f"    {note}")

    pairs = len(args.seeds)
    for name in runs["parent"][0]:
        parent = [r[name] for r in runs["parent"]]
        change = [r[name] for r in runs["change"]]
        sign = 1 if name in HIGHER_IS_BETTER else -1
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        p1, pm, p3 = quartiles(parent)
        c1, cm, c3 = quartiles(change)
        shift = f"{(cm / pm - 1) * 100:+.1f}%" if pm else "n/a"
        print(f"{name}: parent q1/median/q3 {p1:.6g}/{pm:.6g}/{p3:.6g} "
              f"(IQR {p3 - p1:.6g}); change {c1:.6g}/{cm:.6g}/{c3:.6g}; "
              f"median {shift}; change wins {wins}/{pairs}")
    if failed_runs:
        print(f"error: {failed_runs} of {2 * pairs} runs had failed jobs",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
