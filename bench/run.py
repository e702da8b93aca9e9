"""Benchmark runner for gncoder.

Usage, from the root of a checkout:

    python3 bench/run.py --workload solve-desk --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 20 --trace 0

One caller runs jobs in a closed loop: each job is one in-process call of
``gncoder.cli.main`` per subcommand of the workload, and the next job starts
only after the previous one returned and its outputs were checked.  The
package is imported from ``src/`` of the checkout; BLAS keeps its default
thread count and ``GN_CODER_THREADS`` is removed, so trials run serially.

With ``--trace 0`` the run measures the end-to-end metrics, whose times are
rescaled to a reference speed by a probe timed around each job (speed.py);
with ``--trace 1`` it runs each job of the first half of the pool twice,
once untraced and once traced, and reports the per-layer metrics.
Human-readable lines and the machine record come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The full result and the spans are written under
``.bench_build/gncoder-bench/`` in the checkout.  See README.md for the
metric map and why each workload was chosen.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import speed
from tracer import Tracer
from workloads import (
    CHECKS,
    CONVERGED,
    RANK_DEFICIENT,
    WORKLOADS,
    CheckFailed,
    check_refusal,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "gncoder-bench"
THREADS_VAR = "GN_CODER_THREADS"

#: Fresh interpreters timed per run for ``setup_s``; one more runs first
#: untimed, so compiled bytecode and the file cache are warm.
COLD_STARTS = 9

#: Percentiles are reported only from at least this many jobs.
P90_MIN_JOBS = 100

_COLD_START = """
import json, sys, time
t0 = time.perf_counter()
import gncoder
t1 = time.perf_counter()
exec(sys.argv[1])
print(json.dumps([t1 - t0, time.perf_counter() - t1]))
"""


class BenchError(Exception):
    """The benchmark cannot run or cannot check its outputs."""


def _git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _blas_threads():
    """Thread count of the loaded OpenBLAS, or None if it cannot be asked."""
    maps = Path("/proc/self/maps")
    if not maps.exists():
        return None
    libs = set(re.findall(r"(/\S*openblas\S*\.so\S*)", maps.read_text()))
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _version(package: str) -> str:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "not installed"


def machine_record(inherited_threads) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": _version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "commit": _git_commit(),
        "source_sha256": _source_sha256(),
        THREADS_VAR: f"removed (was {inherited_threads})" if inherited_threads else "unset",
    }


def cold_setup(workload) -> dict:
    """Median wall time of fresh interpreters importing and building.

    Unlike job latencies, cold starts are not rescaled by a probe: their
    time is process start, shared-library loading and file reads, which
    did not follow the host's speed swings (README.md).
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    samples = []
    for index in range(COLD_STARTS + 1):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", _COLD_START, workload.build],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        )
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            raise BenchError(f"cold start failed: {proc.stderr.strip()[-500:]}")
        import_s, build_s = json.loads(proc.stdout)
        if index:
            samples.append((wall, import_s, build_s))
    wall, import_s, build_s = (statistics.median(col) for col in zip(*samples))
    return {"setup_s": wall, "import_ms": import_s * 1e3, "build_ms": build_s * 1e3}


class Runner:
    """Runs and checks jobs of one workload against the in-process CLI."""

    def __init__(self, cli, workload, config_paths, out_dir: Path):
        self.cli = cli
        self.workload = workload
        self.probe = speed.PROBES[workload.probe]
        self.commands = [
            (command, cfg, str(config_paths[command]), out_dir / command)
            for command, cfg in workload.commands
        ]
        for *_, path in self.commands:
            path.mkdir(parents=True, exist_ok=True)

    def run(self, seed: int):
        """Run one job; return its latency and ``(code, stderr)`` per command."""
        results = []
        start = time.perf_counter()
        for command, _, config, out in self.commands:
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr):
                code = self.cli.main([command, "--config", config,
                                      "--seed", str(seed), "--out", str(out)])
            results.append((code, stderr.getvalue()))
        return time.perf_counter() - start, results

    def check(self, seed: int, results) -> str:
        """Check one job's outputs, then delete them; return its outcome."""
        outcomes = []
        try:
            for (command, cfg, _, out), (code, stderr) in zip(self.commands, results):
                if code == 0:
                    outcomes.append(CHECKS[command](out, seed, cfg))
                else:
                    outcomes.append(check_refusal(out, command, code, stderr))
        finally:
            for *_, out in self.commands:
                for path in out.iterdir():
                    path.unlink()
        if RANK_DEFICIENT in outcomes:
            return RANK_DEFICIENT
        return outcomes[0]

    def job(self, seed: int):
        """Run and check one job; return its latency, outcome and failure."""
        latency, results = self.run(seed)
        try:
            return latency, self.check(seed, results), None
        except CheckFailed as exc:
            return latency, "failed", f"job seed {seed}: {exc}"

    def _more(self, index: int, pool: int, start: float, seconds) -> bool:
        if index < pool or (self.workload.fixed_pool and index % pool):
            return True
        return time.perf_counter() - start < seconds

    def loop(self, seeds, seconds, tracer=None) -> dict:
        """Cycle over ``seeds`` for at least ``seconds`` and one full pass.

        Outcomes are those of the first pass.  A fixed pool runs whole
        passes only, so its job mix is the same every run.  Without a
        tracer, the workload's probe runs before the first job and after
        every job, and each latency is also rescaled by the probe times
        around it (speed.py).  With a tracer, each job runs twice, untraced
        and traced, in alternating order, so drift in machine speed falls
        on both sides alike.
        """
        latencies, scaled, traced, outcomes, failures = [], [], [], [], []
        probes = [self.probe.time()] if tracer is None else None
        start = time.perf_counter()
        index = 0
        while self._more(index, len(seeds), start, seconds):
            seed = seeds[index % len(seeds)]
            if tracer is None:
                latency, outcome, failure = self.job(seed)
                probes.append(self.probe.time())
                scaled.append(latency * self.probe.scale(probes[-2], probes[-1]))
            else:
                tracer.job = index
                runs = {}
                for with_spans in (index % 2 == 1, index % 2 == 0):
                    uninstall = tracer.install() if with_spans else None
                    try:
                        runs[with_spans] = self.job(seed)
                    finally:
                        if uninstall is not None:
                            uninstall()
                latency, outcome, failure = runs[False]
                traced_latency, traced_outcome, traced_failure = runs[True]
                traced.append(traced_latency)
                if traced_failure:
                    failures.append(f"traced {traced_failure}")
                elif traced_outcome != outcome:
                    failures.append(f"job seed {seed}: traced outcome "
                                    f"{traced_outcome} differs from {outcome}")
            latencies.append(latency)
            if failure:
                failures.append(failure)
            if index < len(seeds):
                outcomes.append(outcome)
            index += 1
        return {"latencies": latencies, "scaled": scaled, "traced": traced,
                "probes": probes, "outcomes": outcomes, "failures": failures}


def _share(outcomes, accepted) -> float:
    return sum(o in accepted for o in outcomes) / len(outcomes)


def _write_configs(workload, directory: Path) -> dict:
    paths = {}
    for command, cfg in workload.commands:
        paths[command] = directory / f"{command}.json"
        paths[command].write_text(json.dumps(cfg, sort_keys=True))
    return paths


def run_workload(workload, seed: int, seconds: int, trace: bool):
    inherited_threads = os.environ.pop(THREADS_VAR, None)
    setup = cold_setup(workload)
    sys.path.insert(0, str(SRC))
    import gncoder.cli as cli

    run_dir = WORK / f"{workload.name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    runner = Runner(cli, workload, _write_configs(workload, run_dir), run_dir / "jobs")
    seeds = workload.job_seeds(seed)
    runner.job(seeds[0])  # warm-up, not counted

    lines = []
    record = {"workload": workload.name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "machine": machine_record(inherited_threads)}
    if not trace:
        stats = runner.loop(seeds, seconds)
        latencies, scaled = stats["latencies"], stats["scaled"]
        jobs = attempted = len(latencies)
        metrics = {
            "jobs_per_s": (jobs / sum(scaled), "1/s"),
            "job_ms_p50": (statistics.median(scaled) * 1e3, "ms"),
            "ok_frac": (1 - len(stats["failures"]) / jobs, "frac"),
            "setup_s": (setup["setup_s"], "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        if jobs >= P90_MIN_JOBS:
            p90 = f"{statistics.quantiles(scaled, n=10)[8] * 1e3:.3f} ms"
        else:
            p90 = f"not reported ({jobs} jobs < {P90_MIN_JOBS})"
        lines.append(f"jobs {jobs} ({len(seeds)} distinct), closed loop, 1 caller")
        lines.append(f"job_ms_p90 {p90}")
        lines.append(f"wall clock, not rescaled: jobs_per_s {jobs / sum(latencies):.6g}, "
                     f"job_ms_p50 {statistics.median(latencies) * 1e3:.6g}; "
                     f"{runner.probe.name} probe "
                     f"median {statistics.median(stats['probes']) * 1e3:.4g} ms "
                     f"(reference {runner.probe.reference_ms} ms)")
        lines.append(f"failed_frac {len(stats['failures']) / jobs:.6g} "
                     f"({len(stats['failures'])}/{jobs})")
    else:
        half = seeds[: max(1, len(seeds) // 2)]
        tracer = Tracer()
        stats = runner.loop(half, seconds / 2, tracer)
        jobs = len(stats["latencies"])
        attempted = 2 * jobs
        metrics, ratios = tracer.summary()
        untraced_rate = jobs / sum(stats["latencies"])
        traced_rate = jobs / sum(stats["traced"])
        metrics.update({
            "setup.import_ms": (setup["import_ms"], "ms"),
            "setup.build_ms": (setup["build_ms"], "ms"),
            "trace.jobs_per_s_untraced": (untraced_rate, "1/s"),
            "trace.jobs_per_s_traced": (traced_rate, "1/s"),
            "trace.overhead_frac": (untraced_rate / traced_rate - 1, "frac"),
        })
        outcomes = stats["outcomes"]
        metrics["solver.converged_frac"] = (_share(outcomes, CONVERGED), "frac")
        metrics["outcome.rank_deficient_frac"] = (_share(outcomes, (RANK_DEFICIENT,)), "frac")
        lines.append(f"jobs {jobs} untraced and the same {jobs} traced, "
                     f"interleaved ({len(half)} distinct)")
        for name, (num, base, base_name) in ratios.items():
            lines.append(f"{name} = {num}/{base} (base {base_name})")
        spans_path = run_dir / "spans.jsonl"
        tracer.write(spans_path)
        record["spans"] = str(spans_path.relative_to(ROOT))

    counts = {o: stats["outcomes"].count(o) for o in sorted(set(stats["outcomes"]))}
    lines.append(f"first-pass outcomes {counts}")
    if any(command == "solve" for command, _ in workload.commands):
        lines.append(f"converged_frac {_share(stats['outcomes'], CONVERGED):.6g} "
                     f"over {len(stats['outcomes'])} solve jobs")
    lines.extend(stats["failures"][:20])

    result = {
        "correct": not stats["failures"],
        "attempted": attempted,
        "failed": len(stats["failures"]),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record.update(result, notes=lines, outcomes=counts,
                  latencies_ms=[t * 1e3 for t in stats["latencies"]])
    if stats["probes"] is not None:
        record["probes_ms"] = [t * 1e3 for t in stats["probes"]]
    (run_dir / "result.json").write_text(json.dumps(record, indent=2) + "\n")
    lines.append("machine " + json.dumps(record["machine"], sort_keys=True))
    lines.extend(f"{k} {v} {u}" for k, (v, u) in metrics.items())
    return lines, result


def _expected_metrics(trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_all(args) -> int:
    """Run every workload in its own process and merge their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        out = proc.stdout.strip().splitlines()
        print(f"== {name}")
        print("\n".join(out[:-1]))
        if proc.returncode != 0 or not out:
            print(proc.stderr.strip()[-2000:], file=sys.stderr)
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(out[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = value
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be at least 1 and --seed non-negative")
    if not (SRC / "gncoder" / "__init__.py").is_file():
        print(f"error: no gncoder sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    try:
        expected = _expected_metrics(bool(args.trace))
        lines, result = run_workload(
            WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    produced = {k: v["unit"] for k, v in result["metrics"].items()}
    if produced != expected:
        print(f"error: metrics {produced} do not match BENCHMARK.json {expected}",
              file=sys.stderr)
        return 3
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
