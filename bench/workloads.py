"""The four benchmark workloads and the output check for each job.

A job is one in-process call of ``gncoder.cli.main`` per subcommand of the
workload, with the workload's config file and a job seed.  Each workload
holds a pool of distinct job seeds drawn from the workload seed; a run
cycles over the pool, so the pool size sets how many distinct inputs one
run sees.  Pools are sized so that one pass takes 15-20 s on the
reference machine (see README.md).  ``solve-wide`` fits only fourteen jobs
in a pass, too few for a fresh draw per seed to give a steady total, so its
pool is one fixed draw and the workload seed only rotates it.

Only stdlib is imported here: the checks read the files a job wrote.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

#: A converged solve on exact data must recover the truth to this absolute
#: Euclidean distance in parameter space, up to a permutation of the units
#: (which leaves the network function unchanged).  The worst of 1083
#: converged default solves was 2.2e-6.
PARAM_ERROR_BOUND = 1e-4

SOLVE_STATUSES = ("converged_residual", "converged_step", "max_iters", "rank_deficient")
CONVERGED = ("converged_residual", "converged_step")

#: Outcome of a probe whose draw the program refuses as rank deficient.
RANK_DEFICIENT = "rank_deficient"
OK = "ok"


class CheckFailed(Exception):
    """A job's outputs are missing or violate a stated property."""


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    pool: int
    #: Use one fixed pool for every workload seed (rotated by the seed).
    fixed_pool: bool
    #: Name of the speed probe timed around each job (speed.py).
    probe: str
    #: (subcommand, config) pairs run in order by one job.
    commands: tuple
    #: Python source run by a fresh interpreter to time set-up; it builds
    #: what the workload's jobs build before their first solve or trial.
    build: str

    def job_seeds(self, seed: int) -> list[int]:
        if not self.fixed_pool:
            return random.Random(f"{self.name}:{seed}").sample(range(2**31), self.pool)
        seeds = random.Random(self.name).sample(range(2**31), self.pool)
        shift = seed % self.pool
        return seeds[shift:] + seeds[:shift]


_DESK = {
    "units": 2, "dim": 1, "points_per_axis": 64, "operator": "volterra",
    "constants_samples": 24,
}
_WIDE = {
    "units": 3, "dim": 2, "points_per_axis": 256, "operator": "gauss:0.05",
    "constants_samples": 8,
}
_INDEPENDENCE = {"trials": 100, "units": 3, "dim": 2, "points_per_axis": 64}
_CONE = {"units": 2, "dim": 1, "points_per_axis": 6, "operator": "volterra"}
_MYSOVSKII = {
    "units": 2, "dim": 1, "points_per_axis": 64, "operator": "volterra",
    "constants_samples": 32,
}


def _build_source(*grids: tuple) -> str:
    lines = ["from gncoder import make_grid, parse_activation, parse_operator",
             "act = parse_activation('sigmoid:1')"]
    for dim, points, operator in grids:
        lines.append(f"g = make_grid({dim}, {points})")
        if operator:
            lines.append(f"op = parse_operator({operator!r}, g)")
    return "\n".join(lines)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "solve-desk",
            "gncoder solve at its defaults: latency-bound tiny matrices, "
            "Gram-Schmidt loop, per-column applies, 276 pairwise SVDs",
            pool=800,
            fixed_pool=False,
            probe="interpreter",
            commands=(("solve", _DESK),),
            build=_build_source((1, 64, "volterra")),
        ),
        Workload(
            "solve-wide",
            "solve at N=3, 256x256 grid, Gaussian blur: bandwidth-bound "
            "65536x12 matrices, the same layers in the opposite regime",
            pool=14,
            fixed_pool=True,
            probe="tall-qr",
            commands=(("solve", _WIDE),),
            build=_build_source((2, 256, "gauss:0.05")),
        ),
        Workload(
            "independence",
            "independence trials at defaults: jacobian plus dense SVD only, "
            "the control that QR, operator and solver changes must not move",
            pool=60,
            fixed_pool=False,
            probe="interpreter",
            commands=(("independence", _INDEPENDENCE),),
            build=_build_source((2, 64, None)),
        ),
        Workload(
            "probes",
            "cone then mysovskii at defaults: one factorization serving many "
            "pinv_apply calls, the only run of cone_check and mysovskii_check",
            pool=500,
            fixed_pool=False,
            probe="interpreter",
            commands=(("cone", _CONE), ("mysovskii", _MYSOVSKII)),
            build=_build_source((1, 6, "volterra"), (1, 64, "volterra")),
        ),
    )
}


def _finite(value, what: str) -> None:
    if not isinstance(value, (int, float)) or not math.isfinite(value):
        raise CheckFailed(f"{what} is not a finite number: {value!r}")


def _one(out_dir: Path, pattern: str) -> Path:
    found = sorted(out_dir.glob(pattern))
    if len(found) != 1:
        raise CheckFailed(f"expected one file {pattern}, found {len(found)}")
    return found[0]


def _jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines()]


def _permuted_distances(p_true: dict) -> list[float]:
    """Distances from the truth to each unit permutation of itself."""
    units = p_true["N"]
    rows = [
        [p_true["alpha"][s], *p_true["w"][s], p_true["theta"][s]]
        for s in range(units)
    ]
    return [
        math.sqrt(sum((a - b) ** 2 for s, t in enumerate(perm)
                      for a, b in zip(rows[s], rows[t])))
        for perm in itertools.permutations(range(units))
    ]


def _check_solve(out_dir: Path, seed: int, cfg: dict) -> str:
    meta = json.loads(_one(out_dir, f"solve_*_seed{seed}.meta.json").read_text())
    status = meta["status"]
    if status not in SOLVE_STATUSES:
        raise CheckFailed(f"unknown solve status {status!r}")
    rows = _one(out_dir, f"solve_*_seed{seed}.trace.csv").read_text().splitlines()
    if len(rows) - 1 != meta["iterations"] + 1:
        raise CheckFailed(
            f"trace has {len(rows) - 1} rows for {meta['iterations']} iterations"
        )
    if status == "converged_residual":
        if not meta["final_residual"] <= meta["config"]["tol_residual"]:
            raise CheckFailed(f"converged with residual {meta['final_residual']}")
        error = meta["final_param_error"]
        _finite(error, "final_param_error")
        if min(abs(error - d) for d in _permuted_distances(meta["p_true"])) > PARAM_ERROR_BOUND:
            raise CheckFailed(f"converged to a parameter error of {error}")
    return status


def _check_independence(out_dir: Path, seed: int, cfg: dict) -> str:
    rows = _jsonl(_one(out_dir, f"independence_*_seed{seed}.reports.jsonl"))
    if len(rows) != cfg["trials"]:
        raise CheckFailed(f"{len(rows)} reports for {cfg['trials']} trials")
    n_star = cfg["units"] * (cfg["dim"] + 2)
    for row in rows:
        if not 0 <= row["rank"] <= n_star:
            raise CheckFailed(f"trial {row['trial']} has rank {row['rank']}")
        _finite(row["min_singular_value"], "min_singular_value")
    return OK


def _check_cone(out_dir: Path, seed: int, cfg: dict) -> str:
    meta = json.loads(_one(out_dir, f"cone_*_seed{seed}.meta.json").read_text())
    for key in ("max_decomposition_residual", "ratio_spread"):
        _finite(meta[key], f"cone {key}")
    for row in _jsonl(_one(out_dir, f"cone_*_seed{seed}.reports.jsonl")):
        for key in ("dev", "decomposition_residual", "ratio"):
            _finite(row[key], f"cone {key}")
    return OK


def _check_mysovskii(out_dir: Path, seed: int, cfg: dict) -> str:
    meta = json.loads(_one(out_dir, f"mysovskii_*_seed{seed}.meta.json").read_text())
    for key in ("max_bound_ratio", "bound_product", "ratio_over_product"):
        _finite(meta[key], f"mysovskii {key}")
    for row in _jsonl(_one(out_dir, f"mysovskii_*_seed{seed}.reports.jsonl")):
        for value in row["lhs_values"] + row["bound_ratios"]:
            _finite(value, "mysovskii probe value")
    return OK


CHECKS = {
    "solve": _check_solve,
    "independence": _check_independence,
    "cone": _check_cone,
    "mysovskii": _check_mysovskii,
}


def check_refusal(out_dir: Path, command: str, code: int, stderr: str) -> str:
    """Accept exit 2 from cone or mysovskii only as a rank-deficient draw.

    Both commands require full column rank at the drawn point and exit 2
    with ``... has rank r < n`` when the rank test fails, writing nothing.
    The solver reports the same condition as its ``rank_deficient`` status.
    Any other non-zero exit is a failed job.
    """
    if command not in ("cone", "mysovskii") or code != 2 or " has rank " not in stderr:
        raise CheckFailed(f"{command} exited {code}: {stderr.strip()[:200]}")
    if any(out_dir.iterdir()):
        raise CheckFailed(f"{command} refused the draw but wrote outputs")
    return RANK_DEFICIENT
