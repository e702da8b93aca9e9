"""Batch experiment runner.

Subcommands build synthetic problems with a known coefficient vector, run
solves or diagnostics, and write traces (CSV), reports (JSON lines), and
metadata (JSON).  Every random quantity derives from the master seed, all
output filenames carry the hash of the resolved configuration plus that
seed, and no output contains wall-clock data, so reruns are bitwise
identical.

Exit codes: 0 on completion (including reportable non-convergence), 1 on
configuration errors, 2 on numeric failures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from .activations import parse_activation
from .diagnostics import (
    cone_check,
    independence_trial,
    manifold_sweep,
    mysovskii_check,
)
from .exceptions import ConfigError, NumericError, RankDeficiencyError
from .grids import GridFunction, make_grid
from .network import (
    Params,
    eval_psi,
    jacobian,
    lipschitz_constants,
    second_derivative_bilinear,
)
from .operators import DENSE_LIMIT, parse_operator
from .sampling import sample_params, unit_direction
from .solver import (
    InsufficientDataError,
    SolveConfig,
    convergence_order,
    radius_check,
    solve,
)

_SOLVE_DEFAULTS = {
    "activation": "sigmoid:1",
    "dim": 1,
    "points_per_axis": 64,
    "operator": "volterra",
    "units": 2,
    "sampler_box": [-5.0, 5.0],
    "alpha_band": 1.0,
    "p0_radius": 0.3,
    "noise": 0.0,
    "seed": 0,
    "max_iters": 25,
    "tol_residual": 1e-14,
    "tol_step": 1e-15,
    "rank_tol": 1e-10,
    "mode": "gauss_newton",
    "step_size": 1e-2,
    "param_box": [-10.0, 10.0],
    "constants_samples": 24,
    "constants_ball_factor": 2.0,
    "out_dir": ".",
}

_INDEPENDENCE_DEFAULTS = {
    "activation": "sigmoid:1",
    "units": 3,
    "dim": 2,
    "points_per_axis": 64,
    "box": [-5.0, 5.0],
    "alpha_band": 0.05,
    "allow_zero_alpha": False,
    "rank_tol": 1e-10,
    "trials": 100,
    "seed": 0,
    "out_dir": ".",
}

_CONE_DEFAULTS = {
    "activation": "sigmoid:1",
    "units": 2,
    "dim": 1,
    "points_per_axis": 6,
    "operator": "volterra",
    "box": [-5.0, 5.0],
    "alpha_band": 1.0,
    "t_values": [1e-2, 1e-3, 1e-4],
    "rank_tol": 1e-10,
    "seed": 0,
    "out_dir": ".",
}

_MYSOVSKII_DEFAULTS = {
    "activation": "sigmoid:1",
    "units": 2,
    "dim": 1,
    "points_per_axis": 64,
    "operator": "volterra",
    "base_params": None,
    "box": [-5.0, 5.0],
    "alpha_band": 1.0,
    "probes": 20,
    "jitter": 0.05,
    "segment_radius": 0.2,
    "param_box": [-15.0, 15.0],
    "constants_radius": 0.3,
    "constants_samples": 32,
    "rank_tol": 1e-10,
    "seed": 0,
    "out_dir": ".",
}

_MANIFOLD_DEFAULTS = {
    "extent": 1.0,
    "resolution": 101,
    "seed": 0,
    "out_dir": ".",
}

_CHECK_DEFAULTS = {
    "activation": "sigmoid:1",
    "units": 3,
    "dim": 2,
    "points_per_axis": 32,
    "box": [-3.0, 3.0],
    "alpha_band": 0.5,
    "probes": 20,
    "step_first": 1e-5,
    "step_second": 1e-4,
    "seed": 0,
    "out_dir": ".",
}


class _Parser(argparse.ArgumentParser):
    """Argument parser that reports usage problems as config errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        data = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return data


def _resolve(defaults: dict, file_cfg: dict, overrides: dict) -> dict:
    cfg = dict(defaults)
    for key, value in file_cfg.items():
        if key not in defaults:
            raise ConfigError(f"unknown config key {key!r}")
        cfg[key] = value
    for key, value in overrides.items():
        if value is not None:
            cfg[key] = value
    return cfg


def _config_hash(cfg: dict) -> str:
    # the output location is not part of the experiment's identity
    hashed = {k: v for k, v in cfg.items() if k != "out_dir"}
    canonical = json.dumps(hashed, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


def _public_config(cfg: dict) -> dict:
    """Config as recorded in metadata; file contents stay path independent."""
    return {k: v for k, v in cfg.items() if k != "out_dir"}


def _out_base(command: str, cfg: dict) -> Path:
    out_dir = Path(cfg["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir / f"{command}_{_config_hash(cfg)}_seed{cfg['seed']}"


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _write_jsonl(path: Path, rows) -> None:
    with open(path, "w") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def _require_count(cfg: dict, key: str) -> None:
    """Refuse a run that would check nothing and still report a result."""
    if cfg[key] < 1:
        raise ConfigError(f"{key} must be >= 1, got {cfg[key]!r}")


def synth_problem(cfg: dict) -> tuple[Params, GridFunction]:
    """Draw a ground-truth coefficient vector and its (optionally noisy) data.

    The truth is sampled from the configured box with the output-weight
    band; the data is the exact forward image plus seeded additive Gaussian
    noise of the configured standard deviation per node.
    """
    grid = make_grid(cfg["dim"], cfg["points_per_axis"])
    activation = parse_activation(cfg["activation"])
    forward = parse_operator(cfg["operator"], grid)
    truth_rng, noise_rng, _, _ = _spawn_rngs(cfg["seed"])
    p_true = sample_params(
        truth_rng,
        cfg["units"],
        cfg["dim"],
        box=tuple(cfg["sampler_box"]),
        alpha_band=cfg["alpha_band"],
    )
    y = forward.apply(eval_psi(p_true, activation, grid))
    if cfg["noise"] > 0:
        values = y.values + cfg["noise"] * noise_rng.standard_normal(
            y.grid.node_count
        )
        y = GridFunction(y.grid, values)
    return p_true, y


def _spawn_rngs(seed: int):
    children = np.random.SeedSequence(seed).spawn(4)
    return (
        np.random.default_rng(children[0]),
        np.random.default_rng(children[1]),
        np.random.default_rng(children[2]),
        int(children[3].generate_state(1)[0]),
    )


def _run_solve(cfg: dict) -> int:
    grid = make_grid(cfg["dim"], cfg["points_per_axis"])
    activation = parse_activation(cfg["activation"])
    forward = parse_operator(cfg["operator"], grid)
    p_true, y = synth_problem(cfg)
    _, _, start_rng, constants_seed = _spawn_rngs(cfg["seed"])
    direction = unit_direction(start_rng, p_true.n_star)
    p0 = Params.from_flat(
        p_true.flatten() + cfg["p0_radius"] * direction,
        cfg["units"],
        cfg["dim"],
    )
    solve_cfg = SolveConfig(
        activation=activation,
        grid=grid,
        forward=forward,
        initial=p0,
        data=y,
        max_iters=cfg["max_iters"],
        tol_residual=cfg["tol_residual"],
        tol_step=cfg["tol_step"],
        rank_tol=cfg["rank_tol"],
        mode=cfg["mode"],
        step_size=cfg["step_size"],
        seed=cfg["seed"],
        param_box=tuple(cfg["param_box"]),
    )
    trace = solve(solve_cfg, true_params=p_true)

    rho = float(np.linalg.norm(p0.flatten() - p_true.flatten()))
    constants_err = None
    constants = None
    try:
        constants = lipschitz_constants(
            p_true,
            activation,
            grid,
            radius=cfg["constants_ball_factor"] * cfg["p0_radius"],
            samples=cfg["constants_samples"],
            seed=constants_seed,
            box=tuple(cfg["param_box"]),
        ).with_radius(rho)
    except ValueError as exc:
        constants_err = str(exc)

    try:
        order = convergence_order(trace)
    except InsufficientDataError as exc:
        order = None
        order_err = str(exc)
    else:
        order_err = None

    cond = None
    if grid.node_count <= DENSE_LIMIT:
        cond = forward.condition_number()

    base = _out_base("solve", cfg)
    trace.write_csv(base.with_suffix(".trace.csv"))
    meta = {
        "command": "solve",
        "config": _public_config(cfg),
        "config_hash": _config_hash(cfg),
        "seed": cfg["seed"],
        "operator": forward.descriptor,
        "operator_injective": forward.injective,
        "operator_condition_number": cond,
        "p_true": p_true.to_json_dict(),
        "p0": p0.to_json_dict(),
        "radius": rho,
        "constants": constants.to_json_dict() if constants else None,
        "constants_error": constants_err,
        "radius_satisfied": radius_check(constants)[1] if constants else None,
        "status": trace.status,
        "iterations": trace.iterations,
        "final_residual": trace.residuals[-1],
        "final_param_error": trace.param_errors[-1],
        "rank_deficit": trace.rank_deficit,
        "boundary_events": trace.boundary_events,
        "convergence_order": order,
        "convergence_order_error": order_err,
    }
    _write_json(base.with_suffix(".meta.json"), meta)
    return 0


def _run_independence(cfg: dict) -> int:
    _require_count(cfg, "trials")
    grid = make_grid(cfg["dim"], cfg["points_per_axis"])
    activation = parse_activation(cfg["activation"])

    def one_trial(index: int) -> dict:
        report = independence_trial(
            activation,
            cfg["units"],
            cfg["dim"],
            grid,
            box=tuple(cfg["box"]),
            seed=cfg["seed"] + index,
            rank_tol=cfg["rank_tol"],
            alpha_band=cfg["alpha_band"],
            allow_zero_alpha=cfg["allow_zero_alpha"],
        )
        row = report.to_json_dict()
        row["trial"] = index
        return row

    rows = [one_trial(index) for index in range(cfg["trials"])]
    base = _out_base("independence", cfg)
    _write_jsonl(base.with_suffix(".reports.jsonl"), rows)
    degenerate = sum(1 for r in rows if r["degenerate"])
    meta = {
        "command": "independence",
        "config": _public_config(cfg),
        "config_hash": _config_hash(cfg),
        "seed": cfg["seed"],
        "trials": cfg["trials"],
        "degenerate_count": degenerate,
        "min_singular_value": min(r["min_singular_value"] for r in rows),
    }
    _write_json(base.with_suffix(".meta.json"), meta)
    return 0


def _run_cone(cfg: dict) -> int:
    if not cfg["t_values"]:
        raise ConfigError("t_values must hold at least one perturbation size")
    grid = make_grid(cfg["dim"], cfg["points_per_axis"])
    activation = parse_activation(cfg["activation"])
    forward = parse_operator(cfg["operator"], grid)
    rng = np.random.default_rng(np.random.SeedSequence(cfg["seed"]))
    p1 = sample_params(
        rng, cfg["units"], cfg["dim"],
        box=tuple(cfg["box"]), alpha_band=cfg["alpha_band"],
    )
    direction = unit_direction(rng, p1.n_star)
    rows = []
    for t in cfg["t_values"]:
        p2 = Params.from_flat(
            p1.flatten() + t * direction, cfg["units"], cfg["dim"]
        )
        report = cone_check(
            p1, p2, activation, grid, forward, rank_tol=cfg["rank_tol"]
        )
        row = report.to_json_dict()
        row["t"] = t
        rows.append(row)
    base = _out_base("cone", cfg)
    _write_jsonl(base.with_suffix(".reports.jsonl"), rows)
    ratios = [r["ratio"] for r in rows]
    meta = {
        "command": "cone",
        "config": _public_config(cfg),
        "config_hash": _config_hash(cfg),
        "seed": cfg["seed"],
        "max_decomposition_residual": max(
            r["decomposition_residual"] for r in rows
        ),
        "ratio_spread": max(ratios) / min(ratios) if min(ratios) > 0 else None,
    }
    _write_json(base.with_suffix(".meta.json"), meta)
    return 0


def _run_mysovskii(cfg: dict) -> int:
    _require_count(cfg, "probes")
    grid = make_grid(cfg["dim"], cfg["points_per_axis"])
    activation = parse_activation(cfg["activation"])
    forward = parse_operator(cfg["operator"], grid)
    rng = np.random.default_rng(np.random.SeedSequence(cfg["seed"]))
    if cfg["base_params"] is not None:
        base_params = Params.from_json_dict(cfg["base_params"])
    else:
        base_params = sample_params(
            rng, cfg["units"], cfg["dim"],
            box=tuple(cfg["box"]), alpha_band=cfg["alpha_band"],
        )
    n_star = base_params.n_star
    rows = []
    max_ratio = 0.0
    for index in range(cfg["probes"]):
        p = Params.from_flat(
            base_params.flatten() + cfg["jitter"] * unit_direction(rng, n_star),
            base_params.units, base_params.input_dim,
        )
        q = Params.from_flat(
            p.flatten() + cfg["segment_radius"] * unit_direction(rng, n_star),
            base_params.units, base_params.input_dim,
        )
        s = float(rng.uniform(0.05, 1.0))
        report = mysovskii_check(
            p, q, (s,), activation, grid, forward, rank_tol=cfg["rank_tol"]
        )
        max_ratio = max(max_ratio, report.max_ratio)
        row = report.to_json_dict()
        row["probe"] = index
        rows.append(row)
    constants = lipschitz_constants(
        base_params, activation, grid,
        radius=cfg["constants_radius"],
        samples=cfg["constants_samples"],
        seed=cfg["seed"] + 10_001,
        box=tuple(cfg["param_box"]),
    )
    product = constants.derivative_bound * constants.lipschitz_bound
    base = _out_base("mysovskii", cfg)
    _write_jsonl(base.with_suffix(".reports.jsonl"), rows)
    meta = {
        "command": "mysovskii",
        "config": _public_config(cfg),
        "config_hash": _config_hash(cfg),
        "seed": cfg["seed"],
        "base_params": base_params.to_json_dict(),
        "max_bound_ratio": max_ratio,
        "constants": constants.to_json_dict(),
        "bound_product": product,
        "ratio_over_product": max_ratio / product if product > 0 else None,
    }
    _write_json(base.with_suffix(".meta.json"), meta)
    return 0


def _run_manifold(cfg: dict) -> int:
    rows = manifold_sweep(cfg["extent"], cfg["resolution"])
    base = _out_base("manifold", cfg)
    with open(base.with_suffix(".csv"), "w") as fh:
        fh.write("x,y,f1,f2,det\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
    meta = {
        "command": "manifold",
        "config": _public_config(cfg),
        "config_hash": _config_hash(cfg),
        "seed": cfg["seed"],
        "rows": int(rows.shape[0]),
    }
    _write_json(base.with_suffix(".meta.json"), meta)
    return 0


def _run_check_derivatives(cfg: dict) -> int:
    _require_count(cfg, "probes")
    grid = make_grid(cfg["dim"], cfg["points_per_axis"])
    activation = parse_activation(cfg["activation"])
    h1 = cfg["step_first"]
    h2 = cfg["step_second"]
    worst_first = 0.0
    worst_second = 0.0
    w = grid.weights
    for index in range(cfg["probes"]):
        rng = np.random.default_rng(cfg["seed"] + index)
        p = sample_params(
            rng, cfg["units"], cfg["dim"],
            box=tuple(cfg["box"]), alpha_band=cfg["alpha_band"],
        )
        flat = p.flatten()

        def psi_at(vec):
            return eval_psi(
                Params.from_flat(vec, p.units, p.input_dim), activation, grid
            ).values

        matrix = jacobian(p, activation, grid).matrix
        for col in range(p.n_star):
            e = np.zeros(p.n_star)
            e[col] = h1
            fd = (psi_at(flat + e) - psi_at(flat - e)) / (2 * h1)
            num = np.sqrt(np.sum(w * (fd - matrix[:, col]) ** 2))
            den = np.sqrt(np.sum(w * matrix[:, col] ** 2))
            if den > 0:
                worst_first = max(worst_first, num / den)

        d1 = unit_direction(rng, p.n_star)
        d2 = unit_direction(rng, p.n_star)
        exact = second_derivative_bilinear(p, activation, grid, d1, d2).values
        fd = (
            psi_at(flat + h2 * (d1 + d2))
            - psi_at(flat + h2 * (d1 - d2))
            - psi_at(flat - h2 * (d1 - d2))
            + psi_at(flat - h2 * (d1 + d2))
        ) / (4 * h2 * h2)
        num = np.sqrt(np.sum(w * (fd - exact) ** 2))
        den = np.sqrt(np.sum(w * exact**2))
        if den > 0:
            worst_second = max(worst_second, num / den)

    base = _out_base("check-derivatives", cfg)
    meta = {
        "command": "check-derivatives",
        "config": _public_config(cfg),
        "config_hash": _config_hash(cfg),
        "seed": cfg["seed"],
        "max_first_order_relative_error": worst_first,
        "max_second_order_relative_error": worst_second,
    }
    _write_json(base.with_suffix(".report.json"), meta)
    return 0


def _add_common(sub, defaults):
    sub.add_argument("--config", help="JSON config file")
    sub.add_argument("--out", dest="out_dir", help="output directory")
    if "seed" in defaults:
        sub.add_argument("--seed", type=int)


def _build_parser() -> _Parser:
    parser = _Parser(prog="gncoder", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("solve", help="run one synthetic solve")
    _add_common(sp, _SOLVE_DEFAULTS)
    sp.add_argument("--mode", choices=["gauss_newton", "gradient_descent"])
    sp.add_argument("--noise", type=float)
    sp.add_argument("--p0-radius", dest="p0_radius", type=float)
    sp.add_argument("--max-iters", dest="max_iters", type=int)

    ip = subs.add_parser("independence", help="Monte-Carlo independence trials")
    _add_common(ip, _INDEPENDENCE_DEFAULTS)
    ip.add_argument("--trials", type=int)
    ip.add_argument("--activation")
    ip.add_argument("--units", type=int)
    ip.add_argument("--dim", type=int)
    ip.add_argument("--points-per-axis", dest="points_per_axis", type=int)
    ip.add_argument("--allow-zero-alpha", dest="allow_zero_alpha",
                    action="store_true", default=None)

    cp = subs.add_parser("cone", help="shrinking-perturbation cone check")
    _add_common(cp, _CONE_DEFAULTS)
    cp.add_argument("--activation")
    cp.add_argument("--units", type=int)
    cp.add_argument("--dim", type=int)
    cp.add_argument("--points-per-axis", dest="points_per_axis", type=int)
    cp.add_argument("--operator")

    mp = subs.add_parser("mysovskii", help="quadratic-bound probes")
    _add_common(mp, _MYSOVSKII_DEFAULTS)
    mp.add_argument("--probes", type=int)
    mp.add_argument("--operator")

    fp = subs.add_parser("manifold", help="degenerate-manifold sweep CSV")
    _add_common(fp, _MANIFOLD_DEFAULTS)
    fp.add_argument("--extent", type=float)
    fp.add_argument("--resolution", type=int)

    dp = subs.add_parser("check-derivatives",
                         help="finite-difference derivative check")
    _add_common(dp, _CHECK_DEFAULTS)
    dp.add_argument("--probes", type=int)
    dp.add_argument("--activation")

    return parser


_RUNNERS = {
    "solve": (_SOLVE_DEFAULTS, _run_solve),
    "independence": (_INDEPENDENCE_DEFAULTS, _run_independence),
    "cone": (_CONE_DEFAULTS, _run_cone),
    "mysovskii": (_MYSOVSKII_DEFAULTS, _run_mysovskii),
    "manifold": (_MANIFOLD_DEFAULTS, _run_manifold),
    "check-derivatives": (_CHECK_DEFAULTS, _run_check_derivatives),
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        defaults, runner = _RUNNERS[args.command]
        file_cfg = _load_config_file(args.config)
        overrides = {
            k: v
            for k, v in vars(args).items()
            if k in defaults and v is not None
        }
        cfg = _resolve(defaults, file_cfg, overrides)
        return runner(cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NumericError, RankDeficiencyError, FloatingPointError,
            np.linalg.LinAlgError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
