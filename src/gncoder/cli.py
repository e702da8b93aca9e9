"""Batch experiment runner.

Subcommands build synthetic problems with a known coefficient vector, run
solves or diagnostics, and write traces (CSV), reports (JSON lines), and
metadata (JSON).  Every random quantity derives from the master seed, all
output filenames carry the hash of the resolved configuration plus that
seed, and no output contains wall-clock data, so reruns are bitwise
identical.

Each subcommand's config keys, defaults, types, ranges and flags are the
fields of one frozen options class.  Types and ranges are checked before
anything is built, and a bad value exits 1 naming its key.

Exit codes: 0 on completion (including reportable non-convergence), 1 on
configuration errors, 2 on numeric failures.
"""

import argparse
import hashlib
import json
import math
import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .activations import Activation, parse_activation
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
from .operators import LinearOperator, parse_operator
from .sampling import sample_params, unit_direction
from .solver import (
    MODE_GAUSS_NEWTON,
    MODE_GRADIENT_DESCENT,
    InsufficientDataError,
    SolveConfig,
    convergence_order,
    radius_check,
    solve,
)

Box = tuple[float, float]
Floats = tuple[float, ...]
Coefficients = dict | None


def _option(default, **limits):
    """A field limited by ``min`` (inclusive), ``above`` or ``choices``, or
    by other fields: ``band_of`` names the box whose largest ``|bound|`` the
    value must stay below (the output-weight band of :func:`sample_params`),
    ``sizes_of`` the ``(units, dim)`` fields that coefficients must match.

    Field names and defaults are the config keys and defaults; a new field
    changes every config hash, hence every output file name.  ``flags`` in
    each class names the fields that also have a command-line flag.
    """
    return field(default=default, metadata=limits)


@dataclass(frozen=True)
class SolveOptions:
    """Run one synthetic solve."""

    flags = ("seed", "mode", "noise", "p0_radius", "max_iters")
    activation: str = "sigmoid:1"
    dim: int = _option(1, min=1)
    points_per_axis: int = _option(64, min=2)
    operator: str = "volterra"
    units: int = _option(2, min=1)
    sampler_box: Box = (-5.0, 5.0)
    alpha_band: float = _option(1.0, min=0, band_of="sampler_box")
    p0_radius: float = _option(0.3, min=0)
    noise: float = _option(0.0, min=0)
    seed: int = _option(0, min=0)
    max_iters: int = _option(25, min=1)
    tol_residual: float = _option(1e-14, above=0)
    tol_step: float = _option(1e-15, above=0)
    rank_tol: float = _option(1e-10, above=0)
    mode: str = _option(MODE_GAUSS_NEWTON,
                        choices=(MODE_GAUSS_NEWTON, MODE_GRADIENT_DESCENT))
    step_size: float = _option(1e-2, above=0)
    param_box: Box = (-10.0, 10.0)
    constants_samples: int = _option(24, min=1)
    constants_ball_factor: float = _option(2.0, above=0)
    out_dir: str = "."


@dataclass(frozen=True)
class IndependenceOptions:
    """Monte-Carlo independence trials."""

    flags = ("seed", "trials", "activation", "units", "dim", "points_per_axis",
             "allow_zero_alpha")
    activation: str = "sigmoid:1"
    units: int = _option(3, min=1)
    dim: int = _option(2, min=1)
    points_per_axis: int = _option(64, min=2)
    box: Box = (-5.0, 5.0)
    alpha_band: float = _option(0.05, min=0, band_of="box")
    allow_zero_alpha: bool = False
    rank_tol: float = _option(1e-10, above=0)
    trials: int = _option(100, min=1)
    seed: int = _option(0, min=0)
    out_dir: str = "."


@dataclass(frozen=True)
class ConeOptions:
    """Shrinking-perturbation cone check."""

    flags = ("seed", "activation", "units", "dim", "points_per_axis", "operator")
    activation: str = "sigmoid:1"
    units: int = _option(2, min=1)
    dim: int = _option(1, min=1)
    points_per_axis: int = _option(6, min=2)
    operator: str = "volterra"
    box: Box = (-5.0, 5.0)
    alpha_band: float = _option(1.0, min=0, band_of="box")
    t_values: Floats = (1e-2, 1e-3, 1e-4)
    rank_tol: float = _option(1e-10, above=0)
    seed: int = _option(0, min=0)
    out_dir: str = "."


@dataclass(frozen=True)
class MysovskiiOptions:
    """Newton-Mysovskii quadratic-bound probes."""

    flags = ("seed", "probes", "operator")
    activation: str = "sigmoid:1"
    units: int = _option(2, min=1)
    dim: int = _option(1, min=1)
    points_per_axis: int = _option(64, min=2)
    operator: str = "volterra"
    base_params: Coefficients = _option(None, sizes_of=("units", "dim"))
    box: Box = (-5.0, 5.0)
    alpha_band: float = _option(1.0, min=0, band_of="box")
    probes: int = _option(20, min=1)
    jitter: float = _option(0.05, min=0)
    segment_radius: float = _option(0.2, above=0)
    param_box: Box = (-15.0, 15.0)
    constants_radius: float = _option(0.3, above=0)
    constants_samples: int = _option(32, min=1)
    rank_tol: float = _option(1e-10, above=0)
    seed: int = _option(0, min=0)
    out_dir: str = "."


@dataclass(frozen=True)
class ManifoldOptions:
    """Degenerate-manifold sweep CSV."""

    flags = ("seed", "extent", "resolution")
    extent: float = _option(1.0, above=0)
    resolution: int = _option(101, min=2)
    seed: int = _option(0, min=0)
    out_dir: str = "."


@dataclass(frozen=True)
class CheckDerivativesOptions:
    """Finite-difference derivative check."""

    flags = ("seed", "probes", "activation")
    activation: str = "sigmoid:1"
    units: int = _option(3, min=1)
    dim: int = _option(2, min=1)
    points_per_axis: int = _option(32, min=2)
    box: Box = (-3.0, 3.0)
    alpha_band: float = _option(0.5, min=0, band_of="box")
    probes: int = _option(20, min=1)
    step_first: float = _option(1e-5, above=0)
    step_second: float = _option(1e-4, above=0)
    seed: int = _option(0, min=0)
    out_dir: str = "."


def _is_number(value) -> bool:
    """A finite JSON number; ``true`` and ``false`` are not numbers."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return isinstance(value, int) or math.isfinite(value)


def _is_coefficients(value) -> bool:
    if value is None:
        return True
    try:
        p = Params.from_json_dict(value)
    except (KeyError, TypeError, ValueError):
        return False
    return bool(np.all(np.isfinite(p.flatten())))


def _numbers(value) -> bool:
    return isinstance(value, (list, tuple)) and all(map(_is_number, value))


#: field type -> (accepts the value, what the value must be)
_KINDS = {
    int: (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer"),
    float: (_is_number, "a finite number"),
    bool: (lambda v: isinstance(v, bool), "true or false"),
    str: (lambda v: isinstance(v, str), "a string"),
    Box: (lambda v: _numbers(v) and len(v) == 2 and v[0] < v[1],
          "[low, high] with finite low < high"),
    Floats: (lambda v: _numbers(v) and len(v) > 0 and 0 not in v,
             "a non-empty list of finite non-zero numbers"),
    Coefficients: (_is_coefficients,
                   "null or finite coefficients {N, n, alpha, w, theta}"),
}


def _validated(opts):
    """Check every option against its field type and limits.

    Lists become tuples; every other value is kept exactly as given, so an
    integer in a float field stays an integer in the metadata and the hash.
    """
    tuples = {}
    for f in fields(opts):
        value = getattr(opts, f.name)
        accepts, expected = _KINDS[f.type]
        if not accepts(value):
            raise ConfigError(f"{f.name} must be {expected}, got {value!r}")
        limits = f.metadata
        if "min" in limits and value < limits["min"]:
            raise ConfigError(f"{f.name} must be >= {limits['min']}, got {value!r}")
        if "above" in limits and not value > limits["above"]:
            raise ConfigError(f"{f.name} must be > {limits['above']}, got {value!r}")
        if "choices" in limits and value not in limits["choices"]:
            raise ConfigError(
                f"{f.name} must be one of {limits['choices']}, got {value!r}")
        if isinstance(value, list):
            tuples[f.name] = tuple(value)
    for f in fields(opts):
        _check_against_fields(opts, f.name, f.metadata)
    return replace(opts, **tuples)


def _check_against_fields(opts, name: str, limits) -> None:
    """The ``band_of`` and ``sizes_of`` limits, once every field is typed."""
    value = getattr(opts, name)
    if "band_of" in limits and not getattr(opts, "allow_zero_alpha", False):
        box = limits["band_of"]
        bound = max(abs(b) for b in getattr(opts, box))
        if value >= bound:
            raise ConfigError(
                f"{name} must be < {bound}, the largest |bound| of {box}, "
                f"got {value!r}")
    if "sizes_of" in limits and value is not None:
        units, dim = limits["sizes_of"]
        if (value["N"], value["n"]) != (getattr(opts, units), getattr(opts, dim)):
            raise ConfigError(
                f"{name} has N={value['N']}, n={value['n']} but {units} is "
                f"{getattr(opts, units)!r} and {dim} is {getattr(opts, dim)!r}")


def _options(cls, file_cfg: dict, args: dict):
    """Defaults, overridden by the config file, overridden by the flags set
    in the parsed ``args`` (unset ones are None)."""
    names = {f.name for f in fields(cls)}
    for key in file_cfg:
        if key not in names:
            raise ConfigError(f"unknown config key {key!r}")
    given = {k: v for k, v in args.items() if k in names and v is not None}
    return _validated(cls(**{**file_cfg, **given}))


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


def _public_config(opts) -> dict:
    """Config as recorded in metadata; file contents stay path independent."""
    return {f.name: getattr(opts, f.name) for f in fields(opts)
            if f.name != "out_dir"}


def _config_hash(opts) -> str:
    # the output location is not part of the experiment's identity
    canonical = json.dumps(_public_config(opts), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


def _out_base(command: str, opts) -> Path:
    out_dir = Path(opts.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir / f"{command}_{_config_hash(opts)}_seed{opts.seed}"


def _write_meta(path: Path, command: str, opts, **summary) -> None:
    """Write a run's summary JSON under the header every subcommand shares."""
    meta = {
        "command": command,
        "config": _public_config(opts),
        "config_hash": _config_hash(opts),
        "seed": opts.seed,
        **summary,
    }
    path.write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")


def _write_jsonl(path: Path, rows) -> None:
    with open(path, "w") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def _named(key: str, build, *args):
    """``build(*args)``, with a ValueError re-raised naming the config key."""
    try:
        return build(*args)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def _grid_and_activation(opts):
    grid = _named("points_per_axis", make_grid, opts.dim, opts.points_per_axis)
    return grid, _named("activation", parse_activation, opts.activation)


def synth_problem(
    opts: SolveOptions, activation: Activation, forward: LinearOperator
) -> tuple[Params, GridFunction]:
    """Draw a ground-truth coefficient vector and its (optionally noisy) data.

    The truth is sampled from the configured box with the output-weight
    band; the data is the exact forward image plus seeded additive Gaussian
    noise of the configured standard deviation per node.
    """
    truth_rng, noise_rng, _, _ = _spawn_rngs(opts.seed)
    p_true = sample_params(truth_rng, opts.units, opts.dim,
                           box=opts.sampler_box, alpha_band=opts.alpha_band)
    y = forward.apply(eval_psi(p_true, activation, forward.in_grid))
    if opts.noise > 0:
        values = y.values + opts.noise * noise_rng.standard_normal(
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


def _run_solve(opts: SolveOptions) -> int:
    grid, activation = _grid_and_activation(opts)
    forward = _named("operator", parse_operator, opts.operator, grid)
    p_true, y = synth_problem(opts, activation, forward)
    _, _, start_rng, constants_seed = _spawn_rngs(opts.seed)
    direction = unit_direction(start_rng, p_true.n_star)
    p0 = Params.from_flat(
        p_true.flatten() + opts.p0_radius * direction, opts.units, opts.dim
    )
    # the solver's own keys pass through unchanged
    solve_cfg = SolveConfig(activation, grid, forward, p0, y, **{
        key: getattr(opts, key) for key in (
            "max_iters", "tol_residual", "tol_step", "rank_tol", "mode",
            "step_size", "param_box")})
    trace = solve(solve_cfg, true_params=p_true)

    rho = float(np.linalg.norm(p0.flatten() - p_true.flatten()))
    constants_err = None
    constants = None
    try:
        constants = lipschitz_constants(
            p_true, activation, grid,
            radius=opts.constants_ball_factor * opts.p0_radius,
            samples=opts.constants_samples, seed=constants_seed,
            box=opts.param_box,
        ).with_radius(rho)
    except ConfigError:
        raise
    except ValueError as exc:
        constants_err = str(exc)

    try:
        order = convergence_order(trace)
    except InsufficientDataError as exc:
        order = None
        order_err = str(exc)
    else:
        order_err = None

    # a dense SVD, reported up to 4096 nodes
    cond = forward.condition_number() if grid.node_count <= 4096 else None

    base = _out_base("solve", opts)
    trace.write_csv(base.with_suffix(".trace.csv"))
    _write_meta(
        base.with_suffix(".meta.json"), "solve", opts,
        operator=forward.descriptor,
        operator_injective=forward.injective,
        operator_condition_number=cond,
        p_true=p_true.to_json_dict(),
        p0=p0.to_json_dict(),
        radius=rho,
        constants=constants.to_json_dict() if constants else None,
        constants_error=constants_err,
        radius_satisfied=radius_check(constants)[1] if constants else None,
        status=trace.status,
        iterations=trace.iterations,
        final_residual=trace.residuals[-1],
        final_param_error=trace.param_errors[-1],
        rank_deficit=trace.rank_deficit,
        boundary_events=trace.boundary_events,
        convergence_order=order,
        convergence_order_error=order_err,
    )
    return 0


def _run_independence(opts: IndependenceOptions) -> int:
    grid, activation = _grid_and_activation(opts)
    columns = opts.units * (opts.dim + 2)
    if columns > grid.node_count:
        raise ConfigError(
            f"units {opts.units} at dim {opts.dim} give {columns} columns, "
            f"more than the {grid.node_count} nodes at points_per_axis "
            f"{opts.points_per_axis}: they cannot be independent")
    rows = [
        dict(independence_trial(
            activation, opts.units, opts.dim, grid, box=opts.box,
            seed=opts.seed + index, rank_tol=opts.rank_tol,
            alpha_band=opts.alpha_band, allow_zero_alpha=opts.allow_zero_alpha,
        ).to_json_dict(), trial=index)
        for index in range(opts.trials)
    ]
    base = _out_base("independence", opts)
    _write_jsonl(base.with_suffix(".reports.jsonl"), rows)
    _write_meta(
        base.with_suffix(".meta.json"), "independence", opts,
        trials=opts.trials,
        degenerate_count=sum(1 for r in rows if r["degenerate"]),
        min_singular_value=min(r["min_singular_value"] for r in rows),
    )
    return 0


def _run_cone(opts: ConeOptions) -> int:
    grid, activation = _grid_and_activation(opts)
    forward = _named("operator", parse_operator, opts.operator, grid)
    rng = np.random.default_rng(np.random.SeedSequence(opts.seed))
    p1 = sample_params(rng, opts.units, opts.dim,
                       box=opts.box, alpha_band=opts.alpha_band)
    direction = unit_direction(rng, p1.n_star)
    rows = [
        dict(cone_check(
            p1, Params.from_flat(p1.flatten() + t * direction, opts.units, opts.dim),
            activation, grid, forward, rank_tol=opts.rank_tol,
        ).to_json_dict(), t=t)
        for t in opts.t_values
    ]
    base = _out_base("cone", opts)
    _write_jsonl(base.with_suffix(".reports.jsonl"), rows)
    ratios = [r["ratio"] for r in rows]
    _write_meta(
        base.with_suffix(".meta.json"), "cone", opts,
        max_decomposition_residual=max(r["decomposition_residual"] for r in rows),
        ratio_spread=max(ratios) / min(ratios) if min(ratios) > 0 else None,
    )
    return 0


def _run_mysovskii(opts: MysovskiiOptions) -> int:
    grid, activation = _grid_and_activation(opts)
    forward = _named("operator", parse_operator, opts.operator, grid)
    rng = np.random.default_rng(np.random.SeedSequence(opts.seed))
    if opts.base_params is not None:
        base_params = Params.from_json_dict(opts.base_params)
    else:
        base_params = sample_params(rng, opts.units, opts.dim,
                                    box=opts.box, alpha_band=opts.alpha_band)
    # the constants estimate below needs its ball inside the box; say so
    # before the probes run
    center, radius = base_params.flatten(), opts.constants_radius
    lo, hi = opts.param_box
    if center.min() - radius < lo or center.max() + radius > hi:
        raise ConfigError(
            f"base_params with constants_radius {radius} leaves param_box "
            f"[{lo}, {hi}]")
    n_star = base_params.n_star
    rows = []
    max_ratio = 0.0
    for index in range(opts.probes):
        p = Params.from_flat(
            base_params.flatten() + opts.jitter * unit_direction(rng, n_star),
            base_params.units, base_params.input_dim,
        )
        q = Params.from_flat(
            p.flatten() + opts.segment_radius * unit_direction(rng, n_star),
            base_params.units, base_params.input_dim,
        )
        s = float(rng.uniform(0.05, 1.0))
        report = mysovskii_check(
            p, q, (s,), activation, grid, forward, rank_tol=opts.rank_tol
        )
        max_ratio = max(max_ratio, report.max_ratio)
        rows.append(dict(report.to_json_dict(), probe=index))
    constants = lipschitz_constants(
        base_params, activation, grid,
        radius=opts.constants_radius,
        samples=opts.constants_samples,
        seed=opts.seed + 10_001,
        box=opts.param_box,
    )
    product = constants.derivative_bound * constants.lipschitz_bound
    base = _out_base("mysovskii", opts)
    _write_jsonl(base.with_suffix(".reports.jsonl"), rows)
    _write_meta(
        base.with_suffix(".meta.json"), "mysovskii", opts,
        base_params=base_params.to_json_dict(),
        max_bound_ratio=max_ratio,
        constants=constants.to_json_dict(),
        bound_product=product,
        ratio_over_product=max_ratio / product if product > 0 else None,
    )
    return 0


def _run_manifold(opts: ManifoldOptions) -> int:
    rows = manifold_sweep(opts.extent, opts.resolution)
    base = _out_base("manifold", opts)
    with open(base.with_suffix(".csv"), "w") as fh:
        fh.write("x,y,f1,f2,det\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
    _write_meta(base.with_suffix(".meta.json"), "manifold", opts,
                rows=int(rows.shape[0]))
    return 0


def _run_check_derivatives(opts: CheckDerivativesOptions) -> int:
    grid, activation = _grid_and_activation(opts)
    h1 = opts.step_first
    h2 = opts.step_second
    worst_first = 0.0
    worst_second = 0.0
    w = grid.weights
    for index in range(opts.probes):
        rng = np.random.default_rng(opts.seed + index)
        p = sample_params(
            rng, opts.units, opts.dim,
            box=opts.box, alpha_band=opts.alpha_band,
        )
        flat = p.flatten()

        def psi_at(vec):
            return eval_psi(
                Params.from_flat(vec, p.units, p.input_dim), activation, grid
            ).values

        matrix = jacobian(p, activation, grid)
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

    base = _out_base("check-derivatives", opts)
    _write_meta(
        base.with_suffix(".report.json"), "check-derivatives", opts,
        max_first_order_relative_error=worst_first,
        max_second_order_relative_error=worst_second,
    )
    return 0


#: subcommand -> (options class, runner); the class docstring is the help
_COMMANDS = {
    "solve": (SolveOptions, _run_solve),
    "independence": (IndependenceOptions, _run_independence),
    "cone": (ConeOptions, _run_cone),
    "mysovskii": (MysovskiiOptions, _run_mysovskii),
    "manifold": (ManifoldOptions, _run_manifold),
    "check-derivatives": (CheckDerivativesOptions, _run_check_derivatives),
}


def _build_parser(commands=tuple(_COMMANDS)) -> _Parser:
    """One subparser per options class named in ``commands``: ``--config``,
    ``--out`` and one flag per name in its ``flags``, spelled and typed from
    the field.  A parser for some of the subcommands still names all of them
    in its usage line."""
    parser = _Parser(prog="gncoder", description=__doc__.splitlines()[0])
    every = "{" + ",".join(_COMMANDS) + "}"
    subs = parser.add_subparsers(
        dest="command", required=True,
        # with all of them, "required: command" keeps naming the dest
        metavar=None if len(commands) == len(_COMMANDS) else every)
    for command in commands:
        cls = _COMMANDS[command][0]
        sub = subs.add_parser(command, help=cls.__doc__)
        sub.add_argument("--config", help="JSON config file")
        sub.add_argument("--out", dest="out_dir", help="output directory")
        schema = {f.name: f for f in fields(cls)}
        for name in cls.flags:
            flag = "--" + name.replace("_", "-")
            if schema[name].type is bool:
                sub.add_argument(flag, dest=name, action="store_true",
                                 default=None)
            else:
                sub.add_argument(flag, dest=name, type=schema[name].type,
                                 choices=schema[name].metadata.get("choices"))
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a run needs only its own subparser; help and usage errors need all
    parser = _build_parser(
        argv[:1] if argv and argv[0] in _COMMANDS else tuple(_COMMANDS))
    try:
        args = parser.parse_args(argv)
        cls, runner = _COMMANDS[args.command]
        return runner(_options(cls, _load_config_file(args.config), vars(args)))
    except (ValueError, OSError) as exc:  # ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NumericError, RankDeficiencyError, FloatingPointError,
            np.linalg.LinAlgError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
