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
import functools
import hashlib
import json
import math
import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .activations import Activation, parse_activation
from .diagnostics import (
    _trial_point,
    cone_check,
    derivative_check,
    independence_reports,
    manifold_sweep,
    mysovskii_reports,
)
from .exceptions import (ConfigError, NumericError, RankDeficiencyError,
                         SmoothnessError)
from .grids import GridFunction, _check_grid_bytes, make_grid
from .network import Params, _check_jacobian_bytes, eval_psi, lipschitz_constants
from .operators import LinearOperator, parse_operator
from .sampling import sample_params, unit_direction
from .solver import (
    MODE_GAUSS_NEWTON,
    MODE_GRADIENT_DESCENT,
    InsufficientDataError,
    SolveConfig,
    convergence_order,
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
    # checked, hashed and recorded, but not read: dropping them would change
    # every solve config hash and file name
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
    """A JSON number that is a finite float, or an integer that converts to
    one; ``true`` and ``false`` are not numbers."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return abs(value) <= sys.float_info.max


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
    Box: (lambda v: _numbers(v) and len(v) == 2 and v[0] < v[1]
          and math.isfinite(float(v[1]) - float(v[0])),
          "[low, high] with finite low < high and finite high - low"),
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


def _config_hash(config: dict) -> str:
    """The hash of a run's :func:`_public_config`, which names its files."""
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


def _out_name(command: str, opts) -> tuple[Path, dict]:
    """The base path of a run's output files and the header its metadata
    starts with, the config hashed once for both."""
    config = _public_config(opts)
    header = {"command": command, "config": config,
              "config_hash": _config_hash(config), "seed": opts.seed}
    name = f"{command}_{header['config_hash']}_seed{opts.seed}"
    return Path(opts.out_dir) / name, header


def _out_base(command: str, opts) -> tuple[Path, dict]:
    """:func:`_out_name`, with the output directory made."""
    base, header = _out_name(command, opts)
    base.parent.mkdir(parents=True, exist_ok=True)
    return base, header


def _write_meta(path: Path, header: dict, **summary) -> None:
    """Write a run's summary JSON under the header every subcommand shares."""
    meta = {**header, **summary}
    path.write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")


def _write_jsonl(path: Path, rows) -> None:
    """Write one JSON line per row as ``rows`` yields it, making the missing
    directories of ``path``.  If that fails, remove the file and those
    directories, so a failed run leaves nothing behind."""
    made = [d for d in (path.parent, *path.parent.parents) if not d.exists()]
    path.parent.mkdir(parents=True, exist_ok=True)
    try:
        with open(path, "w") as fh:
            for row in rows:
                fh.write(json.dumps(row, sort_keys=True) + "\n")
    except BaseException:
        path.unlink(missing_ok=True)
        for directory in made:  # deepest first
            directory.rmdir()
        raise


def _named(key: str, build, *args):
    """``build(*args)``, with a ValueError re-raised naming the config key."""
    try:
        return build(*args)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc


@functools.lru_cache(maxsize=4)
def _operator(text: str, grid) -> LinearOperator:
    """``parse_operator(text, grid)``, built once per process for each
    descriptor and grid (a grid compares by its shape) among the last few
    used; a refused descriptor raises again at every call."""
    return parse_operator(text, grid)


def _grid_and_activation(opts):
    """The grid and activation of a run that builds Jacobians.  A grid over
    the byte budget is refused with its own message, then a one-point
    Jacobian over it, both before anything is allocated."""
    _named("points_per_axis", _check_grid_bytes, opts.dim, opts.points_per_axis)
    _check_jacobian_bytes(1, opts.units, opts.dim, opts.points_per_axis)
    grid = _named("points_per_axis", make_grid, opts.dim, opts.points_per_axis)
    return grid, _named("activation", parse_activation, opts.activation)


def synth_problem(
    opts: SolveOptions, activation: Activation, forward: LinearOperator,
    rngs=None,
) -> tuple[Params, GridFunction]:
    """Draw a ground-truth coefficient vector and its (optionally noisy) data.

    The truth is sampled from the configured box with the output-weight
    band; the data is the exact forward image plus seeded additive Gaussian
    noise of the configured standard deviation per node.  ``rngs`` are the
    job's streams, ``_spawn_rngs(opts.seed)``, spawned here when not given;
    the first two are drawn from.
    """
    truth_rng, noise_rng, _, _ = rngs or _spawn_rngs(opts.seed)
    p_true = sample_params(truth_rng, opts.units, opts.dim,
                           box=opts.sampler_box, alpha_band=opts.alpha_band)
    y = forward.apply(eval_psi(p_true, activation, forward.in_grid))
    if opts.noise > 0:
        with np.errstate(over="ignore"):  # inf data exits 2 at the residual
            values = y.values + opts.noise * noise_rng.standard_normal(
                y.grid.node_count)
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
    forward = _named("operator", _operator, opts.operator, grid)
    grid = forward.in_grid  # the cached operator's: one grid per shape
    rngs = _spawn_rngs(opts.seed)  # the job's streams, spawned once
    p_true, y = synth_problem(opts, activation, forward, rngs)
    start_rng = rngs[2]
    direction = unit_direction(start_rng, p_true.n_star)
    p0 = Params.from_flat(
        p_true.flatten() + opts.p0_radius * direction, opts.units, opts.dim
    )
    with np.errstate(over="ignore"):  # an overflowing radius is inf
        rho = float(np.linalg.norm(p0.flatten() - p_true.flatten()))

    # the solver's own keys pass through unchanged
    solve_cfg = SolveConfig(activation, grid, forward, p0, y, **{
        key: getattr(opts, key) for key in (
            "max_iters", "tol_residual", "tol_step", "rank_tol", "mode",
            "step_size", "param_box")})
    trace = solve(solve_cfg, true_params=p_true)

    try:
        order = convergence_order(trace)
    except InsufficientDataError as exc:
        order = None
        order_err = str(exc)
    else:
        order_err = None

    # a dense SVD, reported up to 4096 nodes
    cond = forward.condition_number() if grid.node_count <= 4096 else None

    base, header = _out_base("solve", opts)
    trace.write_csv(base.with_suffix(".trace.csv"))
    _write_meta(
        base.with_suffix(".meta.json"), header,
        operator=forward.descriptor,
        operator_injective=forward.injective,
        operator_condition_number=cond,
        p_true=p_true.to_json_dict(),
        p0=p0.to_json_dict(),
        radius=rho,
        step_contractions=trace.step_contractions,
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
    seeds = [opts.seed + index for index in range(opts.trials)]
    points = np.array([
        _trial_point(opts.units, opts.dim, opts.box, seed, opts.alpha_band,
                     opts.allow_zero_alpha)
        for seed in seeds
    ])
    reports = independence_reports(points, opts.units, opts.dim, activation,
                                   grid, opts.rank_tol, seeds)
    rows = [dict(report.to_json_dict(), trial=index)
            for index, report in enumerate(reports)]
    base, header = _out_base("independence", opts)
    _write_jsonl(base.with_suffix(".reports.jsonl"), rows)
    _write_meta(
        base.with_suffix(".meta.json"), header,
        trials=opts.trials,
        degenerate_count=sum(1 for r in rows if r["degenerate"]),
        min_singular_value=min(r["min_singular_value"] for r in rows),
    )
    return 0


def _run_cone(opts: ConeOptions) -> int:
    grid, activation = _grid_and_activation(opts)
    forward = _named("operator", _operator, opts.operator, grid)
    grid = forward.in_grid
    rng = np.random.default_rng(np.random.SeedSequence(opts.seed))
    p1 = sample_params(rng, opts.units, opts.dim,
                       box=opts.box, alpha_band=opts.alpha_band)
    direction = unit_direction(rng, p1.n_star)
    p2s = [p1.flatten() + t * direction for t in opts.t_values]
    reports = cone_check(p1, p2s, activation, grid, forward,
                         rank_tol=opts.rank_tol)
    rows = [dict(report.to_json_dict(), t=t)
            for report, t in zip(reports, opts.t_values)]
    base, header = _out_base("cone", opts)
    _write_jsonl(base.with_suffix(".reports.jsonl"), rows)
    ratios = [r["ratio"] for r in rows]
    _write_meta(
        base.with_suffix(".meta.json"), header,
        max_decomposition_residual=max(r["decomposition_residual"] for r in rows),
        ratio_spread=max(ratios) / min(ratios) if min(ratios) > 0 else None,
    )
    return 0


def _run_mysovskii(opts: MysovskiiOptions) -> int:
    grid, activation = _grid_and_activation(opts)
    forward = _named("operator", _operator, opts.operator, grid)
    grid = forward.in_grid
    rng = np.random.default_rng(np.random.SeedSequence(opts.seed))
    if opts.base_params is not None:
        base_params = Params.from_json_dict(opts.base_params)
    else:
        base_params = sample_params(rng, opts.units, opts.dim,
                                    box=opts.box, alpha_band=opts.alpha_band)
    # the constants need their ball inside the box; say so before the probes
    center, radius = base_params.flatten(), opts.constants_radius
    lo, hi = opts.param_box
    if center.min() - radius < lo or center.max() + radius > hi:
        raise ConfigError(
            f"base_params with constants_radius {radius} leaves param_box "
            f"[{lo}, {hi}]")
    # before the probes too, so a refused sample stack or Gram exits 1 first
    constants = lipschitz_constants(
        base_params, activation, grid,
        radius=opts.constants_radius,
        samples=opts.constants_samples,
        seed=opts.seed + 10_001,
        box=opts.param_box,
    )

    def probes():  # drawn a chunk at a time, in the one-by-one draw order
        for _ in range(opts.probes):
            p = center + opts.jitter * unit_direction(rng, center.size)
            q = p + opts.segment_radius * unit_direction(rng, center.size)
            yield p, q, (float(rng.uniform(0.05, 1.0)),)

    max_ratio = 0.0

    def rows():  # streamed, so memory stays flat in the probe count
        nonlocal max_ratio
        reports = mysovskii_reports(probes(), opts.units, opts.dim, activation,
                                    grid, forward, rank_tol=opts.rank_tol)
        for index, report in enumerate(reports):
            max_ratio = max(max_ratio, report.max_ratio)
            yield dict(report.to_json_dict(), probe=index)

    base, header = _out_name("mysovskii", opts)
    _write_jsonl(base.with_suffix(".reports.jsonl"), rows())
    product = constants.derivative_bound * constants.lipschitz_bound
    _write_meta(
        base.with_suffix(".meta.json"), header,
        base_params=base_params.to_json_dict(),
        max_bound_ratio=max_ratio,
        constants=constants.to_json_dict(),
        bound_product=product,
        ratio_over_product=max_ratio / product if product > 0 else None,
    )
    return 0


def _run_manifold(opts: ManifoldOptions) -> int:
    rows = manifold_sweep(opts.extent, opts.resolution)
    base, header = _out_base("manifold", opts)
    with open(base.with_suffix(".csv"), "w") as fh:
        fh.write("x,y,f1,f2,det\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
    _write_meta(base.with_suffix(".meta.json"), header,
                rows=int(rows.shape[0]))
    return 0


def _run_check_derivatives(opts: CheckDerivativesOptions) -> int:
    grid, activation = _grid_and_activation(opts)
    errors = [(0.0, 0.0)]
    for index in range(opts.probes):
        rng = np.random.default_rng(opts.seed + index)
        p = sample_params(rng, opts.units, opts.dim,
                          box=opts.box, alpha_band=opts.alpha_band)
        d1 = unit_direction(rng, p.n_star)
        d2 = unit_direction(rng, p.n_star)
        errors.append(derivative_check(p, activation, grid, d1, d2,
                                       opts.step_first, opts.step_second))
    worst_first, worst_second = map(max, zip(*errors))

    base, header = _out_base("check-derivatives", opts)
    _write_meta(
        base.with_suffix(".report.json"), header,
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


@functools.cache
def _build_parser() -> _Parser:
    """One subparser per options class: ``--config``, ``--out`` and one flag
    per name in its ``flags``, spelled and typed from the field.  Built once
    per process; every :func:`main` call parses with it."""
    parser = _Parser(prog="gncoder", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True)
    for command, (cls, _) in _COMMANDS.items():
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
    try:
        args = _build_parser().parse_args(argv)
        cls, runner = _COMMANDS[args.command]
        return runner(_options(cls, _load_config_file(args.config), vars(args)))
    except (ValueError, OSError) as exc:  # ConfigError is a ValueError
        # only an activation lacks a derivative
        key = "activation: " if isinstance(exc, SmoothnessError) else ""
        print(f"error: {key}{exc}", file=sys.stderr)
        return 1
    except (NumericError, RankDeficiencyError, FloatingPointError,
            np.linalg.LinAlgError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
