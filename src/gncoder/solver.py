"""Gauss-Newton iteration on encoded linear problems, with baselines.

The iteration solves ``F(psi(p)) = y`` for the network coefficients by

    p_{k+1} = p_k - pinv(J_k) (F(psi(p_k)) - y),

where ``J_k`` is the ``(node_count, n_star)`` matrix of forward-mapped
derivative columns; each step applies ``pinv`` through one LAPACK
Householder QR of ``√W·[J_k | r]`` that forms R alone, factored in place
in the step's workspace.  Each iterate makes one activation pass: the
Jacobian rows built there give ``psi``, hence the residual, and the step.
The loop is undamped on purpose: divergence outside the convergence radius
is an expected, reportable outcome, and rank deficiency halts the run with
a status instead of silently switching to minimum-norm steps.

A fixed-step gradient descent on the squared misfit serves as the baseline,
and the two Tikhonov objectives (state-space prior and parameter-space
penalty) are provided as value/gradient pairs.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .activations import Activation, SMOOTH_C2
from .exceptions import (
    ConfigError,
    InsufficientDataError,
    NumericError,
    RankDeficiencyError,
    ShapeError,
)
from .grids import Grid, GridFunction, norm
from .network import (DEFAULT_PARAM_BOX, ConvergenceConstants, Params,
                      _check_jacobian_bytes, _jacobian_matrices, eval_psi,
                      jacobian_rows)
from .operators import LinearOperator
from .pseudoinverse import (QRFactors, _solve_upper, full_rank, held,
                            householder_r)

MODE_GAUSS_NEWTON = "gauss_newton"
MODE_GRADIENT_DESCENT = "gradient_descent"

STATUS_CONVERGED_RESIDUAL = "converged_residual"
STATUS_CONVERGED_STEP = "converged_step"
STATUS_MAX_ITERS = "max_iters"
STATUS_RANK_DEFICIENT = "rank_deficient"

VARIANT_STATE_SPACE = "state_space"
VARIANT_PARAMETER_SPACE = "parameter_space"

TRACE_CSV_COLUMNS = ("iter", "residual", "step_norm", "param_error", "rank", "status")


@dataclass(frozen=True)
class SolveConfig:
    """Everything one solve run needs; the run is deterministic."""

    activation: Activation
    grid: Grid
    forward: LinearOperator
    initial: Params
    data: GridFunction
    max_iters: int = 25
    tol_residual: float = 1e-12
    tol_step: float = 1e-13
    rank_tol: float = 1e-10
    mode: str = MODE_GAUSS_NEWTON
    step_size: float = 1e-2
    param_box: tuple = DEFAULT_PARAM_BOX

    def __post_init__(self):
        if self.max_iters < 1:
            raise ConfigError(f"max_iters must be >= 1, got {self.max_iters}")
        for name in ("tol_residual", "tol_step", "rank_tol", "step_size"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be positive")
        if self.mode not in (MODE_GAUSS_NEWTON, MODE_GRADIENT_DESCENT):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.activation.smoothness != SMOOTH_C2:
            raise ConfigError(
                f"activation must be twice differentiable for the solver, "
                f"got {self.activation.descriptor!r}"
            )
        if self.initial.input_dim != self.grid.dim:
            raise ConfigError("initial params and grid disagree on dimension")
        if self.data.grid != self.forward.out_grid:
            raise ConfigError("data does not live on the operator's range grid")


@dataclass
class IterationTrace:
    """Per-iteration record of one solve run.

    ``residuals`` and ``param_errors`` have one entry per visited iterate
    (``iterations + 1`` of them); ``step_norms`` one per completed step;
    ``ranks`` one per Gauss-Newton step attempt.
    """

    residuals: list = field(default_factory=list)
    step_norms: list = field(default_factory=list)
    param_errors: list = field(default_factory=list)
    ranks: list = field(default_factory=list)
    boundary_events: list = field(default_factory=list)
    status: str = ""
    rank_deficit: int = 0
    final_params: Params | None = None

    @property
    def iterations(self) -> int:
        return len(self.residuals) - 1

    @property
    def step_contractions(self) -> list:
        """Deuflhard's a-posteriori contractions ``step_norms[k] /
        step_norms[k-1]`` for ``k >= 1``.  Each is finite: a step no longer
        than ``tol_step``, a zero one included, is the run's last."""
        norms = self.step_norms
        return [b / a for a, b in zip(norms, norms[1:])]

    def rows(self):
        """Rows matching ``TRACE_CSV_COLUMNS``; missing fields are empty."""
        last = len(self.residuals) - 1
        for k, res in enumerate(self.residuals):
            err = self.param_errors[k]
            yield (
                str(k),
                repr(res),
                repr(self.step_norms[k]) if k < len(self.step_norms) else "",
                "" if math.isnan(err) else repr(err),
                str(self.ranks[k]) if k < len(self.ranks) else "",
                self.status if k == last else "",
            )

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(TRACE_CSV_COLUMNS)
            writer.writerows(self.rows())


@dataclass
class StepDiagnostics:
    step_norm: float
    rank: int
    clamped: bool


def _forward_map(p: Params, cfg: SolveConfig) -> GridFunction:
    return cfg.forward.apply(eval_psi(p, cfg.activation, cfg.grid))


def _jacobian_rows(p: Params, cfg: SolveConfig, out=None) -> np.ndarray:
    """The ``(n_star, node_count)`` Jacobian rows of the synthesis at ``p``,
    written into ``out[0]`` when ``out`` is given."""
    return jacobian_rows(p.flatten()[None], p.units, p.input_dim,
                         cfg.activation, cfg.grid, out)[0]


def _clamp_to_box(flat: np.ndarray, box) -> tuple[np.ndarray, bool]:
    lo, hi = box
    clipped = np.clip(flat, lo, hi)
    return clipped, bool(np.any(clipped != flat))


def gauss_newton_step(
    p: Params, cfg: SolveConfig, residual: GridFunction, work: dict | None = None
) -> tuple[Params, StepDiagnostics]:
    """One undamped Gauss-Newton update from the residual ``F(psi(p)) - y``.

    The caller passes the residual it has already evaluated at ``p``.  The
    top of the last column of R, from the QR of ``√W·[J_k | r]``, is
    ``Q̃ᵀ√W r``, so the update is one triangular solve against R's leading
    block, gated by the rank rule of :class:`~gncoder.pseudoinverse.QRFactors`.
    Raises :class:`RankDeficiencyError` when the forward-mapped Jacobian
    loses full column rank under ``cfg.rank_tol`` and :class:`NumericError`
    if the update produces non-finite values.  ``J_k`` stays node-minor
    rows (:func:`~gncoder.network.jacobian_rows`) from build to
    factorization, and :func:`~gncoder.pseudoinverse.householder_r`
    factors the weighted image in place.
    Given a step workspace ``work`` (:func:`~gncoder.pseudoinverse.held`),
    the Jacobian rows, the image and LAPACK's arrays reuse its arrays.
    :func:`solve` also leaves there ``"sqrt_w"``, its ``√W``, and
    ``"at"``, the point whose rows it has just built into
    ``work["jacobian"]``: a step at that point takes the entry and the
    rows as they are.  Every path gives the same bits.
    """
    n, out_grid = p.n_star, cfg.forward.out_grid
    flat = p.flatten()
    at = None if work is None else work.pop("at", None)
    if at is not None and at.tobytes() == flat.tobytes():
        rows = work["jacobian"][0]
    else:
        rows = _jacobian_rows(p, cfg, held(
            work, "jacobian", (1, n, cfg.grid.node_count)))
    sqrt_w = None if work is None else work.get("sqrt_w")
    if sqrt_w is None:
        sqrt_w = np.sqrt(out_grid.weights)
    # [J_k | r] as C-ordered rows: its transpose is the F-ordered matrix
    # that LAPACK factors where it lies
    image = held(work, "image", (n + 1, out_grid.node_count))
    cfg.forward.apply_rows(rows, image[:n])
    image[n] = residual.values
    image *= sqrt_w
    r = householder_r(image, work)
    factors = full_rank(QRFactors(out_grid, None, r[:n, :n], cfg.rank_tol),
                        "Jacobian")
    delta = _solve_upper(factors.r_matrix, r[:n, n])
    new_flat = flat - delta
    if not np.all(np.isfinite(new_flat)):
        raise NumericError("Gauss-Newton update produced non-finite parameters")
    new_flat, clamped = _clamp_to_box(new_flat, cfg.param_box)
    step_norm = float(np.linalg.norm(new_flat - flat))
    p_next = Params.from_flat(new_flat, p.units, p.input_dim)
    return p_next, StepDiagnostics(step_norm, factors.rank, clamped)


def misfit_value_grad(p: Params, cfg: SolveConfig) -> tuple[float, np.ndarray]:
    """Value and gradient of ``0.5 * ||F psi(p) - y||^2``.

    The gradient is assembled through the weighted inner products: the
    Jacobian columns of the synthesis operator paired with the adjoint image
    of the residual.
    """
    residual = _forward_map(p, cfg) - cfg.data
    value = 0.5 * norm(residual) ** 2
    return value, _misfit_grad(_jacobian_rows(p, cfg), residual, cfg)


def _misfit_grad(rows: np.ndarray, residual: GridFunction,
                 cfg: SolveConfig) -> np.ndarray:
    """The misfit's gradient from the Jacobian rows and the residual at
    one point."""
    back = cfg.forward.adjoint(residual)
    return rows @ (cfg.grid.weights * back.values)


def gradient_step(p: Params, cfg: SolveConfig) -> tuple[Params, bool]:
    """One fixed-step descent update on the squared misfit.

    Returns the new iterate and whether it was clamped to the parameter box.
    """
    _, grad = misfit_value_grad(p, cfg)
    return _descend(p, grad, cfg)


def _descend(p: Params, grad: np.ndarray, cfg: SolveConfig) -> tuple[Params, bool]:
    new_flat = p.flatten() - cfg.step_size * grad
    if not np.all(np.isfinite(new_flat)):
        raise NumericError("gradient update produced non-finite parameters")
    new_flat, clamped = _clamp_to_box(new_flat, cfg.param_box)
    return Params.from_flat(new_flat, p.units, p.input_dim), clamped


def solve(cfg: SolveConfig, true_params: Params | None = None) -> IterationTrace:
    """Iterate until a residual, step, or iteration-count stopping rule fires.

    When ``true_params`` is given, the per-iterate parameter error is
    recorded (otherwise NaN).  Iterates leaving the parameter box are
    clamped to it and the iteration index is recorded as a boundary event;
    such runs are outside the convergence theory and the flag makes them
    auditable.  A residual norm that is not finite raises
    :class:`NumericError`.

    Each visited iterate makes one activation pass: its Jacobian rows are
    built into the step workspace, which this call alone holds, and
    ``psi`` is their alpha rows times ``alpha``, bitwise
    :func:`~gncoder.network.eval_psi`.  The residual is mapped from that
    ``psi``, and the step (:func:`gauss_newton_step`, or the descent
    update, whose gradient is one product with the rows) reuses the rows.
    The byte and shape checks of the rows and ``√W`` are taken once per
    call.
    """
    trace = IterationTrace()
    p = cfg.initial
    units, dim, grid = p.units, p.input_dim, cfg.grid
    _check_jacobian_bytes(1, units, dim, grid.points_per_axis)
    work = {"sqrt_w": np.sqrt(cfg.forward.out_grid.weights)}
    rows = held(work, "jacobian", (1, p.n_star, grid.node_count))
    flat = p.flatten()
    true_flat = true_params.flatten() if true_params is not None else None
    pending_step_stop = False
    k = 0
    while True:
        _jacobian_matrices(flat[None], units, dim, cfg.activation, grid, rows)
        work["at"] = flat
        psi = np.ascontiguousarray(rows[0, :units].T) @ flat[:units]
        residual = cfg.forward.apply(GridFunction(grid, psi)) - cfg.data
        res_norm = norm(residual)
        if not math.isfinite(res_norm):
            raise NumericError(f"residual norm is {res_norm} at iterate {k}")
        trace.residuals.append(res_norm)
        trace.param_errors.append(
            float(np.linalg.norm(flat - true_flat))
            if true_flat is not None
            else math.nan
        )
        if res_norm <= cfg.tol_residual:
            trace.status = STATUS_CONVERGED_RESIDUAL
            break
        if pending_step_stop:
            trace.status = STATUS_CONVERGED_STEP
            break
        if k >= cfg.max_iters:
            trace.status = STATUS_MAX_ITERS
            break

        if cfg.mode == MODE_GAUSS_NEWTON:
            try:
                p_next, diag = gauss_newton_step(p, cfg, residual, work)
            except RankDeficiencyError as exc:
                trace.status = STATUS_RANK_DEFICIENT
                trace.rank_deficit = exc.deficit
                break
            trace.ranks.append(diag.rank)
            step_norm = diag.step_norm
            clamped = diag.clamped
        else:
            p_next, clamped = _descend(
                p, _misfit_grad(rows[0], residual, cfg), cfg)
            step_norm = float(np.linalg.norm(p_next.flatten() - flat))
        if clamped:
            trace.boundary_events.append(k)
        trace.step_norms.append(step_norm)
        p, flat = p_next, p_next.flatten()
        k += 1
        if step_norm <= cfg.tol_step:
            pending_step_stop = True

    trace.final_params = p
    return trace


@dataclass(frozen=True)
class TikhonovObjective:
    """One of the two penalized least-squares functionals.

    ``state_space`` penalizes the synthesized image against a prior:
    ``||F psi(p) - y||^2 + lam * ||psi(p) - prior||^2``.  ``parameter_space``
    penalizes the coefficients directly with a weighted squared norm:
    ``||F psi(p) - y||^2 + lam * sum_i penalty_weights_i * p_i^2``.
    """

    lam: float
    variant: str
    prior: GridFunction | None = None
    penalty_weights: np.ndarray | None = None

    def __post_init__(self):
        if self.lam < 0:
            raise ConfigError(f"lambda must be nonnegative, got {self.lam}")
        if self.variant not in (VARIANT_STATE_SPACE, VARIANT_PARAMETER_SPACE):
            raise ConfigError(f"unknown Tikhonov variant {self.variant!r}")
        if self.variant == VARIANT_STATE_SPACE and self.prior is None:
            raise ConfigError("state_space variant needs a prior grid function")
        if self.variant == VARIANT_PARAMETER_SPACE and self.penalty_weights is None:
            raise ConfigError("parameter_space variant needs penalty weights")


def tikhonov_value_grad(
    obj: TikhonovObjective, p: Params, cfg: SolveConfig
) -> tuple[float, np.ndarray]:
    """Value and flattened gradient of the chosen Tikhonov functional."""
    image = eval_psi(p, cfg.activation, cfg.grid)
    residual = cfg.forward.apply(image) - cfg.data
    misfit = norm(residual) ** 2
    back = cfg.forward.adjoint(residual)
    rows = _jacobian_rows(p, cfg)
    w = cfg.grid.weights
    if obj.variant == VARIANT_STATE_SPACE:
        if obj.prior.grid != cfg.grid:
            raise ShapeError("prior lives on a different grid")
        deviation = image - obj.prior
        value = misfit + obj.lam * norm(deviation) ** 2
        grad = 2.0 * (
            rows @ (w * (back.values + obj.lam * deviation.values))
        )
        return value, grad
    weights = np.asarray(obj.penalty_weights, dtype=float)
    flat = p.flatten()
    if weights.shape != flat.shape:
        raise ShapeError(
            f"penalty weights have shape {weights.shape}, expected {flat.shape}"
        )
    value = misfit + obj.lam * float(np.sum(weights * flat * flat))
    grad = 2.0 * (rows @ (w * back.values)) + 2.0 * obj.lam * weights * flat
    return value, grad


def radius_check(constants: ConvergenceConstants) -> tuple[float, bool]:
    """Contraction factor ``radius * bounds / 2`` and whether it is below one."""
    h = constants.contraction_factor
    return h, h < 1.0


def convergence_order(trace_or_errors) -> float:
    """Least-squares convergence order from consecutive parameter errors.

    Uses the longest run of consecutive errors strictly between 1e-14 and
    1e-1 (at least three of them) and fits the slope of ``log e_{k+1}``
    against ``log e_k``.

    Raises
    ------
    InsufficientDataError
        If no qualifying window of three or more errors exists.
    """
    if isinstance(trace_or_errors, IterationTrace):
        errors = np.asarray(trace_or_errors.param_errors, dtype=float)
    else:
        errors = np.asarray(list(trace_or_errors), dtype=float)
    qualifying = (errors > 1e-14) & (errors < 1e-1)
    best_start, best_len = 0, 0
    run_start = None
    for i, ok in enumerate(np.append(qualifying, False)):
        if ok and run_start is None:
            run_start = i
        elif not ok and run_start is not None:
            if i - run_start > best_len:
                best_start, best_len = run_start, i - run_start
            run_start = None
    if best_len < 3:
        raise InsufficientDataError(
            f"need >= 3 consecutive errors in (1e-14, 1e-1), found {best_len}"
        )
    window = errors[best_start : best_start + best_len]
    x = np.log(window[:-1])
    y = np.log(window[1:])
    return float(np.polyfit(x, y, 1)[0])
