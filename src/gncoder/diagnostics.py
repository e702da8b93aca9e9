"""Numerical probes of the convergence hypotheses.

These routines gather evidence, not proofs: Monte-Carlo trials of the
linear independence of the derivative columns (with deliberate mirrored and
duplicated degeneracies), the order-reversed tangential cone condition on
shrinking perturbations, the Newton-Mysovskii quadratic bound, and a small
two-dimensional map whose Jacobian degenerates along the diagonals,
illustrating how a parametrized manifold loses rank.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .activations import Activation
from .exceptions import ResolutionError
from .grids import Grid, GridFunction
from .network import Params, directional_derivative, jacobian
from .operators import LinearOperator, check_dense_bytes
from .pseudoinverse import DEFAULT_RANK_TOL, full_rank_qr, pinv_apply
from .sampling import DEFAULT_ALPHA_BAND, DEFAULT_BOX, sample_params

@dataclass(frozen=True)
class IndependenceReport:
    """Singular-value evidence for one derivative-column family."""

    activation: str
    units: int
    input_dim: int
    points_per_axis: int
    seed: int | None
    min_singular_value: float
    rank: int
    degenerate: bool
    gram_condition: float

    def to_json_dict(self) -> dict:
        return {
            "activation": self.activation,
            "units": self.units,
            "input_dim": self.input_dim,
            "points_per_axis": self.points_per_axis,
            "seed": self.seed,
            "min_singular_value": self.min_singular_value,
            "rank": self.rank,
            "degenerate": self.degenerate,
            "gram_condition": self.gram_condition,
        }


def independence_report(
    p: Params,
    activation: Activation,
    grid: Grid,
    rank_tol: float = DEFAULT_RANK_TOL,
    seed: int | None = None,
) -> IndependenceReport:
    """Assess linear independence of the derivative columns at ``p``.

    Works on the weight-scaled column matrix, so singular values measure
    the columns as functions, not as coordinate vectors.  ``degenerate`` is
    a relative test: the smallest singular value below ``rank_tol`` times
    the largest.  The Gram-matrix condition number is the squared singular
    value ratio.
    """
    if p.n_star > grid.node_count:
        raise ResolutionError(
            f"{p.n_star} columns cannot be independent on {grid.node_count} nodes"
        )
    scaled = jacobian(p, activation, grid)
    scaled *= np.sqrt(grid.weights)[:, None]  # in place: no second matrix
    sv = np.linalg.svd(scaled, compute_uv=False)
    smax = float(sv[0])
    smin = float(sv[-1])
    threshold = rank_tol * smax
    rank = int(np.sum(sv > threshold))
    degenerate = bool(smin < threshold)
    gram_condition = (smax / smin) ** 2 if smin > 0 else math.inf
    return IndependenceReport(
        activation=activation.descriptor,
        units=p.units,
        input_dim=p.input_dim,
        points_per_axis=grid.points_per_axis,
        seed=seed,
        min_singular_value=smin,
        rank=rank,
        degenerate=degenerate,
        gram_condition=gram_condition,
    )


def independence_trial(
    activation: Activation,
    units: int,
    input_dim: int,
    grid: Grid,
    box=DEFAULT_BOX,
    seed: int = 0,
    rank_tol: float = DEFAULT_RANK_TOL,
    alpha_band: float = DEFAULT_ALPHA_BAND,
    allow_zero_alpha: bool = False,
) -> IndependenceReport:
    """One seeded Monte-Carlo independence trial with box-drawn parameters."""
    rng = np.random.default_rng(seed)
    p = sample_params(
        rng, units, input_dim, box=box,
        alpha_band=alpha_band, allow_zero_alpha=allow_zero_alpha,
    )
    return independence_report(p, activation, grid, rank_tol=rank_tol, seed=seed)


def merge_mirrored(p: Params) -> Params:
    """Append the sign-mirrored copy ``(alpha, -w, -theta)`` of every unit.

    For activations with an even derivative the mirrored theta-columns
    coincide with the originals, so the merged network is degenerate by
    construction.
    """
    return Params(
        np.concatenate([p.alpha, p.alpha]),
        np.concatenate([p.w, -p.w]),
        np.concatenate([p.theta, -p.theta]),
    )


def merge_duplicate(p: Params, unit: int = 0) -> Params:
    """Append an exact copy of one unit; its alpha-column repeats verbatim."""
    return Params(
        np.concatenate([p.alpha, p.alpha[unit : unit + 1]]),
        np.concatenate([p.w, p.w[unit : unit + 1]]),
        np.concatenate([p.theta, p.theta[unit : unit + 1]]),
    )


@dataclass(frozen=True)
class ConeReport:
    """Order-reversed tangential cone data for one parameter pair.

    ``r_matrix`` is the transition matrix expressing the derivative columns
    at ``p2`` in the column basis at ``p1``; ``dev`` its spectral distance
    from the identity; ``decomposition_residual`` the relative amount of the
    ``p2`` columns (mapped through the forward operator) left outside the
    ``p1`` span; ``ratio`` is ``dev`` per unit parameter distance.
    """

    p1: Params
    p2: Params
    r_matrix: np.ndarray
    dev: float
    decomposition_residual: float
    ratio: float

    def to_json_dict(self) -> dict:
        return {
            "p1": self.p1.to_json_dict(),
            "p2": self.p2.to_json_dict(),
            "r_matrix": self.r_matrix.tolist(),
            "dev": self.dev,
            "decomposition_residual": self.decomposition_residual,
            "ratio": self.ratio,
        }


def cone_check(
    p1: Params,
    p2: Params,
    activation: Activation,
    grid: Grid,
    forward: LinearOperator,
    rank_tol: float = DEFAULT_RANK_TOL,
) -> ConeReport:
    """Measure how well the derivative at ``p2`` factors through ``p1``.

    Requires full column rank at ``p1``; raises
    :class:`RankDeficiencyError` otherwise.
    """
    jac1 = jacobian(p1, activation, grid)
    factors = full_rank_qr(jac1, grid, rank_tol, "derivative at p1")
    jac2 = jacobian(p2, activation, grid)
    n_star = p1.n_star
    transition = np.empty((n_star, n_star))
    for j in range(n_star):
        transition[:, j] = pinv_apply(factors, GridFunction(grid, jac2[:, j]))
    dev = float(np.linalg.norm(transition - np.eye(n_star), 2))

    fj1 = forward.apply_columns(jac1)
    fj2 = forward.apply_columns(jac2)
    w_out = forward.out_grid.weights[:, None]
    defect = fj2 - fj1 @ transition
    num = math.sqrt(float(np.sum(w_out * defect * defect)))
    den = math.sqrt(float(np.sum(w_out * fj2 * fj2)))
    residual = num / den if den > 0 else 0.0

    dist = float(np.linalg.norm(p2.flatten() - p1.flatten()))
    ratio = dev / dist if dist > 0 else math.nan
    return ConeReport(p1, p2, transition, dev, residual, ratio)


@dataclass(frozen=True)
class MysovskiiReport:
    """Quadratic-bound probes along the segment between two parameter points.

    For each ``s`` the left-hand side is the pseudoinverse at ``p`` applied
    to the difference of Jacobian actions on ``p - q``; ``bound_ratios``
    normalizes by ``s * ||p - q||^2``, so the largest ratio is an empirical
    estimate of the product of the derivative and Lipschitz bounds.
    """

    s_values: tuple
    lhs_values: tuple
    bound_ratios: tuple

    @property
    def max_ratio(self) -> float:
        return max(self.bound_ratios, default=0.0)

    def to_json_dict(self) -> dict:
        return {
            "s_values": list(self.s_values),
            "lhs_values": list(self.lhs_values),
            "bound_ratios": list(self.bound_ratios),
            "max_ratio": self.max_ratio,
        }


def mysovskii_check(
    p: Params,
    q: Params,
    s_values,
    activation: Activation,
    grid: Grid,
    forward: LinearOperator,
    rank_tol: float = DEFAULT_RANK_TOL,
) -> MysovskiiReport:
    """Probe the quadratic Newton-Mysovskii bound along ``[q, p]``."""
    for s in s_values:
        if not 0.0 <= s <= 1.0:
            raise ValueError(f"s values must lie in [0, 1], got {s}")
    forward_jac = forward.apply_columns(jacobian(p, activation, grid))
    factors = full_rank_qr(forward_jac, forward.out_grid, rank_tol,
                           "derivative at p")
    d = p.flatten() - q.flatten()
    dist_sq = float(np.linalg.norm(d)) ** 2
    base = directional_derivative(q, activation, grid, d)
    lhs_values = []
    ratios = []
    for s in s_values:
        if dist_sq == 0.0 or s == 0.0:
            lhs_values.append(0.0)
            ratios.append(0.0)
            continue
        mid = Params.from_flat(q.flatten() + s * d, p.units, p.input_dim)
        diff = directional_derivative(mid, activation, grid, d) - base
        lhs = float(np.linalg.norm(pinv_apply(factors, forward.apply(diff))))
        lhs_values.append(lhs)
        ratios.append(lhs / (s * dist_sq))
    return MysovskiiReport(tuple(s_values), tuple(lhs_values), tuple(ratios))


def manifold_demo(x: float, y: float) -> tuple[tuple[float, float], float]:
    """Evaluate the degenerate example map ``(x, y) -> (xy, x^2 + y^2)``.

    Returns the map value and the Jacobian determinant ``2 (y^2 - x^2)``,
    which vanishes exactly on the diagonals: there the image fails to be a
    manifold, the two-dimensional analogue of a synthesis operator losing
    rank on its degeneracy surface.
    """
    return (x * y, x * x + y * y), 2.0 * (y * y - x * x)


def manifold_sweep(extent: float = 1.0, resolution: int = 101) -> np.ndarray:
    """Sample the demo map on a square for plotting.

    Rows are ``(x, y, f1, f2, det)`` in lexicographic order over the
    ``resolution x resolution`` lattice on ``[-extent, extent]^2``.

    Refused by :func:`~gncoder.operators.check_dense_bytes` before any
    allocation.  It holds about ten ``resolution**2`` float64 arrays at its
    peak: 0.8 MB at the default 101 and 1 GiB near 3663.
    """
    if resolution < 2:
        raise ValueError(f"resolution must be >= 2, got {resolution}")
    # two meshgrids, columns, temporaries, rows
    check_dense_bytes(10 * 8 * resolution**2, f"resolution {resolution}", "lattice")
    axis = np.linspace(-extent, extent, resolution)
    axis = 0.5 * (axis - axis[::-1])  # bitwise antisymmetric sampling
    xs, ys = np.meshgrid(axis, axis, indexing="ij")
    x = xs.reshape(-1)
    y = ys.reshape(-1)
    return np.column_stack([x, y, x * y, x * x + y * y, 2.0 * (y * y - x * x)])
