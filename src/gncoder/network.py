"""Shallow synthesis operator: coefficients to grid functions.

A parameter vector ``p = (alpha, w, theta)`` with ``N`` units on an
``n``-dimensional domain synthesizes the function

    x -> sum_s alpha_s * act(w_s . x + theta_s),

a map from ``R^{N(n+2)}`` into the discretized function space.  All
derivatives are hand-coded closed forms: the Jacobian columns, directional
derivatives, and the full second-derivative bilinear form.  No automatic
differentiation is involved, which is what makes the finite-difference
cross-checks in the test suite meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .activations import Activation
from .exceptions import ShapeError
from .grids import Grid, GridFunction, _frozen_array
from .params import Params
from .pseudoinverse import ConvergenceConstants
from .sampling import sample_in_ball

#: Default bounding box for network parameters; keeps sigmoid arguments in
#: the numerically active region.
DEFAULT_PARAM_BOX = (-10.0, 10.0)

#: Byte cap on the stack of matrices that one batched SVD call, or one chunk
#: of the Frobenius screen, of :func:`lipschitz_constants` takes; a call
#: takes at least one matrix.
SVD_CHUNK_BYTES = 8 * 2**20

#: Relative margin on the Frobenius screen of :func:`lipschitz_constants`,
#: far above the rounding in the computed norms and singular values.
SCREEN_SLACK = 1e-6


@dataclass(frozen=True, eq=False)
class Jacobian:
    """Derivative columns of the synthesis operator at one parameter point.

    Columns follow the :class:`Params` flattening order and all live on one
    grid.  ``matrix`` is the dense ``(node_count, n_star)`` stack.
    """

    matrix: np.ndarray
    params: Params
    grid: Grid

    def __post_init__(self):
        object.__setattr__(self, "matrix", _frozen_array(self.matrix))
        if self.matrix.shape != (self.grid.node_count, self.params.n_star):
            raise ShapeError(
                f"Jacobian matrix has shape {self.matrix.shape}, expected "
                f"({self.grid.node_count}, {self.params.n_star})"
            )

    def column(self, i: int) -> GridFunction:
        return GridFunction(self.grid, self.matrix[:, i])


def _check_dims(p: Params, g: Grid):
    if p.input_dim != g.dim:
        raise ShapeError(
            f"params expect input dimension {p.input_dim}, grid has {g.dim}"
        )


def _unit_arguments(p: Params, g: Grid) -> np.ndarray:
    """Affine unit inputs ``w_s . x + theta_s`` at every node, shape (K, N)."""
    return g.nodes @ p.w.T + p.theta


def eval_psi(p: Params, a: Activation, g: Grid) -> GridFunction:
    """Synthesize the network function on the grid."""
    _check_dims(p, g)
    z = _unit_arguments(p, g)
    return GridFunction(g, a.value(z) @ p.alpha)


def jacobian(p: Params, a: Activation, g: Grid) -> Jacobian:
    """All first-derivative columns, in the flattening order.

    Per unit ``s``: the alpha-column is ``act(z_s)``, the w-columns are
    ``alpha_s * act'(z_s) * x_t`` for each axis ``t``, and the theta-column
    is ``alpha_s * act'(z_s)``.
    """
    _check_dims(p, g)
    units, n = p.units, p.input_dim
    z = _unit_arguments(p, g)
    d1 = a.d1(z)
    scaled = d1 * p.alpha  # (K, N)
    M = np.empty((g.node_count, p.n_star))
    M[:, :units] = a.value(z)
    M[:, units : units * (n + 1)] = (
        scaled[:, :, None] * g.nodes[:, None, :]
    ).reshape(g.node_count, units * n)
    M[:, units * (n + 1) :] = scaled
    return Jacobian(M, p, g)


def directional_derivative(p: Params, a: Activation, g: Grid, direction) -> GridFunction:
    """Derivative of the synthesis operator along one flattened direction."""
    _check_dims(p, g)
    h = np.asarray(direction, dtype=float)
    if h.shape != (p.n_star,):
        raise ShapeError(f"direction has shape {h.shape}, expected ({p.n_star},)")
    dp = Params.from_flat(h, p.units, p.input_dim)
    z = _unit_arguments(p, g)
    u = g.nodes @ dp.w.T + dp.theta
    values = a.value(z) @ dp.alpha + (a.d1(z) * u) @ p.alpha
    return GridFunction(g, values)


def second_derivative_bilinear(
    p: Params, a: Activation, g: Grid, h1, h2
) -> GridFunction:
    """Bilinear form of the second derivative along two flattened directions.

    The second derivative is block diagonal across units; within a unit the
    only nonzero blocks couple alpha with (w, theta) through ``act'`` and
    (w, theta) with themselves through ``alpha_s * act''``.  Writing
    ``u_i(x) = dw_i . x + dtheta_i`` for the affine part of direction ``i``,
    the form collapses to

        sum_s act'(z_s) (da1_s u2_s + da2_s u1_s) + alpha_s act''(z_s) u1_s u2_s.
    """
    _check_dims(p, g)
    h1 = np.asarray(h1, dtype=float)
    h2 = np.asarray(h2, dtype=float)
    if h1.shape != (p.n_star,) or h2.shape != (p.n_star,):
        raise ShapeError(
            f"directions have shapes {h1.shape}, {h2.shape}, "
            f"expected ({p.n_star},)"
        )
    d_1 = Params.from_flat(h1, p.units, p.input_dim)
    d_2 = Params.from_flat(h2, p.units, p.input_dim)
    z = _unit_arguments(p, g)
    u1 = g.nodes @ d_1.w.T + d_1.theta
    u2 = g.nodes @ d_2.w.T + d_2.theta
    d1z = a.d1(z)
    d2z = a.d2(z)
    values = np.sum(
        d1z * (u2 * d_1.alpha + u1 * d_2.alpha) + d2z * (u1 * u2) * p.alpha,
        axis=1,
    )
    return GridFunction(g, values)


def _weighted_batches(stack, sqrt_w, first, second=None):
    """``sqrt_w * stack[i]`` for ``i`` in ``first``, or, given ``second``,
    ``sqrt_w * (stack[i] - stack[j])`` for ``(i, j)`` in ``zip(first,
    second)`` with ``first`` ascending; in index order.

    Each batch holds as many matrices as fit in :data:`SVD_CHUNK_BYTES`, at
    least one, so the temporaries stay within a few chunks.  Pairs are
    batched per ``i``, which is broadcast rather than gathered.
    """
    per_call = max(1, SVD_CHUNK_BYTES // stack[0].nbytes)
    if second is None:
        rows = [(None, first)]
    else:
        heads, starts = np.unique(first, return_index=True)
        rows = zip(heads.tolist(), np.split(second, starts[1:]))
    for i, picks in rows:
        for start in range(0, len(picks), per_call):
            chunk = picks[start : start + per_call]
            batch = stack[chunk] if i is None else stack[i] - stack[chunk]
            batch *= sqrt_w
            yield batch


def _frobenius_bounds(stack, sqrt_w, scale, first, second=None) -> np.ndarray:
    """``|A|_F * (1 + SCREEN_SLACK) / scale`` of every matrix ``A`` of
    :func:`_weighted_batches`: at least its computed
    ``sigma_max(A) / scale``."""
    norms = []
    for batch in _weighted_batches(stack, sqrt_w, first, second):
        flat = batch.reshape(len(batch), -1)
        norms.append(np.sqrt(np.vecdot(flat, flat)))
    return np.concatenate(norms) * (1.0 + SCREEN_SLACK) / scale


def _screened_quotients(stack, sqrt_w, scale, first, second=None) -> list:
    """``sigma_max(A) / scale`` of the matrices ``A`` of
    :func:`_weighted_batches` that can still have the largest one, as
    floats in index order.

    Screen, then confirm.  ``sigma_max(A) <= |A|_F``, and the rounding in
    the computed norm and singular value stays far below
    :data:`SCREEN_SLACK`, so :func:`_frobenius_bounds` bound the computed
    quotients; dividing by the same positive scale keeps the order.  One
    exact SVD of the candidate with the largest bound sets a floor, and only
    candidates whose bound is not ``<=`` the floor (NaN included) get an
    SVD.  A pruned quotient is at most the floor, so the largest value, and
    Python ``max`` over the list, equals the one over every candidate bit
    for bit.
    """
    if len(first) == 0:
        return []

    def exact(pick):
        pairs = None if second is None else second[pick]
        batches = _weighted_batches(stack, sqrt_w, first[pick], pairs)
        sigmas = [np.linalg.svd(b, compute_uv=False)[:, 0] for b in batches]
        return np.concatenate(sigmas or [[]]) / scale[pick]

    bounds = _frobenius_bounds(stack, sqrt_w, scale, first, second)
    top = int(np.argmax(bounds))
    values = np.empty(len(bounds))
    values[[top]] = exact([top])
    keep = ~(bounds <= values[top])
    keep[top] = False
    values[keep] = exact(np.flatnonzero(keep))
    keep[top] = True  # in index order, Python max treats a NaN as before
    return values[keep].tolist()


def lipschitz_constants(
    p: Params,
    a: Activation,
    g: Grid,
    radius: float,
    samples: int,
    seed: int,
    box=DEFAULT_PARAM_BOX,
) -> ConvergenceConstants:
    """Sampled derivative and Lipschitz bounds on a parameter ball.

    Draws ``samples`` points uniformly from the ball of the given radius
    around ``p`` and reports the maximum derivative operator norm over the
    points and the maximum difference quotient over all point pairs.  Both
    are honest sampled estimates, reported together with the sample count;
    with a single sample no pair exists and the Lipschitz estimate is zero
    with an ``"insufficient samples"`` flag.  Pairs of equal points are
    skipped.

    Each maximum is screened, then confirmed (:func:`_screened_quotients`).
    The Frobenius norm of every weighted Jacobian, and of every weighted
    pair difference divided by its distance, bounds that candidate's
    operator norm (quotient) from above, with a margin of
    :data:`SCREEN_SLACK` over rounding.  Exact batched SVDs run only on the
    candidate with the largest bound and on those whose bound is not at or
    below its value, so the two maxima are bitwise those of an SVD of every
    candidate.

    The ball must lie inside the parameter box.
    """
    if not radius > 0:
        raise ValueError(f"radius must be positive, got {radius}")
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    lo, hi = box
    center = p.flatten()
    if center.min() - radius < lo or center.max() + radius > hi:
        raise ValueError(
            f"ball of radius {radius} leaves the parameter box [{lo}, {hi}]"
        )
    rng = np.random.default_rng(seed)
    points = np.array([sample_in_ball(rng, center, radius) for _ in range(samples)])
    stack = np.empty((samples, g.node_count, p.n_star))
    for k, q in enumerate(points):
        stack[k] = jacobian(Params.from_flat(q, p.units, p.input_dim), a, g).matrix
    sqrt_w = np.sqrt(g.weights)[:, None]

    deriv_bound = max(
        _screened_quotients(stack, sqrt_w, np.ones(samples), np.arange(samples))
    )
    flags = ()
    lipschitz = 0.0
    if samples < 2:
        flags = ("insufficient samples",)
    else:
        first, second = np.triu_indices(samples, 1)  # pairs i < j, row by row
        gaps = points[first] - points[second]
        # rounds as np.linalg.norm of each gap does; norm(axis=1) does not
        dists = np.sqrt(np.vecdot(gaps, gaps))
        apart = dists != 0.0
        quotients = _screened_quotients(
            stack, sqrt_w, dists[apart], first[apart], second[apart]
        )
        lipschitz = max([lipschitz, *quotients])
    return ConvergenceConstants(
        derivative_bound=deriv_bound,
        lipschitz_bound=lipschitz,
        samples=samples,
        flags=flags,
    )
