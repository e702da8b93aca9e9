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

from dataclasses import dataclass, replace
from functools import reduce
from operator import iadd

import numpy as np

from .activations import Activation
from .exceptions import ShapeError
from .grids import Grid, GridFunction, check_dense_bytes
from .params import Params
from .sampling import sample_in_ball

#: Default bounding box for network parameters; keeps sigmoid arguments in
#: the numerically active region.
DEFAULT_PARAM_BOX = (-10.0, 10.0)

#: Byte cap on the transient arrays built for many points at once, at least
#: one item per chunk.  In :func:`lipschitz_constants`: a chunk of sample
#: Jacobians built in one pass, the stack of matrices one batched SVD call
#: takes, the weighted node chunk of the Gram screen together with its
#: transposed copy, and the ``n* x n*`` blocks gathered to bound a run of
#: candidates.  In :mod:`~gncoder.diagnostics`: the cone's perturbed
#: Jacobians and the Mysovskii probes factored in one batched QR.
CHUNK_BYTES = 8 * 2**20

#: Relative margin on the Gram screen of :func:`lipschitz_constants`, far
#: above the rounding in the computed singular values and in the screen's own
#: norms and roots (see :func:`_gram_bounds`).
SCREEN_SLACK = 1e-6


def _check_dims(dim: int, g: Grid):
    if dim != g.dim:
        raise ShapeError(f"params expect input dimension {dim}, grid has {g.dim}")


def _flat_stack(flat, units: int, dim: int, what: str) -> np.ndarray:
    """``flat`` as a C-ordered float ``(rows, n*)`` stack of flattened
    parameters of ``units`` units in dimension ``dim``, an empty sequence
    as no rows; a :class:`ShapeError` naming both widths for any other
    shape."""
    stack = np.ascontiguousarray(flat, dtype=float)
    n_star = units * (dim + 2)
    if stack.shape == (0,):  # an empty sequence: no rows
        stack = stack.reshape(0, n_star)
    if stack.ndim != 2 or stack.shape[1] != n_star:
        raise ShapeError(f"{what} have shape {stack.shape}, {units} units in "
                         f"dimension {dim} need (rows, {n_star})")
    return stack


def _check_jacobian_bytes(rows: int, units: int, dim: int, m: int) -> None:
    """Refuse a ``rows``-point Jacobian stack on a grid of ``m`` points per
    axis, with room for one copy of it (its image under a forward
    operator, or the transposing copy of :func:`jacobian`) and the pass's
    scratch, ``8 (2 n* + 3 N)`` bytes a node and point, by
    :func:`~gncoder.grids.check_dense_bytes`."""
    n_star = units * (dim + 2)
    check_dense_bytes(8 * rows * m**dim * (2 * n_star + 3 * units),
                      f"points_per_axis {m} in dimension {dim}",
                      f"{rows}-point Jacobian stack")


def _unit_arguments(flat, units: int, dim: int, g: Grid) -> np.ndarray:
    """Affine unit inputs ``w_s . x + theta_s`` at every node for each row
    of a ``(rows, n*)`` stack of flattened parameters (or directions),
    shape ``(rows, node_count, units)``; each matrix bitwise ``g.nodes @
    w.T + theta`` at its row alone (see :func:`_w_transposed`)."""
    z = g.nodes @ _w_transposed(flat, units, dim)
    z += flat[:, None, units * (dim + 1) :]
    return z


def eval_psi(p: Params, a: Activation, g: Grid) -> GridFunction:
    """Synthesize the network function on the grid: the one-row case of
    :func:`eval_psis`."""
    return GridFunction(g, eval_psis(p.flatten()[None], p.units, p.input_dim,
                                     a, g)[0])


def eval_psis(flat, units: int, dim: int, a: Activation, g: Grid) -> np.ndarray:
    """The network function at each row of ``flat``, a ``(rows, n*)`` stack
    of flattened parameters of ``units`` units in dimension ``dim``; a fresh
    ``(rows, node_count)`` array.

    One stacked pass: ``z`` over a ``(rows, node_count, units)`` stack
    (:func:`_unit_arguments`), one activation pass, then ``value @ alpha``
    as one matrix-vector product per row.  At its peak the pass holds about
    three ``rows * node_count * units`` float64 arrays.
    """
    points = _flat_stack(flat, units, dim, "points")
    _check_dims(dim, g)
    z = _unit_arguments(points, units, dim, g)
    return np.matmul(a.value(z), points[:, :units, None])[:, :, 0]


def jacobian(p: Params, a: Activation, g: Grid) -> np.ndarray:
    """All first-derivative columns, in the flattening order, as a fresh
    C-ordered ``(node_count, n_star)`` array the caller owns: one
    transposing copy of :func:`jacobian_rows` at ``p``.

    Per unit ``s``: the alpha-column is ``act(z_s)``, the w-columns are
    ``alpha_s * act'(z_s) * x_t`` for each axis ``t``, and the theta-column
    is ``alpha_s * act'(z_s)``.
    """
    return np.ascontiguousarray(
        jacobian_rows(p.flatten()[None], p.units, p.input_dim, a, g)[0].T)


def jacobian_rows(flat, units: int, dim: int, a: Activation, g: Grid,
                  out=None) -> np.ndarray:
    """The Jacobians at the rows of ``flat``, a ``(rows, n*)`` stack of
    flattened parameters of ``units`` units in dimension ``dim``, as a fresh
    C-ordered ``(rows, n*, node_count)`` stack, one row of nodal values per
    column, built in one pass (:func:`_jacobian_matrices`): each matrix is
    bitwise that of its row alone.  Given ``out``, a C-ordered array of
    that shape, the stack is written there and ``out`` returned.  A stack
    of another width raises :class:`ShapeError` naming both widths; an
    oversized one is refused (:func:`_check_jacobian_bytes`) before any
    allocation."""
    points = _flat_stack(flat, units, dim, "points")
    _check_dims(dim, g)
    _check_jacobian_bytes(len(points), units, dim, g.points_per_axis)
    shape = (len(points), points.shape[1], g.node_count)
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape or not out.flags.c_contiguous:
        raise ShapeError(f"out must be a C-ordered array of shape {shape}, "
                         f"got shape {out.shape}")
    _jacobian_matrices(points, units, dim, a, g, out)
    return out


def _jacobian_matrices(flat, units: int, dim: int, a: Activation, g: Grid, out):
    """Write the Jacobian at each row of ``flat``, a ``(rows, n*)`` stack of
    flattened parameters, into ``out``, a ``(rows, n*, node_count)`` array
    whose matrices are C-ordered, one row of nodal values per column.

    Each row's ``z = g.nodes @ w.T + theta`` is bitwise that of
    :func:`_unit_arguments`: ``matmul`` multiplies a stack one
    matrix at a time, each with the strides of one ``Params.w.T``
    (:func:`_w_transposed`).  The rest is elementwise, and runs
    node-minor, so every inner loop is a run of nodes: ``+ theta`` writes
    ``z`` transposed, ``(rows, N, node_count)``, and one
    :meth:`~gncoder.activations.Activation.value_and_d1` pass over it fills
    the alpha rows of ``out`` and gives the slope for the others, which are
    written in place too.  Each entry is the same single operation on the
    same operands as in the node-major formula, so the layout changes no
    bit.
    """
    rows = len(flat)
    alpha = flat[:, :units, None]
    theta = flat[:, units * (dim + 1) :, None]
    z_t = np.add((g.nodes @ _w_transposed(flat, units, dim)).transpose(0, 2, 1),
                 theta,
                 out=np.empty((rows, units, g.node_count)))
    _, slope = a.value_and_d1(z_t, out=out[:, :units])
    scaled = np.multiply(slope, alpha, out=out[:, units * (dim + 1) :])
    np.multiply(
        scaled[:, :, None, :],
        g.nodes.T,
        out=out[:, units : units * (dim + 1)].reshape(rows, units, dim,
                                                      g.node_count),
    )


def _w_transposed(flat, units: int, dim: int) -> np.ndarray:
    """The ``w.T`` of each row of a C-ordered ``(rows, n*)`` stack of
    flattened parameters, shape ``(rows, dim, units)``: a transposed view,
    so each matrix has the strides of one ``Params.w.T`` and ``g.nodes @``
    it rounds as at one point."""
    return flat[:, units : units * (dim + 1)].reshape(-1, units, dim).transpose(0, 2, 1)


def directional_derivative(p: Params, a: Activation, g: Grid, direction) -> GridFunction:
    """Derivative of the synthesis operator along one flattened direction:
    the one-point case of :func:`directional_derivatives`."""
    values = directional_derivatives(p.flatten()[None], np.asarray(direction)[None],
                                     p.units, p.input_dim, a, g)
    return GridFunction(g, values[0])


def directional_derivatives(
    flat_points, flat_directions, units: int, dim: int, a: Activation, g: Grid
) -> np.ndarray:
    """The derivative of the synthesis operator at each row of
    ``flat_points`` along the same row of ``flat_directions``, both
    ``(rows, n*)`` stacks of flattened parameters of ``units`` units in
    dimension ``dim``; a fresh ``(rows, node_count)`` array.

    One stacked pass: ``z = g.nodes @ w.T + theta`` and ``u = g.nodes @
    dw.T + dtheta`` over ``(rows, node_count, units)`` stacks
    (:func:`_unit_arguments`), one
    :meth:`~gncoder.activations.Activation.value_and_d1` pass over ``z``,
    then ``value @ dalpha + (slope * u) @ alpha`` as one matrix-vector
    product per row.  So each row is bitwise the formula at its point
    alone.  At its peak the pass holds about three ``rows * node_count *
    units`` float64 arrays.
    """
    points = _flat_stack(flat_points, units, dim, "points")
    directions = _flat_stack(flat_directions, units, dim, "directions")
    if len(directions) != len(points):
        raise ShapeError(f"{len(points)} points but {len(directions)} directions")
    _check_dims(dim, g)
    value, slope = a.value_and_d1(_unit_arguments(points, units, dim, g))
    slope *= _unit_arguments(directions, units, dim, g)
    values = np.matmul(value, directions[:, :units, None])
    values += np.matmul(slope, points[:, :units, None])
    return values[:, :, 0]


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
    _check_dims(p.input_dim, g)
    units, dim = p.units, p.input_dim
    h1 = np.asarray(h1, dtype=float)
    h2 = np.asarray(h2, dtype=float)
    if h1.shape != (p.n_star,) or h2.shape != (p.n_star,):
        raise ShapeError(
            f"directions have shapes {h1.shape}, {h2.shape}, "
            f"expected ({p.n_star},)"
        )
    z, u1, u2 = _unit_arguments(np.stack([p.flatten(), h1, h2]), units, dim, g)
    d1z = a.d1(z)
    d2z = a.d2(z)
    values = np.sum(
        d1z * (u2 * h1[:units] + u1 * h2[:units]) + d2z * (u1 * u2) * p.alpha,
        axis=1,
    )
    return GridFunction(g, values)


def _weighted_batches(stack, sqrt_w, first, second=None):
    """``sqrt_w * stack[i]`` for ``i`` in ``first``, or, given ``second``,
    ``sqrt_w * (stack[i] - stack[j])`` for ``(i, j)`` in ``zip(first,
    second)`` with ``first`` ascending; in index order, as C-ordered
    ``(count, n*, node_count)`` rows like ``stack``.

    Each batch holds as many matrices as fit in :data:`CHUNK_BYTES`, at
    least one, so the temporaries stay within a few chunks.  Pairs are
    batched per ``i``, which is broadcast rather than gathered: a batch
    gathers one copy, of at most ``samples - 1`` matrices, even when the
    screen keeps every pair (as it can when the pair differences are as
    small as the rounding that :func:`_screen_margin` covers).
    """
    per_call = max(1, CHUNK_BYTES // stack[0].nbytes)
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


def _gram_blocks(stack, sqrt_w) -> np.ndarray:
    """Gram blocks ``G[i, j] = A_i.T @ A_j`` of the weighted sample
    Jacobians ``A_i = (sqrt_w * stack[i]).T``, from a ``(samples, n*,
    node_count)`` stack of Jacobian rows; shape ``(samples, samples, n*,
    n*)``.

    Accumulates ``flat.T @ flat`` over node chunks, ``flat`` being the
    chunk of every ``A_i`` side by side, a C-ordered ``(rows, samples *
    n*)`` copy.  The weighted chunk and that copy fit together in
    :data:`CHUNK_BYTES`, with at least one node per chunk.
    """
    samples, n_star, nodes = stack.shape
    width = samples * n_star
    rows = max(1, CHUNK_BYTES // (2 * width * stack.itemsize))

    def square(start):
        chunk = stack[..., start : start + rows] * sqrt_w[start : start + rows]
        flat = chunk.transpose(2, 0, 1).reshape(-1, width)
        return np.matmul(flat.T, flat)

    gram = reduce(iadd, map(square, range(0, nodes, rows)))
    return gram.reshape(samples, n_star, samples, n_star).swapaxes(1, 2)


def _frobenius_norms(rows) -> np.ndarray:
    """The 2-norm of each row, taken after scaling the row by a power of
    two that brings its largest entry into ``[0.5, 1)``: exact, and no
    square underflows or overflows.  A NaN row gives NaN."""
    _, exponents = np.frexp(np.max(np.abs(rows), axis=1))
    rows = np.ldexp(rows, -exponents[:, None])
    return np.ldexp(np.sqrt(np.vecdot(rows, rows)), exponents)


def _screen_margin(nodes: int) -> float:
    """Ten times ``2 (gamma_K + 6 eps)`` at ``K = nodes``: the factor on
    ``mass`` that covers the rounding of the Gram screen (see
    :func:`_gram_bounds`), about ``1.7e-13`` at 64 nodes."""
    eps = np.finfo(float).eps
    ku = nodes * eps / 2
    return 10 * 2 * (ku / (1 - ku) + 6 * eps)


def _gram_bounds(blocks, nodes, scale, first, second=None) -> np.ndarray:
    """``sqrt(|D|_F + margin * mass + tiny) * (1 + SCREEN_SLACK) / scale``
    for every matrix ``A`` of :func:`_weighted_batches`, from the blocks
    ``G`` of :func:`_gram_blocks` over a grid of ``nodes`` nodes: at least
    its computed ``sigma_max(A) / scale``.  ``margin`` is
    :func:`_screen_margin` of ``nodes``.

    ``D = G_ii`` and ``mass = tr G_ii = |A_i|_F^2`` for a sample ``i``;
    ``D = G_ii + G_jj - G_ij - G_ji`` and ``mass = tr G_ii + tr G_jj`` for
    a pair ``(i, j)``, whose ``A = A_i - A_j`` has ``A.T @ A = D`` in exact
    arithmetic.  ``tiny`` is the smallest normal float.  Why the bound
    holds, with ``u`` the unit roundoff, ``eps = 2u`` and ``K`` the node
    count:

    - ``sigma_max(A)^2 = |A.T A|_2 <= |D'|_F + |D' - A.T A|_F`` for the
      computed ``D'``.
    - Each Gram entry is an inner product of length ``K``, wrong by at most
      ``gamma_K = K u / (1 - K u)`` times the inner product of the absolute
      values (Higham, *Accuracy and Stability of Numerical Algorithms*,
      3.1), in any summation order and over any row chunking.  The sum of
      four blocks adds its own rounding, and the exact SVD weights
      ``stack[i] - stack[j]`` rather than subtracting ``A_j`` from ``A_i``.
      Together the error term is at most ``2 (gamma_K + 6 eps) mass``,
      which ``margin * mass`` covers ten times over.  The margin grows with
      the node count, so it stays near the rounding it covers, about
      ``1.7e-13 mass`` at 64 nodes and ``1.5e-7 mass`` at ``2**26``, the
      largest node count a grid within :data:`grids.DENSE_BYTES_LIMIT` has:
      a fixed one would dwarf the bounds of small grids where the Jacobian
      barely varies, and prune nothing there.
    - That model ignores underflow.  A product below ``tiny`` (Jacobian
      entries below about ``1e-154``, as in saturated sigmoid units) is
      off by up to half the subnormal spacing, ``2^-1075``, so a Gram entry
      by at most ``K 2^-1075``, and ``|D' - A.T A|_F`` gains at most ``4
      n* K 2^-1075``, which ``tiny = 2^-1022`` covers for any ``n* K``
      below ``2^50``.
    - ``|D'|_F`` itself is taken by :func:`_frobenius_norms`, which scales
      before squaring, so Gram entries below about ``1e-154`` (Jacobian
      entries below about ``1e-77``) still count: their squares do not
      underflow to zero.
    - The factor ``1 + SCREEN_SLACK`` covers the rounding of the computed
      singular value and of this bound's own norms and roots.

    Near-duplicate pairs, where cancellation dominates ``D'``, just get a
    loose bound and go to the SVD.  A NaN in a block gives a NaN bound.
    ``D`` is gathered for as many candidates at a time as three copies fit
    in :data:`CHUNK_BYTES`, at least one.
    """
    squares = np.einsum("iiaa->i", blocks)  # tr G_ii = |A_i|_F^2
    per_call = max(1, CHUNK_BYTES // (3 * blocks[0, 0].nbytes))
    norms = np.empty(len(first))
    for start in range(0, len(first), per_call):
        picks = slice(start, start + per_call)
        i = first[picks]
        d = blocks[i, i]
        if second is not None:  # one gathered block at a time
            j = second[picks]
            d += blocks[j, j]
            d -= blocks[i, j]
            d -= blocks[j, i]
        norms[picks] = _frobenius_norms(d.reshape(len(d), -1))
    mass = squares[first]
    if second is not None:
        mass = mass + squares[second]
    tiny = np.finfo(float).tiny
    margin = _screen_margin(nodes)
    return np.sqrt(norms + margin * mass + tiny) * (1.0 + SCREEN_SLACK) / scale


def _screened_quotients(stack, sqrt_w, blocks, scale, first, second=None) -> list:
    """``sigma_max(A) / scale`` of the matrices ``A`` of
    :func:`_weighted_batches` that can still have the largest one, as
    floats in index order.

    Screen, then confirm.  :func:`_gram_bounds` bound the computed
    quotients from above, from the Gram ``blocks`` alone; dividing by the
    same positive scale keeps the order.  One exact SVD of the candidate
    with the largest bound sets a floor, and only candidates whose bound is
    not ``<=`` the floor (NaN included) are built and get an SVD.  A pruned
    quotient is at most the floor, so the largest value, and Python ``max``
    over the list, equals the one over every candidate bit for bit.
    """
    if len(first) == 0:
        return []

    def exact(pick):
        pairs = None if second is None else second[pick]
        batches = _weighted_batches(stack, sqrt_w, first[pick], pairs)
        sigmas = [np.linalg.svd(b.transpose(0, 2, 1), compute_uv=False)[:, 0]
                  for b in batches]
        return np.concatenate(sigmas or [[]]) / scale[pick]

    bounds = _gram_bounds(blocks, stack.shape[2], scale, first, second)
    top = int(np.argmax(bounds))
    values = np.empty(len(bounds))
    values[[top]] = exact([top])
    keep = ~(bounds <= values[top])
    keep[top] = False
    values[keep] = exact(np.flatnonzero(keep))
    keep[top] = True  # in index order, Python max treats a NaN as before
    return values[keep].tolist()


@dataclass(frozen=True)
class ConvergenceConstants:
    """Constants governing the local convergence of the Gauss-Newton loop.

    ``derivative_bound`` bounds the operator norm of the synthesis-operator
    derivative on the sampled neighborhood, ``lipschitz_bound`` the
    Lipschitz constant of that derivative, ``cone_bound`` (optional) the
    tangential-cone constant, and ``radius`` the distance from the starting
    point to the solution.  ``contraction_factor`` combines them into the
    quantity that must stay below one for quadratic convergence.
    """

    derivative_bound: float
    lipschitz_bound: float
    cone_bound: float | None = None
    radius: float = 0.0
    samples: int | None = None
    flags: tuple = ()

    def __post_init__(self):
        for name in ("derivative_bound", "lipschitz_bound", "radius"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if self.cone_bound is not None and self.cone_bound < 0:
            raise ValueError("cone_bound must be nonnegative")

    @property
    def contraction_factor(self) -> float:
        return 0.5 * self.radius * self.derivative_bound * self.lipschitz_bound

    def with_radius(self, radius: float) -> "ConvergenceConstants":
        return replace(self, radius=float(radius))

    def to_json_dict(self) -> dict:
        return {
            "derivative_bound": self.derivative_bound,
            "lipschitz_bound": self.lipschitz_bound,
            "cone_bound": self.cone_bound,
            "radius": self.radius,
            "contraction_factor": self.contraction_factor,
            "samples": self.samples,
            "flags": list(self.flags),
        }


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

    Each maximum is screened by upper bounds from one Gram matrix of the
    weighted sample Jacobians, then confirmed by exact batched SVDs of only
    the candidates that can still reach it (:func:`_screened_quotients`),
    so both are bitwise those of an SVD of every candidate.
    The sample Jacobians themselves are built by :func:`_jacobian_matrices`
    straight into one stack of rows, as many samples per pass as fit in
    :data:`CHUNK_BYTES` (at least one), each bitwise :func:`jacobian` at its
    point, transposed; the SVDs take transposed views of them, whose
    column-major LAPACK copies are those of node-major matrices.

    The ball must lie inside the parameter box.  The Gram matrix and the
    sample stack are each refused by
    :func:`~gncoder.grids.check_dense_bytes` before any allocation.
    The Gram holds about two ``(samples * n*)^2`` float64 arrays, the sum
    and one row chunk's: 1.3 MB at 24 samples of ``n* = 12``, and 1 GiB at
    about 680 of them.  The stack holds ``samples * node_count * n*``
    float64s: 50 MB at 8 samples of ``n* = 12`` on 65536 nodes.
    """
    if not radius > 0:
        raise ValueError(f"radius must be positive, got {radius}")
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    who = f"constants_samples {samples}"
    check_dense_bytes(2 * 8 * (samples * p.n_star) ** 2, who,
                      f"Gram matrix for {p.n_star} parameters")
    check_dense_bytes(8 * samples * g.node_count * p.n_star, who,
                      f"sample stack on {g.node_count} nodes")
    lo, hi = box
    center = p.flatten()
    if center.min() - radius < lo or center.max() + radius > hi:
        raise ValueError(
            f"ball of radius {radius} leaves the parameter box [{lo}, {hi}]"
        )
    rng = np.random.default_rng(seed)
    points = np.empty((samples, p.n_star))
    for row in points:
        row[...] = sample_in_ball(rng, center, radius)
    _check_dims(p.input_dim, g)
    stack = np.empty((samples, p.n_star, g.node_count))
    per_call = max(1, CHUNK_BYTES // stack[0].nbytes)
    for start in range(0, samples, per_call):
        chunk = slice(start, start + per_call)
        _jacobian_matrices(points[chunk], p.units, p.input_dim, a, g, stack[chunk])
    sqrt_w = np.sqrt(g.weights)
    blocks = _gram_blocks(stack, sqrt_w)

    deriv_bound = max(_screened_quotients(
        stack, sqrt_w, blocks, np.ones(samples), np.arange(samples)
    ))
    flags = ()
    lipschitz = 0.0
    if samples < 2:
        flags = ("insufficient samples",)
    else:
        first, second = np.triu_indices(samples, 1)  # pairs i < j, row by row
        gaps = points[first] - points[second]
        # rounds as np.linalg.norm of each gap does; norm(axis=1) does not.
        # An overflowing distance is inf, and its quotient 0.
        with np.errstate(over="ignore"):
            dists = np.sqrt(np.vecdot(gaps, gaps))
        apart = dists != 0.0
        quotients = _screened_quotients(
            stack, sqrt_w, blocks, dists[apart], first[apart], second[apart]
        )
        lipschitz = max([lipschitz, *quotients])
    return ConvergenceConstants(
        derivative_bound=deriv_bound,
        lipschitz_bound=lipschitz,
        samples=samples,
        flags=flags,
    )
