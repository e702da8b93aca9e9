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

from functools import reduce
from operator import iadd

import numpy as np

from .activations import Activation
from .exceptions import ShapeError
from .grids import Grid, GridFunction
from .operators import check_dense_bytes
from .params import Params
from .pseudoinverse import ConvergenceConstants
from .sampling import sample_in_ball

#: Default bounding box for network parameters; keeps sigmoid arguments in
#: the numerically active region.
DEFAULT_PARAM_BOX = (-10.0, 10.0)

#: Byte cap on the transient arrays of :func:`lipschitz_constants`: a chunk
#: of sample Jacobians built in one pass (at least one sample), the stack
#: of matrices one batched SVD call takes (at least one matrix), the
#: weighted row chunk of the Gram screen together with its transposed copy
#: (at least one row), and the ``n* x n*`` blocks gathered to bound a run of
#: candidates (at least one candidate).
SVD_CHUNK_BYTES = 8 * 2**20

#: Relative margin on the Gram screen of :func:`lipschitz_constants`, far
#: above the rounding in the computed singular values and in the screen's own
#: norms and roots (see :func:`_gram_bounds`).
SCREEN_SLACK = 1e-6


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


def jacobian(p: Params, a: Activation, g: Grid) -> np.ndarray:
    """All first-derivative columns, in the flattening order, as a fresh
    C-ordered ``(node_count, n_star)`` array the caller owns.

    Per unit ``s``: the alpha-column is ``act(z_s)``, the w-columns are
    ``alpha_s * act'(z_s) * x_t`` for each axis ``t``, and the theta-column
    is ``alpha_s * act'(z_s)``.
    """
    _check_dims(p, g)
    M = np.empty((1, g.node_count, p.n_star))
    _jacobian_matrices(p.flatten()[None], p.units, p.input_dim, a, g, M)
    return M[0]


def _jacobian_matrices(flat, units: int, dim: int, a: Activation, g: Grid, out):
    """Write the Jacobian at each row of ``flat``, a ``(rows, n*)`` stack of
    flattened parameters, into ``out``, shape ``(rows, node_count, n*)``.

    Each row's ``z = g.nodes @ w.T + theta`` is bitwise
    :func:`_unit_arguments` at that point: ``matmul`` multiplies a stack one
    matrix at a time, and the fresh C-ordered ``w`` stack gives each matrix
    the strides of one ``Params.w.T``.  The rest is elementwise.
    """
    rows = len(flat)
    alpha = flat[:, None, :units]
    w_t = np.ascontiguousarray(
        flat[:, units : units * (dim + 1)].reshape(rows, units, dim)
    ).transpose(0, 2, 1)
    theta = flat[:, None, units * (dim + 1) :]
    z = g.nodes @ w_t + theta  # (rows, K, N)
    scaled = a.d1(z) * alpha
    out[:, :, :units] = a.value(z)
    out[:, :, units : units * (dim + 1)] = (
        scaled[..., None] * g.nodes[:, None, :]
    ).reshape(rows, g.node_count, units * dim)
    out[:, :, units * (dim + 1) :] = scaled


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
    batched per ``i``, which is broadcast rather than gathered: a batch
    gathers one copy, of at most ``samples - 1`` matrices, even when the
    screen keeps every pair (as it can when the pair differences are as
    small as the rounding that :func:`_screen_margin` covers).
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


def _gram_blocks(stack, sqrt_w) -> np.ndarray:
    """Gram blocks ``G[i, j] = A_i.T @ A_j`` of the weighted sample
    Jacobians ``A_i = sqrt_w * stack[i]``, shape ``(samples, samples, n*,
    n*)``.

    Accumulates ``flat.T @ flat`` over row chunks, ``flat`` being the chunk
    of every ``A_i`` side by side, ``(rows, samples * n*)``.  The weighted
    chunk and its transposed copy fit together in :data:`SVD_CHUNK_BYTES`,
    with at least one row per chunk.
    """
    samples, nodes, n_star = stack.shape
    width = samples * n_star
    rows = max(1, SVD_CHUNK_BYTES // (2 * width * stack.itemsize))

    def square(start):
        chunk = stack[:, start : start + rows] * sqrt_w[start : start + rows]
        flat = chunk.transpose(1, 0, 2).reshape(-1, width)
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
      ``1.7e-13 mass`` at 64 nodes and ``2.2e-7 mass`` at
      :data:`grids.MAX_NODES`: a fixed one would dwarf the bounds of small
      grids where the Jacobian barely varies, and prune nothing there.
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
    in :data:`SVD_CHUNK_BYTES`, at least one.
    """
    squares = np.einsum("iiaa->i", blocks)  # tr G_ii = |A_i|_F^2
    per_call = max(1, SVD_CHUNK_BYTES // (3 * blocks[0, 0].nbytes))
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
        sigmas = [np.linalg.svd(b, compute_uv=False)[:, 0] for b in batches]
        return np.concatenate(sigmas or [[]]) / scale[pick]

    bounds = _gram_bounds(blocks, stack.shape[1], scale, first, second)
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
    One Gram matrix of the weighted sample Jacobians (:func:`_gram_blocks`)
    gives every weighted Jacobian, and every weighted pair difference, its
    ``A.T @ A``; the Frobenius norm of that, with a margin over rounding
    scaled to the node count (:func:`_screen_margin`), bounds the
    candidate's operator norm (quotient) from above (:func:`_gram_bounds`).
    Exact batched SVDs run only on the candidate with the largest bound and
    on those whose bound is not at or below its value, and only those
    matrices are built, so the two maxima are bitwise those of an SVD of
    every candidate.
    The sample Jacobians themselves are built by :func:`_jacobian_matrices`
    straight into one stack, as many samples per pass as fit in
    :data:`SVD_CHUNK_BYTES` (at least one), bitwise equal to
    :func:`jacobian` at each point.

    The ball must lie inside the parameter box.  The Gram matrix and the
    sample stack are each refused by
    :func:`~gncoder.operators.check_dense_bytes` before any allocation.
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
    points = np.array([sample_in_ball(rng, center, radius) for _ in range(samples)])
    _check_dims(p, g)
    stack = np.empty((samples, g.node_count, p.n_star))
    per_call = max(1, SVD_CHUNK_BYTES // stack[0].nbytes)
    for start in range(0, samples, per_call):
        chunk = slice(start, start + per_call)
        _jacobian_matrices(points[chunk], p.units, p.input_dim, a, g, stack[chunk])
    sqrt_w = np.sqrt(g.weights)[:, None]
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
        # rounds as np.linalg.norm of each gap does; norm(axis=1) does not
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
