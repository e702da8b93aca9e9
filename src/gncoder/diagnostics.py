"""Numerical probes of the convergence hypotheses.

These routines gather evidence, not proofs: Monte-Carlo trials of the
linear independence of the derivative columns (with deliberate mirrored and
duplicated degeneracies), the order-reversed tangential cone condition on
shrinking perturbations, the Newton-Mysovskii quadratic bound, a
finite-difference check of the hand-coded derivatives, and a small
two-dimensional map whose Jacobian degenerates along the diagonals,
illustrating how a parametrized manifold loses rank.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from . import network
from .activations import Activation
from .exceptions import NumericError, ResolutionError, ShapeError
from .grids import Grid, check_dense_bytes
from .network import (Params, _check_dims, _check_jacobian_bytes, _flat_stack,
                      directional_derivatives, eval_psis, jacobian_rows,
                      second_derivative_bilinear)
from .operators import LinearOperator
from .pseudoinverse import (
    DEFAULT_RANK_TOL,
    _solve_upper,
    full_rank,
    householder_r,
    pinv_apply_columns,
    weighted_qr,
    weighted_qr_stack,
)
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
    """Assess linear independence of the derivative columns at ``p``: the
    one-row case of :func:`independence_reports`."""
    return independence_reports(p.flatten()[None], p.units, p.input_dim,
                                activation, grid, rank_tol, [seed])[0]


def independence_reports(
    flat,
    units: int,
    dim: int,
    activation: Activation,
    grid: Grid,
    rank_tol: float = DEFAULT_RANK_TOL,
    seeds=None,
) -> list[IndependenceReport]:
    """Assess linear independence of the derivative columns at each row of
    ``flat``, a ``(rows, n*)`` stack of flattened parameters of ``units``
    units in dimension ``dim``; one report per row in order, the row's
    entry of ``seeds`` (``None`` throughout by default) as its seed.

    Works on the weight-scaled column matrix, so singular values measure
    the columns as functions, not as coordinate vectors.  ``rank`` counts
    the singular values above ``rank_tol`` times the largest, and
    ``degenerate`` says that it is below ``n*``, so an all-zero Jacobian
    (rank 0) is degenerate.  The Gram-matrix condition number is the
    squared singular value ratio.

    The rows' Jacobians are written one at a time into one ``(1, n*,
    node_count)`` buffer allocated once per call
    (:func:`~gncoder.network._jacobian_matrices`), each weighted in place.
    Holding the buffer is the point: a fresh Jacobian per row (393 KB at
    the ``independence`` defaults) comes back as newly mapped pages, 160
    minor page faults a row.  Batching rows into stacked SVDs is no faster
    and holds more memory.

    The singular values are those of the node-major matrix, bitwise
    ``np.linalg.svd``'s.  On a grid of at least LAPACK's crossover
    (:func:`_factors_first`) nodes, the buffer is factored where it lies
    (:func:`~gncoder.pseudoinverse.householder_r`, its arrays held for the
    call) and the SVD is that of the ``n* x n*`` R: the same ``dgeqrf`` and
    the same SVD of R that ``dgesdd`` would run on a copy of the matrix.
    Below the crossover ``dgesdd`` bidiagonalizes the matrix directly, and
    factoring first would change the bits, so the buffer goes to
    ``np.linalg.svd`` as it is.

    A stack of another width raises :class:`ShapeError` naming both widths,
    more columns than nodes :class:`ResolutionError`, and an oversized
    Jacobian is refused (:func:`~gncoder.network._check_jacobian_bytes`),
    all before any allocation.  A row with an infinity or a NaN raises
    :class:`NumericError` naming the row and its seed, before any row is
    assessed.
    """
    points = _flat_stack(flat, units, dim, "points")
    seeds = [None] * len(points) if seeds is None else list(seeds)
    if len(seeds) != len(points):
        raise ShapeError(f"{len(points)} points but {len(seeds)} seeds")
    n_star = points.shape[1]
    if n_star > grid.node_count:
        raise ResolutionError(
            f"{n_star} columns cannot be independent on {grid.node_count} nodes"
        )
    finite = np.isfinite(points).all(axis=1)
    if not finite.all():
        index = int(np.argmin(finite))
        raise NumericError(f"point row {index} (seed {seeds[index]}) is not "
                           f"finite")
    _check_dims(dim, grid)
    _check_jacobian_bytes(1, units, dim, grid.points_per_axis)
    scaled = np.empty((1, n_star, grid.node_count))
    sqrt_w = np.sqrt(grid.weights)
    factor = _factors_first(grid.node_count, n_star)
    work = {}
    reports = []
    for row, seed in zip(points, seeds):
        network._jacobian_matrices(row[None], units, dim, activation, grid,
                                   scaled)
        scaled *= sqrt_w  # in place: no second matrix
        if factor:
            sv = np.linalg.svd(householder_r(scaled[0], work),
                               compute_uv=False)
        else:
            sv = np.linalg.svd(scaled[0].T, compute_uv=False)
        smax = float(sv[0])
        smin = float(sv[-1])
        rank = int(np.sum(sv > rank_tol * smax))
        reports.append(IndependenceReport(
            activation=activation.descriptor,
            units=units,
            input_dim=dim,
            points_per_axis=grid.points_per_axis,
            seed=seed,
            min_singular_value=smin,
            rank=rank,
            degenerate=rank < n_star,
            gram_condition=(smax / smin) ** 2 if smin > 0 else math.inf,
        ))
    return reports


def _factors_first(rows: int, cols: int) -> bool:
    """Whether LAPACK's ``dgesdd`` QR-factors a ``rows x cols`` matrix
    (``rows >= cols``) before its SVD: at ``rows >= MNTHR``, with ``MNTHR =
    INT(MINMN*11/6)`` as ``dgesdd`` sets it."""
    return rows >= (11 * cols) // 6


def _trial_point(units: int, input_dim: int, box, seed: int, alpha_band: float,
                 allow_zero_alpha: bool) -> np.ndarray:
    """The flattened parameters of the seeded independence trial ``seed``:
    a box draw from a generator seeded with ``seed`` alone."""
    rng = np.random.default_rng(seed)
    return sample_params(
        rng, units, input_dim, box=box,
        alpha_band=alpha_band, allow_zero_alpha=allow_zero_alpha,
    ).flatten()


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
    flat = _trial_point(units, input_dim, box, seed, alpha_band, allow_zero_alpha)
    return independence_reports(flat[None], units, input_dim, activation, grid,
                                rank_tol, [seed])[0]


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
    """Order-reversed tangential cone data for ``p1`` and a flattened ``p2``.

    ``r_matrix`` is the transition matrix expressing the derivative columns
    at ``p2`` in the column basis at ``p1``; ``dev`` its spectral distance
    from the identity; ``decomposition_residual`` the relative amount of the
    ``p2`` columns (mapped through the forward operator) left outside the
    ``p1`` span; ``ratio`` is ``dev`` per unit parameter distance.
    """

    p1: Params
    p2: np.ndarray
    r_matrix: np.ndarray
    dev: float
    decomposition_residual: float
    ratio: float

    def to_json_dict(self) -> dict:
        return {
            "p1": self.p1.to_json_dict(),
            "p2": Params.from_flat(self.p2, self.p1.units,
                                   self.p1.input_dim).to_json_dict(),
            "r_matrix": self.r_matrix.tolist(),
            "dev": self.dev,
            "decomposition_residual": self.decomposition_residual,
            "ratio": self.ratio,
        }


def _chunks(items, item_bytes):
    """Lists of consecutive ``items``, as many per list as fit in
    :data:`~gncoder.network.CHUNK_BYTES` at ``item_bytes(item)`` bytes
    each (taken at its first item), at least one; ``items`` is drawn from
    only as each list is needed."""
    items = iter(items)
    for first in items:
        per_chunk = max(1, network.CHUNK_BYTES // item_bytes(first))
        yield [first, *islice(items, per_chunk - 1)]


def cone_check(
    p1: Params,
    p2s,
    activation: Activation,
    grid: Grid,
    forward: LinearOperator,
    rank_tol: float = DEFAULT_RANK_TOL,
) -> list[ConeReport]:
    """Measure how well the derivative at each row of ``p2s`` factors
    through ``p1``, one report per row in order.

    ``p2s`` is a ``(rows, n*)`` stack of flattened points with the unit
    count and input dimension of ``p1``; a stack of another width raises
    :class:`ShapeError` naming both widths, before any Jacobian is built.
    The Jacobian at ``p1`` is built, mapped and factored once for all of
    them.  The Jacobians at ``p2s`` are built as rows in chunks that fit in
    :data:`~gncoder.network.CHUNK_BYTES`
    (:func:`~gncoder.network.jacobian_rows`), and each one's transition
    matrix comes from one
    :func:`~gncoder.pseudoinverse.pinv_apply_columns` call.  Requires full
    column rank at ``p1``; raises :class:`RankDeficiencyError` otherwise.
    """
    units, dim = p1.units, p1.input_dim
    p2s = _flat_stack(p2s, units, dim, "p2s").copy()  # the reports keep rows
    flat1 = p1.flatten()
    rows1 = jacobian_rows(flat1[None], units, dim, activation, grid)[0]
    factors = full_rank(weighted_qr(rows1.T, grid, rank_tol), "derivative at p1")
    fj1 = forward.apply_rows(rows1)
    w_out = forward.out_grid.weights
    n_star = p1.n_star
    reports = []
    for chunk in _chunks(p2s, lambda _: 8 * grid.node_count * n_star):
        for p2, rows2 in zip(chunk, jacobian_rows(chunk, units, dim, activation,
                                                  grid)):
            transition = pinv_apply_columns(factors, rows2.T)
            dev = float(np.linalg.norm(transition - np.eye(n_star), 2))

            fj2 = forward.apply_rows(rows2)
            defect = fj2 - transition.T @ fj1
            num = math.sqrt(float(np.sum(w_out * defect * defect)))
            den = math.sqrt(float(np.sum(w_out * fj2 * fj2)))
            residual = num / den if den > 0 else 0.0

            dist = float(np.linalg.norm(p2 - flat1))
            ratio = dev / dist if dist > 0 else math.nan
            reports.append(
                ConeReport(p1, p2, transition, dev, residual, ratio))
    return reports


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
    probes,
    units: int,
    dim: int,
    activation: Activation,
    grid: Grid,
    forward: LinearOperator,
    rank_tol: float = DEFAULT_RANK_TOL,
) -> list[MysovskiiReport]:
    """Probe the quadratic Newton-Mysovskii bound along ``[q, p]`` for each
    ``(p, q, s_values)`` of ``probes``, one report per probe in order.

    ``p`` and ``q`` are flattened points of ``units`` units in dimension
    ``dim``; a row of another shape raises :class:`ShapeError` naming both
    shapes, before any Jacobian is built.
    The Jacobians at every ``p`` are built as rows in one vectorized pass
    (:func:`~gncoder.network.jacobian_rows`), mapped through ``forward`` in
    one ``apply_rows`` call and factored in one batched QR
    (:func:`~gncoder.pseudoinverse.weighted_qr_stack`), then gated in probe
    order: the first probe whose derivative at ``p`` lacks full column rank
    raises :class:`RankDeficiencyError`.  The derivatives along ``d = p -
    q`` at every ``q`` and every segment point ``q + s d`` with ``s > 0``
    and ``d != 0`` come from one
    :func:`~gncoder.network.directional_derivatives` pass; each difference
    is mapped alone, and all are projected with one stacked ``Q̃ᵀ`` product
    and one stacked triangular solve.  Memory grows with
    the number of probes: :func:`mysovskii_reports` takes any number in
    bounded memory.
    """
    probes = list(probes)
    n_star = units * (dim + 2)
    for index, (p, q, s_values) in enumerate(probes):
        for s in s_values:
            if not 0.0 <= s <= 1.0:
                raise ValueError(f"s values must lie in [0, 1], got {s}")
        for name, point in (("p", p), ("q", q)):
            if np.shape(point) != (n_star,):
                raise ShapeError(
                    f"{name} of probe {index} has shape {np.shape(point)}, "
                    f"{units} units in dimension {dim} need ({n_star},)")
    if not probes:
        return []
    points = np.array([p for p, _, _ in probes], dtype=float)
    mapped = forward.apply_rows(jacobian_rows(points, units, dim, activation,
                                              grid))
    factors = [full_rank(f, "derivative at p") for f in weighted_qr_stack(
        mapped.transpose(0, 2, 1), forward.out_grid, rank_tol)]

    bases = np.array([q for _, q, _ in probes], dtype=float)
    steps = points - bases
    dists_sq = [float(np.linalg.norm(d)) ** 2 for d in steps]
    owners, scales = [], []  # the probe and s of each live segment point
    for index, (_, _, s_values) in enumerate(probes):
        if dists_sq[index] != 0.0:
            live = [s for s in s_values if s != 0.0]
            owners += [index] * len(live)
            scales += live
    derivs = directional_derivatives(
        np.concatenate([bases, bases[owners]
                        + np.array(scales)[:, None] * steps[owners]]),
        np.concatenate([steps, steps[owners]]), units, dim, activation, grid)
    # one image per difference: the 1-D Gaussian's product over a stack of
    # rows rounds by the stack's height, which the chunk size sets
    images = np.empty((len(owners), forward.out_grid.node_count))
    for image, diff in zip(images, derivs[len(probes):] - derivs[owners]):
        forward.apply_rows(diff, image)
    images *= np.sqrt(forward.out_grid.weights)
    # each segment point against its probe's factors: R c = Q̃ᵀ√W F(diff)
    q_stack = np.array([f.q_matrix for f in factors])[owners]
    r_stack = np.array([f.r_matrix for f in factors])[owners]
    solved = _solve_upper(r_stack, q_stack.transpose(0, 2, 1)
                          @ images[:, :, None])
    lhs_live = iter(np.linalg.norm(solved[:, :, 0], axis=1).tolist())

    reports = []
    for (_, _, s_values), dist_sq in zip(probes, dists_sq):
        lhs_values = []
        ratios = []
        for s in s_values:
            if dist_sq == 0.0 or s == 0.0:
                lhs_values.append(0.0)
                ratios.append(0.0)
                continue
            lhs = next(lhs_live)
            lhs_values.append(lhs)
            ratios.append(lhs / (s * dist_sq))
        reports.append(
            MysovskiiReport(tuple(s_values), tuple(lhs_values), tuple(ratios)))
    return reports


def mysovskii_reports(
    probes,
    units: int,
    dim: int,
    activation: Activation,
    grid: Grid,
    forward: LinearOperator,
    rank_tol: float = DEFAULT_RANK_TOL,
):
    """:func:`mysovskii_check` over an iterable of probes, any number of
    them, in chunks that fit in :data:`~gncoder.network.CHUNK_BYTES`;
    yields the reports in order.

    ``probes`` is drawn from a chunk at a time, so a lazy iterable keeps the
    memory flat in the probe count.  A chunk holds, per probe, the Jacobian,
    its image, the weighted copy that the QR factors and its ``Q̃``, about
    ``8 n* (node_count + 3 out_nodes)`` bytes, a copy of ``Q̃`` for each of
    its ``k`` segment points, ``8 k n* out_nodes`` bytes, and the
    directional-derivative pass at ``q`` and at those points, about ``8 (k
    + 1) node_count (3 N + 2)`` bytes; that is one probe per chunk on a 256
    x 256 grid.
    """
    out_nodes = forward.out_grid.node_count

    def probe_bytes(probe):
        k = len(probe[2])
        tail = (k + 1) * grid.node_count * (3 * units + 2)
        return 8 * (units * (dim + 2) * (grid.node_count + (3 + k) * out_nodes)
                    + tail)

    for chunk in _chunks(probes, probe_bytes):
        yield from mysovskii_check(chunk, units, dim, activation, grid, forward,
                                   rank_tol)


def derivative_check(p: Params, activation: Activation, grid: Grid, d1, d2,
                     step_first: float, step_second: float) -> tuple[float, float]:
    """Finite-difference errors of the hand-coded derivatives at ``p``: the
    largest weighted relative error of the central difference with step
    ``step_first`` against a :func:`~gncoder.network.jacobian` column of
    nonzero norm, and that of the four-point difference with step
    ``step_second`` against
    :func:`~gncoder.network.second_derivative_bilinear` along the flattened
    directions ``d1`` and ``d2``; 0.0 where the norms are zero.

    The ``2 n* + 4`` stencil points ``p ± step_first e_i`` and ``p ±
    step_second (d1 ± d2)`` go through :func:`~gncoder.network.eval_psis`,
    as many per pass as fit in :data:`~gncoder.network.CHUNK_BYTES`.  Each
    weighted sum runs along the last axis of a C-ordered array, so it
    rounds as the same sum over one column alone.
    """
    exact = second_derivative_bilinear(p, activation, grid, d1, d2).values
    n_star, flat, w = p.n_star, p.flatten(), grid.weights
    offsets = step_first * np.eye(n_star)
    plus, minus = step_second * np.add(d1, d2), step_second * np.subtract(d1, d2)
    stencil = np.concatenate([flat + offsets, flat - offsets,
                              [flat + plus, flat + minus, flat - minus, flat - plus]])
    chunks = _chunks(stencil, lambda _: 8 * grid.node_count * (3 * p.units + 1))
    psi = np.concatenate([eval_psis(chunk, p.units, p.input_dim, activation, grid)
                          for chunk in chunks])

    columns = jacobian_rows(flat[None], p.units, p.input_dim, activation, grid)[0]
    fd = (psi[:n_star] - psi[n_star : 2 * n_star]) / (2 * step_first)
    num = np.sqrt(np.sum(w * (fd - columns) ** 2, axis=1))
    den = np.sqrt(np.sum(w * columns**2, axis=1))
    first = max([0.0, *(num[den > 0] / den[den > 0]).tolist()])

    up, mid_up, mid_down, down = psi[2 * n_star :]
    fd = (up - mid_up - mid_down + down) / (4 * step_second * step_second)
    num = np.sqrt(np.sum(w * (fd - exact) ** 2))
    den = np.sqrt(np.sum(w * exact**2))
    return first, float(num / den) if den > 0 else 0.0


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

    Refused by :func:`~gncoder.grids.check_dense_bytes` before any
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
