"""Moore-Penrose machinery over a matrix of function-valued columns.

The engine is a quadrature-weighted modified Gram-Schmidt factorization of
a ``(node_count, m)`` matrix whose columns are nodal values on one grid.
From the factors we get the orthogonal projection onto the column span, the
Moore-Penrose pseudoinverse applied to a grid function, and residuals of the
four defining pseudoinverse identities (``LBL = L``, ``BLB = B``,
``BL = I - P``, ``LB = Q``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import solve_triangular

from .exceptions import GridMismatchError, RankDeficiencyError, ZeroMatrixError
from .grids import Grid, GridFunction

DEFAULT_RANK_TOL = 1e-10

_MP_PROBE_SEED = 7081
_MP_PROBE_COUNT = 20


@dataclass(frozen=True)
class QRFactors:
    """Weighted QR factorization of a column matrix on one grid.

    ``q_matrix`` holds the retained orthonormal columns (orthonormal in the
    weighted inner product), ``r_matrix`` the upper-trapezoidal coefficient
    matrix against *all* original columns, and ``dependent`` flags the
    columns whose post-projection norm fell below
    ``rank_tol * max(original column norms)``.
    """

    grid: Grid
    q_matrix: np.ndarray   # (node_count, rank)
    r_matrix: np.ndarray   # (rank, column_count)
    dependent: tuple

    @property
    def rank(self) -> int:
        return self.q_matrix.shape[1]

    @property
    def column_count(self) -> int:
        return self.r_matrix.shape[1]

    @property
    def retained_indices(self) -> tuple:
        return tuple(k for k, d in enumerate(self.dependent) if not d)


def _check_rows(matrix: np.ndarray, grid: Grid) -> None:
    if matrix.ndim != 2 or matrix.shape[0] != grid.node_count:
        raise GridMismatchError(
            f"expected a matrix with {grid.node_count} rows, got shape "
            f"{matrix.shape}"
        )


def weighted_qr(
    matrix: np.ndarray, grid: Grid, rank_tol: float = DEFAULT_RANK_TOL
) -> QRFactors:
    """Orthonormalize the columns of ``matrix`` in the weighted inner product.

    Modified Gram-Schmidt with one reorthogonalization pass.  A column whose
    residual norm after projection falls below ``rank_tol`` times the
    largest original column norm is flagged dependent and excluded from the
    orthonormal family; the retained count is the numerical rank.

    Each retained ``q_i`` is kept beside its weighted copy ``w * q_i`` in
    preallocated arrays, and every update runs in place, for matrices of
    any size.  Each coefficient is ``sum((w * q_i) * v)`` and each norm
    ``sqrt(sum((w * v) * v))``, the products and the pairwise sum that
    ``np.sum(w * q_i * v)`` and ``np.sum(w * v * v)`` take, and the two
    passes' coefficients are summed from zero in order, so the factors are
    bitwise those of the same sweep over fresh column copies.

    Raises
    ------
    GridMismatchError
        If ``matrix`` does not have one row per node of ``grid``.
    ZeroMatrixError
        If every column is identically zero.
    """
    if not rank_tol > 0:
        raise ValueError(f"rank_tol must be positive, got {rank_tol}")
    _check_rows(matrix, grid)
    if matrix.shape[1] == 0:
        raise ValueError("need at least one column")
    # row-major, so the axis-0 reductions below round the same way for every
    # caller's memory layout
    C = np.ascontiguousarray(matrix, dtype=float)
    w = grid.weights
    ncols = C.shape[1]
    col_norms = np.sqrt(np.sum(w[:, None] * C * C, axis=0))
    max_norm = float(col_norms.max())
    if max_norm == 0.0:
        raise ZeroMatrixError("all columns are identically zero")
    threshold = rank_tol * max_norm

    # the retained q_i and their weighted copies w * q_i, one row each
    q_rows = np.empty((ncols, C.shape[0]))
    qs, wqs = list(q_rows), list(np.empty_like(q_rows))
    v = np.empty(C.shape[0])
    tmp = np.empty_like(v)
    r_rows = np.zeros((ncols, ncols))  # trimmed to the final rank below
    dependent = []
    rank = 0
    for k in range(ncols):
        v[:] = C[:, k]
        coeffs = [0.0] * rank
        for _ in range(2):  # MGS sweep plus one reorthogonalization
            for i in range(rank):
                # sum(w * q_i * v), which multiplies (w * q_i) by v
                coeff = float(np.add.reduce(np.multiply(wqs[i], v, out=tmp)))
                coeffs[i] += coeff
                np.subtract(v, np.multiply(qs[i], coeff, out=tmp), out=v)
        r_rows[:rank, k] = coeffs
        # sqrt(sum(w * v * v)); math.sqrt rounds as np.sqrt does
        np.multiply(np.multiply(w, v, out=tmp), v, out=tmp)
        vnorm = math.sqrt(np.add.reduce(tmp))
        if vnorm < threshold:
            dependent.append(True)
            continue
        dependent.append(False)
        r_rows[rank, k] = vnorm
        np.divide(v, vnorm, out=qs[rank])
        np.multiply(w, qs[rank], out=wqs[rank])
        rank += 1

    if rank == 0:
        raise ZeroMatrixError("all columns fell below the rank tolerance")
    q_matrix = q_rows[:rank].T.copy()  # C order, as column_stack gave
    return QRFactors(grid, q_matrix, r_rows[:rank, :], tuple(dependent))


def full_rank_qr(
    matrix: np.ndarray, grid: Grid, rank_tol: float, what: str
) -> QRFactors:
    """:func:`weighted_qr` of a matrix that must keep full column rank.

    Raises :class:`RankDeficiencyError` ``"<what> has rank r < n"``, with
    ``deficit = n - r``, when any column is flagged dependent.
    """
    factors = weighted_qr(matrix, grid, rank_tol)
    n = factors.column_count
    if factors.rank < n:
        raise RankDeficiencyError(
            f"{what} has rank {factors.rank} < {n}", deficit=n - factors.rank
        )
    return factors


def _q_coefficients(factors: QRFactors, x: GridFunction) -> np.ndarray:
    if x.grid != factors.grid:
        raise GridMismatchError("input lives on a different grid than the factors")
    return factors.q_matrix.T @ (factors.grid.weights * x.values)


def project(factors: QRFactors, x: GridFunction) -> GridFunction:
    """Orthogonal projection of ``x`` onto the span of the columns."""
    beta = _q_coefficients(factors, x)
    return GridFunction(factors.grid, factors.q_matrix @ beta)


def pinv_apply(factors: QRFactors, x: GridFunction, strict: bool = True) -> np.ndarray:
    """Apply the Moore-Penrose pseudoinverse of the column family to ``x``.

    Returns the coefficient vector ``c`` (length ``column_count``) solving
    ``R c = Q^T x`` by back-substitution, i.e. the coefficients of the
    projection of ``x`` in the original columns.  With ``strict=True`` a
    rank-deficient factorization raises :class:`RankDeficiencyError`; with
    ``strict=False`` coefficients at excluded (dependent) column positions
    are zero, the minimum-norm convention on the retained columns.
    """
    deficit = factors.column_count - factors.rank
    if deficit > 0 and strict:
        raise RankDeficiencyError(
            f"factorization is rank deficient by {deficit} "
            f"({factors.rank} of {factors.column_count})",
            deficit=deficit,
        )
    beta = _q_coefficients(factors, x)
    retained = list(factors.retained_indices)
    tri = factors.r_matrix[:, retained]
    coeffs = solve_triangular(tri, beta, lower=False)
    out = np.zeros(factors.column_count)
    out[retained] = coeffs
    return out


@dataclass(frozen=True)
class MPResiduals:
    """Relative residuals of the four Moore-Penrose identities.

    ``lbl``  : reproduction of the forward map, ``L B L = L``.
    ``blb``  : reproduction of the pseudoinverse, ``B L B = B``.
    ``bl``   : ``B L`` against the identity on coefficient space (the
    nullspace projection vanishes for an immersion; at rank deficiency this
    residual is order one and is reported, not failed).
    ``lb``   : ``L B`` against the orthogonal projection onto the span.
    """

    lbl: float
    blb: float
    bl: float
    lb: float

    def as_tuple(self):
        return (self.lbl, self.blb, self.bl, self.lb)

    def max(self) -> float:
        return max(self.as_tuple())


def mp_residuals(matrix: np.ndarray, factors: QRFactors) -> MPResiduals:
    """Measure the four pseudoinverse identities on a fixed probe set.

    ``matrix`` holds the factored columns.  Probes are 20 seeded random
    coefficient vectors and grid functions; each residual is normalized by
    the scale of its input and the maximum over the probes is reported.
    """
    grid = factors.grid
    _check_rows(matrix, grid)
    w = grid.weights
    ncols = matrix.shape[1]

    def apply_l(coeffs):
        return GridFunction(grid, matrix @ coeffs)

    def xnorm(values):
        return float(np.sqrt(np.sum(w * values * values)))

    rng = np.random.default_rng(_MP_PROBE_SEED)
    r_lbl = r_blb = r_bl = r_lb = 0.0
    for _ in range(_MP_PROBE_COUNT):
        c = rng.standard_normal(ncols)
        u = apply_l(c)
        u_norm = xnorm(u.values)
        bu = pinv_apply(factors, u, strict=False)
        lblu = apply_l(bu)
        if u_norm > 0:
            r_lbl = max(r_lbl, xnorm(lblu.values - u.values) / u_norm)
        r_bl = max(
            r_bl,
            float(np.linalg.norm(bu - c)) / float(np.linalg.norm(c)),
        )

        x = GridFunction(grid, rng.standard_normal(grid.node_count))
        bx = pinv_apply(factors, x, strict=False)
        bx_norm = float(np.linalg.norm(bx))
        blbx = pinv_apply(factors, apply_l(bx), strict=False)
        if bx_norm > 0:
            r_blb = max(r_blb, float(np.linalg.norm(blbx - bx)) / bx_norm)
        px = project(factors, x)
        r_lb = max(
            r_lb,
            xnorm(apply_l(bx).values - px.values) / xnorm(x.values),
        )
    return MPResiduals(r_lbl, r_blb, r_bl, r_lb)


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
