"""Weighted least squares over a matrix of function-valued columns.

Every least-squares solve reads its answer off one R, that of LAPACK's
Householder QR of ``√W·[A | X]``, whose columns are nodal values on one
grid scaled by the square roots of the quadrature weights.  R's leading
block ``R₁₁`` is the R of ``√W·A`` and its top-right block is ``Q̃ᵀ√W X``,
so the pseudoinverse of ``A`` applied to ``X`` is one triangular solve
(:func:`solve_from_r`; Björck, *Numerical Methods for Least Squares
Problems*, SIAM 1996, §2.4) and ``Q̃`` is never formed.  Column ``k`` of
``A`` is dependent when ``|R_kk| < rank_tol · max_j ‖√W a_j‖``
(:func:`column_ranks`), and :func:`full_rank` is the one gate.  The
Gauss-Newton step and the independence trials form R in place
(:func:`householder_r`); the probes factor stacks with one batched
``np.linalg.qr(..., mode="r")``.  :func:`weighted_qr`, :class:`QRFactors`
and :func:`pinv_apply` form and apply ``Q̃``: no library path calls them,
and they stay as the tests' reference, which the benchmark's tracer names.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from numpy.linalg import lapack_lite

from .exceptions import GridMismatchError, NumericError, RankDeficiencyError
from .grids import Grid, GridFunction

DEFAULT_RANK_TOL = 1e-10


@dataclass(frozen=True)
class QRFactors:
    """Householder QR ``√W·A = Q̃R`` of a column matrix ``A`` on one grid:
    ``q_matrix`` holds ``Q̃``, ``r_matrix`` the upper-triangular ``R``, one
    column per column of ``A``, and ``rank`` is :func:`column_ranks` of R.
    A test reference only, as is :func:`weighted_qr` (module docstring)."""

    grid: Grid
    q_matrix: np.ndarray  # (node_count, min(node_count, n))
    r_matrix: np.ndarray  # (min(node_count, n), n)
    rank_tol: float = DEFAULT_RANK_TOL

    @cached_property
    def rank(self) -> int:
        return int(column_ranks(self.r_matrix, self.rank_tol))

    @property
    def column_count(self) -> int:
        return self.r_matrix.shape[1]


def column_ranks(r: np.ndarray, rank_tol: float = DEFAULT_RANK_TOL):
    """The rank rule: the column rank of an upper-triangular ``(m, n)`` R,
    or of each R of a ``(..., m, n)`` stack as an integer array.  Column
    ``k`` is dependent when ``|R_kk|`` is below ``rank_tol`` (positive, else
    ``ValueError``) times R's largest column norm, that of ``√W·A`` for the R
    of ``√W·A``.  A zero R has rank 0; a NaN in R reads as full rank, so
    :func:`solve_from_r` refuses a non-finite R before it gates."""
    if not rank_tol > 0:
        raise ValueError(f"rank_tol must be positive, got {rank_tol}")
    # ufunc reductions: np.sum and np.max cost more than the rule on a 6x6 R
    scale = np.sqrt(np.maximum.reduce(np.add.reduce(r * r, axis=-2), axis=-1))
    limit = np.where(scale == 0.0, np.inf, rank_tol * scale)
    dependent = np.abs(r.diagonal(0, -2, -1)) < limit[..., None]
    return min(r.shape[-2:]) - np.add.reduce(dependent, axis=-1)


def _check_rows(matrix: np.ndarray, grid: Grid) -> None:
    if matrix.ndim != 2 or matrix.shape[0] != grid.node_count:
        raise GridMismatchError(
            f"expected a matrix with {grid.node_count} rows, got shape "
            f"{matrix.shape}"
        )


def held(work: dict | None, key, shape) -> np.ndarray:
    """An uninitialized float64 array of ``shape``: ``work[key]`` when it
    has that shape, else a fresh one, kept as ``work[key]`` unless ``work``
    is None.  A step workspace is such a dict: its arrays serve every call
    that is given it, each overwriting what the last one wrote."""
    if work is None:
        return np.empty(shape)
    array = work.get(key)
    if array is None or array.shape != shape:
        array = work[key] = np.empty(shape)
    return array


def householder_r(image: np.ndarray, work: dict | None = None) -> np.ndarray:
    """R of the Householder QR of ``image.T``, factored where it lies.

    ``image`` is a C-ordered float64 ``(m, K)`` array, so its memory is the
    F-ordered ``(K, m)`` matrix ``image.T`` that LAPACK reads.  ``dgeqrf``
    overwrites it with R above the diagonal and the Householder vectors
    below; the returned R is a fresh ``(min(K, m), m)`` upper triangle,
    bitwise ``np.linalg.qr(image.T, mode="r")``, which runs the same
    ``dgeqrf`` on a copy of a copy.  The reflectors' ``tau`` and LAPACK's
    scratch array are held in ``work`` (:func:`held`) under ``"tau"`` and
    ``"geqrf"``, the scratch sized by one workspace query per shape
    (:func:`_geqrf_lwork`).  A nonzero ``info`` from LAPACK raises
    ``numpy.linalg.LinAlgError``; ``lapack_lite`` itself raises its
    ``LapackError`` for an array that is not C-ordered float64.
    """
    m, k = image.shape
    tau = held(work, "tau", (min(k, m),))
    scratch = held(work, "geqrf", (_geqrf_lwork(k, m),))
    _geqrf(k, m, image, tau, scratch, scratch.size)
    return np.triu(image.T[: min(k, m)])


@lru_cache(maxsize=8)
def _geqrf_lwork(rows: int, cols: int) -> int:
    """LAPACK's optimal scratch length for ``dgeqrf`` of a ``rows x cols``
    matrix: one workspace query, which reads no matrix entry, kept for the
    last few shapes of the process."""
    query = np.empty(1)
    _geqrf(rows, cols, np.empty(1), np.empty(1), query, -1)
    return max(1, int(query[0]))


def _geqrf(rows, cols, a, tau, scratch, lwork) -> None:
    info = lapack_lite.dgeqrf(rows, cols, a, max(1, rows), tau, scratch,
                              lwork, 0)["info"]
    if info != 0:
        raise np.linalg.LinAlgError(
            f"LAPACK dgeqrf of a {rows} x {cols} matrix returned info {info}")


def weighted_qr(
    matrix: np.ndarray, grid: Grid, rank_tol: float = DEFAULT_RANK_TOL,
) -> QRFactors:
    """Householder QR of the columns of ``matrix`` in the weighted inner
    product, ``Q̃`` formed: one ``np.linalg.qr`` of ``√W·matrix``.
    :class:`GridMismatchError` unless ``matrix`` has one row per node of
    ``grid``, ``ValueError`` unless ``rank_tol`` is positive and ``matrix``
    has a column.  No library path calls it (module docstring)."""
    _check_rows(matrix, grid)
    if not rank_tol > 0:
        raise ValueError(f"rank_tol must be positive, got {rank_tol}")
    if matrix.shape[1] == 0:
        raise ValueError("need at least one column")
    q, r = np.linalg.qr(matrix * grid.sqrt_weights[:, None])
    return QRFactors(grid, q, r, rank_tol)


def full_rank(r: np.ndarray, rank_tol: float, what: str) -> np.ndarray:
    """``r`` if it keeps full column rank under :func:`column_ranks`: the
    package's one rank gate, for one ``(m, n)`` R or each R of a stack in
    order.  Else :class:`RankDeficiencyError` ``"<what> has rank r < n"``
    at the first deficient R, with ``deficit = n - r``, rank 0 included."""
    n = r.shape[-1]
    ranks = column_ranks(r, rank_tol)
    short = ranks < n
    if short.any():
        rank = int(np.ravel(ranks)[np.argmax(short)])
        raise RankDeficiencyError(f"{what} has rank {rank} < {n}",
                                  deficit=n - rank)
    return r


def solve_from_r(r: np.ndarray, n: int, rank_tol: float,
                 what: str) -> np.ndarray:
    """The least-squares solution read off ``r``, the R of ``√W·[A | X]``
    for an ``n``-column ``A``, or each R of a ``(..., rows, n + k)`` stack:
    the ``(..., n, k)`` solution ``C`` of ``R₁₁ C = R₁₂``, ``R₁₁ = r[...,
    :n, :n]`` and ``R₁₂ = r[..., :n, n:]``, which is the pseudoinverse of
    ``A`` applied to ``X``.  :class:`NumericError` naming ``what`` if ``r``
    holds an infinity or a NaN; :class:`RankDeficiencyError` from
    :func:`full_rank` on ``R₁₁``, at the first deficient R of a stack.
    The solve is :func:`_solve_upper`'s, its finite checks taken on R."""
    if not np.isfinite(r).all():
        raise NumericError(f"{what}: the augmented R is not finite")
    return np.linalg.solve(full_rank(r[..., :n, :n], rank_tol, what),
                           r[..., :n, n:])


def pinv_apply(factors: QRFactors, x: GridFunction) -> np.ndarray:
    """Apply the Moore-Penrose pseudoinverse of the column family to ``x``:
    the coefficient vector ``c`` (length ``column_count``) of the weighted
    projection of ``x`` in the original columns, solved from ``R c =
    Q̃ᵀ√W x``.  :class:`GridMismatchError` if ``x`` lives on another grid,
    :class:`RankDeficiencyError` if the factors fall short of full column
    rank, ``ValueError`` if ``x`` or R holds an infinity or a NaN.  The
    Q-forming reference of :func:`solve_from_r`; no library path calls it."""
    if x.grid != factors.grid:
        raise GridMismatchError("input lives on a different grid than the factors")
    full_rank(factors.r_matrix, factors.rank_tol, "the factored matrix")
    weighted = factors.grid.sqrt_weights * x.values
    return _solve_upper(factors.r_matrix, factors.q_matrix.T @ weighted)


def _solve_upper(tri: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """``np.linalg.solve(tri, beta)`` for an upper-triangular ``tri``, or a
    stack of them, whose LU leaves an upper triangle as it is: the
    triangular solve ``tri⁻¹ beta``.  ``ValueError`` if ``tri`` or ``beta``
    holds an infinity or a NaN; ``numpy.linalg.LinAlgError`` if a diagonal
    entry of ``tri`` is zero.
    """
    if not (np.isfinite(tri).all() and np.isfinite(beta).all()):
        raise ValueError("array must not contain infs or NaNs")
    return np.linalg.solve(tri, beta)
