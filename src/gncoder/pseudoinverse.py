"""Moore-Penrose machinery over a matrix of function-valued columns.

The engine is LAPACK's Householder QR (``np.linalg.qr``) of a ``(node_count,
m)`` matrix ``A`` whose columns are nodal values on one grid, scaled by the
square roots of the quadrature weights: ``√W·A = Q̃R``, so that ``Q̃`` is
orthonormal and ``R`` keeps the weighted column norms.  A stack of such
matrices is factored in one batched call.  Column ``k`` counts as dependent
when ``|R_kk| < rank_tol · max_j ‖√W a_j‖``.  From full-rank factors we get
the Moore-Penrose pseudoinverse applied to a grid function, or to every
column of a matrix of nodal values, as the triangular solve ``R c = Q̃ᵀ√W x``.

The Gauss-Newton step and the independence trials form R alone, in
place: :func:`householder_r` runs LAPACK's ``dgeqrf`` through
``numpy.linalg.lapack_lite`` on the caller's buffer, the same routine that
``np.linalg.qr`` runs on two copies of it and ``np.linalg.svd`` on one.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from numpy.linalg import lapack_lite

from .exceptions import GridMismatchError, RankDeficiencyError
from .grids import Grid, GridFunction

DEFAULT_RANK_TOL = 1e-10

#: The message of the triangular solve's finite check.
_NON_FINITE = "array must not contain infs or NaNs"


@dataclass(frozen=True)
class QRFactors:
    """Householder QR ``√W·A = Q̃R`` of a column matrix ``A`` on one grid.

    ``q_matrix`` holds the orthonormal columns ``Q̃``, or is None where only
    ``R`` was formed; ``r_matrix`` is the upper-triangular ``R``, one column
    per column of ``A``.  ``rank`` counts the columns that the rank rule
    keeps under ``rank_tol``: column ``k`` is dependent when ``|R_kk|`` is
    below ``rank_tol`` times the largest column norm of ``√W·A``, read off
    ``R``, whose columns keep those norms.  In exact arithmetic ``|R_kk|`` is
    the weighted norm of column ``k``'s part orthogonal to the columns before
    it.  A zero matrix has rank 0; the sign of ``R_kk`` plays no part.
    """

    grid: Grid
    q_matrix: np.ndarray | None  # (node_count, min(node_count, n))
    r_matrix: np.ndarray         # (min(node_count, n), n)
    rank_tol: float = DEFAULT_RANK_TOL

    @cached_property
    def rank(self) -> int:
        r = self.r_matrix
        scale = math.sqrt(float(np.max(np.sum(r * r, axis=0))))
        limit = math.inf if scale == 0.0 else self.rank_tol * scale
        return min(r.shape) - int(np.count_nonzero(np.abs(np.diagonal(r)) < limit))

    @property
    def column_count(self) -> int:
        return self.r_matrix.shape[1]


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
    ``dgeqrf`` on a copy of a copy.  It serves the Gauss-Newton step, on
    the weighted image ``√W·[F·J | r]``, and the independence trials, on
    the weighted Jacobian rows, whose SVD past ``dgesdd``'s QR-first
    crossover is that of this R
    (:func:`~gncoder.diagnostics.independence_reports`).  The reflectors'
    ``tau`` and LAPACK's scratch array are held in ``work`` (:func:`held`)
    under ``"tau"`` and ``"geqrf"``, the scratch sized by one workspace
    query per shape (:func:`_geqrf_lwork`).  A nonzero ``info`` from LAPACK
    raises ``numpy.linalg.LinAlgError``; ``lapack_lite`` itself raises its
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
    product: the one-matrix case of :func:`weighted_qr_stack`.

    Raises
    ------
    GridMismatchError
        If ``matrix`` does not have one row per node of ``grid``.
    """
    _check_rows(matrix, grid)
    return next(weighted_qr_stack(matrix[None], grid, rank_tol))


def weighted_qr_stack(
    matrices: np.ndarray, grid: Grid, rank_tol: float = DEFAULT_RANK_TOL,
) -> Iterator[QRFactors]:
    """:func:`weighted_qr` of every matrix of a ``(count, node_count, m)``
    stack, in one batched ``np.linalg.qr`` call before this returns; an
    iterator over the factors in stack order, so a caller that gates them
    one by one (:func:`full_rank`) meets the first deficient matrix first.
    """
    if not rank_tol > 0:
        raise ValueError(f"rank_tol must be positive, got {rank_tol}")
    if matrices.ndim != 3 or matrices.shape[1] != grid.node_count:
        raise GridMismatchError(
            f"expected a stack of matrices with {grid.node_count} rows, got "
            f"shape {matrices.shape}"
        )
    if matrices.shape[2] == 0:
        raise ValueError("need at least one column")
    q, r = np.linalg.qr(matrices * np.sqrt(grid.weights)[:, None])
    return (QRFactors(grid, q[b], r[b], rank_tol) for b in range(len(r)))


def full_rank(factors: QRFactors, what: str) -> QRFactors:
    """``factors``, if they keep full column rank: the package's one rank
    gate.  Else :class:`RankDeficiencyError` ``"<what> has rank r < n"``,
    with ``deficit = n - r``, rank 0 included."""
    n = factors.column_count
    if factors.rank < n:
        raise RankDeficiencyError(
            f"{what} has rank {factors.rank} < {n}", deficit=n - factors.rank
        )
    return factors


def pinv_apply(factors: QRFactors, x: GridFunction) -> np.ndarray:
    """Apply the Moore-Penrose pseudoinverse of the column family to ``x``.

    Returns the coefficient vector ``c`` (length ``column_count``) of the
    weighted projection of ``x`` in the original columns: the one-column
    case of :func:`pinv_apply_columns`.
    """
    if x.grid != factors.grid:
        raise GridMismatchError("input lives on a different grid than the factors")
    return pinv_apply_columns(factors, x.values[:, None])[:, 0]


def pinv_apply_columns(factors: QRFactors, matrix: np.ndarray) -> np.ndarray:
    """:func:`pinv_apply` of every column of a ``(node_count, m)`` array of
    nodal values on the factors' grid: the ``(column_count, m)`` solution of
    ``R C = Q̃ᵀ√W·matrix``, one matrix product and one triangular solve.

    Raises :class:`RankDeficiencyError` if the factors fall short of full
    column rank, and ``ValueError`` if ``matrix`` holds an infinity or a NaN.
    """
    _check_rows(matrix, factors.grid)
    full_rank(factors, "the factored matrix")
    weighted = np.sqrt(factors.grid.weights)[:, None] * matrix
    return _solve_upper(factors.r_matrix, factors.q_matrix.T @ weighted)


def _solve_upper(tri: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """``np.linalg.solve(tri, beta)`` for an upper-triangular ``tri``, or a
    stack of them, whose LU leaves an upper triangle as it is: the
    triangular solve ``tri⁻¹ beta``.  ``ValueError`` if ``tri`` or ``beta``
    holds an infinity or a NaN; ``numpy.linalg.LinAlgError`` if a diagonal
    entry of ``tri`` is zero.
    """
    if not (np.isfinite(tri).all() and np.isfinite(beta).all()):
        raise ValueError(_NON_FINITE)
    return np.linalg.solve(tri, beta)
