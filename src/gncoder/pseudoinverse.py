"""Moore-Penrose machinery over a matrix of function-valued columns.

The engine is a quadrature-weighted modified Gram-Schmidt factorization of
a ``(node_count, m)`` matrix whose columns are nodal values on one grid, or
of a stack of such matrices in one sweep, reading each column as one
contiguous row of nodal values.
From the factors we get the Moore-Penrose pseudoinverse applied to a grid
function, or to every column of a matrix of nodal values.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .exceptions import GridMismatchError, RankDeficiencyError
from .grids import Grid, GridFunction

DEFAULT_RANK_TOL = 1e-10

#: The message of the back-substitution's finite check.
_NON_FINITE = "array must not contain infs or NaNs"


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


def weighted_qr(
    matrix: np.ndarray, grid: Grid, rank_tol: float = DEFAULT_RANK_TOL,
    work: dict | None = None,
) -> QRFactors:
    """Orthonormalize the columns of ``matrix`` in the weighted inner product.

    The one-matrix case of :func:`weighted_qr_stack`: modified Gram-Schmidt
    with one reorthogonalization pass.  A column whose residual norm after
    projection falls below ``rank_tol`` times the largest original column
    norm is flagged dependent and excluded from the orthonormal family; the
    retained count is the numerical rank, 0 when every column is flagged
    (all zero, or all below the tolerance).

    Given a workspace ``work`` (:func:`held`), the sweep's arrays and Q are
    held there: ``q_matrix`` is then valid until the next call given it.

    Raises
    ------
    GridMismatchError
        If ``matrix`` does not have one row per node of ``grid``.
    """
    _check_rows(matrix, grid)
    return next(weighted_qr_stack(matrix[None], grid, rank_tol, work))


def weighted_qr_stack(
    matrices: np.ndarray, grid: Grid, rank_tol: float = DEFAULT_RANK_TOL,
    work: dict | None = None,
) -> Iterator[QRFactors]:
    """:func:`weighted_qr` of every matrix of a ``(count, node_count, m)``
    stack, in one sweep; an iterator over the factors in stack order.

    A transposed view of C-ordered ``(count, m, node_count)`` rows is swept
    without a copy; any other layout gets one transposing copy, same bits.

    The sweep keeps one rank shared by every matrix.  When the matrices
    agree on every column's flag, the sweep runs before this returns.  When
    one column is dependent in some matrices and not in others, the
    iterator instead sweeps each matrix alone when it reaches it.  Either
    way each member's factors are bitwise those of the sweep over that
    matrix alone (see :func:`_mgs_sweep`), a zero matrix's factors being
    those of rank 0.  A caller that gates the factors one by one
    (:func:`full_rank`) meets every error in the order of its matrices.
    ``work`` is that of :func:`weighted_qr`, each member's Q held apart.
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
    rows = np.ascontiguousarray(matrices.transpose(0, 2, 1), dtype=float)
    swept = _mgs_sweep(rows, grid.weights, rank_tol, work)
    if swept is None:  # the ranks diverge: one sweep per matrix, lazily
        return (next(weighted_qr_stack(r.T[None], grid, rank_tol)) for r in rows)
    q_slots, r_stack, rank, dependent = swept

    def factors(b):
        # a C-ordered copy of Q, and R in C order: matmul picks its kernel by
        # strides, so the layout is part of the bits
        q = held(work, ("q", b), (rows.shape[2], rank))
        np.copyto(q, q_slots[:rank, b].T)
        return QRFactors(grid, q, r_stack[b, :rank], dependent[b])

    return map(factors, range(len(rows)))


def _mgs_sweep(rows, w, rank_tol, work=None):
    """Modified Gram-Schmidt with one reorthogonalization pass over every
    matrix of a C-ordered ``(count, n, K)`` stack of rows at once, column
    ``k`` of matrix ``b`` being the contiguous row ``rows[b, k]``, with one
    rank shared by all of them.  Its arrays the size of ``rows`` are taken
    from the workspace ``work`` (:func:`held`).

    Returns ``(q_slots, r_stack, rank, dependent)``: each matrix
    ``b`` keeps its ``rank`` orthonormal columns in ``q_slots[:rank, b]``
    (one ``(K,)`` row each) and its coefficients in ``r_stack[b]``, a C
    ordered ``n x n`` array with zero rows from ``rank`` on; ``dependent[b]``
    is its tuple of flags.  Returns ``None`` as soon as a column is
    dependent in some matrices and not in others.

    Column ``k`` of every matrix is processed by the same ufunc calls: each
    call acts on the ``(count, K)`` rows of all the matrices, or, for one
    matrix, on its ``(K,)`` row, with coefficients in 0-d views.  Each
    coefficient is ``sum((w * q_i) * v)`` and each norm ``sqrt(sum((w * v) *
    v))``, reduced along the contiguous last axis: per row the pairwise sum
    of a 1-D reduce, and so per matrix the products and sums that
    ``np.sum(w * q_i * v)`` and ``np.sum(w * v * v)`` take.  The two passes'
    coefficients are kept apart and summed as ``(0.0 + first) + second``,
    as a running sum from zero rounds them.  So each matrix's factors are
    bitwise those of the same sweep over fresh copies of its columns.  A
    zero matrix gets an infinite threshold, so all its columns are
    dependent.
    """
    count, ncols, nodes = rows.shape
    squares = np.multiply(w, rows, out=held(work, "squares", rows.shape))
    squares *= rows
    col_norms = np.sqrt(np.sum(squares, axis=-1))
    max_norms = col_norms.max(axis=1).tolist()
    limits = [math.inf if m == 0.0 else rank_tol * m for m in max_norms]
    # one matrix drops the stack axis: (K,) rows and 0-d coefficients take
    # the cheapest ufunc calls
    one = count == 1
    row = (nodes,) if one else (count, nodes)
    lead = () if one else (count, 1)
    limit = limits[0] if one else np.array(limits)[:, None]
    q_slots = held(work, "q_slots", (ncols,) + row)   # slot i of every matrix
    wq_slots = held(work, "wq_slots", (ncols,) + row)  # and its weighted copy
    qs, wqs = list(q_slots), list(wq_slots)
    columns = rows.transpose(1, 0, 2).reshape((ncols,) + row)
    v, tmp = held(work, "v", row), held(work, "tmp", row)
    # coefficients by pass, slot and column; a retained column's norm goes
    # to its slot in the first pass
    coeffs = np.zeros((2, ncols, ncols) + lead)
    passes = coeffs[0], coeffs[1]
    dependent = []
    top = 0  # the rank so far
    for k in range(ncols):
        v[...] = columns[k]
        for coeff in passes:
            for i in range(top):
                c = coeff[i, k, ...]
                np.add.reduce(np.multiply(wqs[i], v, tmp), -1, None, c, not one)
                np.multiply(qs[i], c, tmp)
                np.subtract(v, tmp, v)
        vnorm = passes[0][top, k, ...]
        np.add.reduce(np.multiply(np.multiply(w, v, tmp), v, tmp), -1, None,
                      vnorm, not one)
        np.sqrt(vnorm, vnorm)
        below = ([float(vnorm) < limit] if one
                 else (vnorm < limit)[:, 0].tolist())
        dependent.append(below)
        if not any(below):
            np.divide(v, vnorm, qs[top])
            np.multiply(w, qs[top], wqs[top])
            top += 1
        elif all(below):
            vnorm[...] = 0.0
        else:
            return None
    r_stack = (0.0 + passes[0]) + passes[1]  # (slot, column) + lead
    if one:
        r_stack = r_stack[None]
    else:
        r_stack = np.ascontiguousarray(r_stack[..., 0].transpose(2, 0, 1))
    return (q_slots.reshape(ncols, count, nodes), r_stack, top,
            list(zip(*dependent)))


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

    Returns the coefficient vector ``c`` (length ``column_count``) solving
    ``R c = Q^T x`` by back-substitution, i.e. the coefficients of the
    projection of ``x`` in the original columns: the basic solution, zero
    at the dependent columns, all zero at rank 0.  The one-column case of
    :func:`pinv_apply_columns`.
    """
    if x.grid != factors.grid:
        raise GridMismatchError("input lives on a different grid than the factors")
    return pinv_apply_columns(factors, x.values[:, None])[:, 0]


def pinv_apply_columns(factors: QRFactors, matrix: np.ndarray) -> np.ndarray:
    """:func:`pinv_apply` of every column of a ``(node_count, m)`` array of
    nodal values on the factors' grid; a fresh C-ordered ``(column_count,
    m)`` array whose column ``j`` is bitwise :func:`pinv_apply` of column
    ``j``.

    The columns are solved as an ``(m, ·, 1)`` stack of single right-hand
    sides: one ``Q.T @ (w * x)`` matrix-vector product each, in one stacked
    ``matmul``, then one :func:`_solve_upper` call against ``R[:, retained]``.
    A product or solve with many right-hand sides rounds differently.  The
    errors are those of :func:`pinv_apply`, raised at the first column that
    meets one.
    """
    _check_rows(matrix, factors.grid)
    out = np.zeros((factors.column_count, matrix.shape[1]))
    if factors.rank and matrix.shape[1]:  # rank 0 is all zeros, no solve
        retained = list(factors.retained_indices)
        # C-ordered rows, so each product reads its vector contiguously
        weighted = np.multiply(matrix.T, factors.grid.weights, order="C")
        betas = factors.q_matrix.T @ weighted[:, :, None]
        solved = _solve_upper(factors.r_matrix[:, retained], betas)
        out[retained] = solved[:, :, 0].T
    return out


def _solve_upper(tri: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """``np.linalg.solve(tri, beta)`` for an upper-triangular ``tri`` and one
    right-hand side ``(n,)`` or a stack of them ``(m, n, 1)``: its LU leaves
    an upper triangle as it is, so each solve is bitwise LAPACK's ``dtrtrs``.
    The errors are those of the right-hand sides solved one by one, in
    order: ``ValueError`` if ``tri`` or one of them holds an infinity or a
    NaN, ``numpy.linalg.LinAlgError`` if a diagonal entry of ``tri`` is zero.
    """
    if not np.isfinite(tri).all():
        raise ValueError(_NON_FINITE)
    if not np.isfinite(beta).all():
        first = np.isfinite(beta.reshape(-1, len(tri))).all(axis=1).argmin()
        if first:  # those before it meet a zero diagonal first
            np.linalg.solve(tri, beta[:first])
        raise ValueError(_NON_FINITE)
    return np.linalg.solve(tri, beta)
