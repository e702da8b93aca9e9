"""Bounded linear forward operators with trivial nullspace.

The catalog models the outer operator of an encoded inverse problem: the
identity (well-posed baseline), cumulative integration (the classic
smoothing Volterra operator), and Gaussian convolution.  At a fixed
discretization every member has full column rank; ill-posedness shows up as
a large condition number, which :meth:`LinearOperator.condition_number`
reports from a dense SVD at desk scale.
"""

from __future__ import annotations

import numpy as np

from .exceptions import GridMismatchError, ShapeError, UnsupportedDimensionError
from .grids import Grid, GridFunction, check_dense_bytes

#: Grids up to this node count get an injectivity spot-check by SVD at
#: construction time.
_SPOT_CHECK_LIMIT = 2048


class LinearOperator:
    """Linear map between grid-function spaces with an exact adjoint.

    Subclasses implement ``_apply_values`` / ``_adjoint_values`` on raw
    nodal arrays; ``apply`` and ``adjoint`` wrap them with grid checks.
    Both act along the last axis, so one call maps a ``(node_count,)``
    vector or every row of a ``(..., node_count)`` stack, which
    ``apply_rows`` exposes; each returns a fresh array of its input's
    shape, or writes into a C-ordered ``out`` of that shape.  A Jacobian
    travels as such rows, one per column: C-ordered rows in give C-ordered
    rows out.  ``injective`` records whether the discrete matrix has full
    column rank.  An operator is not changed by use, so one instance may
    serve any number of runs.
    """

    def __init__(self, descriptor: str, in_grid: Grid, out_grid: Grid,
                 injective: bool):
        self.descriptor = descriptor
        self.in_grid = in_grid
        self.out_grid = out_grid
        self.injective = injective
        self._condition = None

    def _apply_values(self, values: np.ndarray, out=None) -> np.ndarray:
        raise NotImplementedError

    def _adjoint_values(self, values: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def apply(self, u: GridFunction) -> GridFunction:
        if u.grid != self.in_grid:
            raise GridMismatchError(
                f"input grid {u.grid!r} does not match operator domain "
                f"{self.in_grid!r}"
            )
        return GridFunction(self.out_grid, self._apply_values(u.values))

    def apply_rows(self, rows: np.ndarray, out=None) -> np.ndarray:
        """Apply the operator to every row of a ``(..., node_count)`` array
        in one call; C-ordered rows give C-ordered rows.  Each row is
        bitwise :meth:`apply` of it alone, except under the 1-D Gaussian,
        which runs one product per matrix.  Given ``out``, a C-ordered
        array of ``rows``' shape, the image is written there, bitwise the
        same, and ``out`` is returned."""
        if rows.ndim < 1 or rows.shape[-1] != self.in_grid.node_count:
            raise GridMismatchError(
                f"expected rows of {self.in_grid.node_count} nodes, got shape "
                f"{rows.shape}"
            )
        if out is not None and (out.shape != rows.shape
                                or not out.flags.c_contiguous):
            raise ShapeError(f"out must be a C-ordered array of shape "
                             f"{rows.shape}, got shape {out.shape}")
        return self._apply_values(rows, out)

    def adjoint(self, v: GridFunction) -> GridFunction:
        if v.grid != self.out_grid:
            raise GridMismatchError(
                f"input grid {v.grid!r} does not match operator range "
                f"{self.out_grid!r}"
            )
        return GridFunction(self.in_grid, self._adjoint_values(v.values))

    def matrix(self) -> np.ndarray:
        """Dense nodal matrix ``M`` with ``apply(u) = M @ u.values``.

        Refused by :func:`check_dense_bytes`, before any allocation, when
        three ``node_count x node_count`` float64 arrays (the identity it
        maps, a temporary and the result) would pass the byte limit: 384
        MiB at 4096 nodes is accepted, 6 GiB at 16384 is not.
        """
        count = self.in_grid.node_count
        check_dense_bytes(3 * 8 * count * count,
                          f"{self.descriptor} on {count} nodes", "dense matrix")
        return self._dense_matrix()

    def _dense_matrix(self) -> np.ndarray:
        return self.apply_rows(np.eye(self.in_grid.node_count).T).T

    def singular_values(self) -> np.ndarray:
        return np.linalg.svd(self.matrix(), compute_uv=False)

    def condition_number(self) -> float:
        """``sv[0] / sv[-1]`` of :meth:`singular_values`, inf when the last
        is zero; the SVD runs at the first call only."""
        if self._condition is None:
            sv = self.singular_values()
            self._condition = float(sv[0] / sv[-1] if sv[-1] else np.inf)
        return self._condition

    def __repr__(self):
        return f"{type(self).__name__}({self.descriptor!r}, {self.in_grid!r})"


class IdentityOperator(LinearOperator):
    """The well-posed baseline: ``F u = u``."""

    def __init__(self, grid: Grid):
        super().__init__("identity", grid, grid, injective=True)

    def _apply_values(self, values, out=None):
        out = np.empty_like(values) if out is None else out
        np.copyto(out, values)
        return out

    _adjoint_values = _apply_values


class VolterraOperator(LinearOperator):
    """Cumulative integration on [0,1]: ``(F u)(x) = integral_0^x u``.

    Discretized with the grid quadrature, ``(F u)_k = sum_{j <= k} w_j u_j``.
    The matrix is lower triangular with positive diagonal, hence injective;
    the adjoint is the reversed cumulative sum.
    """

    def __init__(self, grid: Grid):
        if grid.dim != 1:
            raise UnsupportedDimensionError(
                f"integration operator requires dim 1, got {grid.dim}"
            )
        super().__init__("volterra", grid, grid, injective=True)

    def _apply_values(self, values, out=None):
        out = np.multiply(values, self.in_grid.weights, out=out)
        return np.cumsum(out, axis=-1, out=out)

    def _adjoint_values(self, values):
        return np.cumsum((self.in_grid.weights * values)[..., ::-1], axis=-1)[..., ::-1]


def _gaussian_kernel_matrix(m: int, width: float) -> np.ndarray:
    """Symmetric mass-one kernel matrix for one axis.

    Reflective boundary handling: mirror images of the sources at both ends
    of [0,1] are folded into the kernel, keeping the matrix symmetric.  A
    symmetric diagonal (Sinkhorn) scaling then enforces weighted row sums of
    exactly one, so constants are preserved and the adjoint stays free.

    Refused by :func:`check_dense_bytes` before any allocation.  It holds
    about four ``m x m`` float64 arrays at once: 0.5 GiB at
    ``points_per_axis`` 4096, which is accepted, and 8 GiB at 16384.
    """
    check_dense_bytes(4 * 8 * m * m, f"points_per_axis {m}", "Gaussian kernel")
    coords = (np.arange(m) + 0.5) / m
    x = coords[:, None]
    y = coords[None, :]
    kernel = np.zeros((m, m))
    # images y' = sign*y + 2k keep the matrix symmetric when both shifts
    # are included
    for shift in (-2.0, 0.0, 2.0):
        for sign in (1.0, -1.0):
            d = x - (sign * y + shift)
            kernel += np.exp(-0.5 * (d / width) ** 2)
    weight = 1.0 / m
    scale = np.ones(m)
    for _ in range(500):
        row_sums = weight * scale * (kernel @ scale)
        if np.max(np.abs(row_sums - 1.0)) < 1e-15:
            break
        scale /= np.sqrt(row_sums)
    return scale[:, None] * kernel * scale[None, :]


class GaussianConvolutionOperator(LinearOperator):
    """Smoothing by a normalized Gaussian kernel, reflective boundaries.

    Self-adjoint by construction (the kernel matrix is symmetric and the
    quadrature weights are uniform).  In two dimensions the kernel is the
    tensor product of the one-dimensional factor, applied along each axis.
    """

    def __init__(self, grid: Grid, kernel_width: float):
        if grid.dim not in (1, 2):
            raise UnsupportedDimensionError(
                f"convolution operator supports dims 1 and 2, got {grid.dim}"
            )
        if not 0 < kernel_width < np.inf:
            raise ValueError(
                f"kernel_width must be finite and positive, got {kernel_width}"
            )
        self.kernel_width = float(kernel_width)
        self._factor = _gaussian_kernel_matrix(grid.points_per_axis, kernel_width)
        self._factor.flags.writeable = False
        injective = True
        if grid.points_per_axis <= _SPOT_CHECK_LIMIT:
            sv = np.linalg.svd(self._factor, compute_uv=False)
            injective = bool(sv[-1] > 1e-12 * sv[0])
        super().__init__(
            f"gauss:{kernel_width:g}", grid, grid, injective=injective
        )

    def _apply_values(self, values, out=None):
        m = self.in_grid.points_per_axis
        if self.in_grid.dim == 1:
            out = np.matmul(np.ascontiguousarray(values), self._factor.T,
                            out=out)
            out /= m
            return out
        # (F @ U) @ F.T per m x m image, one per row, through one m x m
        # intermediate: the products of one stacked matmul, bit for bit; one
        # wide product over all images rounds differently
        if out is None:
            out = np.empty(values.shape)
        images = values.reshape(-1, m, m)
        products = out.reshape(-1, m, m)
        left = np.empty((m, m))
        for image, product in zip(images, products):
            np.matmul(self._factor, image, out=left)
            np.matmul(left, self._factor.T, out=product)
        out /= m * m
        return out

    # symmetric kernel and uniform weights make the operator self-adjoint
    _adjoint_values = _apply_values

    def _dense_matrix(self):
        m = self.in_grid.points_per_axis
        if self.in_grid.dim == 1:
            return self._factor / m
        return np.kron(self._factor, self._factor) / (m * m)


def make_identity(grid: Grid) -> LinearOperator:
    return IdentityOperator(grid)


def make_integration(grid: Grid) -> LinearOperator:
    return VolterraOperator(grid)


def make_convolution(grid: Grid, kernel_width: float) -> LinearOperator:
    return GaussianConvolutionOperator(grid, kernel_width)


def parse_operator(text: str, grid: Grid) -> LinearOperator:
    """Build a catalog member from its config descriptor.

    Accepted spellings: ``identity``, ``volterra``, ``gauss:<width>``.
    """
    text = text.strip()
    if text == "identity":
        return make_identity(grid)
    if text == "volterra":
        return make_integration(grid)
    if text.startswith("gauss:"):
        return make_convolution(grid, float(text.partition(":")[2]))
    raise ValueError(f"unknown operator descriptor {text!r}")
