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

from .exceptions import ConfigError, GridMismatchError, UnsupportedDimensionError
from .grids import Grid, GridFunction

#: Largest memory, in bytes, that one dense build may take: a Gaussian kernel
#: factor here, a :func:`~gncoder.diagnostics.manifold_sweep` lattice there.
#: Larger builds are refused by :func:`check_dense_bytes` before any
#: allocation.
DENSE_BYTES_LIMIT = 2**30

#: Grids up to this node count get an injectivity spot-check by SVD at
#: construction time.
_SPOT_CHECK_LIMIT = 2048


def check_dense_bytes(need: int, who: str, what: str) -> None:
    """Raise :class:`ConfigError` when a build of ``need`` bytes is too large.

    The message reads ``"<who> needs a X GiB <what>, over the 1 GiB
    limit"``; ``who`` names what set the size, a config value where one did.
    """
    if need > DENSE_BYTES_LIMIT:
        raise ConfigError(
            f"{who} needs a {need / 2**30:.1f} GiB {what}, over the "
            f"{DENSE_BYTES_LIMIT / 2**30:g} GiB limit"
        )


class LinearOperator:
    """Linear map between grid-function spaces with an exact adjoint.

    Subclasses implement ``_apply_values`` / ``_adjoint_values`` on raw
    nodal arrays; ``apply`` and ``adjoint`` wrap them with grid checks.
    ``_apply_values`` acts along axis 0, so it maps a ``(node_count,)``
    vector or every column of a ``(node_count, m)`` array, which
    ``apply_columns`` exposes.  ``injective`` records whether the discrete
    matrix has full column rank.
    """

    def __init__(self, descriptor: str, in_grid: Grid, out_grid: Grid,
                 injective: bool):
        self.descriptor = descriptor
        self.in_grid = in_grid
        self.out_grid = out_grid
        self.injective = injective

    def _apply_values(self, values: np.ndarray) -> np.ndarray:
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

    def apply_columns(self, matrix: np.ndarray) -> np.ndarray:
        """Apply the operator to every column of a ``(node_count, m)`` array."""
        if matrix.ndim != 2 or matrix.shape[0] != self.in_grid.node_count:
            raise GridMismatchError(
                f"expected {self.in_grid.node_count} rows, got shape "
                f"{matrix.shape}"
            )
        return self._apply_values(matrix)

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
        return self._apply_values(np.eye(self.in_grid.node_count))

    def singular_values(self) -> np.ndarray:
        return np.linalg.svd(self.matrix(), compute_uv=False)

    def condition_number(self) -> float:
        sv = self.singular_values()
        if sv[-1] == 0.0:
            return float("inf")
        return float(sv[0] / sv[-1])

    def __repr__(self):
        return f"{type(self).__name__}({self.descriptor!r}, {self.in_grid!r})"


class IdentityOperator(LinearOperator):
    """The well-posed baseline: ``F u = u``."""

    def __init__(self, grid: Grid):
        super().__init__("identity", grid, grid, injective=True)

    def _apply_values(self, values):
        return values.copy()

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

    def _apply_values(self, values):
        return np.cumsum((values.T * self.in_grid.weights).T, axis=0)

    def _adjoint_values(self, values):
        return np.cumsum((self.in_grid.weights * values)[::-1])[::-1]


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
        injective = True
        if grid.points_per_axis <= _SPOT_CHECK_LIMIT:
            sv = np.linalg.svd(self._factor, compute_uv=False)
            injective = bool(sv[-1] > 1e-12 * sv[0])
        super().__init__(
            f"gauss:{kernel_width:g}", grid, grid, injective=injective
        )

    def _apply_values(self, values):
        m = self.in_grid.points_per_axis
        if self.in_grid.dim == 1:
            return (self._factor @ values) / m
        # one m x m image per column, each smoothed along both axes
        images = np.ascontiguousarray(values.T).reshape(-1, m, m)
        out = self._factor @ images @ self._factor.T
        return out.reshape(values.T.shape).T / (m * m)

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
