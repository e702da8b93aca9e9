"""Midpoint-rule discretization of L2 on the unit cube.

A :class:`Grid` holds the tensor-product quadrature nodes and weights on
``[0,1]^dim``; a :class:`GridFunction` is a vector of nodal values.  All
inner products and norms are quadrature-weighted, so grid functions behave
like square-integrable functions rather than raw coordinate vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exceptions import ConfigError, GridMismatchError

#: Largest memory, in bytes, that one dense build may take: a grid, a
#: Jacobian stack, a Gaussian kernel factor, a
#: :func:`~gncoder.diagnostics.manifold_sweep` lattice.  Larger builds are
#: refused by :func:`check_dense_bytes` before any allocation.
DENSE_BYTES_LIMIT = 2**30


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


def _frozen_array(values, dtype=float):
    """Read-only C-contiguous copy; the caller's array stays writeable."""
    arr = np.array(values, dtype=dtype, order="C")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class Grid:
    """Uniform midpoint grid on the unit cube.

    Nodes are ordered lexicographically in the axis indices (last axis
    fastest).  This ordering is part of the contract: nodal value vectors
    follow it.
    """

    dim: int
    points_per_axis: int
    nodes: np.ndarray    # (node_count, dim)
    weights: np.ndarray  # (node_count,)

    @property
    def node_count(self) -> int:
        return self.nodes.shape[0]

    @cached_property
    def sqrt_weights(self) -> np.ndarray:
        """``√W``, read-only, computed once on first use."""
        return _frozen_array(np.sqrt(self.weights))

    def __eq__(self, other):
        if not isinstance(other, Grid):
            return NotImplemented
        return (
            self.dim == other.dim
            and self.points_per_axis == other.points_per_axis
        )

    def __hash__(self):
        return hash((self.dim, self.points_per_axis))

    def __repr__(self):
        return f"Grid(dim={self.dim}, points_per_axis={self.points_per_axis})"


def make_grid(dim: int, points_per_axis: int) -> Grid:
    """Build the midpoint-rule grid on ``[0,1]^dim``.

    Axis coordinates are ``(i + 0.5) / m`` for ``i = 0, ..., m - 1`` and
    every node carries the uniform weight ``m**(-dim)``, so the weights sum
    to the unit-cube volume.

    Parameters
    ----------
    dim
        Spatial dimension, at least 1.
    points_per_axis
        Nodes per axis, at least 2.

    Raises
    ------
    ValueError
        If the dimensions are out of range.
    ConfigError
        If the nodes and weights, ``8 (dim + 1)`` bytes a node, would pass
        :data:`DENSE_BYTES_LIMIT`; raised before any allocation.
    """
    if not isinstance(dim, (int, np.integer)) or dim < 1:
        raise ValueError(f"dim must be a positive integer, got {dim!r}")
    if not isinstance(points_per_axis, (int, np.integer)) or points_per_axis < 2:
        raise ValueError(
            f"points_per_axis must be an integer >= 2, got {points_per_axis!r}"
        )
    dim, m = int(dim), int(points_per_axis)
    count = m**dim
    _check_grid_bytes(dim, m)
    axis = (np.arange(m) + 0.5) / m
    # the nodes are written once, from broadcast views of the axis
    nodes = np.empty((count, dim))
    np.stack(np.meshgrid(*([axis] * dim), indexing="ij", copy=False),
             axis=-1, out=nodes.reshape((m,) * dim + (dim,)))
    weights = np.full(count, float(m) ** (-dim))
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return Grid(dim, m, nodes, weights)


def _check_grid_bytes(dim: int, m: int) -> None:
    """Refuse a grid of ``8 (dim + 1)`` bytes a node over the budget."""
    check_dense_bytes(8 * (dim + 1) * m**dim,
                      f"points_per_axis {m} in dimension {dim}", "grid")


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Nodal values of a function on a :class:`Grid`."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen_array(self.values))
        if self.values.ndim != 1 or self.values.shape[0] != self.grid.node_count:
            raise GridMismatchError(
                f"expected {self.grid.node_count} values, got shape "
                f"{self.values.shape}"
            )

    def _check_same_grid(self, other):
        if not isinstance(other, GridFunction):
            raise TypeError(f"expected a GridFunction, got {type(other).__name__}")
        if self.grid != other.grid:
            raise GridMismatchError(
                f"grids differ: {self.grid!r} vs {other.grid!r}"
            )

    def __add__(self, other):
        self._check_same_grid(other)
        return GridFunction(self.grid, self.values + other.values)

    def __sub__(self, other):
        self._check_same_grid(other)
        return GridFunction(self.grid, self.values - other.values)

    def __neg__(self):
        return GridFunction(self.grid, -self.values)

    def __mul__(self, scalar):
        return GridFunction(self.grid, self.values * float(scalar))

    __rmul__ = __mul__


def constant(grid: Grid, value: float) -> GridFunction:
    """Grid function with the same value at every node."""
    return GridFunction(grid, np.full(grid.node_count, float(value)))


def sample_function(grid: Grid, fn) -> GridFunction:
    """Evaluate ``fn`` nodewise; ``fn`` receives one array per axis."""
    coords = [grid.nodes[:, j] for j in range(grid.dim)]
    values = np.asarray(fn(*coords), dtype=float)
    return GridFunction(grid, np.broadcast_to(values, (grid.node_count,)))


def inner_product(u: GridFunction, v: GridFunction) -> float:
    """Quadrature-weighted inner product ``sum_k w_k u_k v_k``.

    Symmetric and bilinear; the summation order is fixed by the node
    ordering, so results are bitwise reproducible.
    """
    u._check_same_grid(v)
    with np.errstate(over="ignore"):  # an overflowing product is inf, silently
        return float(np.sum(u.grid.weights * u.values * v.values))


def norm(u: GridFunction) -> float:
    """Weighted L2 norm, ``sqrt(inner_product(u, u))``; ``inf`` when the
    squared norm overflows."""
    with np.errstate(over="ignore"):
        return float(np.sqrt(np.sum(u.grid.weights * u.values * u.values)))
