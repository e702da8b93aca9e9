"""Midpoint-rule discretization of L2 on the unit cube.

A :class:`Grid` holds the tensor-product quadrature nodes and weights on
``[0,1]^dim``; a :class:`GridFunction` is a vector of nodal values.  All
inner products and norms are quadrature-weighted, so grid functions behave
like square-integrable functions rather than raw coordinate vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import GridMismatchError

#: Hard cap on the number of nodes; larger requests fail fast instead of
#: exhausting memory.
MAX_NODES = 10**8


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
        If the dimensions are out of range or the node count would exceed
        :data:`MAX_NODES`.
    """
    if not isinstance(dim, (int, np.integer)) or dim < 1:
        raise ValueError(f"dim must be a positive integer, got {dim!r}")
    if not isinstance(points_per_axis, (int, np.integer)) or points_per_axis < 2:
        raise ValueError(
            f"points_per_axis must be an integer >= 2, got {points_per_axis!r}"
        )
    count = int(points_per_axis) ** int(dim)
    if count > MAX_NODES:
        raise ValueError(
            f"grid would have {count} nodes, exceeding the cap of {MAX_NODES}"
        )
    m = int(points_per_axis)
    axis = (np.arange(m) + 0.5) / m
    mesh = np.meshgrid(*([axis] * dim), indexing="ij")
    nodes = np.stack([c.reshape(-1) for c in mesh], axis=-1)
    weights = np.full(count, float(m) ** (-dim))
    return Grid(int(dim), m, _frozen_array(nodes), _frozen_array(weights))


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
    return float(np.sum(u.grid.weights * u.values * v.values))


def norm(u: GridFunction) -> float:
    """Weighted L2 norm, ``sqrt(inner_product(u, u))``."""
    return float(np.sqrt(np.sum(u.grid.weights * u.values * u.values)))
