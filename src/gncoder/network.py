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

import json
from dataclasses import dataclass

import numpy as np

from .activations import Activation
from .exceptions import ShapeError
from .grids import Grid, GridFunction, _frozen_array
from .pseudoinverse import ConvergenceConstants

#: Default bounding box for network parameters; keeps sigmoid arguments in
#: the numerically active region.
DEFAULT_PARAM_BOX = (-10.0, 10.0)


@dataclass(frozen=True, eq=False)
class Params:
    """Network coefficients ``(alpha, w, theta)`` for ``N`` units in ``n`` inputs.

    The flattened layout is fixed and shared by every matrix in the
    package: indices ``0..N-1`` hold ``alpha``; index ``N + s*n + t`` holds
    ``w[s, t]``; indices ``N*(n+1) + s`` hold ``theta``.
    """

    alpha: np.ndarray  # (N,)
    w: np.ndarray      # (N, n)
    theta: np.ndarray  # (N,)

    def __post_init__(self):
        object.__setattr__(self, "alpha", _frozen_array(self.alpha))
        object.__setattr__(self, "w", _frozen_array(self.w))
        object.__setattr__(self, "theta", _frozen_array(self.theta))
        if self.alpha.ndim != 1 or self.theta.ndim != 1 or self.w.ndim != 2:
            raise ShapeError(
                "alpha and theta must be vectors and w a matrix; got shapes "
                f"{self.alpha.shape}, {self.w.shape}, {self.theta.shape}"
            )
        units = self.alpha.shape[0]
        if units < 1 or self.w.shape[0] != units or self.theta.shape[0] != units:
            raise ShapeError(
                f"inconsistent unit counts: alpha {self.alpha.shape}, "
                f"w {self.w.shape}, theta {self.theta.shape}"
            )
        if self.w.shape[1] < 1:
            raise ShapeError("input dimension must be at least 1")

    @property
    def units(self) -> int:
        return self.alpha.shape[0]

    @property
    def input_dim(self) -> int:
        return self.w.shape[1]

    @property
    def n_star(self) -> int:
        return self.units * (self.input_dim + 2)

    def flatten(self) -> np.ndarray:
        return np.concatenate([self.alpha, self.w.reshape(-1), self.theta])

    @classmethod
    def from_flat(cls, vec, units: int, input_dim: int) -> "Params":
        vec = np.asarray(vec, dtype=float)
        expected = units * (input_dim + 2)
        if vec.shape != (expected,):
            raise ShapeError(
                f"flat vector has shape {vec.shape}, expected ({expected},)"
            )
        alpha = vec[:units]
        w = vec[units : units * (input_dim + 1)].reshape(units, input_dim)
        theta = vec[units * (input_dim + 1) :]
        return cls(alpha, w, theta)

    def alpha_index(self, s: int) -> int:
        return s

    def w_index(self, s: int, t: int) -> int:
        return self.units + s * self.input_dim + t

    def theta_index(self, s: int) -> int:
        return self.units * (self.input_dim + 1) + s

    def describe_index(self, i: int):
        """Inverse of the flattening: ``i -> (block, unit, axis-or-None)``."""
        units, n = self.units, self.input_dim
        if not 0 <= i < self.n_star:
            raise IndexError(f"flat index {i} out of range for n_star {self.n_star}")
        if i < units:
            return ("alpha", i, None)
        if i < units * (n + 1):
            j = i - units
            return ("w", j // n, j % n)
        return ("theta", i - units * (n + 1), None)

    def to_json_dict(self) -> dict:
        return {
            "N": self.units,
            "n": self.input_dim,
            "alpha": self.alpha.tolist(),
            "w": self.w.tolist(),
            "theta": self.theta.tolist(),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Params":
        p = cls(np.asarray(data["alpha"]), np.asarray(data["w"]),
                np.asarray(data["theta"]))
        if p.units != data["N"] or p.input_dim != data["n"]:
            raise ShapeError("declared N/n do not match the coefficient arrays")
        return p

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json(cls, text: str) -> "Params":
        return cls.from_json_dict(json.loads(text))


@dataclass(frozen=True, eq=False)
class Jacobian:
    """Derivative columns of the synthesis operator at one parameter point.

    Columns follow the :class:`Params` flattening order and all live on one
    grid.  ``matrix`` is the dense ``(node_count, n_star)`` stack.
    """

    matrix: np.ndarray
    params: Params
    grid: Grid

    def __post_init__(self):
        object.__setattr__(self, "matrix", _frozen_array(self.matrix))
        if self.matrix.shape != (self.grid.node_count, self.params.n_star):
            raise ShapeError(
                f"Jacobian matrix has shape {self.matrix.shape}, expected "
                f"({self.grid.node_count}, {self.params.n_star})"
            )

    def column(self, i: int) -> GridFunction:
        return GridFunction(self.grid, self.matrix[:, i])


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


def jacobian(p: Params, a: Activation, g: Grid) -> Jacobian:
    """All first-derivative columns, in the flattening order.

    Per unit ``s``: the alpha-column is ``act(z_s)``, the w-columns are
    ``alpha_s * act'(z_s) * x_t`` for each axis ``t``, and the theta-column
    is ``alpha_s * act'(z_s)``.
    """
    _check_dims(p, g)
    units, n = p.units, p.input_dim
    z = _unit_arguments(p, g)
    d1 = a.d1(z)
    scaled = d1 * p.alpha  # (K, N)
    M = np.empty((g.node_count, p.n_star))
    M[:, :units] = a.value(z)
    M[:, units : units * (n + 1)] = (
        scaled[:, :, None] * g.nodes[:, None, :]
    ).reshape(g.node_count, units * n)
    M[:, units * (n + 1) :] = scaled
    return Jacobian(M, p, g)


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


def _weighted_operator_norm(matrix: np.ndarray, weights: np.ndarray) -> float:
    """Operator norm of a column stack as a map into the weighted space."""
    scaled = np.sqrt(weights)[:, None] * matrix
    return float(np.linalg.svd(scaled, compute_uv=False)[0])


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
    with an ``"insufficient samples"`` flag.

    The ball must lie inside the parameter box.
    """
    if not radius > 0:
        raise ValueError(f"radius must be positive, got {radius}")
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    lo, hi = box
    center = p.flatten()
    if center.min() - radius < lo or center.max() + radius > hi:
        raise ValueError(
            f"ball of radius {radius} leaves the parameter box [{lo}, {hi}]"
        )
    rng = np.random.default_rng(seed)
    dim = p.n_star
    points = []
    matrices = []
    for _ in range(samples):
        u = rng.standard_normal(dim)
        u /= np.linalg.norm(u)
        r = radius * rng.uniform() ** (1.0 / dim)
        q = center + r * u
        points.append(q)
        matrices.append(jacobian(Params.from_flat(q, p.units, p.input_dim), a, g).matrix)

    deriv_bound = max(_weighted_operator_norm(m, g.weights) for m in matrices)
    flags = ()
    lipschitz = 0.0
    if samples < 2:
        flags = ("insufficient samples",)
    else:
        for i in range(samples):
            for j in range(i + 1, samples):
                dist = float(np.linalg.norm(points[i] - points[j]))
                if dist == 0.0:
                    continue
                diff = _weighted_operator_norm(matrices[i] - matrices[j], g.weights)
                lipschitz = max(lipschitz, diff / dist)
    return ConvergenceConstants(
        derivative_bound=deriv_bound,
        lipschitz_bound=lipschitz,
        samples=samples,
        flags=flags,
    )
