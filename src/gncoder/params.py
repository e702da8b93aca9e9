"""Network coefficients and their flattened layout.

Kept apart from :mod:`~gncoder.network` so that :mod:`~gncoder.sampling`
can build parameters and :mod:`~gncoder.network` can draw its sample points
with :mod:`~gncoder.sampling` without an import cycle.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .exceptions import ShapeError
from .grids import _frozen_array


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
