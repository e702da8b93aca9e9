"""Activation functions with exact first and second derivatives.

Four kinds are supported: a scaled sigmoid ``1 / (1 + exp(-t/eps))``, the
hyperbolic tangent, the ReLU ``max(0, t)``, and the step function (the
pointwise limit of the sigmoid as its scale goes to zero).  Each carries
smoothness metadata that downstream code uses to decide which derivative
orders may be requested.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .exceptions import SmoothnessError

SMOOTH_C2 = "C2"
PIECEWISE_C0 = "C0-piecewise"
DISCONTINUOUS = "discontinuous"

_SMOOTHNESS = {
    "sigmoid": SMOOTH_C2,
    "tanh": SMOOTH_C2,
    "relu": PIECEWISE_C0,
    "step": DISCONTINUOUS,
}


def _match_input(t, out):
    if isinstance(t, np.ndarray):
        return out
    return float(out)


@dataclass(frozen=True)
class Activation:
    """One activation function, vectorized over numpy arrays.

    ``epsilon`` is the sigmoid scale and is ignored by the other kinds.
    ReLU's first derivative uses the fixed subgradient convention
    ``d1(0) = 0``; its second derivative and all step-function derivatives
    raise :class:`SmoothnessError`.
    """

    kind: str
    epsilon: float = 1.0

    def __post_init__(self):
        if self.kind not in _SMOOTHNESS:
            raise ValueError(
                f"unknown activation kind {self.kind!r}; "
                f"expected one of {sorted(_SMOOTHNESS)}"
            )
        if not 0 < self.epsilon < np.inf:
            raise ValueError(
                f"epsilon must be finite and positive, got {self.epsilon}"
            )

    @classmethod
    def sigmoid(cls, epsilon: float = 1.0) -> "Activation":
        return cls("sigmoid", float(epsilon))

    @classmethod
    def tanh(cls) -> "Activation":
        return cls("tanh")

    @classmethod
    def relu(cls) -> "Activation":
        return cls("relu")

    @classmethod
    def step(cls) -> "Activation":
        return cls("step")

    @property
    def smoothness(self) -> str:
        return _SMOOTHNESS[self.kind]

    @property
    def descriptor(self) -> str:
        """Config spelling: ``sigmoid:<epsilon>``, ``tanh``, ``relu``, ``step``."""
        if self.kind == "sigmoid":
            return f"sigmoid:{self.epsilon:g}"
        return self.kind

    def value(self, t):
        a = np.asarray(t, dtype=float)
        if self.kind == "sigmoid":
            out = expit(a / self.epsilon)
        elif self.kind == "tanh":
            out = np.tanh(a)
        elif self.kind == "relu":
            out = np.maximum(0.0, a)
        else:  # step
            out = np.where(a < 0, 0.0, np.where(a > 0, 1.0, 0.5))
        return _match_input(t, out)

    def d1(self, t):
        if self.kind == "step":
            raise SmoothnessError("step activation is discontinuous; no derivative")
        a = np.asarray(t, dtype=float)
        if self.kind == "sigmoid":
            # sigma'(t) = sigma(t) * sigma(-t) / eps; this form avoids the
            # cancellation in 1 - sigma(t) and is even bitwise
            out = expit(a / self.epsilon) * expit(-a / self.epsilon) / self.epsilon
        elif self.kind == "tanh":
            th = np.tanh(a)
            out = 1.0 - th * th
        else:  # relu, with d1(0) = 0
            out = np.where(a > 0, 1.0, 0.0)
        return _match_input(t, out)

    def d2(self, t):
        if self.kind in ("step", "relu"):
            raise SmoothnessError(
                f"{self.kind} activation has no second derivative"
            )
        a = np.asarray(t, dtype=float)
        if self.kind == "sigmoid":
            sp = expit(a / self.epsilon)
            sm = expit(-a / self.epsilon)
            out = sp * sm * (sm - sp) / (self.epsilon * self.epsilon)
        else:  # tanh
            th = np.tanh(a)
            out = -2.0 * th * (1.0 - th * th)
        return _match_input(t, out)


def parse_activation(text: str) -> Activation:
    """Parse the config spelling produced by :attr:`Activation.descriptor`."""
    text = text.strip()
    if text.startswith("sigmoid"):
        if ":" in text:
            name, _, eps = text.partition(":")
            if name != "sigmoid":
                raise ValueError(f"unknown activation descriptor {text!r}")
            return Activation.sigmoid(float(eps))
        return Activation.sigmoid()
    if text in ("tanh", "relu", "step"):
        return Activation(text)
    raise ValueError(f"unknown activation descriptor {text!r}")
