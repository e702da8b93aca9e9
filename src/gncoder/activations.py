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


def logistic(q, out=None):
    """``1 / (1 + exp(-q))`` into ``out`` (a fresh array of ``q``'s shape
    when ``None``), which is returned.  An ``exp`` that overflows is quiet,
    and the value there is 0."""
    out = np.negative(q, out=np.empty(np.shape(q)) if out is None else out)
    with np.errstate(over="ignore"):
        np.exp(out, out=out)
    out += 1.0
    return np.divide(1.0, out, out=out)


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
            out = logistic(a / self.epsilon)
        elif self.kind == "tanh":
            out = np.tanh(a)
        elif self.kind == "relu":
            out = np.maximum(0.0, a)
        else:  # step
            out = np.where(a < 0, 0.0, np.where(a > 0, 1.0, 0.5))
        return _match_input(t, out)

    def d1(self, t):
        """The slope that :meth:`value_and_d1` returns."""
        return self.value_and_d1(t)[1]

    def value_and_d1(self, t, out=None):
        """``(value(t), d1(t))``, the value bitwise :meth:`value`, from one
        logistic pass.

        The value is written into ``out`` when it is given (an array of
        ``t``'s shape) and returned; the slope is a fresh array.  Sigmoid
        takes ``q = t / eps`` once and ``logistic(q)`` once, as the value
        and as the slope's first factor, and ``sigma'(t) = sigma(t) *
        sigma(-t) / eps`` with ``logistic(-q)``: this form avoids the
        cancellation in ``1 - sigma(t)`` and is even bitwise, and
        ``-(t / eps)`` is bitwise ``(-t) / eps``.  Tanh takes one ``tanh``
        pass for both.  ReLU's slope is ``1`` where ``t > 0`` and ``0``
        elsewhere, ``d1(0) = 0``.  Step raises before ``out`` is touched.
        """
        if self.kind == "step":
            raise SmoothnessError("step activation is discontinuous; no derivative")
        a = np.asarray(t, dtype=float)
        if self.kind == "sigmoid":
            q = np.divide(a, self.epsilon, out=np.empty(a.shape))
            value = logistic(q, out=out)
            slope = logistic(np.negative(q, out=q), out=q)  # sigma(-t)
            slope *= value
            slope /= self.epsilon
        elif self.kind == "tanh":
            value = np.tanh(a, out=out)
            slope = 1.0 - value * value
        else:  # relu
            value = np.maximum(0.0, a, out=out)
            slope = np.where(a > 0, 1.0, 0.0)
        return _match_input(t, value), _match_input(t, slope)

    def d2(self, t):
        if self.kind in ("step", "relu"):
            raise SmoothnessError(
                f"{self.kind} activation has no second derivative"
            )
        a = np.asarray(t, dtype=float)
        if self.kind == "sigmoid":
            sp = logistic(a / self.epsilon)
            sm = logistic(-a / self.epsilon)
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
