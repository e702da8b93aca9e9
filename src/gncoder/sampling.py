"""Seeded random draws of network parameters and perturbations.

All experiment randomness flows through these helpers with explicit
generators, so any run is reproducible from its master seed.  Output
weights are kept away from zero by default: a vanishing output weight puts
the parameter point on the degeneracy surface where the derivative columns
of its unit collapse.
"""

from __future__ import annotations

import math

import numpy as np

from .params import Params

DEFAULT_BOX = (-10.0, 10.0)
DEFAULT_ALPHA_BAND = 0.05


def sample_params(
    rng: np.random.Generator,
    units: int,
    input_dim: int,
    box=DEFAULT_BOX,
    alpha_band: float = DEFAULT_ALPHA_BAND,
    allow_zero_alpha: bool = False,
) -> Params:
    """Draw parameters uniformly from the box.

    Output-weight entries with magnitude below ``alpha_band`` are redrawn
    (individually) unless ``allow_zero_alpha`` is set; the band must then
    lie below the box's largest ``|bound|``, or no draw could leave it.
    Draw order is fixed: alpha, then w, then theta.
    """
    lo, hi = box
    if not allow_zero_alpha and alpha_band >= max(abs(lo), abs(hi)):
        raise ValueError(
            f"alpha_band {alpha_band} leaves no output weight in the box [{lo}, {hi}]"
        )
    alpha = rng.uniform(lo, hi, size=units)
    if not allow_zero_alpha:
        while True:
            small = np.abs(alpha) < alpha_band
            if not small.any():
                break
            alpha[small] = rng.uniform(lo, hi, size=int(small.sum()))
    w = rng.uniform(lo, hi, size=(units, input_dim))
    theta = rng.uniform(lo, hi, size=units)
    return Params(alpha, w, theta)


def unit_direction(rng: np.random.Generator, size: int) -> np.ndarray:
    """Uniformly random direction on the unit sphere.

    The norm is ``sqrt(u . u)``, the arithmetic ``np.linalg.norm`` does for
    a 1-D float vector, without its per-call overhead.
    """
    u = rng.standard_normal(size)
    return u / math.sqrt(u.dot(u))


def sample_in_ball(rng: np.random.Generator, center, radius: float) -> np.ndarray:
    """Uniform draw from the closed ball around ``center``.

    Each point draws ``center.size`` normals for its direction, then one
    uniform for its radius: ``rng.random()``, the same double as
    ``rng.uniform()`` from the same draw, with less call overhead.
    """
    center = np.asarray(center, dtype=float)
    u = unit_direction(rng, center.size)
    u *= radius * rng.random() ** (1.0 / center.size)
    u += center
    return u
