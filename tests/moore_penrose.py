"""The orthogonal projection onto the column span of a weighted QR, and
residuals of the four Moore-Penrose identities (``LBL = L``, ``BLB = B``,
``BL = I - P``, ``LB = Q``): test oracles for
:mod:`gncoder.pseudoinverse`."""

from dataclasses import dataclass

import numpy as np

from gncoder.grids import GridFunction
from gncoder.pseudoinverse import QRFactors, _check_rows, pinv_apply

_MP_PROBE_SEED = 7081
_MP_PROBE_COUNT = 20


def project(factors: QRFactors, x: GridFunction) -> GridFunction:
    """Orthogonal projection of ``x`` onto the span of the columns in the
    weighted inner product: ``W^(-1/2) Q̃ Q̃ᵀ W^(1/2) x``, as the factors
    hold the orthonormal ``Q̃`` of ``√W·A``."""
    root = np.sqrt(factors.grid.weights)
    beta = factors.q_matrix.T @ (root * x.values)
    return GridFunction(factors.grid, factors.q_matrix @ beta / root)


@dataclass(frozen=True)
class MPResiduals:
    """Relative residuals of the four Moore-Penrose identities.

    ``lbl``  : reproduction of the forward map, ``L B L = L``.
    ``blb``  : reproduction of the pseudoinverse, ``B L B = B``.
    ``bl``   : ``B L`` against the identity on coefficient space (the
    nullspace projection vanishes for an immersion; at rank deficiency this
    residual is order one and is reported, not failed).
    ``lb``   : ``L B`` against the orthogonal projection onto the span.
    """

    lbl: float
    blb: float
    bl: float
    lb: float

    def as_tuple(self):
        return (self.lbl, self.blb, self.bl, self.lb)

    def max(self) -> float:
        return max(self.as_tuple())


def mp_residuals(matrix: np.ndarray, factors: QRFactors) -> MPResiduals:
    """Measure the four pseudoinverse identities on a fixed probe set.

    ``matrix`` holds the factored columns.  Probes are 20 seeded random
    coefficient vectors and grid functions; each residual is normalized by
    the scale of its input and the maximum over the probes is reported.
    """
    grid = factors.grid
    _check_rows(matrix, grid)
    w = grid.weights
    ncols = matrix.shape[1]

    def apply_l(coeffs):
        return GridFunction(grid, matrix @ coeffs)

    def xnorm(values):
        return float(np.sqrt(np.sum(w * values * values)))

    rng = np.random.default_rng(_MP_PROBE_SEED)
    r_lbl = r_blb = r_bl = r_lb = 0.0
    for _ in range(_MP_PROBE_COUNT):
        c = rng.standard_normal(ncols)
        u = apply_l(c)
        u_norm = xnorm(u.values)
        bu = pinv_apply(factors, u)
        lblu = apply_l(bu)
        if u_norm > 0:
            r_lbl = max(r_lbl, xnorm(lblu.values - u.values) / u_norm)
        r_bl = max(
            r_bl,
            float(np.linalg.norm(bu - c)) / float(np.linalg.norm(c)),
        )

        x = GridFunction(grid, rng.standard_normal(grid.node_count))
        bx = pinv_apply(factors, x)
        bx_norm = float(np.linalg.norm(bx))
        blbx = pinv_apply(factors, apply_l(bx))
        if bx_norm > 0:
            r_blb = max(r_blb, float(np.linalg.norm(blbx - bx)) / bx_norm)
        px = project(factors, x)
        r_lb = max(
            r_lb,
            xnorm(apply_l(bx).values - px.values) / xnorm(x.values),
        )
    return MPResiduals(r_lbl, r_blb, r_bl, r_lb)
