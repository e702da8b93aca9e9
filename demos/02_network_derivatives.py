#!/usr/bin/env python3
"""The shallow synthesis operator and its hand-coded derivatives.

Builds a small network, synthesizes its image function, and cross-checks
the closed-form Jacobian columns and second-derivative bilinear form
against finite differences.  Ends with the mirror symmetry of the sigmoid
derivative, the seed of the degeneracies explored in demo 04.
"""

import numpy as np

from gncoder import (
    Activation,
    Params,
    eval_psi,
    jacobian,
    lipschitz_constants,
    make_grid,
    second_derivative_bilinear,
)

act = Activation.sigmoid(1.0)
grid = make_grid(1, 64)
p = Params(alpha=[2.0, -1.5], w=[[3.0], [-2.0]], theta=[-1.0, 1.2])
print(f"network: {p.units} units, input dim {p.input_dim}, "
      f"{p.n_star} coefficients, activation {act.descriptor}")

image = eval_psi(p, act, grid)
print(f"synthesized values range: [{image.values.min():.4f}, {image.values.max():.4f}]")

print("\n=== Jacobian columns vs central finite differences ===")
jac = jacobian(p, act, grid)
flat = p.flatten()
step = 1e-5
worst = 0.0
for i in range(p.n_star):
    e = np.zeros(p.n_star)
    e[i] = step
    up = eval_psi(Params.from_flat(flat + e, 2, 1), act, grid).values
    dn = eval_psi(Params.from_flat(flat - e, 2, 1), act, grid).values
    fd = (up - dn) / (2 * step)
    err = np.sqrt(np.sum(grid.weights * (fd - jac[:, i]) ** 2))
    scale = np.sqrt(np.sum(grid.weights * jac[:, i] ** 2))
    block, s, t = p.describe_index(i)
    label = f"{block}[{s}]" if t is None else f"{block}[{s},{t}]"
    print(f"  column {i:2d} ({label:<7}): relative error {err / scale:.2e}")
    worst = max(worst, err / scale)
print(f"worst relative error: {worst:.2e}")

print("\n=== second-derivative bilinear form vs nested differences ===")
rng = np.random.default_rng(1)
h1 = rng.standard_normal(p.n_star)
h2 = rng.standard_normal(p.n_star)
exact = second_derivative_bilinear(p, act, grid, h1, h2).values
s2 = 1e-4


def psi(v):
    return eval_psi(Params.from_flat(v, 2, 1), act, grid).values


fd2 = (
    psi(flat + s2 * (h1 + h2)) - psi(flat + s2 * (h1 - h2))
    - psi(flat - s2 * (h1 - h2)) + psi(flat - s2 * (h1 + h2))
) / (4 * s2 * s2)
num = np.sqrt(np.sum(grid.weights * (fd2 - exact) ** 2))
den = np.sqrt(np.sum(grid.weights * exact**2))
print(f"random directions: relative error {num / den:.2e}")

alpha_dir = np.zeros(p.n_star)
alpha_dir[: p.units] = 1.0
flatline = second_derivative_bilinear(p, act, grid, alpha_dir, alpha_dir)
print(f"pure output-weight direction: max |value| = {np.max(np.abs(flatline.values)):.1e} "
      "(the map is linear in those coefficients)")

print("\n=== mirror symmetry of the sigmoid derivative ===")
mirrored = Params(p.alpha, -p.w, -p.theta)
col = jacobian(p, act, grid)[:, p.theta_index(0)]
col_m = jacobian(mirrored, act, grid)[:, p.theta_index(0)]
print(f"theta-column at (alpha, w, theta) vs (alpha, -w, -theta): "
      f"max |difference| = {np.max(np.abs(col - col_m)):.2e}")

print("\n=== sampled derivative and Lipschitz bounds ===")
c = lipschitz_constants(p, act, grid, radius=0.5, samples=24, seed=7)
print(f"derivative bound {c.derivative_bound:.3f}, Lipschitz bound "
      f"{c.lipschitz_bound:.3f}  ({c.samples} samples)")
