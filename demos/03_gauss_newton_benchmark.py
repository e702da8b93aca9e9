#!/usr/bin/env python3
"""The Gauss-Newton iteration on a synthetic encoded inverse problem.

Builds the benchmark: a two-unit sigmoid network composed with the
smoothing integration operator, data synthesized from known coefficients,
and a starting point offset by a controlled radius.  Shows the quadratic
error decay, the estimated convergence constants, and the head-to-head
against fixed-step gradient descent.  Closes with the two Tikhonov
objectives evaluated at the start.
"""

import numpy as np

from gncoder import (
    Params,
    SolveConfig,
    TikhonovObjective,
    convergence_order,
    eval_psi,
    lipschitz_constants,
    make_grid,
    radius_check,
    solve,
    tikhonov_value_grad,
    unit_direction,
)
from gncoder.activations import parse_activation
from gncoder.cli import SolveOptions, _spawn_rngs, synth_problem
from gncoder.operators import parse_operator

SEED, RADIUS = 19, 0.3

opts = SolveOptions(seed=SEED, p0_radius=RADIUS)
grid = make_grid(opts.dim, opts.points_per_axis)
act = parse_activation(opts.activation)
forward = parse_operator(opts.operator, grid)
p_true, y = synth_problem(opts, act, forward)
_, _, start_rng, const_seed = _spawn_rngs(SEED)
p0 = Params.from_flat(
    p_true.flatten() + RADIUS * unit_direction(start_rng, p_true.n_star), 2, 1
)
print(f"problem: {forward.descriptor} composed with a {p_true.units}-unit "
      f"{act.descriptor} network on {grid.node_count} nodes")
print(f"start offset radius: {RADIUS}")

constants = lipschitz_constants(
    p_true, act, grid, radius=2 * RADIUS, samples=24, seed=const_seed
).with_radius(RADIUS)
h, inside = radius_check(constants)
print(f"sampled constants: derivative bound {constants.derivative_bound:.3f}, "
      f"Lipschitz bound {constants.lipschitz_bound:.3f}")
print(f"contraction factor h = {h:.4f}  (< 1: {inside})")

print("\n=== Gauss-Newton run ===")
sc = SolveConfig(act, grid, forward, p0, y, max_iters=12,
                 tol_residual=1e-14, tol_step=1e-15)
trace = solve(sc, true_params=p_true)
print(f"{'iter':>4} {'residual':>12} {'step norm':>12} {'param error':>12}")
for k, res in enumerate(trace.residuals):
    step = f"{trace.step_norms[k]:12.3e}" if k < len(trace.step_norms) else " " * 12
    print(f"{k:>4} {res:12.3e} {step} {trace.param_errors[k]:12.3e}")
print(f"status: {trace.status}; observed convergence order "
      f"{convergence_order(trace):.2f}")

print("\n=== gradient-descent baseline (residual target 1e-6) ===")
sc_gn = SolveConfig(act, grid, forward, p0, y, max_iters=50, tol_residual=1e-6,
                    tol_step=1e-15)
gn_iters = solve(sc_gn, true_params=p_true).iterations
print(f"Gauss-Newton reaches the target in {gn_iters} iterations")
for step_size in (1e-3, 1e-2, 1e-1):
    sc_gd = SolveConfig(act, grid, forward, p0, y, max_iters=2000,
                        tol_residual=1e-6, tol_step=1e-16,
                        mode="gradient_descent", step_size=step_size)
    gd = solve(sc_gd, true_params=p_true)
    print(f"gradient descent, step {step_size:0.0e}: "
          f"{gd.iterations} iterations, final residual {gd.residuals[-1]:.2e} "
          f"({gd.status})")

print("\n=== Tikhonov objectives at the starting point ===")
prior = eval_psi(p_true, act, grid)
state = TikhonovObjective(0.1, "state_space", prior=prior)
param = TikhonovObjective(0.1, "parameter_space",
                          penalty_weights=np.ones(p0.n_star))
for name, obj in (("state-space prior", state), ("parameter penalty", param)):
    value, grad = tikhonov_value_grad(obj, p0, sc)
    print(f"{name:<18}: value {value:.6e}, gradient norm "
          f"{np.linalg.norm(grad):.3e}")
value0, _ = tikhonov_value_grad(
    TikhonovObjective(0.0, "state_space", prior=prior), p0, sc)
print(f"lambda = 0 reduces to the plain squared misfit: {value0:.6e}")
