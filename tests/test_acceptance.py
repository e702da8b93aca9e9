"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the pass/fail
lines alongside the measured quantities.  Every tolerance is pinned here;
oracles (finite differences, dense SVD, brute-force summation) are local to
this module and independent of the library paths they check.
"""

import time

import numpy as np

from gncoder.activations import Activation, parse_activation
from gncoder.cli import SolveOptions, _spawn_rngs, main, synth_problem
from gncoder.diagnostics import (
    cone_check,
    independence_report,
    independence_trial,
    manifold_demo,
    merge_duplicate,
    merge_mirrored,
    mysovskii_check,
)
from gncoder.grids import GridFunction, make_grid, norm
from gncoder.network import (
    Params,
    eval_psi,
    jacobian,
    lipschitz_constants,
    second_derivative_bilinear,
)
from gncoder.operators import make_identity, make_integration, parse_operator
from gncoder.pseudoinverse import pinv_apply, weighted_qr
from gncoder.sampling import sample_params, unit_direction
from gncoder.solver import (
    STATUS_CONVERGED_RESIDUAL,
    SolveConfig,
    TikhonovObjective,
    convergence_order,
    radius_check,
    solve,
    tikhonov_value_grad,
)
from moore_penrose import mp_residuals

SIGMOID = Activation.sigmoid(1.0)
TANH = Activation.tanh()


def _report(number, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:02d}] {name}: {status} ({detail})")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


# ---------------------------------------------------------------------------
# local oracles


def fd_column(p, activation, grid, index, step=1e-5):
    e = np.zeros(p.n_star)
    e[index] = step
    up = eval_psi(Params.from_flat(p.flatten() + e, p.units, p.input_dim),
                  activation, grid)
    dn = eval_psi(Params.from_flat(p.flatten() - e, p.units, p.input_dim),
                  activation, grid)
    return (up.values - dn.values) / (2.0 * step)


def fd_bilinear(p, activation, grid, h1, h2, step=1e-4):
    def psi(flat):
        return eval_psi(Params.from_flat(flat, p.units, p.input_dim),
                        activation, grid).values

    f = p.flatten()
    return (
        psi(f + step * (h1 + h2))
        - psi(f + step * (h1 - h2))
        - psi(f - step * (h1 - h2))
        + psi(f - step * (h1 + h2))
    ) / (4.0 * step * step)


def weighted_column_matrix(p, activation, grid):
    return jacobian(p, activation, grid) * np.sqrt(grid.weights)[:, None]


def column_rel_err(grid, approx, exact):
    num = np.sqrt(np.sum(grid.weights * (approx - exact) ** 2))
    den = np.sqrt(np.sum(grid.weights * exact**2))
    return num / den


# ---------------------------------------------------------------------------
# shared benchmark (quadratic-convergence configuration)

BENCH_SEED = 19
BENCH_RADIUS = 0.3


def benchmark_problem(seed=BENCH_SEED, radius=BENCH_RADIUS, **solve_overrides):
    opts = SolveOptions(seed=seed, p0_radius=radius)
    grid = make_grid(opts.dim, opts.points_per_axis)
    activation = parse_activation(opts.activation)
    forward = parse_operator(opts.operator, grid)
    p_true, y = synth_problem(opts, activation, forward)
    _, _, start_rng, constants_seed = _spawn_rngs(seed)
    p0 = Params.from_flat(
        p_true.flatten() + radius * unit_direction(start_rng, p_true.n_star),
        opts.units, opts.dim,
    )
    kw = dict(max_iters=12, tol_residual=1e-14, tol_step=1e-15)
    kw.update(solve_overrides)
    solve_cfg = SolveConfig(activation, grid, forward, p0, y, **kw)
    return solve_cfg, p_true, constants_seed


def benchmark_constants(solve_cfg, p_true, constants_seed, radius):
    constants = lipschitz_constants(
        p_true, solve_cfg.activation, solve_cfg.grid,
        radius=2.0 * radius, samples=24, seed=constants_seed,
    )
    return constants.with_radius(radius)


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_derivative_fidelity():
    start = time.perf_counter()
    grid = make_grid(2, 32)
    worst_first = 0.0
    worst_node = 0.0
    worst_second = 0.0
    for activation in (SIGMOID, TANH):
        for probe in range(20):
            rng = np.random.default_rng(2000 + probe)
            p = sample_params(rng, 3, 2, box=(-3, 3), alpha_band=0.5)
            node = int(rng.integers(grid.node_count))
            matrix = jacobian(p, activation, grid)
            for i in range(p.n_star):
                fd = fd_column(p, activation, grid, i, step=1e-5)
                worst_first = max(
                    worst_first, column_rel_err(grid, fd, matrix[:, i])
                )
                scale = np.sqrt(np.sum(grid.weights * matrix[:, i] ** 2))
                worst_node = max(
                    worst_node, abs(fd[node] - matrix[node, i]) / scale
                )
        for probe in range(10):
            rng = np.random.default_rng(4000 + probe)
            p = sample_params(rng, 3, 2, box=(-3, 3), alpha_band=0.5)
            h1 = unit_direction(rng, p.n_star)
            h2 = unit_direction(rng, p.n_star)
            exact = second_derivative_bilinear(p, activation, grid, h1, h2)
            approx = fd_bilinear(p, activation, grid, h1, h2, step=1e-4)
            worst_second = max(
                worst_second, column_rel_err(grid, approx, exact.values)
            )
    elapsed = time.perf_counter() - start
    ok = (worst_first < 1e-6 and worst_node < 1e-6 and worst_second < 1e-4
          and elapsed < 10.0)
    _report(1, "derivative fidelity", ok,
            f"jacobian rel {worst_first:.2e}, nodewise rel {worst_node:.2e}, "
            f"second-order rel {worst_second:.2e}, {elapsed:.1f}s")


def test_criterion_02_moore_penrose_identities():
    start = time.perf_counter()
    grids = {1: make_grid(1, 64), 2: make_grid(2, 64)}
    sizes = [(1, 1), (2, 1), (1, 2), (2, 2), (3, 2), (4, 2)]
    worst_residual = 0.0
    worst_pinv = 0.0
    for trial in range(50):
        units, dim = sizes[trial % len(sizes)]
        grid = grids[dim]
        # full-rank family: redraw until the weighted columns are
        # comfortably independent
        attempt = 0
        while True:
            rng = np.random.default_rng(1000 + trial + 100_000 * attempt)
            p = sample_params(rng, units, dim, box=(-4, 4), alpha_band=0.5)
            scaled = weighted_column_matrix(p, SIGMOID, grid)
            sv = np.linalg.svd(scaled, compute_uv=False)
            if sv[0] / sv[-1] < 1e5:
                break
            attempt += 1
            assert attempt < 100, "could not draw a well-conditioned Jacobian"
        matrix = jacobian(p, SIGMOID, grid)
        factors = weighted_qr(matrix, grid)
        assert factors.rank == p.n_star
        worst_residual = max(worst_residual, mp_residuals(matrix, factors).max())
        probe_rng = np.random.default_rng(3000 + trial)
        x = probe_rng.standard_normal(grid.node_count)
        oracle = np.linalg.pinv(scaled) @ (np.sqrt(grid.weights) * x)
        mine = pinv_apply(factors, GridFunction(grid, x))
        worst_pinv = max(worst_pinv, float(np.max(np.abs(mine - oracle))))
    elapsed = time.perf_counter() - start
    ok = worst_residual < 1e-8 and worst_pinv < 1e-8 and elapsed < 30.0
    _report(2, "Moore-Penrose identities", ok,
            f"identity residual {worst_residual:.2e}, "
            f"svd-oracle gap {worst_pinv:.2e}, {elapsed:.1f}s")


def test_criterion_03_quadratic_convergence():
    start = time.perf_counter()
    solve_cfg, p_true, constants_seed = benchmark_problem()
    trace = solve(solve_cfg, true_params=p_true)
    constants = benchmark_constants(solve_cfg, p_true, constants_seed,
                                    BENCH_RADIUS)
    h, inside = radius_check(constants)
    order = convergence_order(trace)
    elapsed = time.perf_counter() - start
    ok = (
        trace.status == STATUS_CONVERGED_RESIDUAL
        and inside
        and order >= 1.7
        and trace.param_errors[-1] < 1e-10
        and trace.iterations <= 12
        and elapsed < 60.0
    )
    _report(3, "quadratic convergence", ok,
            f"order {order:.2f}, final error {trace.param_errors[-1]:.1e}, "
            f"{trace.iterations} iterations, h {h:.3f}, {elapsed:.1f}s")


def test_criterion_04_one_step_exactness():
    grid = make_grid(2, 32)
    forward = make_identity(grid)
    rng = np.random.default_rng(11)
    p_true = sample_params(rng, 3, 2, box=(-3, 3), alpha_band=0.5)
    y = forward.apply(eval_psi(p_true, SIGMOID, grid))
    p0 = Params(p_true.alpha + rng.uniform(-1, 1, 3), p_true.w, p_true.theta)
    solve_cfg = SolveConfig(SIGMOID, grid, forward, p0, y, max_iters=1)
    trace = solve(solve_cfg, true_params=p_true)
    err = float(np.linalg.norm(trace.final_params.flatten() - p_true.flatten()))
    _report(4, "one-step exactness", err < 1e-8,
            f"error after one step {err:.1e}")


def test_criterion_05_contraction_inside_radius():
    checked = 0
    worst = ""
    ok = True
    for seed in (19, 6, 23):
        for radius in (0.1, 0.2, 0.3):
            solve_cfg, p_true, constants_seed = benchmark_problem(seed, radius)
            constants = benchmark_constants(solve_cfg, p_true, constants_seed,
                                            radius)
            h, inside = radius_check(constants)
            if not inside:
                continue
            checked += 1
            trace = solve(solve_cfg, true_params=p_true)
            errors = trace.param_errors
            monotone = all(
                errors[k + 1] <= errors[k] for k in range(len(errors) - 1)
            )
            if not monotone:
                ok = False
                worst = f"seed {seed} radius {radius} not monotone"
    ok = ok and checked >= 6
    _report(5, "contraction inside the radius", ok,
            worst or f"{checked} runs with h < 1, all monotone")


def test_criterion_06_independence_evidence():
    grid = make_grid(2, 64)
    nondegenerate = sum(
        not independence_trial(SIGMOID, 3, 2, grid, box=(-5, 5),
                               seed=7000 + i).degenerate
        for i in range(100)
    )
    rng = np.random.default_rng(5)
    base = sample_params(rng, 3, 2, box=(-5, 5), alpha_band=0.5)
    mirrored = independence_report(merge_mirrored(base), SIGMOID, grid)
    duplicated = independence_report(merge_duplicate(base), SIGMOID, grid)
    ok = nondegenerate >= 99 and mirrored.degenerate and duplicated.degenerate
    _report(6, "independence evidence", ok,
            f"{nondegenerate}/100 nondegenerate, mirrored degenerate "
            f"{mirrored.degenerate}, duplicate degenerate {duplicated.degenerate}")


def test_criterion_07_order_reversed_cone_condition():
    ok = True
    details = []
    for seed in (0, 1, 2, 3):
        units, dim = 2, 1
        grid = make_grid(dim, units * (dim + 2))  # square: columns == nodes
        rng = np.random.default_rng(seed)
        p1 = sample_params(rng, units, dim, box=(-5, 5), alpha_band=1.0)
        direction = unit_direction(rng, p1.n_star)
        ratios = []
        worst_residual = 0.0
        for t in (1e-2, 1e-3, 1e-4):
            report, = cone_check(p1, [p1.flatten() + t * direction], SIGMOID,
                                 grid, make_integration(grid))
            worst_residual = max(worst_residual, report.decomposition_residual)
            ratios.append(report.ratio)
        spread = max(ratios) / min(ratios)
        ok = ok and worst_residual < 1e-6 and spread <= 2.0
        details.append(f"seed {seed}: residual {worst_residual:.1e} "
                       f"spread {spread:.2f}")
    _report(7, "order-reversed cone condition", ok, "; ".join(details))


def test_criterion_08_mysovskii_bound():
    base = Params([12.0, -12.0], [[3.0], [-3.0]], [-0.9, 2.1])
    grid = make_grid(1, 64)
    forward = make_integration(grid)
    rng = np.random.default_rng(424242)
    max_ratio = 0.0
    for _ in range(20):
        p = base.flatten() + 0.05 * unit_direction(rng, base.n_star)
        q = p + 0.2 * unit_direction(rng, base.n_star)
        s = float(rng.uniform(0.05, 1.0))
        report, = mysovskii_check([(p, q, (s,))], 2, 1, SIGMOID, grid, forward)
        max_ratio = max(max_ratio, report.max_ratio)
    constants = lipschitz_constants(
        base, SIGMOID, grid, radius=0.3, samples=32, seed=99, box=(-15, 15)
    )
    product = constants.derivative_bound * constants.lipschitz_bound
    ok = np.isfinite(max_ratio) and max_ratio <= 1.2 * product
    _report(8, "Newton-Mysovskii bound", ok,
            f"max ratio {max_ratio:.3f} vs 1.2 x product {1.2 * product:.3f}")


def test_criterion_09_gauss_newton_vs_gradient_descent():
    target = 1e-6
    solve_cfg, p_true, _ = benchmark_problem(tol_residual=target, max_iters=50)
    gn = solve(solve_cfg, true_params=p_true)
    assert gn.status == STATUS_CONVERGED_RESIDUAL
    best_gd = None
    for step_size in (1e-3, 1e-2, 1e-1):
        cfg_gd, p_true_gd, _ = benchmark_problem(
            tol_residual=target, max_iters=2000,
            mode="gradient_descent", step_size=step_size,
        )
        trace = solve(cfg_gd, true_params=p_true_gd)
        reached = trace.residuals[-1] <= target
        iterations = trace.iterations if reached else float("inf")
        if best_gd is None or iterations < best_gd:
            best_gd = iterations
    ok = best_gd > 10 * gn.iterations
    shown = "no convergence within 2000" if best_gd == float("inf") else str(best_gd)
    _report(9, "Gauss-Newton vs gradient descent", ok,
            f"Gauss-Newton {gn.iterations} iterations, best gradient descent "
            f"{shown}")


def test_criterion_10_tikhonov_formulas():
    grid = make_grid(1, 64)
    forward = make_integration(grid)
    rng = np.random.default_rng(21)
    p_data = sample_params(rng, 2, 1, box=(-3, 3), alpha_band=0.5)
    y = forward.apply(eval_psi(p_data, SIGMOID, grid))
    solve_cfg = SolveConfig(SIGMOID, grid, forward, p_data, y)
    prior = eval_psi(sample_params(rng, 2, 1, box=(-2, 2), alpha_band=0.5),
                     SIGMOID, grid)
    worst = 0.0
    exact_at_zero = True
    for variant in ("state_space", "parameter_space"):
        for i in range(10):
            point_rng = np.random.default_rng(6000 + i)
            p = sample_params(point_rng, 2, 1, box=(-3, 3), alpha_band=0.5)
            if variant == "state_space":
                obj = TikhonovObjective(0.7, variant, prior=prior)
                zero = TikhonovObjective(0.0, variant, prior=prior)
            else:
                weights = point_rng.uniform(0.1, 2.0, p.n_star)
                obj = TikhonovObjective(0.7, variant, penalty_weights=weights)
                zero = TikhonovObjective(0.0, variant, penalty_weights=weights)
            _, grad = tikhonov_value_grad(obj, p, solve_cfg)
            flat = p.flatten()
            step = 1e-6
            fd = np.empty_like(grad)
            for j in range(flat.size):
                e = np.zeros_like(flat)
                e[j] = step
                vp, _ = tikhonov_value_grad(
                    obj, Params.from_flat(flat + e, 2, 1), solve_cfg)
                vm, _ = tikhonov_value_grad(
                    obj, Params.from_flat(flat - e, 2, 1), solve_cfg)
                fd[j] = (vp - vm) / (2 * step)
            worst = max(worst,
                        np.linalg.norm(fd - grad) / np.linalg.norm(grad))
            misfit = norm(forward.apply(eval_psi(p, SIGMOID, grid)) - y) ** 2
            value_zero, _ = tikhonov_value_grad(zero, p, solve_cfg)
            exact_at_zero = exact_at_zero and value_zero == misfit
    ok = worst < 1e-6 and exact_at_zero
    _report(10, "Tikhonov formulas", ok,
            f"worst gradient rel err {worst:.2e}, "
            f"lambda=0 exact {exact_at_zero}")


def test_criterion_11_manifold_demo(tmp_path):
    exact = (
        manifold_demo(1.0, 0.0)[1] == -2.0
        and manifold_demo(0.0, 1.0)[1] == 2.0
        and all(manifold_demo(t, t)[1] == 0.0 for t in np.linspace(-2, 2, 9))
        and all(manifold_demo(t, -t)[1] == 0.0 for t in np.linspace(-2, 2, 9))
    )
    out = tmp_path / "sweep"
    code = main(["manifold", "--resolution", "41", "--out", str(out)])
    csv_path = next(out.glob("manifold_*.csv"))
    lines = csv_path.read_text().splitlines()
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    x, y, f1, f2, det = rows.T
    structure = (
        lines[0] == "x,y,f1,f2,det"
        and bool(np.all(det[np.abs(y) > np.abs(x)] > 0))
        and bool(np.all(det[np.abs(y) < np.abs(x)] < 0))
        and bool(np.all(det[np.isclose(np.abs(y), np.abs(x))] == 0.0))
        and bool(np.all(f2 >= 0))
        and np.array_equal(f1, x * y)
    )
    ok = exact and code == 0 and structure
    _report(11, "degenerate-manifold demo", ok,
            f"printed-formula values exact {exact}, sweep structure {structure}")


def test_criterion_12_determinism(tmp_path):
    experiments = [
        ["solve", "--seed", str(BENCH_SEED), "--p0-radius", str(BENCH_RADIUS),
         "--max-iters", "12"],
        ["independence", "--trials", "10", "--seed", "7000",
         "--points-per-axis", "32"],
        ["manifold", "--resolution", "21"],
        ["cone", "--seed", "0"],
    ]
    identical = True
    for index, args in enumerate(experiments):
        run_a = tmp_path / f"a{index}"
        run_b = tmp_path / f"b{index}"
        assert main(args + ["--out", str(run_a)]) == 0
        assert main(args + ["--out", str(run_b)]) == 0
        names_a = sorted(p.name for p in run_a.iterdir())
        names_b = sorted(p.name for p in run_b.iterdir())
        identical = identical and names_a == names_b
        for name in names_a:
            if (run_a / name).read_bytes() != (run_b / name).read_bytes():
                identical = False
    _report(12, "bitwise determinism", identical,
            f"{len(experiments)} experiments, rerun outputs compared by bytes")
