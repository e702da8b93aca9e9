import csv
import math

import numpy as np
import pytest

from gncoder.activations import Activation
from gncoder.exceptions import ConfigError, InsufficientDataError, RankDeficiencyError
from gncoder.grids import make_grid, norm, sample_function
from gncoder.network import Params, eval_psi
from gncoder.operators import make_identity, make_integration
from gncoder.sampling import sample_params, unit_direction
from gncoder.solver import (
    STATUS_CONVERGED_RESIDUAL,
    STATUS_RANK_DEFICIENT,
    SolveConfig,
    TikhonovObjective,
    convergence_order,
    gauss_newton_step,
    gradient_step,
    misfit_value_grad,
    radius_check,
    solve,
    tikhonov_value_grad,
)

SIGMOID = Activation.sigmoid(1.0)


def residual(p, cfg):
    """``F(psi(p)) - y``, the residual a Gauss-Newton step starts from."""
    return cfg.forward.apply(eval_psi(p, cfg.activation, cfg.grid)) - cfg.data


def benchmark(seed=19, radius=0.3, units=2, dim=1, m=64, operator="volterra",
              **solve_kw):
    """Synthetic problem with known coefficients and an offset start."""
    grid = make_grid(dim, m)
    forward = (
        make_integration(grid) if operator == "volterra" else make_identity(grid)
    )
    children = np.random.SeedSequence(seed).spawn(4)
    truth_rng = np.random.default_rng(children[0])
    start_rng = np.random.default_rng(children[2])
    p_true = sample_params(truth_rng, units, dim, box=(-5, 5), alpha_band=1.0)
    y = forward.apply(eval_psi(p_true, SIGMOID, grid))
    p0 = Params.from_flat(
        p_true.flatten() + radius * unit_direction(start_rng, p_true.n_star),
        units, dim,
    )
    kw = dict(max_iters=12, tol_residual=1e-14, tol_step=1e-15)
    kw.update(solve_kw)
    cfg = SolveConfig(SIGMOID, grid, forward, p0, y, **kw)
    return cfg, p_true


class TestGaussNewtonStep:
    def test_zero_residual_is_fixed_point(self):
        cfg, p_true = benchmark()
        cfg = SolveConfig(cfg.activation, cfg.grid, cfg.forward, p_true,
                          cfg.data, max_iters=2)
        res = residual(p_true, cfg)
        p_next, diag = gauss_newton_step(p_true, cfg, res)
        assert norm(res) < 1e-15
        assert diag.step_norm < 1e-12
        assert np.allclose(p_next.flatten(), p_true.flatten(), atol=1e-12)

    def test_output_weight_offset_resolved_in_one_step(self):
        # residual lies in the span of the output-weight columns, whose
        # coefficients are unique at full rank
        grid = make_grid(2, 32)
        forward = make_identity(grid)
        rng = np.random.default_rng(11)
        p_true = sample_params(rng, 3, 2, box=(-3, 3), alpha_band=0.5)
        y = forward.apply(eval_psi(p_true, SIGMOID, grid))
        p0 = Params(p_true.alpha + rng.uniform(-1, 1, 3), p_true.w, p_true.theta)
        cfg = SolveConfig(SIGMOID, grid, forward, p0, y)
        p1, _ = gauss_newton_step(p0, cfg, residual(p0, cfg))
        assert np.linalg.norm(p1.flatten() - p_true.flatten()) < 1e-8

    def test_error_contraction_ratio_is_bounded(self):
        cfg, p_true = benchmark(seed=19, radius=0.3)
        truth = p_true.flatten()
        p = cfg.initial
        errors = [float(np.linalg.norm(p.flatten() - truth))]
        for _ in range(4):
            p, _ = gauss_newton_step(p, cfg, residual(p, cfg))
            errors.append(float(np.linalg.norm(p.flatten() - truth)))
        for prev, nxt in zip(errors, errors[1:]):
            if prev > 1e-6:  # above the rounding floor
                assert nxt <= 10.0 * prev * prev

    def test_rank_deficiency_raises_with_deficit(self):
        grid = make_grid(1, 32)
        forward = make_identity(grid)
        p0 = Params([0.0, 1.0], [[1.0], [2.0]], [0.1, 0.2])
        y = sample_function(grid, lambda x: x)
        cfg = SolveConfig(SIGMOID, grid, forward, p0, y)
        with pytest.raises(RankDeficiencyError) as err:
            gauss_newton_step(p0, cfg, residual(p0, cfg))
        assert err.value.deficit == 2  # the dead unit's w and theta columns


class TestSolve:
    def test_starting_at_solution_stops_immediately(self):
        cfg, p_true = benchmark()
        cfg = SolveConfig(cfg.activation, cfg.grid, cfg.forward, p_true,
                          cfg.data, max_iters=5)
        trace = solve(cfg, true_params=p_true)
        assert trace.status == STATUS_CONVERGED_RESIDUAL
        assert trace.iterations == 0
        assert trace.residuals[0] < 1e-15

    def test_benchmark_error_is_monotone_inside_radius(self):
        cfg, p_true = benchmark(seed=19, radius=0.3)
        trace = solve(cfg, true_params=p_true)
        assert trace.status == STATUS_CONVERGED_RESIDUAL
        errs = trace.param_errors
        assert all(errs[k + 1] <= errs[k] for k in range(len(errs) - 1))
        assert errs[-1] < 1e-10

    def test_gradient_descent_is_much_slower(self):
        cfg, p_true = benchmark(seed=19, radius=0.3, tol_residual=1e-6)
        gn = solve(cfg, true_params=p_true)
        cfg_gd, _ = benchmark(seed=19, radius=0.3, tol_residual=1e-6,
                              max_iters=200, mode="gradient_descent",
                              step_size=1e-1)
        gd = solve(cfg_gd, true_params=p_true)
        assert gn.status == STATUS_CONVERGED_RESIDUAL
        assert gd.residuals[-1] > gn.residuals[-1]
        assert gd.iterations > 10 * gn.iterations

    def test_rank_deficient_run_halts_with_status(self):
        grid = make_grid(1, 32)
        forward = make_identity(grid)
        p0 = Params([0.0, 1.0], [[1.0], [2.0]], [0.1, 0.2])
        y = sample_function(grid, lambda x: 1.0 + 0.0 * x)
        cfg = SolveConfig(SIGMOID, grid, forward, p0, y, max_iters=5)
        trace = solve(cfg)
        assert trace.status == STATUS_RANK_DEFICIENT
        assert trace.rank_deficit == 2
        assert trace.final_params is p0

    def test_box_exit_is_clamped_and_flagged(self):
        cfg, p_true = benchmark(seed=19, radius=0.3, max_iters=3,
                                mode="gradient_descent", step_size=1e6)
        trace = solve(cfg, true_params=p_true)
        assert trace.boundary_events
        assert np.all(np.abs(trace.final_params.flatten()) <= 10.0)

    def test_traces_are_deterministic(self):
        cfg, p_true = benchmark(seed=19, radius=0.3)
        t1 = solve(cfg, true_params=p_true)
        t2 = solve(cfg, true_params=p_true)
        assert t1.residuals == t2.residuals
        assert t1.step_norms == t2.step_norms
        assert t1.param_errors == t2.param_errors
        assert t1.ranks == t2.ranks
        assert t1.status == t2.status

    def test_csv_schema_and_lengths(self, tmp_path):
        cfg, p_true = benchmark(seed=19, radius=0.3)
        trace = solve(cfg, true_params=p_true)
        path = tmp_path / "trace.csv"
        trace.write_csv(path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["iter", "residual", "step_norm", "param_error",
                           "rank", "status"]
        assert len(rows) - 1 == trace.iterations + 1
        assert rows[-1][5] == trace.status
        assert all(r[5] == "" for r in rows[1:-1])
        assert len(trace.step_norms) == trace.iterations
        assert len(trace.param_errors) == trace.iterations + 1

    def test_param_error_is_nan_without_truth(self):
        cfg, _ = benchmark(seed=19, radius=0.3, max_iters=2)
        trace = solve(cfg)
        assert all(math.isnan(e) for e in trace.param_errors)


class TestGradientStep:
    def test_zero_residual_is_fixed_point(self):
        cfg, p_true = benchmark(mode="gradient_descent", step_size=0.1)
        p_next = gradient_step(p_true, cfg)[0]
        assert np.allclose(p_next.flatten(), p_true.flatten(), atol=1e-14)

    def test_gradient_matches_finite_differences(self):
        cfg, p_true = benchmark(seed=3)
        rng = np.random.default_rng(99)
        p = sample_params(rng, 2, 1, box=(-3, 3), alpha_band=0.5)
        value, grad = misfit_value_grad(p, cfg)
        flat = p.flatten()
        h = 1e-6
        fd = np.empty_like(grad)
        for j in range(flat.size):
            e = np.zeros_like(flat)
            e[j] = h
            vp, _ = misfit_value_grad(Params.from_flat(flat + e, 2, 1), cfg)
            vm, _ = misfit_value_grad(Params.from_flat(flat - e, 2, 1), cfg)
            fd[j] = (vp - vm) / (2 * h)
        assert np.linalg.norm(fd - grad) < 1e-6 * np.linalg.norm(grad)

    def test_small_step_decreases_objective(self):
        cfg, p_true = benchmark(seed=3, mode="gradient_descent", step_size=1e-2)
        p = cfg.initial
        v0, _ = misfit_value_grad(p, cfg)
        v1, _ = misfit_value_grad(gradient_step(p, cfg)[0], cfg)
        assert v1 < v0


class TestTikhonov:
    @staticmethod
    def context(seed=21):
        grid = make_grid(1, 64)
        forward = make_integration(grid)
        rng = np.random.default_rng(seed)
        p_data = sample_params(rng, 2, 1, box=(-3, 3), alpha_band=0.5)
        y = forward.apply(eval_psi(p_data, SIGMOID, grid))
        cfg = SolveConfig(SIGMOID, grid, forward, p_data, y)
        prior = eval_psi(
            sample_params(rng, 2, 1, box=(-2, 2), alpha_band=0.5), SIGMOID, grid
        )
        return cfg, prior, rng

    def test_zero_lambda_equals_plain_misfit(self):
        cfg, prior, rng = self.context()
        p = sample_params(rng, 2, 1, box=(-3, 3), alpha_band=0.5)
        residual = cfg.forward.apply(eval_psi(p, SIGMOID, cfg.grid)) - cfg.data
        misfit = norm(residual) ** 2
        for obj in (
            TikhonovObjective(0.0, "state_space", prior=prior),
            TikhonovObjective(0.0, "parameter_space",
                              penalty_weights=np.ones(p.n_star)),
        ):
            value, _ = tikhonov_value_grad(obj, p, cfg)
            assert value == misfit

    def test_matching_prior_kills_the_penalty(self):
        cfg, _, rng = self.context()
        p = sample_params(rng, 2, 1, box=(-3, 3), alpha_band=0.5)
        prior = eval_psi(p, SIGMOID, cfg.grid)
        obj = TikhonovObjective(5.0, "state_space", prior=prior)
        value, _ = tikhonov_value_grad(obj, p, cfg)
        residual = cfg.forward.apply(eval_psi(p, SIGMOID, cfg.grid)) - cfg.data
        assert value == pytest.approx(norm(residual) ** 2, rel=1e-14)

    @pytest.mark.parametrize("variant", ["state_space", "parameter_space"])
    def test_gradient_matches_finite_differences(self, variant):
        cfg, prior, _ = self.context()
        h = 1e-6
        for i in range(10):
            rng = np.random.default_rng(6000 + i)
            p = sample_params(rng, 2, 1, box=(-3, 3), alpha_band=0.5)
            if variant == "state_space":
                obj = TikhonovObjective(0.7, variant, prior=prior)
            else:
                obj = TikhonovObjective(
                    0.7, variant,
                    penalty_weights=rng.uniform(0.1, 2.0, p.n_star),
                )
            value, grad = tikhonov_value_grad(obj, p, cfg)
            flat = p.flatten()
            fd = np.empty_like(grad)
            for j in range(flat.size):
                e = np.zeros_like(flat)
                e[j] = h
                vp, _ = tikhonov_value_grad(obj, Params.from_flat(flat + e, 2, 1), cfg)
                vm, _ = tikhonov_value_grad(obj, Params.from_flat(flat - e, 2, 1), cfg)
                fd[j] = (vp - vm) / (2 * h)
            assert np.linalg.norm(fd - grad) < 1e-6 * np.linalg.norm(grad)

    def test_variant_validation(self):
        with pytest.raises(ConfigError):
            TikhonovObjective(-1.0, "state_space", prior=None)
        with pytest.raises(ConfigError):
            TikhonovObjective(1.0, "state_space")
        with pytest.raises(ConfigError):
            TikhonovObjective(1.0, "parameter_space")
        with pytest.raises(ConfigError):
            TikhonovObjective(1.0, "spectral")


class TestRadiusCheck:
    def test_arithmetic(self):
        from gncoder.pseudoinverse import ConvergenceConstants

        c = ConvergenceConstants(1.0, 1.0).with_radius(1.0)
        h, ok = radius_check(c)
        assert h == 0.5 and ok
        c = ConvergenceConstants(2.0, 2.0).with_radius(1.0)
        h, ok = radius_check(c)
        assert h == 2.0 and not ok


class TestConvergenceOrder:
    def test_exact_quadratic_sequence(self):
        assert convergence_order([1e-1, 1e-2, 1e-4, 1e-8]) == pytest.approx(
            2.0, abs=1e-6
        )

    def test_exact_linear_sequence(self):
        assert convergence_order([1e-1, 1e-2, 1e-3, 1e-4]) == pytest.approx(
            1.0, abs=1e-6
        )

    def test_window_excludes_boundary_values(self):
        # 1e-1 and 1e-14 are excluded; the interior still carries the slope
        errors = [5e-1, 1e-1, 1e-2, 1e-4, 1e-8, 1e-15]
        assert convergence_order(errors) == pytest.approx(2.0, abs=1e-6)

    def test_insufficient_data_raises(self):
        with pytest.raises(InsufficientDataError):
            convergence_order([1e-2, 1e-4])
        with pytest.raises(InsufficientDataError):
            convergence_order([0.5, 0.4, 0.3])
        with pytest.raises(InsufficientDataError):
            convergence_order([float("nan")] * 5)

    def test_accepts_trace(self):
        cfg, p_true = benchmark(seed=19, radius=0.3)
        trace = solve(cfg, true_params=p_true)
        assert convergence_order(trace) > 1.5


class TestConfigValidation:
    def test_rejects_non_smooth_activation(self):
        grid = make_grid(1, 16)
        p = Params([1.0], [[1.0]], [0.0])
        y = sample_function(grid, lambda x: x)
        for activation in (Activation.relu(), Activation.step()):
            with pytest.raises(ConfigError):
                SolveConfig(activation, grid, make_identity(grid), p, y)

    def test_rejects_bad_tolerances_and_mode(self):
        grid = make_grid(1, 16)
        p = Params([1.0], [[1.0]], [0.0])
        y = sample_function(grid, lambda x: x)
        with pytest.raises(ConfigError):
            SolveConfig(SIGMOID, grid, make_identity(grid), p, y, max_iters=0)
        with pytest.raises(ConfigError):
            SolveConfig(SIGMOID, grid, make_identity(grid), p, y,
                        tol_residual=0.0)
        with pytest.raises(ConfigError):
            SolveConfig(SIGMOID, grid, make_identity(grid), p, y,
                        mode="newton_krylov")

    def test_rejects_mismatched_data_grid(self):
        grid = make_grid(1, 16)
        p = Params([1.0], [[1.0]], [0.0])
        y = sample_function(make_grid(1, 32), lambda x: x)
        with pytest.raises(ConfigError):
            SolveConfig(SIGMOID, grid, make_identity(grid), p, y)
