import math

import numpy as np
import pytest

from gncoder.activations import Activation
from gncoder.diagnostics import (
    cone_check,
    independence_report,
    independence_trial,
    manifold_demo,
    manifold_sweep,
    merge_duplicate,
    merge_mirrored,
    mysovskii_check,
)
from gncoder.exceptions import ConfigError, RankDeficiencyError, ResolutionError
from gncoder.grids import make_grid
from gncoder.network import Params, jacobian
from gncoder.operators import DENSE_BYTES_LIMIT, make_identity, make_integration
from gncoder.sampling import sample_params, unit_direction

SIGMOID = Activation.sigmoid(1.0)
TANH = Activation.tanh()


def svd_rank(p, activation, grid, rank_tol=1e-10):
    matrix = jacobian(p, activation, grid) * np.sqrt(grid.weights)[:, None]
    sv = np.linalg.svd(matrix, compute_uv=False)
    return int(np.sum(sv > rank_tol * sv[0]))


class TestIndependence:
    def test_duplicate_units_are_degenerate(self):
        grid = make_grid(2, 32)
        rng = np.random.default_rng(1)
        p = sample_params(rng, 2, 2, box=(-4, 4), alpha_band=0.5)
        report = independence_report(merge_duplicate(p), SIGMOID, grid)
        assert report.degenerate
        assert report.rank < merge_duplicate(p).n_star

    def test_mirrored_network_is_degenerate(self):
        grid = make_grid(2, 32)
        rng = np.random.default_rng(2)
        p = sample_params(rng, 2, 2, box=(-4, 4), alpha_band=0.5)
        report = independence_report(merge_mirrored(p), SIGMOID, grid)
        assert report.degenerate

    def test_monte_carlo_trials_are_nondegenerate(self):
        grid = make_grid(2, 32)
        degenerate = sum(
            independence_trial(
                SIGMOID, 3, 2, grid, box=(-5, 5), seed=500 + i
            ).degenerate
            for i in range(20)
        )
        assert degenerate == 0

    def test_rank_agrees_with_svd_oracle(self):
        grid = make_grid(2, 32)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            p = sample_params(rng, 3, 2, box=(-5, 5), alpha_band=0.5)
            report = independence_report(p, SIGMOID, grid)
            assert report.rank == svd_rank(p, SIGMOID, grid)

    def test_mirror_flip_tracks_derivative_evenness(self):
        # mirroring any single unit of a nondegenerate network collapses it
        # exactly when the activation derivative is even.  Evenness is
        # measured from the derivative itself, not assumed per kind.
        grid = make_grid(1, 64)
        rng = np.random.default_rng(4)
        base = sample_params(rng, 2, 1, box=(-3, 3), alpha_band=0.5)
        ts = np.linspace(-5.0, 5.0, 41)
        for activation in (SIGMOID, TANH):
            assert not independence_report(base, activation, grid).degenerate
            even = np.allclose(
                activation.d1(ts), activation.d1(-ts), rtol=1e-10, atol=1e-14
            )
            for unit in range(base.units):
                extended = Params(
                    np.concatenate([base.alpha, base.alpha[unit : unit + 1]]),
                    np.concatenate([base.w, -base.w[unit : unit + 1]]),
                    np.concatenate([base.theta, -base.theta[unit : unit + 1]]),
                )
                report = independence_report(extended, activation, grid)
                assert report.degenerate == even
            assert independence_report(
                merge_mirrored(base), activation, grid
            ).degenerate == even

    def test_relu_scaling_homogeneity_degenerates_columns(self):
        # relu(z) = z * 1(z > 0), so each unit's output-weight column is a
        # combination of its own inner columns; the report sees it
        grid = make_grid(1, 64)
        rng = np.random.default_rng(4)
        base = sample_params(rng, 2, 1, box=(-3, 3), alpha_band=0.5)
        report = independence_report(base, Activation.relu(), grid)
        assert report.degenerate

    def test_reports_serialize(self):
        grid = make_grid(2, 32)
        report = independence_trial(SIGMOID, 2, 2, grid, seed=9)
        d = report.to_json_dict()
        assert d["units"] == 2 and d["points_per_axis"] == 32
        assert isinstance(d["gram_condition"], float)

    def test_too_many_columns_rejected(self):
        grid = make_grid(1, 4)
        with pytest.raises(ResolutionError):
            independence_trial(SIGMOID, 2, 1, grid, seed=0)

    def test_zero_alpha_band_can_be_disabled(self):
        grid = make_grid(1, 64)
        report = independence_trial(
            SIGMOID, 2, 1, grid, box=(-0.04, 0.04), seed=1,
            allow_zero_alpha=True,
        )
        assert report.min_singular_value < 1e-2


def square_setup(seed=0, units=2, dim=1):
    """Grid with exactly as many nodes as derivative columns.

    There the derivative is a square invertible matrix, the setting where
    the transition-matrix factorization is exact.
    """
    n_star = units * (dim + 2)
    grid = make_grid(dim, n_star)
    rng = np.random.default_rng(seed)
    p1 = sample_params(rng, units, dim, box=(-5, 5), alpha_band=1.0)
    direction = unit_direction(rng, n_star)
    return grid, p1, direction


class TestConeCheck:
    def test_same_point_gives_identity(self):
        grid, p1, _ = square_setup(seed=3)
        forward = make_integration(grid)
        report = cone_check(p1, p1, SIGMOID, grid, forward)
        assert report.dev < 1e-9
        assert report.decomposition_residual < 1e-10
        assert math.isnan(report.ratio)

    def test_ratio_stabilizes_under_shrinking_perturbations(self):
        grid, p1, direction = square_setup(seed=0)
        forward = make_integration(grid)
        ratios = []
        for t in (1e-2, 1e-3, 1e-4):
            p2 = Params.from_flat(p1.flatten() + t * direction, 2, 1)
            report = cone_check(p1, p2, SIGMOID, grid, forward)
            assert report.decomposition_residual < 1e-8
            ratios.append(report.ratio)
        assert max(ratios) <= 2.0 * min(ratios)

    def test_offspan_residual_is_reported(self):
        # on a fine grid the perturbed columns leave the base span, and the
        # projection defect shows up in the decomposition residual
        grid = make_grid(1, 64)
        rng = np.random.default_rng(8)
        p1 = sample_params(rng, 2, 1, box=(-5, 5), alpha_band=1.0)
        p2 = Params.from_flat(
            p1.flatten() + 0.5 * unit_direction(rng, p1.n_star), 2, 1
        )
        report = cone_check(p1, p2, SIGMOID, grid, make_identity(grid))
        assert report.decomposition_residual > 1e-8
        assert np.isfinite(report.dev)

    def test_rank_deficient_base_point_rejected(self):
        grid = make_grid(1, 64)
        p1 = Params([0.0, 1.0], [[1.0], [2.0]], [0.1, 0.2])
        with pytest.raises(RankDeficiencyError):
            cone_check(p1, p1, SIGMOID, grid, make_identity(grid))

    def test_report_serializes(self):
        grid, p1, direction = square_setup(seed=5)
        p2 = Params.from_flat(p1.flatten() + 1e-3 * direction, 2, 1)
        report = cone_check(p1, p2, SIGMOID, grid, make_integration(grid))
        d = report.to_json_dict()
        assert len(d["r_matrix"]) == p1.n_star
        assert d["ratio"] == report.ratio


MYSOVSKII_BASE = Params([12.0, -12.0], [[3.0], [-3.0]], [-0.9, 2.1])


class TestMysovskiiCheck:
    def test_zero_s_and_coincident_points_give_zero(self):
        grid = make_grid(1, 64)
        forward = make_integration(grid)
        rng = np.random.default_rng(6)
        p = Params.from_flat(
            MYSOVSKII_BASE.flatten() + 0.05 * unit_direction(rng, 6), 2, 1
        )
        q = Params.from_flat(p.flatten() + 0.2 * unit_direction(rng, 6), 2, 1)
        report = mysovskii_check(p, q, (0.0, 0.5), SIGMOID, grid, forward)
        assert report.lhs_values[0] == 0.0
        assert report.bound_ratios[0] == 0.0
        assert report.lhs_values[1] > 0.0
        same = mysovskii_check(p, p, (0.25, 1.0), SIGMOID, grid, forward)
        assert same.lhs_values == (0.0, 0.0)
        assert same.max_ratio == 0.0

    def test_lhs_is_sublinear_in_s(self):
        grid = make_grid(1, 64)
        forward = make_integration(grid)
        rng = np.random.default_rng(7)
        p = Params.from_flat(
            MYSOVSKII_BASE.flatten() + 0.05 * unit_direction(rng, 6), 2, 1
        )
        q = Params.from_flat(p.flatten() + 0.2 * unit_direction(rng, 6), 2, 1)
        s_values = (0.1, 0.25, 0.5, 0.75, 1.0)
        report = mysovskii_check(p, q, s_values, SIGMOID, grid, forward)
        dist_sq = float(np.linalg.norm(p.flatten() - q.flatten())) ** 2
        for s, lhs in zip(report.s_values, report.lhs_values):
            assert lhs <= s * report.max_ratio * dist_sq * (1 + 1e-12)

    def test_invalid_s_rejected(self):
        grid = make_grid(1, 64)
        with pytest.raises(ValueError):
            mysovskii_check(
                MYSOVSKII_BASE, MYSOVSKII_BASE, (1.5,), SIGMOID, grid,
                make_identity(grid),
            )


class TestManifoldDemo:
    def test_printed_formula_values(self):
        value, det = manifold_demo(1.0, 0.0)
        assert value == (0.0, 1.0)
        assert det == -2.0
        assert manifold_demo(0.0, 1.0)[1] == 2.0
        assert manifold_demo(0.0, 0.0) == ((0.0, 0.0), 0.0)

    def test_determinant_vanishes_on_both_diagonals(self):
        for t in np.linspace(-2.0, 2.0, 9):
            assert manifold_demo(t, t)[1] == 0.0
            assert manifold_demo(t, -t)[1] == 0.0

    def test_sweep_structure(self):
        rows = manifold_sweep(extent=1.0, resolution=41)
        x, y, f1, f2, det = rows.T
        assert rows.shape == (41 * 41, 5)
        assert np.array_equal(f1, x * y)
        assert np.array_equal(f2, x * x + y * y)
        # sign pattern: positive where |y| > |x|, negative where |y| < |x|
        assert np.all(det[np.abs(y) > np.abs(x)] > 0)
        assert np.all(det[np.abs(y) < np.abs(x)] < 0)
        assert np.all(f2 >= 0)
        # lexicographic sweep: x varies slowest
        assert np.all(np.diff(x) >= 0)

    def test_resolution_validation(self):
        with pytest.raises(ValueError):
            manifold_sweep(resolution=1)

    def test_oversized_lattice_is_refused_before_allocating(self):
        # about ten resolution**2 float64 arrays at the peak; 3663 must fit
        assert 10 * 8 * 3663**2 <= DENSE_BYTES_LIMIT
        for resolution in (3664, 20000, 1000000):
            with pytest.raises(ConfigError, match="resolution"):
                manifold_sweep(resolution=resolution)
