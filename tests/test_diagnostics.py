import math
import sys

import numpy as np
import pytest

from gncoder.activations import Activation
from gncoder.diagnostics import (
    cone_check,
    derivative_check,
    independence_report,
    independence_reports,
    independence_trial,
    manifold_demo,
    manifold_sweep,
    merge_duplicate,
    merge_mirrored,
    mysovskii_check,
)
from gncoder import diagnostics
from gncoder.exceptions import (
    ConfigError,
    NumericError,
    RankDeficiencyError,
    ResolutionError,
    ShapeError,
)
from gncoder.grids import DENSE_BYTES_LIMIT, make_grid
from gncoder import network
from gncoder.network import (
    Params,
    directional_derivative,
    eval_psi,
    jacobian,
    jacobian_rows,
    second_derivative_bilinear,
)
from gncoder.operators import (
    make_identity,
    make_integration,
    parse_operator,
)
from gncoder import pseudoinverse
from gncoder.pseudoinverse import (full_rank, householder_r, pinv_apply,
                                   solve_from_r, weighted_qr)
from gncoder.sampling import sample_params, unit_direction
from node_major import node_major_image

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

    def test_an_all_zero_jacobian_is_degenerate(self):
        # w x + theta < 0 on all of [0, 1]: every ReLU unit is dead, so
        # every column is zero and the rank is 0
        grid = make_grid(1, 64)
        p = Params([1.5, -1.0], [[2.0], [-1.5]], [-3.0, -0.1])
        report = independence_report(p, Activation.relu(), grid)
        assert report.rank == 0
        assert report.min_singular_value == 0.0
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



def per_point_report(p, activation, grid, rank_tol=1e-10, seed=None):
    """The report of the per-point ``independence_report`` that
    ``independence_reports`` replaced, the oracle of every report:
    ``np.linalg.svd`` of the weighted node-major matrix, the rank rule and
    the fields read off its singular values."""
    matrix = jacobian(p, activation, grid) * np.sqrt(grid.weights)[:, None]
    sv = np.linalg.svd(matrix, compute_uv=False)
    smax, smin = float(sv[0]), float(sv[-1])
    rank = int(np.sum(sv > rank_tol * smax))
    return {
        "activation": activation.descriptor,
        "units": p.units,
        "input_dim": p.input_dim,
        "points_per_axis": grid.points_per_axis,
        "seed": seed,
        "min_singular_value": smin,
        "rank": rank,
        "degenerate": rank < p.n_star,
        "gram_condition": (smax / smin) ** 2 if smin > 0 else math.inf,
    }


CONTROLS = {
    "draw": lambda p: p,
    "mirrored": merge_mirrored,
    "duplicate": merge_duplicate,
}


class TestIndependenceReports:
    @pytest.mark.parametrize("control", sorted(CONTROLS))
    @pytest.mark.parametrize("dim, points", [(1, 64), (2, 16)])
    @pytest.mark.parametrize("activation", [SIGMOID, TANH, Activation.relu()],
                             ids=["sigmoid", "tanh", "relu"])
    def test_each_report_is_the_per_point_one(self, activation, dim, points,
                                               control):
        grid = make_grid(dim, points)
        rng = np.random.default_rng(dim * 100 + points)
        params = [CONTROLS[control](sample_params(rng, 2, dim, box=(-4, 4),
                                                  alpha_band=0.5))
                  for _ in range(4)]
        seeds = [11, 12, 13, 14]
        units = params[0].units
        reports = independence_reports(
            np.array([p.flatten() for p in params]), units, dim, activation,
            grid, seeds=seeds)
        assert [r.to_json_dict() for r in reports] == [
            per_point_report(p, activation, grid, seed=seed)
            for p, seed in zip(params, seeds)]
        if control == "duplicate":
            assert all(r.degenerate for r in reports)

    def test_seeds_default_to_none(self):
        grid = make_grid(1, 32)
        flat = sample_params(np.random.default_rng(5), 2, 1).flatten()
        report, = independence_reports([flat], 2, 1, SIGMOID, grid)
        assert report.seed is None

    def test_wrong_width_is_a_shape_error_naming_both(self):
        grid = make_grid(1, 32)
        with pytest.raises(ShapeError, match=(
                r"points have shape \(2, 9\), 2 units in dimension 1 "
                r"need \(rows, 6\)")):
            independence_reports(np.zeros((2, 9)), 2, 1, SIGMOID, grid)

    def test_seed_count_must_match_the_rows(self):
        grid = make_grid(1, 32)
        with pytest.raises(ShapeError, match="2 points but 3 seeds"):
            independence_reports(np.zeros((2, 6)), 2, 1, SIGMOID, grid,
                                 seeds=[0, 1, 2])

    def test_no_points_give_no_reports(self):
        grid = make_grid(1, 32)
        assert independence_reports([], 2, 1, SIGMOID, grid) == []
        assert independence_reports(np.empty((0, 6)), 2, 1, SIGMOID,
                                    grid) == []

    def test_every_row_is_written_into_one_buffer(self, monkeypatch):
        grid = make_grid(2, 16)
        rng = np.random.default_rng(8)
        flat = np.array([sample_params(rng, 3, 2).flatten() for _ in range(5)])
        outs = []
        build = network._jacobian_matrices

        def spy(points, units, dim, activation, g, out):
            # every buffer stays referenced, so one allocated per row could
            # not reuse a freed address
            outs.append(out)
            return build(points, units, dim, activation, g, out)

        monkeypatch.setattr(network, "_jacobian_matrices", spy)
        reports = independence_reports(flat, 3, 2, SIGMOID, grid)
        assert len(reports) == len(outs) == 5
        assert {out.shape for out in outs} == {(1, 12, grid.node_count)}
        assert len({out.__array_interface__["data"][0] for out in outs}) == 1


def draws(units, dim, count, seed, control=lambda p: p):
    rng = np.random.default_rng(seed)
    return [control(sample_params(rng, units, dim)) for _ in range(count)]


#: name -> (activation, dim, points_per_axis, draws): either side of
#: ``dgesdd``'s crossover from bidiagonalizing to QR-factoring first, 16
#: nodes for 9 columns.
BITWISE_CASES = {
    "benchmark-64x64": (SIGMOID, 2, 64, lambda: draws(3, 2, 4, 1)),
    "short-15": (SIGMOID, 1, 15, lambda: draws(3, 1, 6, 2)),
    "crossover-16": (SIGMOID, 1, 16, lambda: draws(3, 1, 6, 3)),
    "square": (SIGMOID, 1, 9, lambda: draws(3, 1, 6, 4)),
    "duplicate": (SIGMOID, 2, 16, lambda: draws(2, 2, 4, 5, merge_duplicate)),
    "mirrored": (SIGMOID, 2, 16, lambda: draws(2, 2, 4, 6, merge_mirrored)),
    "relu-zero": (Activation.relu(), 1, 64, lambda: [
        Params([1.5, -1.0], [[2.0], [-1.5]], [-3.0, -0.1])]),
    "tanh": (TANH, 2, 32, lambda: draws(3, 2, 4, 7)),
    "n120-on-300": (SIGMOID, 1, 300, lambda: draws(40, 1, 3, 8)),
}


class TestIndependenceBitwise:
    @pytest.mark.parametrize("case", sorted(BITWISE_CASES))
    def test_every_field_is_the_per_point_reports(self, case):
        activation, dim, points, make = BITWISE_CASES[case]
        grid = make_grid(dim, points)
        params = make()
        seeds = list(range(20, 20 + len(params)))
        reports = independence_reports(
            np.array([p.flatten() for p in params]), params[0].units, dim,
            activation, grid, seeds=seeds)
        assert [r.to_json_dict() for r in reports] == [
            per_point_report(p, activation, grid, seed=seed)
            for p, seed in zip(params, seeds)]
        if case == "relu-zero":
            assert reports[0].rank == 0
            assert reports[0].min_singular_value == 0.0

    @pytest.mark.parametrize("dim, points, calls", [(2, 64, 5), (1, 16, 5),
                                                    (1, 15, 0), (1, 9, 0)])
    def test_only_a_grid_past_the_crossover_factors_first(self, monkeypatch,
                                                          dim, points, calls):
        factored = []

        def spy(image, work=None):
            factored.append(work)
            return householder_r(image, work)

        monkeypatch.setattr(diagnostics, "householder_r", spy)
        flat = np.array([p.flatten() for p in draws(3, dim, 5, 9)])
        reports = independence_reports(flat, 3, dim, SIGMOID,
                                       make_grid(dim, points))
        assert len(reports) == 5
        assert len(factored) == calls
        # one workspace serves every row of the call
        assert len({id(work) for work in factored}) == min(calls, 1)

    def test_the_crossover_is_dgesdds(self):
        crossover = [min(m for m in range(n, 4 * n)
                         if diagnostics._factors_first(m, n))
                     for n in (1, 6, 9, 12, 120)]
        assert crossover == [1, 11, 16, 22, 220]


class TestIndependenceNonFinite:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("points", [15, 16])
    def test_a_non_finite_row_is_refused_naming_it(self, bad, points,
                                                    monkeypatch):
        flat = np.array([p.flatten() for p in draws(3, 1, 3, 10)])
        flat[1, 4] = bad
        built = []
        monkeypatch.setattr(network, "_jacobian_matrices",
                            lambda *args: built.append(args))
        with pytest.raises(NumericError,
                           match=r"point row 1 \(seed 31\) is not finite"):
            independence_reports(flat, 3, 1, SIGMOID, make_grid(1, points),
                                 seeds=[30, 31, 32])
        assert built == []  # refused before any row is built

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_the_one_point_report_refuses_it_too(self, bad):
        p = Params([1.0, bad], [[2.0], [-1.5]], [0.3, -0.1])
        with pytest.raises(NumericError,
                           match=r"point row 0 \(seed 7\) is not finite"):
            independence_report(p, SIGMOID, make_grid(1, 64), seed=7)

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
        report, = cone_check(p1, [p1.flatten()], SIGMOID, grid, forward)
        assert report.dev < 1e-9
        assert report.decomposition_residual < 1e-10
        assert math.isnan(report.ratio)

    def test_ratio_stabilizes_under_shrinking_perturbations(self):
        grid, p1, direction = square_setup(seed=0)
        forward = make_integration(grid)
        ratios = []
        for t in (1e-2, 1e-3, 1e-4):
            report, = cone_check(p1, [p1.flatten() + t * direction], SIGMOID,
                                 grid, forward)
            assert report.decomposition_residual < 1e-8
            ratios.append(report.ratio)
        assert max(ratios) <= 2.0 * min(ratios)

    def test_offspan_residual_is_reported(self):
        # on a fine grid the perturbed columns leave the base span, and the
        # projection defect shows up in the decomposition residual
        grid = make_grid(1, 64)
        rng = np.random.default_rng(8)
        p1 = sample_params(rng, 2, 1, box=(-5, 5), alpha_band=1.0)
        p2 = p1.flatten() + 0.5 * unit_direction(rng, p1.n_star)
        report, = cone_check(p1, [p2], SIGMOID, grid, make_identity(grid))
        assert report.decomposition_residual > 1e-8
        assert np.isfinite(report.dev)

    def test_no_perturbations_give_no_reports(self):
        grid, p1, _ = square_setup(seed=3)
        forward = make_integration(grid)
        assert cone_check(p1, [], SIGMOID, grid, forward) == []
        assert cone_check(p1, np.empty((0, 6)), SIGMOID, grid, forward) == []

    def test_rank_deficient_base_point_rejected(self):
        grid = make_grid(1, 64)
        p1 = Params([0.0, 1.0], [[1.0], [2.0]], [0.1, 0.2])
        with pytest.raises(RankDeficiencyError):
            cone_check(p1, [p1.flatten()], SIGMOID, grid, make_identity(grid))

    def test_report_serializes(self):
        grid, p1, direction = square_setup(seed=5)
        p2 = p1.flatten() + 1e-3 * direction
        report, = cone_check(p1, [p2], SIGMOID, grid, make_integration(grid))
        d = report.to_json_dict()
        assert len(d["r_matrix"]) == p1.n_star
        assert d["ratio"] == report.ratio
        assert d["p1"] == p1.to_json_dict()
        assert d["p2"] == Params.from_flat(p2, 2, 1).to_json_dict()


def cone_transitions(p1, p2s, activation, grid):
    """The transition matrices of ``cone_check``, each the weighted
    least-squares solution of ``J(p1) T = J(p2)`` by ``np.linalg.lstsq``:
    its oracle."""
    root = np.sqrt(grid.weights)[:, None]
    jac1 = root * jacobian(p1, activation, grid)
    return [np.linalg.lstsq(jac1, root * jacobian(
        Params.from_flat(p2, p1.units, p1.input_dim), activation, grid),
        rcond=None)[0] for p2 in p2s]


def node_major_cone(p1, p2s, activation, grid, forward, rank_tol=1e-10):
    """``cone_check`` on node-major Jacobians, the C-ordered
    :func:`jacobian` at each point and its images by
    :func:`node_major_image`, with whole-array sums over F-ordered images,
    as the cone ran before it took rows, each transition solved from the
    R-only QR of the node-major ``√W·[jac1 | jac2]``: its oracle, as
    ``(r_matrix, dev, decomposition_residual, ratio)`` per point."""
    jac1 = jacobian(p1, activation, grid)
    fj1 = node_major_image(forward, jac1)
    w_out = forward.out_grid.weights[:, None]
    root = np.sqrt(grid.weights)[:, None]
    out = []
    for p2 in p2s:
        jac2 = jacobian(Params.from_flat(p2, p1.units, p1.input_dim),
                        activation, grid)
        r = np.linalg.qr(root * np.hstack([jac1, jac2]), mode="r")
        transition = solve_from_r(r, p1.n_star, rank_tol, "derivative at p1")
        dev = float(np.linalg.norm(transition - np.eye(p1.n_star), 2))
        fj2 = node_major_image(forward, jac2)
        defect = fj2 - fj1 @ transition
        num = math.sqrt(float(np.sum(w_out * defect * defect)))
        den = math.sqrt(float(np.sum(w_out * fj2 * fj2)))
        dist = float(np.linalg.norm(p2 - p1.flatten()))
        out.append((transition, dev, num / den if den > 0 else 0.0,
                    dev / dist if dist > 0 else math.nan))
    return out


#: (activation, grid, operator) of the node-major cone oracle: the four
#: operators of the catalog, with sigmoid, tanh and relu.  A relu unit is
#: positively homogeneous, so its alpha column is a combination of its w
#: and theta columns: the relu cases check that both cones refuse alike.
CONE_CASES = [
    (a, g, operator)
    for g, operator in ((make_grid(1, 64), "identity"),
                        (make_grid(1, 100), "volterra"),
                        (make_grid(1, 64), "gauss:0.05"),
                        (make_grid(2, 16), "gauss:0.1"))
    for a in (SIGMOID, TANH, Activation.relu())
]


#: (activation, grid, operator) of the tail oracles: volterra, a Gaussian
#: blur and the identity, sigmoid and tanh, 1-D and 2-D.
TAIL_CASES = [
    (SIGMOID, make_grid(1, 64), "volterra"),
    (TANH, make_grid(1, 64), "gauss:0.05"),
    (Activation.sigmoid(0.25), make_grid(1, 32), "identity"),
    (SIGMOID, make_grid(2, 8), "gauss:0.1"),
    (TANH, make_grid(2, 8), "identity"),
]


def tail_points(grid, seed, count):
    """``count`` perturbations of a full-rank base point in 2 units."""
    rng = np.random.default_rng(seed)
    base = Params([6.0, -4.0], np.array([[3.0, 1.0], [-2.0, 1.5]])[:, :grid.dim],
                  [-0.9, 2.1])
    return base, [
        Params.from_flat(base.flatten() + 0.05 * unit_direction(rng, base.n_star),
                         2, grid.dim)
        for _ in range(count)]


class TestConeTail:
    @pytest.mark.parametrize("case", range(len(TAIL_CASES)))
    def test_transitions_agree_with_lstsq(self, case):
        activation, grid, operator = TAIL_CASES[case]
        p1, p2s = tail_points(grid, case, 4)
        p2s = np.array([p.flatten() for p in p2s + [p1]])
        reports = cone_check(p1, p2s, activation, grid,
                             parse_operator(operator, grid))
        expected = cone_transitions(p1, p2s, activation, grid)
        for report, transition in zip(reports, expected):
            assert np.linalg.norm(report.r_matrix - transition) <= (
                1e-10 * np.linalg.norm(transition))

    @pytest.mark.parametrize("case", range(len(CONE_CASES)))
    def test_reports_match_the_node_major_cone(self, monkeypatch, case):
        # the cone factors the unmapped rows, so the transitions, their
        # deviations and ratios keep every bit.  The decomposition residual
        # sums C-ordered images in another order (at most 3.8e-16 relative
        # here), and the 1-D Gaussian's images round differently too: a
        # residual near rounding level moved by at most 1.8e-15 absolute
        activation, grid, operator = CONE_CASES[case]
        forward = parse_operator(operator, grid)
        compared = 0
        for seed in range(4):
            rng = np.random.default_rng(seed)
            p1 = sample_params(rng, 2 + seed % 2, grid.dim, box=(-5, 5),
                               alpha_band=1.0)
            p2s = np.array([p1.flatten() + t * unit_direction(rng, p1.n_star)
                            for t in (0.5, 0.1, 1e-2, 1e-3, 0.0)])
            # chunks of two points: 2, 2 and 1
            monkeypatch.setattr(network, "CHUNK_BYTES",
                                2 * 40 * grid.node_count * p1.n_star)
            try:
                expected = node_major_cone(p1, p2s, activation, grid, forward)
            except RankDeficiencyError as err:
                with pytest.raises(RankDeficiencyError, match=f"^{err}$"):
                    cone_check(p1, p2s, activation, grid, forward)
                continue
            reports = cone_check(p1, p2s, activation, grid, forward)
            assert len(reports) == len(expected)
            for report, (transition, dev, residual, ratio) in zip(reports,
                                                                  expected):
                assert report.r_matrix.tobytes() == transition.tobytes()
                assert report.dev == dev
                assert report.decomposition_residual == pytest.approx(
                    residual, rel=1e-15, abs=1e-14)
                assert np.array(report.ratio).tobytes() == (
                    np.array(ratio).tobytes())
            compared += 1
        assert (compared > 0) == (activation.kind != "relu")

    @pytest.mark.parametrize("per_chunk, gates", [(1, 5), (2, 3), (5, 1)])
    def test_the_gate_runs_once_a_chunk(self, monkeypatch, per_chunk, gates):
        grid = make_grid(1, 64)
        p1, p2s = tail_points(grid, 0, 5)
        monkeypatch.setattr(network, "CHUNK_BYTES",
                            per_chunk * 40 * grid.node_count * p1.n_star)
        seen = []
        gate = pseudoinverse.full_rank

        def spy(r, *args):
            seen.append(r.shape)
            return gate(r, *args)

        monkeypatch.setattr(pseudoinverse, "full_rank", spy)
        reports = cone_check(p1, [p.flatten() for p in p2s], SIGMOID, grid,
                             make_integration(grid))
        assert len(reports) == 5 and len(seen) == gates
        # each gate takes the chunk's stack of leading n* x n* blocks
        assert sum(shape[0] for shape in seen) == 5
        assert {shape[1:] for shape in seen} == {(p1.n_star, p1.n_star)}

    def test_mismatched_point_is_a_shape_error_before_any_jacobian(
        self, monkeypatch
    ):
        grid = make_grid(1, 64)
        p1 = MYSOVSKII_BASE
        wider = Params([1.0, 2.0, 3.0], [[1.0], [2.0], [3.0]], [0.0, 0.1, 0.2])
        built = []
        monkeypatch.setattr(diagnostics, "jacobian_rows",
                            lambda *args: built.append(args))
        for p2s, shape in (([wider.flatten()] * 2, "(2, 9)"),
                           (p1.flatten(), "(6,)")):
            with pytest.raises(ShapeError) as err:
                cone_check(p1, p2s, SIGMOID, grid, make_identity(grid))
            assert str(err.value) == (f"p2s have shape {shape}, 2 units in "
                                      "dimension 1 need (rows, 6)")
        assert built == []


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
        report, = mysovskii_check([(p.flatten(), q.flatten(), (0.0, 0.5))], 2, 1,
                                  SIGMOID, grid, forward)
        assert report.lhs_values[0] == 0.0
        assert report.bound_ratios[0] == 0.0
        assert report.lhs_values[1] > 0.0
        same, = mysovskii_check([(p.flatten(), p.flatten(), (0.25, 1.0))], 2, 1,
                                SIGMOID, grid, forward)
        assert same.lhs_values == (0.0, 0.0)
        assert same.max_ratio == 0.0

    def test_a_squared_distance_that_underflows_is_refused(self):
        # |p - q| is 1e-170 in theta of unit 0: its square underflowed to
        # 0.0 and every ratio read 0.0, as for p == q
        grid = make_grid(1, 64)
        forward = make_integration(grid)
        p = Params([1.0, -1.0], [[1.0], [2.0]], [1e-170, 0.5]).flatten()
        q = Params([1.0, -1.0], [[1.0], [2.0]], [0.0, 0.5]).flatten()
        with pytest.raises(FloatingPointError, match="underflows to 0"):
            mysovskii_check([(p, q, (0.5,))], 2, 1, SIGMOID, grid, forward)
        report, = mysovskii_check([(p, p, (0.5,))], 2, 1, SIGMOID, grid,
                                  forward)
        assert report.max_ratio == 0.0

    def test_lhs_is_sublinear_in_s(self):
        grid = make_grid(1, 64)
        forward = make_integration(grid)
        rng = np.random.default_rng(7)
        p = Params.from_flat(
            MYSOVSKII_BASE.flatten() + 0.05 * unit_direction(rng, 6), 2, 1
        )
        q = Params.from_flat(p.flatten() + 0.2 * unit_direction(rng, 6), 2, 1)
        s_values = (0.1, 0.25, 0.5, 0.75, 1.0)
        report, = mysovskii_check([(p.flatten(), q.flatten(), s_values)], 2, 1,
                                  SIGMOID, grid, forward)
        dist_sq = float(np.linalg.norm(p.flatten() - q.flatten())) ** 2
        for s, lhs in zip(report.s_values, report.lhs_values):
            assert lhs <= s * report.max_ratio * dist_sq * (1 + 1e-12)

    def test_invalid_s_rejected(self):
        grid = make_grid(1, 64)
        with pytest.raises(ValueError):
            base = MYSOVSKII_BASE.flatten()
            mysovskii_check([(base, base, (1.5,))], 2, 1, SIGMOID, grid,
                            make_identity(grid))


def mysovskii_loop(probes, activation, grid, forward):
    """``mysovskii_check``'s tail one probe and one segment point at a
    time, each point's own derivatives, image and ``pinv_apply``: its
    oracle, as ``(lhs_values, bound_ratios)`` per probe."""
    out = []
    for p, q, s_values in probes:
        rows = jacobian_rows(p.flatten()[None], p.units, p.input_dim,
                             activation, grid)[0]
        factors = weighted_qr(forward.apply_rows(rows).T, forward.out_grid)
        full_rank(factors.r_matrix, factors.rank_tol, "p")
        d = p.flatten() - q.flatten()
        dist_sq = float(np.linalg.norm(d)) ** 2
        base = directional_derivative(q, activation, grid, d)
        lhs_values, ratios = [], []
        for s in s_values:
            if dist_sq == 0.0 or s == 0.0:
                lhs_values.append(0.0)
                ratios.append(0.0)
                continue
            mid = Params.from_flat(q.flatten() + s * d, p.units, p.input_dim)
            diff = directional_derivative(mid, activation, grid, d) - base
            lhs = float(np.linalg.norm(pinv_apply(factors, forward.apply(diff))))
            lhs_values.append(lhs)
            ratios.append(lhs / (s * dist_sq))
        out.append((tuple(lhs_values), tuple(ratios)))
    return out


class TestMysovskiiTail:
    S_VALUES = [(0.5,), (0.0, 0.25, 1.0), (), (0.05, 0.3, 0.0, 0.7, 1.0), (1,)]

    @pytest.mark.parametrize("case", range(len(TAIL_CASES)))
    def test_reports_agree_with_the_per_probe_loop(self, case):
        activation, grid, operator = TAIL_CASES[case]
        forward = parse_operator(operator, grid)
        _, ps = tail_points(grid, 40 + case, 5)
        _, qs = tail_points(grid, 50 + case, 5)
        probes = [(p, q, s) for p, q, s in zip(ps, qs, self.S_VALUES)]
        probes.append((ps[0], ps[0], (0.0, 0.5, 1.0)))  # p == q
        probes.append((ps[1], qs[1], (0.0,)))           # only s = 0
        flat = [(p.flatten(), q.flatten(), s) for p, q, s in probes]
        reports = mysovskii_check(flat, 2, grid.dim, activation, grid, forward)
        expected = mysovskii_loop(probes, activation, grid, forward)
        assert len(reports) == len(expected)
        for report, (lhs_values, ratios), (_, _, s_values) in zip(
                reports, expected, probes):
            assert report.s_values == tuple(s_values)
            np.testing.assert_allclose(report.lhs_values, lhs_values,
                                       rtol=1e-10, atol=0.0)
            np.testing.assert_allclose(report.bound_ratios, ratios,
                                       rtol=1e-10, atol=0.0)
        assert reports[-2].lhs_values == (0.0, 0.0, 0.0)
        assert any(value > 0 for value in reports[3].lhs_values)

    def test_mismatched_q_is_a_shape_error_before_any_jacobian(
        self, monkeypatch
    ):
        grid = make_grid(1, 64)
        p = MYSOVSKII_BASE.flatten()
        wider = Params([1.0, 2.0, 3.0], [[1.0], [2.0], [3.0]], [0.0, 0.1, 0.2])
        planar = Params([1.0, 2.0], [[1.0, 0.0], [2.0, 1.0]], [0.0, 0.1])
        built = []
        monkeypatch.setattr(diagnostics, "jacobian_rows",
                            lambda *args: built.append(args))
        for probe, shape in (((p, wider.flatten()), "q of probe 1 has shape (9,)"),
                             ((p, planar.flatten()), "q of probe 1 has shape (8,)"),
                             ((p[None], p), "p of probe 1 has shape (1, 6)")):
            with pytest.raises(ShapeError) as err:
                mysovskii_check([(p, p, (0.5,)), (*probe, (0.5,))], 2, 1, SIGMOID,
                                grid, make_identity(grid))
            assert str(err.value) == (
                f"{shape}, 2 units in dimension 1 need (6,)")
        assert built == []


def derivative_loop(p, activation, grid, d1, d2, h1, h2):
    """``derivative_check`` one column and one ``eval_psi`` at a time, as
    the ``check-derivatives`` runner computed it before the stacked pass:
    its oracle."""
    w = grid.weights
    flat = p.flatten()

    def psi_at(vec):
        return eval_psi(Params.from_flat(vec, p.units, p.input_dim), activation,
                        grid).values

    matrix = jacobian(p, activation, grid)
    first = 0.0
    for col in range(p.n_star):
        e = np.zeros(p.n_star)
        e[col] = h1
        fd = (psi_at(flat + e) - psi_at(flat - e)) / (2 * h1)
        num = np.sqrt(np.sum(w * (fd - matrix[:, col]) ** 2))
        den = np.sqrt(np.sum(w * matrix[:, col] ** 2))
        if den > 0:
            first = max(first, num / den)
    exact = second_derivative_bilinear(p, activation, grid, d1, d2).values
    fd = (psi_at(flat + h2 * (d1 + d2)) - psi_at(flat + h2 * (d1 - d2))
          - psi_at(flat - h2 * (d1 - d2)) + psi_at(flat - h2 * (d1 + d2))
          ) / (4 * h2 * h2)
    num = np.sqrt(np.sum(w * (fd - exact) ** 2))
    den = np.sqrt(np.sum(w * exact**2))
    return first, num / den if den > 0 else 0.0


class TestDerivativeCheck:
    @pytest.mark.parametrize("per_pass", [1, None])
    @pytest.mark.parametrize("activation, dim, points, units", [
        (SIGMOID, 2, 32, 3), (Activation.sigmoid(0.25), 1, 64, 2),
        (TANH, 2, 16, 4), (Activation.sigmoid(4.0), 1, 8, 1)])
    def test_equals_the_column_loop_bitwise(
        self, monkeypatch, activation, dim, points, units, per_pass
    ):
        grid = make_grid(dim, points)
        if per_pass is not None:  # one stencil point per eval_psis pass
            monkeypatch.setattr(network, "CHUNK_BYTES", 1)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            p = sample_params(rng, units, dim, box=(-3, 3), alpha_band=0.5)
            d1 = unit_direction(rng, p.n_star)
            d2 = unit_direction(rng, p.n_star)
            for h1, h2 in ((1e-5, 1e-4), (1e-6, 1e-3)):
                got = derivative_check(p, activation, grid, d1, d2, h1, h2)
                want = derivative_loop(p, activation, grid, d1, d2, h1, h2)
                assert got == want
                assert 0 < got[0] < 1e-3 and 0 < got[1] < 1e-2

    def test_zero_norms_give_zero(self):
        grid = make_grid(1, 16)
        p = Params([0.0], [[1.0]], [0.5])  # alpha 0: only the alpha column lives
        zero = np.zeros(3)
        first, second = derivative_check(p, SIGMOID, grid, zero, zero, 1e-5, 1e-4)
        assert first > 0 and second == 0.0


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
        assert np.array_equal(det, 2.0 * (y * y - x * x))
        # sign pattern: positive where |y| > |x|, negative where |y| < |x|
        assert np.all(det[np.abs(y) > np.abs(x)] > 0)
        assert np.all(det[np.abs(y) < np.abs(x)] < 0)
        assert np.all(f2 >= 0)
        # lexicographic sweep: x varies slowest
        assert np.all(np.diff(x) >= 0)

    def test_resolution_validation(self):
        with pytest.raises(ValueError):
            manifold_sweep(resolution=1)

    def test_an_extent_whose_lattice_overflows_is_refused(self):
        # the largest extent whose 2 extent**2 is finite sweeps without a
        # warning; the next float up is refused
        extent = math.sqrt(sys.float_info.max / 2)
        while math.isfinite(2.0 * extent * extent):
            extent = math.nextafter(extent, math.inf)
        largest = math.nextafter(extent, 0.0)
        assert np.isfinite(manifold_sweep(largest, 3)).all()
        with pytest.raises(ValueError, match="^extent .* is too large"):
            manifold_sweep(extent, 3)

    def test_oversized_lattice_is_refused_before_allocating(self):
        # about ten resolution**2 float64 arrays at the peak; 3663 must fit
        assert 10 * 8 * 3663**2 <= DENSE_BYTES_LIMIT
        for resolution in (3664, 20000, 1000000):
            with pytest.raises(ConfigError, match="resolution"):
                manifold_sweep(resolution=resolution)
