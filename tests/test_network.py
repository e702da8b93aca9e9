import json

import numpy as np
import pytest

from gncoder import grids, network
from gncoder.activations import Activation, parse_activation
from gncoder.cli import SolveOptions
from gncoder.exceptions import ConfigError, ShapeError, SmoothnessError
from gncoder.grids import DENSE_BYTES_LIMIT, constant, make_grid, norm
from gncoder.network import (
    Params,
    directional_derivative,
    directional_derivatives,
    eval_psi,
    jacobian,
    lipschitz_constants,
    second_derivative_bilinear,
)
from gncoder.sampling import sample_in_ball, sample_params, unit_direction

SIGMOID = Activation.sigmoid(1.0)
TANH = Activation.tanh()


def perturbed(p, flat):
    return Params.from_flat(flat, p.units, p.input_dim)


def fd_jacobian_column(p, a, g, index, h=1e-5):
    e = np.zeros(p.n_star)
    e[index] = h
    up = eval_psi(perturbed(p, p.flatten() + e), a, g)
    down = eval_psi(perturbed(p, p.flatten() - e), a, g)
    return (up.values - down.values) / (2.0 * h)


def fd_bilinear(p, a, g, h1, h2, step=1e-4):
    def psi(flat):
        return eval_psi(perturbed(p, flat), a, g).values

    f = p.flatten()
    return (
        psi(f + step * (h1 + h2))
        - psi(f + step * (h1 - h2))
        - psi(f - step * (h1 - h2))
        + psi(f - step * (h1 + h2))
    ) / (4.0 * step * step)


def flat_rows(points):
    """The ``(rows, n*)`` stack of flattened ``Params``."""
    return np.array([p.flatten() for p in points])


def weighted_rel_err(g, approx, exact):
    num = np.sqrt(np.sum(g.weights * (approx - exact) ** 2))
    den = np.sqrt(np.sum(g.weights * exact**2))
    return num / den


class TestParams:
    def test_flatten_layout(self):
        p = Params([1.0, 2.0], [[3.0, 4.0], [5.0, 6.0]], [7.0, 8.0])
        assert p.n_star == 8
        assert p.flatten().tolist() == [1, 2, 3, 4, 5, 6, 7, 8]
        assert p.w_index(1, 0) == 4
        assert p.theta_index(0) == 6

    def test_flat_round_trip_and_index_description(self):
        rng = np.random.default_rng(0)
        p = sample_params(rng, 3, 2)
        q = Params.from_flat(p.flatten(), 3, 2)
        assert np.array_equal(q.alpha, p.alpha)
        assert np.array_equal(q.w, p.w)
        assert np.array_equal(q.theta, p.theta)
        flat = p.flatten()
        for i in range(p.n_star):
            block, s, t = p.describe_index(i)
            if block == "alpha":
                assert flat[i] == p.alpha[s]
            elif block == "w":
                assert flat[i] == p.w[s, t]
            else:
                assert flat[i] == p.theta[s]

    def test_caller_arrays_stay_writeable_and_detached(self):
        alpha, w, theta = np.array([1.0, 2.0]), np.array([[3.0], [4.0]]), np.zeros(2)
        p = Params(alpha, w, theta)
        for arr in (alpha, w, theta):
            assert arr.flags.writeable
            arr += 10.0
        assert p.flatten().tolist() == [1.0, 2.0, 3.0, 4.0, 0.0, 0.0]

    def test_shape_validation(self):
        with pytest.raises(ShapeError):
            Params([1.0], [[1.0], [2.0]], [1.0])
        with pytest.raises(ShapeError):
            Params.from_flat(np.zeros(5), 2, 1)

    def test_json_round_trip(self):
        p = Params([0.5, -1.5], [[2.0], [-3.0]], [0.1, 0.2])
        q = Params.from_json_dict(json.loads(json.dumps(p.to_json_dict())))
        assert np.array_equal(q.flatten(), p.flatten())
        d = p.to_json_dict()
        assert d["N"] == 2 and d["n"] == 1


class TestEvalPsi:
    def test_zero_output_weights_give_zero_function(self):
        g = make_grid(1, 16)
        p = Params([0.0, 0.0], [[1.0], [2.0]], [0.5, -0.5])
        assert np.all(eval_psi(p, SIGMOID, g).values == 0.0)

    def test_single_unit_at_origin_is_half(self):
        g = make_grid(2, 4)
        p = Params([1.0], [[0.0, 0.0]], [0.0])
        assert np.allclose(eval_psi(p, SIGMOID, g).values, 0.5)

    def test_identical_units_with_opposite_weights_cancel(self):
        g = make_grid(1, 32)
        p = Params([1.0, -1.0], [[1.0], [1.0]], [0.0, 0.0])
        assert np.all(eval_psi(p, TANH, g).values == 0.0)

    def test_linearity_in_output_weights(self):
        g = make_grid(1, 32)
        rng = np.random.default_rng(5)
        w = rng.uniform(-2, 2, (2, 1))
        theta = rng.uniform(-1, 1, 2)
        a1 = rng.uniform(-2, 2, 2)
        a2 = rng.uniform(-2, 2, 2)
        combined = eval_psi(Params(a1 + a2, w, theta), SIGMOID, g)
        split = (
            eval_psi(Params(a1, w, theta), SIGMOID, g)
            + eval_psi(Params(a2, w, theta), SIGMOID, g)
        )
        assert np.allclose(combined.values, split.values, rtol=0, atol=1e-15)

    def test_dimension_mismatch_rejected(self):
        g = make_grid(2, 4)
        p = Params([1.0], [[1.0]], [0.0])
        with pytest.raises(ShapeError):
            eval_psi(p, SIGMOID, g)


class TestJacobian:
    def test_theta_column_formula(self):
        g = make_grid(1, 32)
        p = Params([2.0, -1.0], [[1.5], [-0.5]], [0.25, 0.75])
        jac = jacobian(p, SIGMOID, g)
        z0 = g.nodes[:, 0] * 1.5 + 0.25
        expected = 2.0 * SIGMOID.d1(z0)
        assert np.allclose(jac[:, p.theta_index(0)], expected,
                           rtol=1e-14, atol=0)

    def test_zero_alpha_zeroes_inner_columns(self):
        g = make_grid(2, 8)
        p = Params([0.0, 1.0], [[1.0, -1.0], [0.5, 0.5]], [0.0, 0.2])
        jac = jacobian(p, SIGMOID, g)
        for t in range(2):
            assert np.all(jac[:, p.w_index(0, t)] == 0.0)
        assert np.all(jac[:, p.theta_index(0)] == 0.0)
        assert np.any(jac[:, p.alpha_index(0)] != 0.0)

    @pytest.mark.parametrize("act", [SIGMOID, TANH], ids=lambda a: a.descriptor)
    def test_columns_match_finite_differences(self, act):
        g = make_grid(2, 16)
        rng = np.random.default_rng(17)
        for _ in range(5):
            p = sample_params(rng, 2, 2, box=(-3, 3), alpha_band=0.5)
            jac = jacobian(p, act, g)
            for i in range(p.n_star):
                fd = fd_jacobian_column(p, act, g, i)
                assert weighted_rel_err(g, fd, jac[:, i]) < 1e-6

    def test_column_order_matches_flattening(self):
        g = make_grid(1, 16)
        p = Params([1.5, -2.0], [[1.0], [2.0]], [0.3, -0.3])
        jac = jacobian(p, SIGMOID, g)
        for i in range(p.n_star):
            fd = fd_jacobian_column(p, SIGMOID, g, i)
            assert weighted_rel_err(g, fd, jac[:, i]) < 1e-6

    def test_mirrored_theta_column_is_identical(self):
        g = make_grid(2, 8)
        rng = np.random.default_rng(29)
        p = sample_params(rng, 2, 2, box=(-3, 3))
        mirrored = Params(p.alpha, -p.w, -p.theta)
        col = jacobian(p, SIGMOID, g)[:, p.theta_index(1)]
        col_m = jacobian(mirrored, SIGMOID, g)[:, p.theta_index(1)]
        assert np.allclose(col, col_m, rtol=1e-12, atol=1e-300)

    def test_degeneracy_surface_rank_drop(self):
        # a vanishing output weight kills that unit's n+1 inner columns
        g = make_grid(2, 16)
        rng = np.random.default_rng(31)
        p = sample_params(rng, 3, 2, box=(-3, 3))
        p = Params(np.concatenate([[0.0], p.alpha[1:]]), p.w, p.theta)
        matrix = jacobian(p, SIGMOID, g) * np.sqrt(g.weights)[:, None]
        sv = np.linalg.svd(matrix, compute_uv=False)
        rank = int(np.sum(sv > 1e-10 * sv[0]))
        assert rank <= p.n_star - (p.input_dim + 1)

    def test_step_activation_rejected(self):
        g = make_grid(1, 8)
        p = Params([1.0], [[1.0]], [0.0])
        with pytest.raises(SmoothnessError):
            jacobian(p, Activation.step(), g)

    def test_directional_derivative_matches_matrix(self):
        g = make_grid(1, 32)
        rng = np.random.default_rng(37)
        p = sample_params(rng, 2, 1, box=(-3, 3))
        d = unit_direction(rng, p.n_star)
        jac = jacobian(p, SIGMOID, g)
        direct = directional_derivative(p, SIGMOID, g, d)
        assert np.allclose(direct.values, jac @ d, rtol=1e-13, atol=1e-15)

    def test_each_call_returns_a_fresh_owned_array(self):
        g = make_grid(2, 8)
        p = Params([1.0, -0.5], [[2.0, 0.5], [-1.0, 1.5]], [0.5, -0.25])
        first = jacobian(p, SIGMOID, g)
        second = jacobian(p, SIGMOID, g)
        for matrix in (first, second):
            assert matrix.shape == (g.node_count, p.n_star)
            assert matrix.dtype == np.float64
            assert matrix.flags.writeable and matrix.flags.c_contiguous
        assert not np.shares_memory(first, second)
        assert np.array_equal(first, second)

    def test_mutating_the_array_changes_no_later_evaluation(self):
        g = make_grid(1, 8)
        p = Params([1.0], [[2.0]], [0.5])
        psi = eval_psi(p, SIGMOID, g).values
        expected = jacobian(p, SIGMOID, g)
        matrix = jacobian(p, SIGMOID, g)
        matrix += 1.0
        assert np.array_equal(jacobian(p, SIGMOID, g), expected)
        assert np.array_equal(eval_psi(p, SIGMOID, g).values, psi)


class TestSecondDerivative:
    def test_pure_alpha_direction_vanishes(self):
        g = make_grid(1, 16)
        p = Params([1.0, 2.0], [[1.0], [2.0]], [0.0, 0.1])
        h = np.zeros(p.n_star)
        h[:2] = [1.0, -2.0]
        out = second_derivative_bilinear(p, SIGMOID, g, h, h)
        assert np.all(out.values == 0.0)

    def test_cross_unit_directions_vanish(self):
        g = make_grid(1, 16)
        p = Params([1.0, 2.0], [[1.0], [2.0]], [0.0, 0.1])
        h1 = np.zeros(p.n_star)
        h2 = np.zeros(p.n_star)
        # unit 0 inner coordinates against unit 1 inner coordinates
        h1[p.w_index(0, 0)] = 1.0
        h1[p.theta_index(0)] = -0.5
        h2[p.w_index(1, 0)] = 2.0
        h2[p.theta_index(1)] = 1.0
        out = second_derivative_bilinear(p, SIGMOID, g, h1, h2)
        assert np.all(out.values == 0.0)

    @pytest.mark.parametrize("act", [SIGMOID, TANH], ids=lambda a: a.descriptor)
    def test_matches_nested_differences(self, act):
        g = make_grid(2, 8)
        rng = np.random.default_rng(41)
        for _ in range(5):
            p = sample_params(rng, 2, 2, box=(-3, 3), alpha_band=0.5)
            h1 = unit_direction(rng, p.n_star)
            h2 = unit_direction(rng, p.n_star)
            exact = second_derivative_bilinear(p, act, g, h1, h2).values
            approx = fd_bilinear(p, act, g, h1, h2)
            assert weighted_rel_err(g, approx, exact) < 1e-4

    def test_relu_rejected(self):
        g = make_grid(1, 8)
        p = Params([1.0], [[1.0]], [0.0])
        h = np.ones(3)
        with pytest.raises(SmoothnessError):
            second_derivative_bilinear(p, Activation.relu(), g, h, h)


def hessian_operator_norm_bound(p, act, g):
    """Upper bound on the bilinear second-derivative norm at one point.

    Per node, the Hessian is block diagonal across units; the bound stacks
    the per-node largest block singular value through the quadrature.
    """
    n = p.input_dim
    z = g.nodes @ p.w.T + p.theta
    d1 = act.d1(z)
    d2 = act.d2(z)
    worst = np.zeros(g.node_count)
    for k in range(g.node_count):
        x = g.nodes[k]
        for s in range(p.units):
            H = np.zeros((n + 2, n + 2))
            H[0, 1 : 1 + n] = d1[k, s] * x
            H[0, n + 1] = d1[k, s]
            H[1 : 1 + n, 0] = d1[k, s] * x
            H[n + 1, 0] = d1[k, s]
            H[1 : 1 + n, 1 : 1 + n] = p.alpha[s] * d2[k, s] * np.outer(x, x)
            H[1 : 1 + n, n + 1] = p.alpha[s] * d2[k, s] * x
            H[n + 1, 1 : 1 + n] = p.alpha[s] * d2[k, s] * x
            H[n + 1, n + 1] = p.alpha[s] * d2[k, s]
            worst[k] = max(worst[k], np.linalg.norm(H, 2))
    return float(np.sqrt(np.sum(g.weights * worst**2)))


class TestLipschitzConstants:
    def test_single_sample_flags_missing_pairs(self):
        g = make_grid(1, 16)
        p = Params([1.0, -1.0], [[1.0], [2.0]], [0.0, 0.5])
        c = lipschitz_constants(p, SIGMOID, g, radius=0.5, samples=1, seed=0)
        assert c.lipschitz_bound == 0.0
        assert "insufficient samples" in c.flags
        assert c.samples == 1

    def test_alpha_scaling_lifts_derivative_bound(self):
        g = make_grid(1, 64)
        p = Params([2.0, -1.5], [[2.0], [-1.0]], [0.3, 0.7])
        scaled = Params(2.0 * p.alpha, p.w, p.theta)
        # oracle: direct SVD of the inner-coordinate block at the base point
        matrix = jacobian(p, SIGMOID, g) * np.sqrt(g.weights)[:, None]
        inner_block_norm = np.linalg.svd(matrix[:, p.units :], compute_uv=False)[0]
        c = lipschitz_constants(scaled, SIGMOID, g, radius=1e-9, samples=4, seed=1)
        assert c.derivative_bound >= 2.0 * inner_block_norm * (1 - 1e-6)

    def test_lipschitz_bound_below_curvature_bound(self):
        g = make_grid(1, 64)
        p = Params([1.5, -1.0], [[2.0], [-1.5]], [0.2, 0.8])
        radius = 0.2
        c = lipschitz_constants(p, SIGMOID, g, radius=radius, samples=24, seed=5)
        # oracle: sampled supremum of the second-derivative norm on the ball
        rng = np.random.default_rng(905)
        bound = hessian_operator_norm_bound(p, SIGMOID, g)
        for _ in range(200):
            u = rng.standard_normal(p.n_star)
            u *= radius * rng.uniform() ** (1 / p.n_star) / np.linalg.norm(u)
            q = Params.from_flat(p.flatten() + u, p.units, p.input_dim)
            bound = max(bound, hessian_operator_norm_bound(q, SIGMOID, g))
        assert c.lipschitz_bound <= 1.05 * bound

    def test_ball_must_stay_inside_box(self):
        g = make_grid(1, 16)
        p = Params([9.9], [[1.0]], [0.0])
        with pytest.raises(ValueError):
            lipschitz_constants(p, SIGMOID, g, radius=0.5, samples=2, seed=0)
        with pytest.raises(ValueError):
            lipschitz_constants(p, SIGMOID, g, radius=-1.0, samples=2, seed=0)

    def test_an_overflowing_pair_distance_is_refused(self):
        # the squared distance overflowed to inf, its quotient read 0.0, and
        # a ball whose every pair overflowed reported a Lipschitz bound of 0
        g = make_grid(1, 16)
        p = Params([1.0, -1.0], [[1.0], [2.0]], [0.0, 0.5])
        box = (-1e307, 1e307)
        with pytest.raises(FloatingPointError, match="overflow"):
            lipschitz_constants(p, SIGMOID, g, radius=1e306, samples=2, seed=0,
                                box=box)
        c = lipschitz_constants(p, SIGMOID, g, radius=1e100, samples=2, seed=0,
                                box=box)
        assert np.isfinite(c.lipschitz_bound)

    def test_sample_stack_is_refused_before_allocating(self, monkeypatch):
        g = make_grid(1, 64)
        p = Params([1.0, -1.0], [[1.0], [2.0]], [0.0, 0.5])
        gram = 2 * 8 * (2 * p.n_star) ** 2
        stack = 8 * 2 * g.node_count * p.n_star
        assert gram < stack
        monkeypatch.setattr(grids, "DENSE_BYTES_LIMIT", stack - 1)
        with pytest.raises(ConfigError, match="constants_samples 2 .* sample stack"):
            lipschitz_constants(p, SIGMOID, g, radius=0.5, samples=2, seed=0)
        monkeypatch.setattr(grids, "DENSE_BYTES_LIMIT", stack)
        lipschitz_constants(p, SIGMOID, g, radius=0.5, samples=2, seed=0)
        monkeypatch.setattr(grids, "DENSE_BYTES_LIMIT", gram - 1)
        with pytest.raises(ConfigError, match="Gram matrix"):
            lipschitz_constants(p, SIGMOID, g, radius=0.5, samples=2, seed=0)

    def test_constant_function_norm_sanity(self):
        # operator norm of the derivative dominates any single column norm
        g = make_grid(1, 32)
        p = Params([1.0], [[0.0]], [0.0])
        c = lipschitz_constants(p, SIGMOID, g, radius=1e-9, samples=2, seed=3)
        assert c.derivative_bound >= norm(constant(g, 0.5)) * (1 - 1e-9)


def ball_points(p, radius, samples, seed):
    """The sampler ``lipschitz_constants`` had inline before it batched."""
    rng = np.random.default_rng(seed)
    center = p.flatten()
    dim = p.n_star
    points = []
    for _ in range(samples):
        u = rng.standard_normal(dim)
        u /= np.linalg.norm(u)
        r = radius * rng.uniform() ** (1.0 / dim)
        points.append(center + r * u)
    return points


def pairwise_constants(p, a, g, points):
    """One SVD per point and one per pair, folded with Python ``max``: the
    loops the batched estimate replaced, kept as its exact oracle."""

    def operator_norm(matrix):
        scaled = np.sqrt(g.weights)[:, None] * matrix
        return float(np.linalg.svd(scaled, compute_uv=False)[0])

    matrices = [
        jacobian(Params.from_flat(q, p.units, p.input_dim), a, g)
        for q in points
    ]
    deriv_bound = max(operator_norm(m) for m in matrices)
    lipschitz = 0.0
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            dist = float(np.linalg.norm(points[i] - points[j]))
            if dist == 0.0:
                continue
            diff = operator_norm(matrices[i] - matrices[j])
            lipschitz = max(lipschitz, diff / dist)
    return deriv_bound, lipschitz


#: (params, grid, radius): the default solve's and a 2-D problem's.
BATCH_CASES = [
    (Params([1.5, -1.0], [[2.0], [-1.5]], [0.2, 0.8]), make_grid(1, 64), 0.6),
    (Params([2.0, -1.0, 0.5], [[1.0, -2.0], [0.5, 1.5], [-1.0, 0.3]],
            [0.1, -0.4, 0.9]), make_grid(2, 12), 0.3),
]


def recorded_gram_rows(monkeypatch) -> list:
    """The row count of every chunk the Gram screen multiplies, recorded
    through ``np.matmul`` until the monkeypatch is undone."""
    rows, matmul = [], np.matmul

    def recorded(a, b):
        rows.append(b.shape[0])
        return matmul(a, b)

    monkeypatch.setattr(np, "matmul", recorded)
    return rows


class TestBatchedLipschitzConstants:
    @pytest.mark.parametrize("samples", [1, 2, 24, 32])
    @pytest.mark.parametrize("case", range(len(BATCH_CASES)))
    def test_equals_the_pairwise_loop_exactly(self, case, samples):
        p, g, radius = BATCH_CASES[case]
        c = lipschitz_constants(p, SIGMOID, g, radius=radius, samples=samples,
                                seed=samples)
        expected = pairwise_constants(
            p, SIGMOID, g, ball_points(p, radius, samples, seed=samples))
        assert (c.derivative_bound, c.lipschitz_bound) == expected

    def test_pairs_of_equal_points_are_skipped(self, monkeypatch):
        p, g, radius = BATCH_CASES[0]
        drawn = []

        def repeating(rng, center, radius):
            drawn.append(sample_in_ball(rng, center, radius))
            return drawn[0] if len(drawn) in (3, 5) else drawn[-1]

        monkeypatch.setattr(network, "sample_in_ball", repeating)
        with np.errstate(divide="raise", invalid="raise"):
            c = lipschitz_constants(p, SIGMOID, g, radius=radius, samples=6, seed=2)
        points = [drawn[0] if k in (2, 4) else q for k, q in enumerate(drawn)]
        assert (c.derivative_bound, c.lipschitz_bound) == pairwise_constants(
            p, SIGMOID, g, points)
        assert c.lipschitz_bound > 0

    @pytest.mark.parametrize("per_call", [1, 3])
    def test_chunks_under_a_small_byte_cap_give_the_same_bounds(
        self, monkeypatch, per_call
    ):
        p, g, radius = BATCH_CASES[1]
        samples = 8
        matrix_bytes = g.node_count * p.n_star * 8
        monkeypatch.setattr(network, "CHUNK_BYTES", per_call * matrix_bytes)
        chunks, batches = [], []
        weighted_batches, svd = network._weighted_batches, np.linalg.svd

        def recorded(*args):
            for batch in weighted_batches(*args):
                chunks.append(len(batch))
                yield batch

        def counted(a, *args, **kwargs):
            batches.append(a.shape[0])
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(network, "_weighted_batches", recorded)
        monkeypatch.setattr(np.linalg, "svd", counted)
        gram_rows = recorded_gram_rows(monkeypatch)
        c = lipschitz_constants(p, SIGMOID, g, radius=radius, samples=samples, seed=4)
        monkeypatch.undo()
        pairs = samples * (samples - 1) // 2
        # only the matrices the Gram screen keeps are built, all for the SVD
        assert sum(chunks) == sum(batches) < samples + pairs
        assert max(batches) <= per_call
        assert len(gram_rows) > 1 and sum(gram_rows) == g.node_count
        assert (c.derivative_bound, c.lipschitz_bound) == pairwise_constants(
            p, SIGMOID, g, ball_points(p, radius, samples, seed=4))


def pointwise_jacobian(p, a, g):
    """The Jacobian matrix built from one ``Params`` at a time: the formula
    the stacked build replaced, kept as its bitwise oracle."""
    units, n = p.units, p.input_dim
    z = g.nodes @ p.w.T + p.theta
    scaled = a.d1(z) * p.alpha
    M = np.empty((g.node_count, p.n_star))
    M[:, :units] = a.value(z)
    M[:, units : units * (n + 1)] = (
        scaled[:, :, None] * g.nodes[:, None, :]
    ).reshape(g.node_count, units * n)
    M[:, units * (n + 1) :] = scaled
    return M


#: (activation, grid): sigmoid at scales 1, 0.25 and 4, a saturating
#: sigmoid, tanh and relu in 1-D and 2-D.
STACK_CASES = [
    (a, g)
    for a in (SIGMOID, Activation.sigmoid(0.25), Activation.sigmoid(4.0),
              Activation.sigmoid(0.01), TANH, Activation.relu())
    for g in (make_grid(1, 64), make_grid(2, 12))
]


class TestStackedJacobians:
    @pytest.mark.parametrize("units", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("case", range(len(STACK_CASES)))
    def test_jacobian_equals_the_pointwise_formula(self, case, units):
        a, g = STACK_CASES[case]
        for seed in range(4):
            p = sample_params(np.random.default_rng(seed), units, g.dim, box=(-5, 5))
            expected = pointwise_jacobian(p, a, g)
            matrix = jacobian(p, a, g)
            assert matrix.tobytes() == expected.tobytes()
            assert matrix.strides == expected.strides

    @pytest.mark.parametrize("rows", [2, 5])
    @pytest.mark.parametrize("units", [1, 3, 5])
    @pytest.mark.parametrize("case", range(len(STACK_CASES)))
    def test_stack_equals_the_pointwise_formula(self, case, units, rows):
        a, g = STACK_CASES[case]
        rng = np.random.default_rng(100 * case + units)
        points = [sample_params(rng, units, g.dim, box=(-10, 10)) for _ in range(rows)]
        stack = network.jacobian_rows(flat_rows(points), units, g.dim, a, g)
        assert stack.shape == (rows, points[0].n_star, g.node_count)
        assert stack.flags.c_contiguous
        for p, matrix in zip(points, stack):
            assert matrix.tobytes() == pointwise_jacobian(p, a, g).T.tobytes()

    @pytest.mark.parametrize("units", [1, 3])
    @pytest.mark.parametrize("case", range(len(STACK_CASES)))
    def test_rows_are_the_transposed_jacobians(self, case, units):
        a, g = STACK_CASES[case]
        rng = np.random.default_rng(200 + case)
        points = [sample_params(rng, units, g.dim, box=(-10, 10)) for _ in range(3)]
        rows = network.jacobian_rows(flat_rows(points), units, g.dim, a, g)
        assert rows.shape == (3, points[0].n_star, g.node_count)
        assert rows.flags.c_contiguous
        for p, matrix in zip(points, rows):
            assert matrix.tobytes() == jacobian(p, a, g).T.tobytes()
            assert matrix.tobytes() == pointwise_jacobian(p, a, g).T.tobytes()
        with pytest.raises(ShapeError, match="need \\(rows, "):
            network.jacobian_rows(flat_rows(points)[:, :-1], units, g.dim, a, g)

    def test_wide_grid_equals_the_pointwise_formula(self):
        g = make_grid(2, 256)
        rng = np.random.default_rng(256)
        points = [sample_params(rng, 3, 2, box=(-5, 5)) for _ in range(2)]
        stack = network.jacobian_rows(flat_rows(points), 3, 2, SIGMOID, g)
        for p, matrix in zip(points, stack):
            expected = pointwise_jacobian(p, SIGMOID, g)
            assert matrix.tobytes() == expected.T.tobytes()
            single = jacobian(p, SIGMOID, g)
            assert single.tobytes() == expected.tobytes()
            assert single.strides == expected.strides

    def test_no_points_give_an_empty_stack(self):
        for flat in (np.empty((0, 3)), []):
            stack = network.jacobian_rows(flat, 1, 1, SIGMOID, make_grid(1, 8))
            assert stack.shape == (0, 3, 8)

    @pytest.mark.parametrize("flat, shape", [
        (np.zeros((2, 9)), "(2, 9)"), (np.zeros(6), "(6,)"),
        (np.zeros((1, 2, 6)), "(1, 2, 6)")])
    def test_wrong_width_is_a_shape_error_naming_both(self, flat, shape):
        with pytest.raises(ShapeError) as err:
            network.jacobian_rows(flat, 2, 1, SIGMOID, make_grid(1, 8))
        assert str(err.value) == (f"points have shape {shape}, 2 units in "
                                  "dimension 1 need (rows, 6)")

    def test_stack_is_refused_before_allocating(self, monkeypatch):
        # the stack and the pass's scratch: 8 (2 n* + 3 N) bytes a node
        g = make_grid(2, 12)
        points = [sample_params(np.random.default_rng(k), 3, 2) for k in range(2)]
        need = 8 * 2 * g.node_count * (2 * 12 + 3 * 3)
        monkeypatch.setattr(grids, "DENSE_BYTES_LIMIT", need - 1)
        with pytest.raises(ConfigError, match=(
                "^points_per_axis 12 in dimension 2 needs a 0.0 GiB 2-point "
                "Jacobian stack, over the")):
            network.jacobian_rows(flat_rows(points), 3, 2, SIGMOID, g)
        with pytest.raises(ConfigError):
            jacobian(points[0], SIGMOID, make_grid(2, 24))
        monkeypatch.setattr(grids, "DENSE_BYTES_LIMIT", need)
        assert network.jacobian_rows(flat_rows(points), 3, 2, SIGMOID,
                                     g).shape == (2, 12, 144)

    def test_step_activation_writes_nothing(self):
        g = make_grid(2, 12)
        p = sample_params(np.random.default_rng(5), 2, 2)
        out = np.full((1, p.n_star, g.node_count), 7.0)
        with pytest.raises(SmoothnessError):
            network._jacobian_matrices(p.flatten()[None], p.units, p.input_dim,
                                       Activation.step(), g, out)
        assert np.all(out == 7.0)

    @pytest.mark.parametrize("per_call", [1, None])
    @pytest.mark.parametrize("case", range(len(STACK_CASES)))
    def test_lipschitz_stack_equals_pointwise_jacobians(
        self, monkeypatch, case, per_call
    ):
        a, g = STACK_CASES[case]
        p = sample_params(np.random.default_rng(case), 3, g.dim, box=(-5, 5))
        samples, radius = 24, 0.5
        if per_call is not None:
            matrix_bytes = g.node_count * p.n_star * 8
            monkeypatch.setattr(network, "CHUNK_BYTES", per_call * matrix_bytes)
        stacks, passes = [], []
        gram_blocks, build = network._gram_blocks, network._jacobian_matrices

        def recorded_blocks(stack, sqrt_w):
            stacks.append(stack.copy())
            return gram_blocks(stack, sqrt_w)

        def recorded_build(flat, *args):
            passes.append(len(flat))
            return build(flat, *args)

        monkeypatch.setattr(network, "_gram_blocks", recorded_blocks)
        monkeypatch.setattr(network, "_jacobian_matrices", recorded_build)
        jacobians = []
        monkeypatch.setattr(network, "jacobian", lambda *args: jacobians.append(args))
        lipschitz_constants(p, a, g, radius=radius, samples=samples, seed=case)
        monkeypatch.undo()
        expected = np.array([
            pointwise_jacobian(Params.from_flat(q, p.units, p.input_dim), a, g)
            for q in ball_points(p, radius, samples, seed=case)
        ])
        # the stack holds each Jacobian node-minor, as rows
        assert stacks[0].tobytes() == expected.transpose(0, 2, 1).tobytes()
        assert passes == ([samples] if per_call is None else [1] * samples)
        assert jacobians == []  # no per-sample jacobian() calls

    def test_step_activation_rejected(self):
        p, g, radius = BATCH_CASES[0]
        with pytest.raises(SmoothnessError):
            lipschitz_constants(p, Activation.step(), g, radius=radius,
                                samples=4, seed=0)

    def test_dimension_mismatch_rejected(self):
        p, _, radius = BATCH_CASES[0]
        with pytest.raises(ShapeError):
            lipschitz_constants(p, SIGMOID, make_grid(2, 8), radius=radius,
                                samples=4, seed=0)


def pointwise_directional_derivative(p, a, g, d):
    """The derivative along ``d`` built from one ``Params`` at a time: the
    formula the stacked pass replaced, kept as its bitwise oracle."""
    dp = Params.from_flat(d, p.units, p.input_dim)
    z = g.nodes @ p.w.T + p.theta
    u = g.nodes @ dp.w.T + dp.theta
    return a.value(z) @ dp.alpha + (a.d1(z) * u) @ p.alpha


#: (activation, grid): sigmoid at scales 0.25, 1 and 4, tanh and relu, on
#: 6 to 4096 nodes in 1-D and 2-D.
DIRECTIONAL_CASES = [
    (a, g)
    for a in (Activation.sigmoid(0.25), SIGMOID, Activation.sigmoid(4.0),
              TANH, Activation.relu())
    for g in (make_grid(1, 6), make_grid(1, 64), make_grid(2, 12),
              make_grid(1, 4096), make_grid(2, 64))
]


class TestStackedDirectionalDerivatives:
    @pytest.mark.parametrize("units", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("case", range(len(DIRECTIONAL_CASES)))
    def test_each_row_is_the_one_point_derivative(self, case, units):
        a, g = DIRECTIONAL_CASES[case]
        rng = np.random.default_rng(10 * case + units)
        points = [sample_params(rng, units, g.dim, box=(-5, 5)) for _ in range(4)]
        directions = rng.standard_normal((4, points[0].n_star))
        flat = np.array([p.flatten() for p in points])
        rows = directional_derivatives(flat, directions, units, g.dim, a, g)
        assert rows.shape == (4, g.node_count)
        for p, d, row in zip(points, directions, rows):
            expected = pointwise_directional_derivative(p, a, g, d)
            assert row.tobytes() == expected.tobytes()
            one = directional_derivative(p, a, g, d).values
            assert one.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("units", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("case", range(len(DIRECTIONAL_CASES)))
    def test_each_psi_row_is_the_one_point_formula(self, case, units):
        a, g = DIRECTIONAL_CASES[case]
        rng = np.random.default_rng(20 * case + units)
        points = [sample_params(rng, units, g.dim, box=(-5, 5)) for _ in range(4)]
        rows = network.eval_psis(flat_rows(points), units, g.dim, a, g)
        assert rows.shape == (4, g.node_count)
        for p, row in zip(points, rows):
            expected = a.value(g.nodes @ p.w.T + p.theta) @ p.alpha
            assert row.tobytes() == expected.tobytes()
            assert eval_psi(p, a, g).values.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("units", [1, 3])
    @pytest.mark.parametrize("case", [
        k for k, (a, _) in enumerate(DIRECTIONAL_CASES) if a.kind != "relu"])
    def test_second_derivative_is_the_per_direction_params_formula(
        self, case, units
    ):
        # the formula that built one Params per direction, as its oracle
        a, g = DIRECTIONAL_CASES[case]
        rng = np.random.default_rng(30 * case + units)
        p = sample_params(rng, units, g.dim, box=(-5, 5))
        h1, h2 = rng.standard_normal((2, p.n_star))
        d1, d2 = perturbed(p, h1), perturbed(p, h2)
        z = g.nodes @ p.w.T + p.theta
        u1 = g.nodes @ d1.w.T + d1.theta
        u2 = g.nodes @ d2.w.T + d2.theta
        expected = np.sum(a.d1(z) * (u2 * d1.alpha + u1 * d2.alpha)
                          + a.d2(z) * (u1 * u2) * p.alpha, axis=1)
        out = second_derivative_bilinear(p, a, g, h1, h2).values
        assert out.tobytes() == expected.tobytes()

    def test_strided_inputs_round_as_contiguous_ones(self):
        g = make_grid(2, 12)
        rng = np.random.default_rng(3)
        wide = rng.standard_normal((2 * 12, 3))
        points, directions = wide[::2], wide[1::2]
        expected = directional_derivatives(points.copy(), directions.copy(),
                                           1, 1, SIGMOID, make_grid(1, 12))
        rows = directional_derivatives(points, directions, 1, 1, SIGMOID,
                                       make_grid(1, 12))
        assert rows.tobytes() == expected.tobytes()
        p = sample_params(rng, 2, 2)
        strided = np.repeat(rng.standard_normal(p.n_star), 2)[::2]
        assert directional_derivative(p, TANH, g, strided).values.tobytes() == (
            pointwise_directional_derivative(p, TANH, g, strided).tobytes())

    @pytest.mark.parametrize("points, directions, dim", [
        (np.zeros((2, 6)), np.zeros((3, 6)), 1),
        (np.zeros((2, 6)), np.zeros((2, 5)), 1),
        (np.zeros(6), np.zeros(6), 1),
        (np.zeros((2, 6)), np.zeros((2, 6)), 2),
    ])
    def test_mismatched_shapes_are_a_shape_error(self, points, directions, dim):
        g = make_grid(dim, 8)
        with pytest.raises(ShapeError):
            directional_derivatives(points, directions, 2, 1, SIGMOID, g)

    def test_step_activation_rejected(self):
        g = make_grid(1, 8)
        with pytest.raises(SmoothnessError):
            directional_derivatives(np.ones((1, 3)), np.ones((1, 3)), 1, 1,
                                    Activation.step(), g)


def candidate_stack(p, a, g, radius, samples, seed):
    """The stack of Jacobian rows, root weights and pair distances of one
    estimate."""
    points = np.array(ball_points(p, radius, samples, seed))
    stack = np.array([
        jacobian(Params.from_flat(q, p.units, p.input_dim), a, g).T
        for q in points
    ])
    first, second = np.triu_indices(samples, 1)
    gaps = points[first] - points[second]
    return stack, np.sqrt(g.weights), np.sqrt(np.vecdot(gaps, gaps))


#: (params, activation, grid, radius, samples): near-duplicate points, a
#: 2-D grid, tanh and relu, many samples, pair differences near the Gram's
#: rounding, where the bound needs its ``margin * mass`` term, and
#: saturated sigmoid units, whose Jacobian entries (about 1e-90 and 1e-160)
#: give Gram entries that underflow when squared, or underflow themselves.
SCREEN_CASES = [
    (BATCH_CASES[0][0], SIGMOID, make_grid(1, 64), 1e-9, 12),
    (BATCH_CASES[1][0], SIGMOID, make_grid(2, 12), 0.3, 16),
    (BATCH_CASES[0][0], TANH, make_grid(1, 40), 0.5, 16),
    (BATCH_CASES[1][0], Activation.relu(), make_grid(2, 8), 0.4, 16),
    (BATCH_CASES[0][0], SIGMOID, make_grid(1, 32), 0.6, 60),
    (BATCH_CASES[0][0], SIGMOID, make_grid(1, 64), 1e-7, 12),
    (Params([1.0, -1.0], [[-3.0], [-1.0]], [-3.0, -2.5]), Activation.sigmoid(0.01),
     make_grid(1, 32), 0.3, 12),
    (Params([1.0, -1.0], [[-0.5], [0.3]], [-4.2, -4.5]), Activation.sigmoid(0.01),
     make_grid(1, 32), 0.2, 12),
]


def assert_bounds_hold(stack, sqrt_w, dists):
    """Every Gram bound is at least its candidate's exact quotient."""
    samples = len(stack)
    first, second = np.triu_indices(samples, 1)
    blocks = network._gram_blocks(stack, sqrt_w)

    def exact(rows):
        return float(np.linalg.svd((sqrt_w * rows).T, compute_uv=False)[0])

    ones = np.ones(samples)
    nodes = stack.shape[2]
    bounds = network._gram_bounds(blocks, nodes, ones, np.arange(samples))
    assert all(b >= exact(m) for b, m in zip(bounds, stack))
    bounds = network._gram_bounds(blocks, nodes, dists, first, second)
    for b, i, j, d in zip(bounds, first, second, dists):
        assert b >= exact(stack[i] - stack[j]) / d


class TestFrobeniusScreen:
    """The screen bounds each ``sigma_max(A)^2`` by the Frobenius norm of
    ``A.T @ A`` taken from one Gram matrix of the sample Jacobians."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("case", range(len(SCREEN_CASES)))
    def test_every_bound_is_at_least_its_exact_quotient(self, case, seed):
        p, a, g, radius, samples = SCREEN_CASES[case]
        assert_bounds_hold(*candidate_stack(p, a, g, radius, samples, seed))

    def test_holds_on_a_tall_grid_over_many_row_chunks(self, monkeypatch):
        p, g, radius = BATCH_CASES[1][0], make_grid(2, 64), 0.3
        samples = 8
        assert g.node_count == 4096
        monkeypatch.setattr(network, "CHUNK_BYTES", 2**16)
        gram_rows = recorded_gram_rows(monkeypatch)
        c = lipschitz_constants(p, SIGMOID, g, radius=radius, samples=samples, seed=7)
        assert len(gram_rows) > 10 and sum(gram_rows) == g.node_count
        assert (c.derivative_bound, c.lipschitz_bound) == pairwise_constants(
            p, SIGMOID, g, ball_points(p, radius, samples, seed=7))
        assert_bounds_hold(*candidate_stack(p, SIGMOID, g, radius, samples, 7))

    def test_bounds_taken_one_candidate_at_a_time_are_unchanged(
        self, monkeypatch
    ):
        p, a, g, radius, samples = SCREEN_CASES[4]
        stack, sqrt_w, dists = candidate_stack(p, a, g, radius, samples, 0)
        first, second = np.triu_indices(samples, 1)
        blocks = network._gram_blocks(stack, sqrt_w)
        whole = network._gram_bounds(blocks, g.node_count, dists, first, second)
        rows, norms = [], network._frobenius_norms

        def recorded(d):
            rows.append(len(d))
            return norms(d)

        monkeypatch.setattr(network, "CHUNK_BYTES", 1)
        monkeypatch.setattr(network, "_frobenius_norms", recorded)
        chunked = network._gram_bounds(blocks, g.node_count, dists, first, second)
        assert max(rows) == 1 and sum(rows) == len(first)
        assert np.array_equal(chunked, whole)

    def test_slack_covers_the_gram_rounding_at_the_node_cap(self):
        # 2 (gamma_K + 6 eps) mass bounds the rounding of the Gram screen;
        # the margin covers it ten times over at every grid size, up to the
        # largest the byte budget admits: 1-D, 16 bytes a node
        eps = np.finfo(float).eps
        for nodes in (1, 64, 4096, 65536, DENSE_BYTES_LIMIT // 16):
            ku = nodes * eps / 2
            gamma = ku / (1 - ku)
            assert network._screen_margin(nodes) >= 10 * 2 * (gamma + 6 * eps)

    @pytest.mark.parametrize("case", range(len(SCREEN_CASES)))
    def test_equals_the_pairwise_loop_exactly(self, case):
        p, a, g, radius, samples = SCREEN_CASES[case]
        c = lipschitz_constants(p, a, g, radius=radius, samples=samples, seed=case)
        points = ball_points(p, radius, samples, seed=case)
        assert (c.derivative_bound, c.lipschitz_bound) == pairwise_constants(
            p, a, g, points)

    @pytest.mark.parametrize("case", range(len(SCREEN_CASES)))
    def test_a_screen_that_prunes_nothing_gives_the_same_bounds(
        self, monkeypatch, case
    ):
        p, a, g, radius, samples = SCREEN_CASES[case]
        screened = lipschitz_constants(p, a, g, radius=radius, samples=samples,
                                       seed=case)
        matrices = []
        svd = np.linalg.svd

        def counted(m, *args, **kwargs):
            matrices.append(m.shape[0])
            return svd(m, *args, **kwargs)

        monkeypatch.setattr(network, "SCREEN_SLACK", np.inf)
        monkeypatch.setattr(np.linalg, "svd", counted)
        with np.errstate(invalid="ignore"):  # inf * a mass of 0 is NaN, kept
            full = lipschitz_constants(p, a, g, radius=radius, samples=samples,
                                       seed=case)
        monkeypatch.undo()
        assert sum(matrices) == samples + samples * (samples - 1) // 2
        assert (full.derivative_bound, full.lipschitz_bound) == (
            screened.derivative_bound, screened.lipschitz_bound)

    def test_few_matrices_reach_the_svd_on_default_solves(self, monkeypatch):
        opts = SolveOptions()
        activation = parse_activation(opts.activation)
        g = make_grid(opts.dim, opts.points_per_axis)
        radius = opts.constants_ball_factor * opts.p0_radius
        samples = opts.constants_samples
        svd = np.linalg.svd
        matrices = []

        def counted(m, *args, **kwargs):
            matrices[-1] += m.shape[0]
            return svd(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        for seed in range(50):
            p = sample_params(np.random.default_rng(seed), opts.units, opts.dim,
                              box=opts.sampler_box, alpha_band=opts.alpha_band)
            matrices.append(0)
            lipschitz_constants(p, activation, g, radius=radius, samples=samples,
                                seed=seed, box=opts.param_box)
        monkeypatch.undo()
        assert samples + samples * (samples - 1) // 2 == 300
        assert np.median(matrices) <= 4
