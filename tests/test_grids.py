import math

import numpy as np
import pytest

from gncoder.exceptions import GridMismatchError
from gncoder.grids import (
    GridFunction,
    constant,
    inner_product,
    make_grid,
    norm,
    sample_function,
)


def test_midpoint_rule_1d_m2():
    g = make_grid(1, 2)
    assert g.nodes[:, 0].tolist() == [0.25, 0.75]
    assert g.weights.tolist() == [0.5, 0.5]


def test_uniform_product_rule_2d():
    g = make_grid(2, 2)
    assert g.node_count == 4
    assert np.all(g.weights == 0.25)
    assert g.weights.sum() == pytest.approx(1.0, abs=1e-15)


def test_weight_sum_matches_direct_summation():
    g = make_grid(1, 64)
    # oracle: compensated direct summation of the weights
    assert abs(math.fsum(g.weights) - 1.0) <= 1e-12


def test_node_ordering_is_lexicographic():
    g = make_grid(2, 3)
    # first axis slowest, second fastest
    first = g.nodes[:, 0].reshape(3, 3)
    second = g.nodes[:, 1].reshape(3, 3)
    assert np.all(np.diff(first, axis=0) > 0)
    assert np.all(np.diff(second, axis=1) > 0)
    assert np.all(np.diff(first, axis=1) == 0)


@pytest.mark.parametrize("dim,m", [(0, 4), (1, 1), (-2, 8), (1, 0)])
def test_make_grid_rejects_bad_sizes(dim, m):
    with pytest.raises(ValueError):
        make_grid(dim, m)


def test_make_grid_rejects_oversized_request():
    with pytest.raises(ValueError):
        make_grid(5, 64)  # 64**5 > 1e8


def test_inner_product_of_constants():
    g = make_grid(2, 8)
    ones = constant(g, 1.0)
    assert inner_product(ones, ones) == pytest.approx(1.0, abs=1e-15)
    assert inner_product(ones, constant(g, 0.0)) == 0.0


def test_inner_product_matches_analytic_integral():
    # oracle: integral of x^2 over [0,1] is 1/3
    g = make_grid(1, 256)
    x = sample_function(g, lambda t: t)
    assert inner_product(x, x) == pytest.approx(1.0 / 3.0, abs=1e-3)


def test_inner_product_symmetry_and_bilinearity():
    g = make_grid(1, 32)
    rng = np.random.default_rng(3)
    u = GridFunction(g, rng.standard_normal(32))
    v = GridFunction(g, rng.standard_normal(32))
    w = GridFunction(g, rng.standard_normal(32))
    assert inner_product(u, v) == inner_product(v, u)
    lhs = inner_product(u + 2.0 * v, w)
    rhs = inner_product(u, w) + 2.0 * inner_product(v, w)
    assert lhs == pytest.approx(rhs, abs=1e-14)


def test_cauchy_schwarz():
    g = make_grid(2, 8)
    rng = np.random.default_rng(7)
    for _ in range(50):
        u = GridFunction(g, rng.standard_normal(g.node_count))
        v = GridFunction(g, rng.standard_normal(g.node_count))
        assert abs(inner_product(u, v)) <= norm(u) * norm(v) * (1 + 1e-12)


def test_norm_zero_iff_zero_values():
    g = make_grid(1, 16)
    assert norm(constant(g, 0.0)) == 0.0
    u = GridFunction(g, np.where(np.arange(16) == 3, 1e-120, 0.0))
    assert norm(u) > 0.0


def test_refinement_consistency():
    # midpoint-rule norms of a fixed smooth function agree to O(m^-2)
    def f(x):
        return np.sin(3.0 * x) + x * x

    norms = {}
    for m in (32, 64, 128):
        g = make_grid(1, m)
        norms[m] = norm(sample_function(g, f))
    for m in (32, 64):
        assert abs(norms[m] - norms[2 * m]) <= 10.0 / m**2


def test_grid_mismatch_raises():
    u = constant(make_grid(1, 8), 1.0)
    v = constant(make_grid(1, 16), 1.0)
    with pytest.raises(GridMismatchError):
        inner_product(u, v)
    with pytest.raises(GridMismatchError):
        u + v


def test_values_are_immutable():
    g = make_grid(1, 4)
    u = constant(g, 2.0)
    with pytest.raises(ValueError):
        u.values[0] = 3.0
    with pytest.raises(ValueError):
        g.weights[0] = 1.0


def test_caller_array_stays_writeable_and_detached():
    g = make_grid(1, 4)
    values = np.arange(4.0)
    u = GridFunction(g, values)
    assert values.flags.writeable
    values[0] = 99.0
    assert u.values.tolist() == [0.0, 1.0, 2.0, 3.0]


def test_wrong_value_count_rejected():
    g = make_grid(1, 8)
    with pytest.raises(GridMismatchError):
        GridFunction(g, np.zeros(7))
