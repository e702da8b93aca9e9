import hashlib
import time
import tracemalloc

import numpy as np
import pytest

from gncoder.exceptions import (
    ConfigError,
    GridMismatchError,
    UnsupportedDimensionError,
)
from gncoder.grids import GridFunction, constant, inner_product, make_grid, norm
from gncoder.operators import (
    DENSE_BYTES_LIMIT,
    make_convolution,
    make_identity,
    make_integration,
    parse_operator,
)


def random_pair(grid, rng):
    u = GridFunction(grid, rng.standard_normal(grid.node_count))
    v = GridFunction(grid, rng.standard_normal(grid.node_count))
    return u, v


def catalog(grid):
    ops = [make_identity(grid)]
    if grid.dim == 1:
        ops.append(make_integration(grid))
    if grid.dim <= 2:
        ops.append(make_convolution(grid, 0.08))
    return ops


class TestIdentity:
    def test_apply_and_adjoint_are_exact(self):
        g = make_grid(2, 8)
        rng = np.random.default_rng(1)
        u, v = random_pair(g, rng)
        F = make_identity(g)
        assert np.array_equal(F.apply(u).values, u.values)
        assert np.array_equal(F.adjoint(v).values, v.values)

    def test_spectrum_is_flat(self):
        F = make_identity(make_grid(1, 16))
        assert np.allclose(F.singular_values(), 1.0)


class TestIntegration:
    def test_integrates_constants_with_midpoint_offset(self):
        g = make_grid(1, 32)
        F = make_integration(g)
        image = F.apply(constant(g, 1.0))
        err = np.abs(image.values - g.nodes[:, 0])
        assert np.max(err) <= 1.0 / (2 * 32) + 1e-15

    def test_zero_maps_to_zero(self):
        g = make_grid(1, 16)
        F = make_integration(g)
        assert np.all(F.apply(constant(g, 0.0)).values == 0.0)

    def test_adjoint_against_double_sum_oracle(self):
        g = make_grid(1, 24)
        F = make_integration(g)
        w = g.weights
        rng = np.random.default_rng(5)
        # oracle: brute-force double sums of both pairings
        for _ in range(20):
            u, v = random_pair(g, rng)
            lhs = sum(
                w[k] * v.values[k] * sum(w[j] * u.values[j] for j in range(k + 1))
                for k in range(g.node_count)
            )
            rhs = inner_product(u, F.adjoint(v))
            assert abs(lhs - inner_product(F.apply(u), v)) <= 1e-12
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))

    def test_requires_one_dimension(self):
        with pytest.raises(UnsupportedDimensionError):
            make_integration(make_grid(2, 8))


class TestConvolution:
    def test_preserves_constants(self):
        for dim in (1, 2):
            g = make_grid(dim, 16)
            F = make_convolution(g, 0.1)
            out = F.apply(constant(g, 1.0))
            assert np.allclose(out.values, 1.0, atol=1e-12)

    def test_tiny_width_is_identity(self):
        # width well below the node spacing collapses the kernel to a point
        g = make_grid(1, 32)
        F = make_convolution(g, 1.0 / (8 * 32))
        assert np.max(np.abs(F.matrix() - np.eye(32))) < 1e-8

    def test_singular_values_decay_with_frequency(self):
        g = make_grid(1, 64)
        F = make_convolution(g, 0.05)
        matrix = F.matrix()
        sv, vt = np.linalg.svd(matrix)[1:]
        keep = sv > 1e-12 * sv[0]
        freqs = np.argmax(np.abs(np.fft.rfft(vt[keep], axis=1)), axis=1)
        # dominant frequency of the singular vectors grows as the values
        # decay; each frequency carries a cosine/sine pair
        order = np.lexsort((-sv[keep], freqs))
        values = sv[keep][order]
        assert np.all(np.diff(values) <= 1e-12)
        assert values[0] / values[-1] > 1e2

    def test_rejects_three_dimensions(self):
        with pytest.raises(UnsupportedDimensionError):
            make_convolution(make_grid(3, 4), 0.1)

    def test_rejects_nonpositive_width(self):
        with pytest.raises(ValueError):
            make_convolution(make_grid(1, 8), 0.0)
        for width in ("inf", "nan", "-inf"):
            with pytest.raises(ValueError, match="finite and positive"):
                parse_operator(f"gauss:{width}", make_grid(1, 8))

    def test_two_dimensional_apply_matches_dense_matrix(self):
        for m in (8, 64):  # 64 x 64 is the largest grid solve reports on
            g = make_grid(2, m)
            F = make_convolution(g, 0.15)
            rng = np.random.default_rng(9)
            u = GridFunction(g, rng.standard_normal(g.node_count))
            assert np.allclose(F.apply(u).values, F.matrix() @ u.values,
                               atol=1e-13)


def test_linearity_over_catalog():
    rng = np.random.default_rng(13)
    g = make_grid(1, 32)
    for F in catalog(g):
        u, v = random_pair(g, rng)
        a, b = rng.standard_normal(2)
        left = F.apply(a * u + b * v).values
        right = a * F.apply(u).values + b * F.apply(v).values
        assert np.allclose(left, right, rtol=1e-12, atol=1e-14)


def test_adjoint_identity_over_catalog():
    rng = np.random.default_rng(17)
    for dim in (1, 2):
        g = make_grid(dim, 12)
        for F in catalog(g):
            for _ in range(10):
                u, v = random_pair(g, rng)
                gap = abs(
                    inner_product(F.apply(u), v) - inner_product(u, F.adjoint(v))
                )
                assert gap <= 1e-10 * norm(u) * norm(v)


def test_apply_columns_matches_apply_over_catalog():
    # the block apply keeps each column's arithmetic, except that the 1-D
    # convolution runs one matrix product instead of one per column
    rng = np.random.default_rng(19)
    for dim in (1, 2):
        g = make_grid(dim, 12)
        for F in catalog(g):
            M = rng.standard_normal((g.node_count, 5))
            block = F.apply_columns(M)
            per_column = np.column_stack(
                [F.apply(GridFunction(g, col)).values for col in M.T]
            )
            if dim == 1 and F.descriptor.startswith("gauss"):
                assert np.allclose(block, per_column, rtol=1e-13, atol=1e-15)
            else:
                assert np.array_equal(block, per_column)
            with pytest.raises(GridMismatchError):
                F.apply_columns(M[:-1])


def test_ill_posedness_witness():
    # smoothing members are badly conditioned; identity is not.  The
    # integration operator crosses the 1e2 mark between 64 and 256 nodes
    # (cond grows linearly in the resolution), so the threshold is asserted
    # at 256 and the 64-node value is pinned as a regression guard.
    assert make_identity(make_grid(1, 64)).condition_number() == pytest.approx(1.0)
    conv = make_convolution(make_grid(1, 64), 0.05)
    assert conv.condition_number() > 1e2
    vol64 = make_integration(make_grid(1, 64)).condition_number()
    assert 50 < vol64 < 1e2
    assert make_integration(make_grid(1, 256)).condition_number() > 1e2


def test_injectivity_claims():
    g = make_grid(1, 64)
    assert make_identity(g).injective
    assert make_integration(g).injective
    # full column rank backs the claim
    sv = make_integration(g).singular_values()
    assert sv[-1] > 0
    # a very wide kernel is numerically rank deficient and says so
    assert not make_convolution(g, 0.5).injective
    assert make_convolution(g, 0.01).injective


def test_oversized_gaussian_kernel_is_refused_before_allocating():
    # the build holds about four m x m float64 arrays; m = 4096 must fit
    assert 4 * 8 * 4096**2 <= DENSE_BYTES_LIMIT
    for m in (5793, 16384):
        with pytest.raises(ConfigError, match="points_per_axis"):
            make_convolution(make_grid(1, m), 0.05)


@pytest.mark.parametrize("build, dim, m", [
    (make_identity, 1, 20000),
    (make_integration, 1, 20000),
    (lambda grid: make_convolution(grid, 0.05), 2, 128),
], ids=["identity", "volterra", "gauss-2d"])
def test_oversized_dense_matrix_is_refused_before_allocating(build, dim, m):
    F = build(make_grid(dim, m))
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(ConfigError, match="GiB dense matrix, over the 1 GiB"):
            F.matrix()
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 1.0
    assert peak < 2**20


@pytest.mark.parametrize("build, dim, m", [
    (make_identity, 1, 4096),
    (make_integration, 1, 4096),
    (make_identity, 2, 64),
], ids=["identity", "volterra", "identity-2d"])
def test_dense_matrix_at_4096_nodes_maps_the_identity(build, dim, m):
    F = build(make_grid(dim, m))
    # digests, so that only one 128 MiB matrix is alive at a time
    expected = hashlib.sha256(F._apply_values(np.eye(4096)).tobytes()).digest()
    assert hashlib.sha256(F.matrix().tobytes()).digest() == expected


def test_grid_mismatch_rejected():
    F = make_identity(make_grid(1, 8))
    u = constant(make_grid(1, 16), 1.0)
    with pytest.raises(GridMismatchError):
        F.apply(u)


def test_parse_operator():
    g = make_grid(1, 16)
    assert parse_operator("identity", g).descriptor == "identity"
    assert parse_operator("volterra", g).descriptor == "volterra"
    F = parse_operator("gauss:0.125", g)
    assert F.descriptor == "gauss:0.125"
    assert F.kernel_width == 0.125
    with pytest.raises(ValueError):
        parse_operator("radon", g)
