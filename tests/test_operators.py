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
from gncoder.grids import (
    DENSE_BYTES_LIMIT,
    GridFunction,
    constant,
    inner_product,
    make_grid,
    norm,
)
from gncoder.operators import (
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


def test_apply_rows_of_f_ordered_rows_over_catalog():
    # F-ordered rows, the transposed view of a node-major matrix: each row
    # keeps its arithmetic, except that the 1-D convolution runs one matrix
    # product instead of one per row; C-ordered rows give C-ordered rows
    rng = np.random.default_rng(19)
    for dim, m in ((1, 12), (1, 64), (1, 100), (2, 12)):
        g = make_grid(dim, m)
        for F in catalog(g):
            rows = rng.standard_normal((g.node_count, 5)).T
            out = F.apply_rows(rows)
            per_row = np.array([F.apply(GridFunction(g, row)).values
                                for row in rows])
            if dim == 1 and F.descriptor.startswith("gauss"):
                assert np.allclose(out, per_row, rtol=1e-13, atol=1e-15)
            else:
                assert np.array_equal(out, per_row)
            # the rows' layout changes no value
            c_rows = np.ascontiguousarray(rows)
            assert out.tobytes() == F.apply_rows(c_rows).tobytes()
            for stack in (c_rows, c_rows[None], c_rows[0]):
                assert F.apply_rows(stack).flags.c_contiguous
            with pytest.raises(GridMismatchError):
                F.apply_rows(rows[:, :-1])


def one_product_per_matrix(F):
    """The 1-D convolution maps a stack with one matrix product per matrix,
    not one per row, so its rows keep only the stated tolerance."""
    return F.in_grid.dim == 1 and F.descriptor.startswith("gauss")


def test_apply_rows_maps_a_stack_as_each_row_alone_over_catalog():
    rng = np.random.default_rng(23)
    for dim in (1, 2):
        g = make_grid(dim, 12)
        for F in catalog(g):
            stack = rng.standard_normal((3, 5, g.node_count))
            before = stack.copy()
            out = F.apply_rows(stack)
            assert out.shape == stack.shape
            assert stack.tobytes() == before.tobytes()
            per_row = np.array([[F.apply(GridFunction(g, row)).values
                                 for row in matrix] for matrix in stack])
            if one_product_per_matrix(F):
                assert np.allclose(out, per_row, rtol=1e-13, atol=1e-15)
            else:
                assert np.array_equal(out, per_row)
            # a stack maps each of its matrices bit for bit as alone
            for matrix, mapped in zip(stack, out):
                assert F.apply_rows(matrix).tobytes() == mapped.tobytes()
            assert F.apply_rows(stack[0, 0]).tobytes() == (
                F.apply(GridFunction(g, stack[0, 0])).values.tobytes())
            with pytest.raises(GridMismatchError):
                F.apply_rows(stack[..., :-1])


def test_adjoint_identity_on_a_stack_of_rows_over_catalog():
    rng = np.random.default_rng(29)
    for dim in (1, 2):
        g = make_grid(dim, 12)
        for F in catalog(g):
            U = rng.standard_normal((4, g.node_count))
            V = rng.standard_normal((4, g.node_count))
            FU, FtV = F.apply_rows(U), F._adjoint_values(V)
            assert FtV.shape == V.shape
            for u, v, fu, ftv in zip(U, V, FU, FtV):
                u, v = GridFunction(g, u), GridFunction(g, v)
                gap = abs(inner_product(GridFunction(g, fu), v)
                          - inner_product(u, GridFunction(g, ftv)))
                assert gap <= 1e-10 * norm(u) * norm(v)
                alone = F.adjoint(v).values
                if one_product_per_matrix(F):
                    assert np.allclose(ftv, alone, rtol=1e-13, atol=1e-15)
                else:
                    assert np.array_equal(ftv, alone)


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


@pytest.mark.parametrize("dim", [1, 2])
def test_a_shared_operator_cannot_be_changed_by_use(dim):
    # one operator serves every job of a process: its kernel factor is
    # read-only and its condition number is one SVD, kept
    op = make_convolution(make_grid(dim, 16), 0.05)
    with pytest.raises(ValueError, match="read-only"):
        op._factor[0, 0] = 1.0
    svds = []

    def counted():
        svds.append(1)
        return type(op).singular_values(op)

    op.singular_values = counted
    first = op.condition_number()
    assert op.condition_number() == first > 1.0
    assert svds == [1]


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
    # digests, so that only one 128 MiB matrix is alive at a time; row j of
    # the map of the identity's rows is F e_j, column j of the matrix
    expected = hashlib.sha256(F._apply_values(np.eye(4096)).T.tobytes()).digest()
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
