import ast
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import solve_triangular

import gncoder
from gncoder import pseudoinverse
from gncoder.activations import Activation
from gncoder.diagnostics import cone_check, merge_duplicate, mysovskii_check
from gncoder.exceptions import GridMismatchError, RankDeficiencyError
from gncoder.grids import GridFunction, constant, inner_product, make_grid, norm
from gncoder.network import (ConvergenceConstants, Params, eval_psi, jacobian,
                             jacobian_rows)
from gncoder.operators import make_integration
from gncoder.pseudoinverse import (
    QRFactors,
    full_rank,
    householder_r,
    pinv_apply,
    pinv_apply_columns,
    weighted_qr,
    weighted_qr_stack,
)
from gncoder.solver import SolveConfig, gauss_newton_step
from moore_penrose import mp_residuals, project

GRID = make_grid(1, 64)


def random_columns(count, rng, grid=GRID):
    return [
        GridFunction(grid, rng.standard_normal(grid.node_count))
        for _ in range(count)
    ]


def stack(columns):
    return np.column_stack([c.values for c in columns])


def weighted_matrix(columns):
    grid = columns[0].grid
    C = stack(columns)
    return np.sqrt(grid.weights)[:, None] * C


def svd_rank(columns, rank_tol=1e-10):
    sv = np.linalg.svd(weighted_matrix(columns), compute_uv=False)
    return int(np.sum(sv > rank_tol * sv[0]))


class TestWeightedQR:
    def test_single_column_normalization(self):
        u = constant(GRID, 2.0)
        f = weighted_qr(stack([u]), GRID)
        assert f.rank == 1
        # Q̃ is √W u over its weighted norm, up to the sign Householder picks
        sign = np.sign(f.r_matrix[0, 0])
        assert np.allclose(sign * f.q_matrix[:, 0], np.sqrt(GRID.weights))
        assert abs(f.r_matrix[0, 0]) == pytest.approx(2.0, abs=1e-14)

    def test_orthonormal_input_is_fixed_point(self):
        # two exactly orthonormal functions in the weighted inner product
        x = GRID.nodes[:, 0]
        one = np.ones_like(x)
        legendre = np.sqrt(12.0) * (x - 0.5)  # orthogonal to constants
        cols = [GridFunction(GRID, one), GridFunction(GRID, legendre)]
        scale = norm(cols[1])
        cols[1] = (1.0 / scale) * cols[1]
        f = weighted_qr(stack(cols), GRID)
        signs = np.sign(np.diagonal(f.r_matrix))
        root = np.sqrt(GRID.weights)
        for k in range(2):
            assert np.allclose(signs[k] * f.q_matrix[:, k],
                               root * cols[k].values, atol=1e-12)
        assert np.allclose(np.abs(f.r_matrix), np.eye(2), atol=1e-12)

    def test_duplicate_column_is_flagged_dependent(self):
        rng = np.random.default_rng(3)
        base = random_columns(1, rng)[0]
        cols = [base, base, random_columns(1, rng)[0]]
        f = weighted_qr(stack(cols), GRID)
        assert f.rank == 2
        assert svd_rank(cols) == 2  # dense SVD oracle agrees

    def test_orthonormality_invariant(self):
        rng = np.random.default_rng(5)
        f = weighted_qr(stack(random_columns(8, rng)), GRID)
        assert np.max(np.abs(f.q_matrix.T @ f.q_matrix - np.eye(8))) < 1e-12

    def test_reconstruction(self):
        rng = np.random.default_rng(7)
        cols = random_columns(6, rng)
        f = weighted_qr(stack(cols), GRID)
        weighted = weighted_matrix(cols)
        scale = np.linalg.norm(weighted, axis=0).max()
        assert np.abs(f.q_matrix @ f.r_matrix - weighted).max() <= 1e-12 * scale
        assert not np.tril(f.r_matrix, -1).any()

    def test_rank_matches_svd_on_structured_families(self):
        rng = np.random.default_rng(11)
        for trial in range(10):
            cols = random_columns(4, rng)
            if trial % 2:
                mix = 0.5 * cols[0].values + 0.25 * cols[1].values
                cols.append(GridFunction(GRID, mix))
            f = weighted_qr(stack(cols), GRID)
            assert f.rank == svd_rank(cols)

    @pytest.mark.parametrize("matrix, rank_tol", [
        (np.zeros((GRID.node_count, 2)), 1e-10),
        # no |R_kk| reaches twice the largest column norm
        (stack(random_columns(2, np.random.default_rng(9))), 2.0),
    ])
    def test_a_matrix_with_every_column_flagged_has_rank_0(self, matrix,
                                                           rank_tol):
        f = weighted_qr(matrix, GRID, rank_tol)
        assert f.rank == 0 and f.column_count == 2

    def test_bad_tolerance_rejected(self):
        with pytest.raises(ValueError):
            weighted_qr(stack([constant(GRID, 1.0)]), GRID, rank_tol=0.0)

    def test_row_count_mismatch_rejected(self):
        with pytest.raises(GridMismatchError):
            weighted_qr(stack([constant(make_grid(1, 32), 1.0)]), GRID)


def r_factors(r, rank_tol=1e-10):
    """Factors of which only ``R`` was formed, as the Gauss-Newton step
    holds them."""
    return QRFactors(GRID, None, np.asarray(r, dtype=float), rank_tol)


class TestRankRule:
    """Column ``k`` is dependent when ``|R_kk| < rank_tol`` times the largest
    column norm, read off R."""

    def test_a_duplicated_unit_is_a_deficit_of_three(self):
        p = merge_duplicate(Params([1.5, -1.0], [[2.0], [-1.5]], [0.2, 0.8]))
        f = weighted_qr(jacobian(p, Activation.sigmoid(1.0), GRID), GRID)
        assert (f.rank, f.column_count) == (6, 9)

    @pytest.mark.parametrize("shape", [(GRID.node_count, 1), (GRID.node_count, 3)])
    def test_a_zero_matrix_has_rank_0(self, shape):
        assert weighted_qr(np.zeros(shape), GRID).rank == 0
        assert r_factors(np.zeros((shape[1], shape[1]))).rank == 0

    def test_a_negative_diagonal_is_still_full_rank(self):
        r = np.triu(np.arange(1.0, 10.0).reshape(3, 3)) * [-1.0, 1.0, -1.0]
        assert np.diagonal(r).min() < 0
        f = r_factors(r)
        assert f.rank == 3 and full_rank(f, "R") is f

    def test_the_limit_is_strict_and_scales_with_the_largest_column(self):
        tol = 1e-10
        assert r_factors([[1.0, 0.0], [0.0, tol]], tol).rank == 2
        assert r_factors([[1.0, 0.0], [0.0, np.nextafter(tol, 0.0)]],
                         tol).rank == 1
        # the second column's norm, 3, sets the limit 3e-10
        assert r_factors([[1.0, 3.0], [0.0, 2 * tol]], tol).rank == 1
        assert r_factors([[1.0, 3.0], [0.0, 3 * tol]], tol).rank == 2

    def test_a_column_below_the_limit_after_projection(self):
        rng = np.random.default_rng(5)
        matrix = rng.standard_normal((GRID.node_count, 4))
        matrix[:, 1] = 0.5 * matrix[:, 0] - 1e-13 * matrix[:, 3]
        assert weighted_qr(matrix, GRID).rank == 3
        matrix[:, 1] = 0.5 * matrix[:, 0] - 1e-8 * matrix[:, 3]
        assert weighted_qr(matrix, GRID).rank == 4

    def test_fewer_nodes_than_columns_is_deficient(self):
        grid = make_grid(1, 3)
        f = weighted_qr(np.random.default_rng(1).standard_normal((3, 5)), grid)
        assert (f.rank, f.column_count) == (3, 5)


def duplicated_unit_image():
    """The 9 Jacobian rows at a duplicated unit, rank 6, and a residual
    row below them: an image whose R has three vanishing diagonals."""
    p = merge_duplicate(Params([1.5, -1.0], [[2.0], [-1.5]], [0.2, 0.8]))
    rows = jacobian_rows(p.flatten()[None], p.units, p.input_dim,
                         Activation.sigmoid(1.0), GRID)[0]
    residual = np.random.default_rng(3).standard_normal(GRID.node_count)
    return np.concatenate([rows, [residual]]) * np.sqrt(GRID.weights)


#: name -> the C-ordered (m, K) image whose transpose is factored
HOUSEHOLDER_IMAGES = {
    "desk 64x7": lambda: np.random.default_rng(1).standard_normal((7, 64)),
    "wide 65536x13": lambda: np.random.default_rng(2).standard_normal(
        (13, 65536)),
    # gncoder solve at points_per_axis 2 and 3 units: 2 nodes, 9 + 1 columns
    "2 nodes, 10 columns": lambda: np.random.default_rng(4).standard_normal(
        (10, 2)),
    "duplicated unit": duplicated_unit_image,
    "zero": lambda: np.zeros((7, 64)),
}


class TestHouseholderR:
    """The step's in-place ``dgeqrf`` through ``numpy.linalg.lapack_lite``,
    a private NumPy module, against the public ``np.linalg.qr``: bitwise,
    so a NumPy that changes either call shows here first."""

    @pytest.mark.parametrize("name", HOUSEHOLDER_IMAGES)
    def test_is_bitwise_numpy_qr_of_the_transpose(self, name):
        image = HOUSEHOLDER_IMAGES[name]()
        expected = np.linalg.qr(image.T, mode="r")
        r = householder_r(image)
        assert r.shape == expected.shape == (min(image.shape),
                                             image.shape[0])
        assert r.tobytes() == expected.tobytes()

    def test_factors_in_place_and_reuses_the_workspace(self):
        rng = np.random.default_rng(6)
        work, held_arrays = {}, None
        for _ in range(3):
            image = rng.standard_normal((7, 64))
            before = image.copy()
            expected = np.linalg.qr(before.T, mode="r")
            r = householder_r(image, work)
            assert r.tobytes() == expected.tobytes()
            assert not np.shares_memory(r, image)
            # R lies on and above the diagonal of the factored matrix
            assert np.triu(image.T[:7]).tobytes() == r.tobytes()
            assert image.tobytes() != before.tobytes()
            held_arrays = held_arrays or dict(work)
        assert set(work) == {"tau", "geqrf"}
        assert all(work[key] is held_arrays[key] for key in work)

    def test_a_nonzero_info_raises(self, capfd):
        image = np.ones((3, 5))
        # a scratch array shorter than the 3 columns: dgeqrf refuses its
        # 7th argument, lwork, with info -7
        with pytest.raises(np.linalg.LinAlgError,
                           match="dgeqrf of a 5 x 3 matrix returned info -7"):
            pseudoinverse._geqrf(5, 3, image, np.empty(3), np.empty(1), 1)
        capfd.readouterr()  # LAPACK's own report of the illegal value

    def test_householder_r_raises_on_a_nonzero_info(self, monkeypatch):
        monkeypatch.setattr(pseudoinverse.lapack_lite, "dgeqrf",
                            lambda *args: {"info": 2})
        with pytest.raises(np.linalg.LinAlgError, match="returned info 2"):
            householder_r(np.ones((3, 64)))

    @pytest.mark.parametrize("bad", [
        np.asfortranarray(np.ones((5, 3))), np.ones((3, 5), dtype=np.float32)])
    def test_an_array_lapack_cannot_take_as_it_is_raises(self, bad):
        with pytest.raises(pseudoinverse.lapack_lite.LapackError):
            householder_r(bad)


def oracle_matrix(kind, grid, ncols, seed):
    """Columns with scales spread over two decades, shaped by ``kind``."""
    rng = np.random.default_rng(seed)
    matrix = rng.standard_normal((grid.node_count, ncols))
    matrix *= 10.0 ** rng.uniform(-1, 1, ncols)
    if kind == "duplicate":
        matrix[:, 2] = matrix[:, 0]
    elif kind == "below-tol":
        matrix[:, 1] = 0.5 * matrix[:, 0] - 1e-13 * matrix[:, 3]
    elif kind == "zero":
        matrix[:] = 0.0
    elif kind == "fortran":
        matrix = np.asfortranarray(matrix)
    return matrix


#: the rank of each kind's ``n`` columns
KIND_RANK = {"plain": lambda n: n, "fortran": lambda n: n,
             "duplicate": lambda n: n - 1, "below-tol": lambda n: n - 1,
             "zero": lambda n: 0}


def lstsq_oracle(matrix, grid, x):
    """``np.linalg.lstsq`` of the weighted system: the pseudoinverse of the
    columns applied to the columns of ``x``."""
    root = np.sqrt(grid.weights)
    return np.linalg.lstsq(root[:, None] * matrix, root[:, None] * x,
                           rcond=None)[0]


def check_against_oracles(f, matrix, grid, kind):
    """``f`` factors ``matrix`` of ``kind``: its rank, its reconstruction and,
    at full rank, its pseudoinverse against ``np.linalg.lstsq`` and the four
    Moore-Penrose identities, to 1e-10 relative."""
    n = matrix.shape[1]
    assert f.rank == KIND_RANK[kind](n) and f.column_count == n
    weighted = np.sqrt(grid.weights)[:, None] * matrix
    scale = max(np.linalg.norm(weighted, axis=0).max(), 1e-300)
    assert np.abs(f.q_matrix @ f.r_matrix - weighted).max() <= 1e-12 * scale
    if f.rank < n:
        with pytest.raises(RankDeficiencyError):
            pinv_apply_columns(f, matrix)
        return
    x = np.random.default_rng(n).standard_normal((grid.node_count, 3))
    got, expected = pinv_apply_columns(f, x), lstsq_oracle(matrix, grid, x)
    assert np.linalg.norm(got - expected) <= 1e-10 * np.linalg.norm(expected)
    if grid.node_count <= 4096:
        assert mp_residuals(matrix, f).max() < 1e-10


ORACLE_CASES = [
    (make_grid(1, 64), 6, "plain"),
    (make_grid(1, 64), 6, "duplicate"),
    (make_grid(1, 64), 6, "below-tol"),
    (make_grid(1, 64), 6, "fortran"),
    (make_grid(1, 64), 1, "plain"),
    (make_grid(2, 64), 12, "plain"),
    (make_grid(2, 64), 12, "duplicate"),
    (make_grid(2, 64), 12, "below-tol"),
    (make_grid(2, 64), 12, "fortran"),
    (make_grid(2, 256), 12, "plain"),
]


class TestWeightedQRAgainstOracles:
    @pytest.mark.parametrize("case", range(len(ORACLE_CASES)))
    def test_factors_agree_with_the_oracles(self, case):
        grid, ncols, kind = ORACLE_CASES[case]
        for seed in range(3 if grid.node_count <= 4096 else 1):
            matrix = oracle_matrix(kind, grid, ncols, seed)
            before = matrix.copy()
            check_against_oracles(weighted_qr(matrix, grid), matrix, grid, kind)
            assert matrix.tobytes() == before.tobytes() and matrix.flags.writeable
            assert matrix.flags.c_contiguous == (kind != "fortran")


#: (grid, columns, member kinds, stack layout)
STACK_CASES = [
    (make_grid(1, 64), 6, ("plain",), "C"),
    (make_grid(1, 64), 6, ("plain", "duplicate", "zero"), "C"),
    (make_grid(1, 64), 6, ("duplicate", "plain"), "F"),
    (make_grid(1, 64), 6, ("below-tol", "plain", "duplicate"), "F"),
    (make_grid(1, 13), 5, ("duplicate", "zero", "plain"), "C"),
    (make_grid(1, 6), 6, ("plain", "below-tol", "duplicate"), "F"),
    (make_grid(2, 16), 12, ("duplicate", "plain"), "C"),
    (make_grid(1, 64), 1, ("plain", "plain", "plain"), "C"),
]


class TestWeightedQRStack:
    """Every member of a batched factorization against the oracles."""

    @pytest.mark.parametrize("case", range(len(STACK_CASES)))
    def test_stacks_of_one_three_and_twenty(self, case):
        grid, ncols, kinds, layout = STACK_CASES[case]
        for count in (1, 3, 20):
            members = [oracle_matrix(kinds[b % len(kinds)], grid, ncols,
                                     100 * case + b) for b in range(count)]
            matrices = np.stack(members)
            if layout == "F":
                matrices = np.asfortranarray(matrices)
            before = matrices.copy()
            factors = list(weighted_qr_stack(matrices, grid))
            assert len(factors) == count
            for b, f in enumerate(factors):
                check_against_oracles(f, members[b], grid,
                                      kinds[b % len(kinds)])
            assert matrices.tobytes() == before.tobytes()

    def test_a_non_finite_member_leaves_the_others_alone(self):
        grid = make_grid(1, 64)
        members = [oracle_matrix("plain", grid, 5, seed) for seed in range(3)]
        members[1][7, 2] = np.nan
        factors = list(weighted_qr_stack(np.stack(members), grid))
        for b in (0, 2):
            check_against_oracles(factors[b], members[b], grid, "plain")
        with pytest.raises(ValueError, match="^array must not contain"):
            pinv_apply_columns(factors[1], members[1])

    def test_tall_matrix_alone(self):
        grid = make_grid(2, 256)
        matrix = oracle_matrix("plain", grid, 12, 0)
        f, = weighted_qr_stack(matrix[None], grid)
        check_against_oracles(f, matrix, grid, "plain")
        assert f.q_matrix.shape == (grid.node_count, 12)
        assert f.r_matrix.shape == (12, 12)

    def test_weighted_qr_is_the_stack_of_one(self):
        grid = make_grid(1, 64)
        matrix = np.asfortranarray(oracle_matrix("duplicate", grid, 6, 1))
        f = weighted_qr(matrix, grid)
        g, = weighted_qr_stack(matrix[None], grid)
        assert f.rank == g.rank
        assert f.q_matrix.tobytes() == g.q_matrix.tobytes()
        assert f.r_matrix.tobytes() == g.r_matrix.tobytes()

    def test_rejects_a_matrix_for_a_stack(self):
        with pytest.raises(GridMismatchError):
            weighted_qr_stack(np.ones((64, 3)), GRID)
        with pytest.raises(ValueError):
            weighted_qr_stack(np.ones((2, 64, 3)), GRID, rank_tol=0.0)


class TestTransposedRowsView:
    """A transposed view of C-ordered node-minor rows, as
    ``mysovskii_check`` and the cone pass them, factors as the C-ordered
    matrices do."""

    @pytest.mark.parametrize("kinds", [("plain",), ("plain", "plain", "plain"),
                                       ("plain", "duplicate", "zero")])
    @pytest.mark.parametrize("nodes", [6, 64, 129, 4096])
    def test_same_factors_as_the_c_ordered_matrices(self, nodes, kinds):
        grid = make_grid(1, nodes)
        matrices = np.stack([oracle_matrix(kind, grid, 6, nodes + b)
                             for b, kind in enumerate(kinds)])
        rows = np.ascontiguousarray(matrices.transpose(0, 2, 1))
        from_view = list(weighted_qr_stack(rows.transpose(0, 2, 1), grid))
        alone = [weighted_qr(r.T, grid) for r in rows]
        for b, kind in enumerate(kinds):
            for f in (from_view[b], alone[b]):
                check_against_oracles(f, matrices[b], grid, kind)


def gated_stack(matrices, grid=GRID):
    """Each member of a stacked factorization through :func:`full_rank`, as
    ``mysovskii_check`` gates them."""
    return (full_rank(f, "derivative at p")
            for f in weighted_qr_stack(matrices, grid))


class TestGatedStack:
    def test_raises_at_the_first_deficient_matrix_in_stack_order(self):
        rng = np.random.default_rng(53)
        full = [stack(random_columns(3, rng)) for _ in range(4)]
        base = random_columns(2, rng)
        deficient = stack(base + [base[0] + base[1]])
        matrices = np.stack(full[:2] + [deficient] + full[2:])
        gated = gated_stack(matrices)
        for matrix in full[:2]:
            check_against_oracles(next(gated), matrix, GRID, "plain")
        with pytest.raises(RankDeficiencyError) as err:
            next(gated)
        assert str(err.value) == "derivative at p has rank 2 < 3"
        assert err.value.deficit == 1

    def test_a_zero_member_has_rank_0_when_it_is_reached(self):
        matrices = np.stack([oracle_matrix(kind, GRID, 4, seed) for seed, kind
                             in enumerate(("plain", "zero", "plain"))])
        factors = weighted_qr_stack(matrices, GRID)
        assert full_rank(next(factors), "derivative at p").rank == 4
        with pytest.raises(RankDeficiencyError,
                           match="^derivative at p has rank 0 < 4$"):
            full_rank(next(factors), "derivative at p")
        assert full_rank(next(factors), "derivative at p").rank == 4

    def test_members_of_one_stack_keep_their_own_ranks(self):
        grid = make_grid(1, 13)
        rng = np.random.default_rng(62)
        members = [rng.standard_normal((grid.node_count, 5)) for _ in range(4)]
        # dependent at the last column, at the first column, and in every
        # member's third column
        members[1][:, 4] = 0.5 * members[1][:, 0] + 0.25 * members[1][:, 3]
        members[2][:, 0] = 0.0
        assert [f.rank for f in weighted_qr_stack(np.stack(members), grid)] == [
            5, 4, 4, 5]
        for m in members:
            m[:, 2] = 2.0 * m[:, 3]
        assert [f.rank for f in weighted_qr_stack(np.stack(members), grid)] == [
            4, 3, 3, 4]


def upper_factors(n, rng, grid=GRID):
    """Factors holding a random ``q``, not orthonormal, and a random
    upper-triangular ``r`` of full rank: all that ``pinv_apply`` reads."""
    q = rng.standard_normal((grid.node_count, n))
    r = np.triu(rng.standard_normal((n, n)) + 3.0 * np.eye(n))
    return QRFactors(grid, q, r)


def dtrtrs(tri, beta):
    """LAPACK's triangular solve on ``tri`` as it is: scipy passes an
    F-ordered triangle to ``dtrtrs`` and a C-ordered one transposed."""
    return solve_triangular(np.asfortranarray(tri), beta, lower=False)


class TestTriangularSolve:
    """``_solve_upper`` is ``np.linalg.solve``, bitwise LAPACK's
    triangular solve ``dtrtrs``, for one right-hand side, several, or a
    stack of triangles, whatever the triangle's layout."""

    @pytest.mark.parametrize("n", range(1, 13))
    def test_equals_solve_triangular_bit_for_bit(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(5):
            f = upper_factors(n, rng)
            for tri in (f.r_matrix, np.asfortranarray(f.r_matrix)):
                for beta in (rng.standard_normal(n),
                             rng.standard_normal((n, 4))):
                    assert pseudoinverse._solve_upper(tri, beta).tobytes() == (
                        dtrtrs(tri, beta).tobytes())

    @pytest.mark.parametrize("n", [1, 2, 5, 12, 13, 20, 36, 60, 120])
    def test_a_stack_equals_solve_triangular_bit_for_bit(self, n):
        rng = np.random.default_rng(300 + n)
        for scale in (1e-6, 1.0, 1e3):
            tris = np.triu(scale * rng.standard_normal((7, n, n))
                           + rng.uniform(0.01, 3.0) * np.eye(n))
            betas = rng.standard_normal((7, n, 1)) * 10.0 ** rng.integers(-8, 8)
            expected = np.stack([dtrtrs(t, b) for t, b in zip(tris, betas)])
            assert pseudoinverse._solve_upper(tris, betas).tobytes() == (
                expected.tobytes())

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_raises_value_error(self, bad):
        f = upper_factors(3, np.random.default_rng(7))
        values = np.ones(GRID.node_count)
        values[5] = bad
        with pytest.raises(ValueError, match="^array must not contain infs or NaNs$"):
            pinv_apply(f, GridFunction(GRID, values))
        r = f.r_matrix.copy()
        r[0, 2] = bad
        with pytest.raises(ValueError, match="^array must not contain infs or NaNs$"):
            pseudoinverse._solve_upper(r, np.ones(3))

    def test_a_nan_in_r_is_full_rank_and_fails_in_the_solve(self):
        f = upper_factors(3, np.random.default_rng(7))
        r = f.r_matrix.copy()
        r[0, 2] = np.nan
        f = QRFactors(GRID, f.q_matrix, r)
        assert f.rank == 3
        with pytest.raises(ValueError, match="^array must not contain infs or NaNs$"):
            pinv_apply(f, GridFunction(GRID, np.ones(GRID.node_count)))

    def test_zero_diagonal_raises_linalg_error(self):
        r = upper_factors(4, np.random.default_rng(11)).r_matrix
        r[2, 2] = 0.0
        with pytest.raises(np.linalg.LinAlgError, match="^Singular matrix$"):
            pseudoinverse._solve_upper(r, np.ones(4))


def column_by_column(factors, matrix):
    """``pinv_apply`` of each column in turn; an error comes back as
    ``(type, message)``."""
    out = np.empty((factors.column_count, matrix.shape[1]))
    try:
        for j in range(matrix.shape[1]):
            out[:, j] = pinv_apply(factors, GridFunction(factors.grid, matrix[:, j]))
    except (ValueError, np.linalg.LinAlgError, RankDeficiencyError) as err:
        return type(err), str(err)
    return out


def columns_outcome(factors, matrix):
    try:
        return pinv_apply_columns(factors, matrix)
    except (ValueError, np.linalg.LinAlgError, RankDeficiencyError) as err:
        return type(err), str(err)


class TestPinvApplyColumns:
    """``pinv_apply_columns`` is ``pinv_apply`` of each column."""

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    @pytest.mark.parametrize("n", [1, 3, 6, 12])
    def test_equals_pinv_apply_of_each_column(self, n, layout):
        rng = np.random.default_rng(200 + n)
        cols = random_columns(n, rng)
        f = weighted_qr(stack(cols), GRID)
        for m in (1, n, 2 * n + 1):
            matrix = rng.standard_normal((GRID.node_count, 2 * m))
            matrix = {"C": np.ascontiguousarray(matrix[:, :m]),
                      "F": np.asfortranarray(matrix[:, :m]),
                      "strided": matrix[:, ::2]}[layout]
            out = pinv_apply_columns(f, matrix)
            assert out.shape == (n, m)
            for j in range(m):
                one = pinv_apply(f, GridFunction(GRID, matrix[:, j]))
                assert np.linalg.norm(out[:, j] - one) <= 1e-12 * np.linalg.norm(one)
            expected = lstsq_oracle(stack(cols), GRID, matrix)
            assert np.linalg.norm(out - expected) <= 1e-10 * np.linalg.norm(expected)

    @pytest.mark.parametrize("rank", [2, 0])
    def test_deficient_factors_are_refused(self, rank):
        base = random_columns(2, np.random.default_rng(31))
        matrix = stack(base + [base[0] - base[1]]) if rank else np.zeros(
            (GRID.node_count, 3))
        f = weighted_qr(matrix, GRID)
        x = GridFunction(GRID, np.ones(GRID.node_count))
        for call in (lambda: pinv_apply(f, x),
                     lambda: pinv_apply_columns(f, np.ones((GRID.node_count, 2)))):
            with pytest.raises(RankDeficiencyError,
                               match=f"^the factored matrix has rank {rank} < 3$"):
                call()

    @pytest.mark.parametrize("bad_column", [None, 0, 2])
    @pytest.mark.parametrize("defect", ["none", "non-finite r", "zero diagonal"])
    def test_errors_are_those_of_the_column_loop(self, defect, bad_column):
        f = upper_factors(4, np.random.default_rng(11))
        r = f.r_matrix.copy()
        if defect == "non-finite r":
            r[1, 3] = np.inf
        elif defect == "zero diagonal":
            r[2, 2] = 0.0
        f = QRFactors(GRID, f.q_matrix, r)
        matrix = np.ones((GRID.node_count, 4))
        if bad_column is not None:
            matrix[9, bad_column] = np.nan
        outcome = columns_outcome(f, matrix)
        expected = column_by_column(f, matrix)
        if isinstance(expected, tuple):
            assert outcome == expected
        else:
            assert np.linalg.norm(outcome - expected) <= (
                1e-12 * np.linalg.norm(expected))

    def test_no_column_gives_an_empty_result(self):
        f = upper_factors(4, np.random.default_rng(11))
        assert pinv_apply_columns(f, np.ones((GRID.node_count, 0))).shape == (4, 0)

    def test_wrong_row_count_is_a_grid_mismatch(self):
        f = upper_factors(2, np.random.default_rng(3))
        for bad in (np.ones((GRID.node_count + 1, 2)), np.ones(GRID.node_count)):
            with pytest.raises(GridMismatchError):
                pinv_apply_columns(f, bad)

    def test_input_is_not_written(self):
        rng = np.random.default_rng(5)
        f = weighted_qr(stack(random_columns(3, rng)), GRID)
        matrix = rng.standard_normal((GRID.node_count, 3))
        before = matrix.copy()
        pinv_apply_columns(f, matrix)
        assert np.array_equal(matrix, before)


class TestProject:
    def test_fixes_vectors_in_span(self):
        rng = np.random.default_rng(13)
        cols = random_columns(5, rng)
        f = weighted_qr(stack(cols), GRID)
        combo = GridFunction(GRID, np.column_stack(
            [c.values for c in cols]) @ rng.standard_normal(5))
        assert norm(project(f, combo) - combo) <= 1e-10 * norm(combo)

    def test_annihilates_orthogonal_complement(self):
        x = GRID.nodes[:, 0]
        f = weighted_qr(stack([constant(GRID, 1.0)]), GRID)
        centered = GridFunction(GRID, x - np.sum(GRID.weights * x))
        assert norm(project(f, centered)) <= 1e-12 * norm(centered)

    def test_is_a_contraction(self):
        rng = np.random.default_rng(17)
        cols = random_columns(6, rng)
        f = weighted_qr(stack(cols), GRID)
        for _ in range(50):
            x = GridFunction(GRID, rng.standard_normal(GRID.node_count))
            assert norm(project(f, x)) <= norm(x) * (1 + 1e-12)

    def test_idempotent_and_self_adjoint(self):
        rng = np.random.default_rng(19)
        cols = random_columns(4, rng)
        f = weighted_qr(stack(cols), GRID)
        x = GridFunction(GRID, rng.standard_normal(GRID.node_count))
        y = GridFunction(GRID, rng.standard_normal(GRID.node_count))
        px = project(f, x)
        assert norm(project(f, px) - px) <= 1e-12 * max(norm(px), 1e-30)
        assert inner_product(px, y) == pytest.approx(
            inner_product(x, project(f, y)), abs=1e-12
        )


class TestPinvApply:
    def test_recovers_unit_coefficients(self):
        rng = np.random.default_rng(23)
        cols = random_columns(5, rng)
        f = weighted_qr(stack(cols), GRID)
        for k, c in enumerate(cols):
            coeffs = pinv_apply(f, c)
            expected = np.zeros(5)
            expected[k] = 1.0
            assert np.max(np.abs(coeffs - expected)) < 1e-9

    def test_annihilates_orthogonal_complement(self):
        x = GRID.nodes[:, 0]
        f = weighted_qr(stack([constant(GRID, 1.0)]), GRID)
        centered = GridFunction(GRID, x - np.sum(GRID.weights * x))
        assert np.max(np.abs(pinv_apply(f, centered))) < 1e-12

    def test_agrees_with_dense_svd_oracle(self):
        rng = np.random.default_rng(29)
        cols = random_columns(6, rng)
        f = weighted_qr(stack(cols), GRID)
        S = weighted_matrix(cols)
        pinv = np.linalg.pinv(S)
        for _ in range(10):
            x = rng.standard_normal(GRID.node_count)
            oracle = pinv @ (np.sqrt(GRID.weights) * x)
            mine = pinv_apply(f, GridFunction(GRID, x))
            assert np.max(np.abs(mine - oracle)) < 1e-8

    def test_pinv_of_apply_is_identity_on_coefficients(self):
        rng = np.random.default_rng(37)
        cols = random_columns(7, rng)
        f = weighted_qr(stack(cols), GRID)
        C = np.column_stack([c.values for c in cols])
        for _ in range(10):
            c = rng.standard_normal(7)
            back = pinv_apply(f, GridFunction(GRID, C @ c))
            assert np.max(np.abs(back - c)) < 1e-8

    def test_apply_of_pinv_is_projection(self):
        rng = np.random.default_rng(41)
        cols = random_columns(5, rng)
        f = weighted_qr(stack(cols), GRID)
        C = np.column_stack([c.values for c in cols])
        for _ in range(10):
            x = GridFunction(GRID, rng.standard_normal(GRID.node_count))
            via_pinv = GridFunction(GRID, C @ pinv_apply(f, x))
            assert norm(via_pinv - project(f, x)) <= 1e-8 * norm(x)


class TestFullRank:
    def test_full_rank_factors_pass_through(self):
        matrix = stack(random_columns(3, np.random.default_rng(43)))
        f = weighted_qr(matrix, GRID, 1e-10)
        assert full_rank(f, "matrix") is f

    @pytest.mark.parametrize("rank", [2, 0])
    def test_a_deficient_rank_raises_with_rank_and_deficit(self, rank):
        base = random_columns(2, np.random.default_rng(47))
        matrix = stack(base + [base[0] + base[1]]) if rank else np.zeros(
            (GRID.node_count, 3))
        with pytest.raises(RankDeficiencyError) as err:
            full_rank(weighted_qr(matrix, GRID), "matrix")
        assert str(err.value) == f"matrix has rank {rank} < 3"
        assert err.value.deficit == 3 - rank


def _gn_step(p, forward, activation):
    """A Gauss-Newton step at ``p`` toward zero data."""
    cfg = SolveConfig(Activation.sigmoid(1.0), GRID, forward, p,
                      constant(GRID, 0.0))
    # the step reads only first derivatives, so it takes the ReLU that the
    # config refuses for a whole solve
    object.__setattr__(cfg, "activation", activation)
    return gauss_newton_step(p, cfg,
                             forward.apply(eval_psi(p, activation, GRID)))


#: caller -> (call at p, its message at the duplicated point)
GATED_CALLERS = {
    "gauss_newton_step": (_gn_step, "Jacobian has rank 6 < 9"),
    "cone_check": (
        lambda p, forward, activation: cone_check(
            p, [p.flatten()], activation, GRID, forward),
        "derivative at p1 has rank 6 < 9"),
    "mysovskii_check": (
        lambda p, forward, activation: mysovskii_check(
            [(p.flatten(), p.flatten(), (0.5,))], p.units, p.input_dim,
            activation, GRID, forward),
        "derivative at p has rank 6 < 9"),
}

#: point -> (activation, p, the rank of its 9 columns)
GATED_POINTS = {
    # the copied unit repeats its alpha, w and theta columns verbatim
    "duplicated": (Activation.sigmoid(1.0), merge_duplicate(
        Params([1.5, -1.0], [[2.0], [-1.5]], [0.2, 0.8])), 6),
    # w x + theta < 0 on all of [0, 1]: every ReLU unit is dead on the
    # grid, so every column is zero
    "dead": (Activation.relu(), Params(
        [1.5, -1.0, 0.7], [[2.0], [-1.5], [0.5]], [-3.0, -0.1, -0.6]), 0),
}


@pytest.mark.parametrize("point", GATED_POINTS)
@pytest.mark.parametrize("caller", GATED_CALLERS)
def test_every_caller_gates_on_full_column_rank(caller, point):
    call, message = GATED_CALLERS[caller]
    activation, p, rank = GATED_POINTS[point]
    with pytest.raises(RankDeficiencyError) as err:
        call(p, make_integration(GRID), activation)
    assert err.value.deficit == 9 - rank
    assert str(err.value) == message.replace("rank 6", f"rank {rank}")


def rank_error_sites(node, where):
    """The qualified name of the function around each
    ``RankDeficiencyError(...)`` call under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            yield from rank_error_sites(child, f"{where}.{child.name}")
            continue
        if isinstance(child, ast.Call) and "RankDeficiencyError" in (
                getattr(child.func, "id", None),
                getattr(child.func, "attr", None)):
            yield where
        yield from rank_error_sites(child, where)


def test_full_rank_is_the_only_place_that_decides_full_rank():
    package = Path(gncoder.__file__).parent
    sites = [site for path in sorted(package.rglob("*.py"))
             for site in rank_error_sites(
                 ast.parse(path.read_text()),
                 ".".join(path.relative_to(package).with_suffix("").parts))]
    assert sites == ["pseudoinverse.full_rank"]


class TestMPResiduals:
    def test_orthonormal_columns_are_exact(self):
        x = GRID.nodes[:, 0]
        one = constant(GRID, 1.0)
        legendre = GridFunction(GRID, np.sqrt(12.0) * (x - 0.5))
        legendre = (1.0 / norm(legendre)) * legendre
        cols = [one, legendre]
        res = mp_residuals(stack(cols), weighted_qr(stack(cols), GRID))
        assert res.max() < 1e-12

    def test_random_full_rank_columns(self):
        rng = np.random.default_rng(43)
        cols = random_columns(6, rng)
        res = mp_residuals(stack(cols), weighted_qr(stack(cols), GRID))
        assert res.max() < 1e-8


class TestConvergenceConstants:
    def test_contraction_factor_consistency(self):
        c = ConvergenceConstants(
            derivative_bound=2.0, lipschitz_bound=3.0
        ).with_radius(0.5)
        assert c.contraction_factor == 0.5 * 0.5 * 2.0 * 3.0

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError):
            ConvergenceConstants(derivative_bound=-1.0, lipschitz_bound=0.0)
        with pytest.raises(ValueError):
            ConvergenceConstants(1.0, 1.0, cone_bound=-0.5)

    def test_json_dict_round_trip_fields(self):
        c = ConvergenceConstants(1.0, 2.0, samples=8, flags=("insufficient samples",))
        d = c.to_json_dict()
        assert d["derivative_bound"] == 1.0
        assert d["contraction_factor"] == 0.0
        assert d["flags"] == ["insufficient samples"]
