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
from gncoder.network import ConvergenceConstants, Params, eval_psi
from gncoder.operators import make_integration
from gncoder.pseudoinverse import (
    QRFactors,
    full_rank,
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
        assert np.allclose(f.q_matrix[:, 0], 1.0)
        assert f.r_matrix[0, 0] == pytest.approx(2.0, abs=1e-14)

    def test_orthonormal_input_is_fixed_point(self):
        # two exactly orthonormal functions in the weighted inner product
        x = GRID.nodes[:, 0]
        one = np.ones_like(x)
        legendre = np.sqrt(12.0) * (x - 0.5)  # orthogonal to constants
        cols = [GridFunction(GRID, one), GridFunction(GRID, legendre)]
        scale = norm(cols[1])
        cols[1] = (1.0 / scale) * cols[1]
        f = weighted_qr(stack(cols), GRID)
        assert np.allclose(f.q_matrix[:, 0], cols[0].values, atol=1e-12)
        assert np.allclose(f.q_matrix[:, 1], cols[1].values, atol=1e-12)
        assert np.allclose(f.r_matrix, np.eye(2), atol=1e-12)

    def test_duplicate_column_is_flagged_dependent(self):
        rng = np.random.default_rng(3)
        base = random_columns(1, rng)[0]
        cols = [base, base, random_columns(1, rng)[0]]
        f = weighted_qr(stack(cols), GRID)
        assert f.rank == 2
        assert f.dependent == (False, True, False)
        assert svd_rank(cols) == 2  # dense SVD oracle agrees

    def test_orthonormality_invariant(self):
        rng = np.random.default_rng(5)
        cols = random_columns(8, rng)
        f = weighted_qr(stack(cols), GRID)
        q_columns = [GridFunction(GRID, q) for q in f.q_matrix.T]
        gram = np.array(
            [
                [inner_product(qi, qj) for qj in q_columns]
                for qi in q_columns
            ]
        )
        assert np.max(np.abs(gram - np.eye(f.rank))) < 1e-10

    def test_reconstruction(self):
        rng = np.random.default_rng(7)
        cols = random_columns(6, rng)
        f = weighted_qr(stack(cols), GRID)
        scale = max(norm(c) for c in cols)
        for k, c in enumerate(cols):
            rebuilt = f.q_matrix @ f.r_matrix[:, k]
            assert norm(GridFunction(GRID, rebuilt - c.values)) <= 1e-9 * scale

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
        # no residual reaches twice the largest column norm
        (stack(random_columns(2, np.random.default_rng(9))), 2.0),
    ])
    def test_a_matrix_with_every_column_flagged_has_rank_0(self, matrix,
                                                           rank_tol):
        f = weighted_qr(matrix, GRID, rank_tol)
        assert f.rank == 0
        assert f.dependent == (True, True)
        assert f.retained_indices == ()
        assert f.q_matrix.shape == (GRID.node_count, 0)
        assert f.r_matrix.shape == (0, 2)

    def test_bad_tolerance_rejected(self):
        with pytest.raises(ValueError):
            weighted_qr(stack([constant(GRID, 1.0)]), GRID, rank_tol=0.0)

    def test_row_count_mismatch_rejected(self):
        with pytest.raises(GridMismatchError):
            weighted_qr(stack([constant(make_grid(1, 32), 1.0)]), GRID)


def column_mgs(matrix, grid, rank_tol=1e-10):
    """Modified Gram-Schmidt over a list of column copies, with ``np.sum``
    and ``column_stack``: the loop ``weighted_qr`` replaced, kept as its
    bitwise oracle.  Returns ``(q_matrix, r_matrix, dependent)``."""
    C = np.ascontiguousarray(matrix, dtype=float)
    w = grid.weights
    ncols = C.shape[1]
    col_norms = np.sqrt(np.sum(w[:, None] * C * C, axis=0))
    threshold = rank_tol * float(col_norms.max())
    q_cols = []
    r_rows = np.zeros((ncols, ncols))
    dependent = []
    for k in range(ncols):
        v = C[:, k].copy()
        for _ in range(2):
            for i, q in enumerate(q_cols):
                coeff = float(np.sum(w * q * v))
                r_rows[i, k] += coeff
                v -= coeff * q
        vnorm = float(np.sqrt(np.sum(w * v * v)))
        if vnorm < threshold:
            dependent.append(True)
            continue
        dependent.append(False)
        r_rows[len(q_cols), k] = vnorm
        q_cols.append(v / vnorm)
    return np.column_stack(q_cols), r_rows[: len(q_cols), :], tuple(dependent)


def oracle_matrix(kind, grid, ncols, seed):
    """Columns with spread scales, shaped by ``kind``."""
    rng = np.random.default_rng(seed)
    matrix = rng.standard_normal((grid.node_count, ncols))
    matrix *= 10.0 ** rng.uniform(-4, 4, ncols)
    if kind == "duplicate":
        matrix[:, 2] = matrix[:, 0]
    elif kind == "below-tol":
        matrix[:, 1] = 0.5 * matrix[:, 0] - 1e-13 * matrix[:, 3]
    elif kind == "fortran":
        matrix = np.asfortranarray(matrix)
    return matrix


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


class TestWeightedQRBitwise:
    @pytest.mark.parametrize("case", range(len(ORACLE_CASES)))
    def test_equals_the_column_loop_bit_for_bit(self, case):
        grid, ncols, kind = ORACLE_CASES[case]
        for seed in range(3 if grid.node_count <= 4096 else 1):
            self.check_draw(oracle_matrix(kind, grid, ncols, seed), grid, kind)

    @staticmethod
    def check_draw(matrix, grid, kind):
        before = matrix.copy()
        f = weighted_qr(matrix, grid)
        q, r, dependent = column_mgs(matrix, grid)
        assert f.dependent == dependent
        assert (kind in ("duplicate", "below-tol")) == any(dependent)
        assert f.q_matrix.tobytes() == q.tobytes()
        assert f.r_matrix.tobytes() == r.tobytes()
        assert f.q_matrix.shape == q.shape and f.r_matrix.shape == r.shape
        # matmul picks its kernel by strides, so the layout is part of the bits
        assert f.q_matrix.strides == q.strides
        assert f.q_matrix.flags.c_contiguous
        assert matrix.tobytes() == before.tobytes() and matrix.flags.writeable
        assert matrix.flags.c_contiguous == (kind != "fortran")


def stack_member(kind, grid, ncols, rng):
    """One member of a test stack: ``oracle_matrix`` columns with spread
    scales, plus ``"-0.0"`` (a run of rows of negative zeros, and one
    column of them), ``"lead-0.0"`` (a first column of negative zeros, so
    the member falls behind at once, and a non-positive second column with
    negative zeros in it) and ``"zero"`` (all columns zero)."""
    if kind in ("plain", "duplicate", "below-tol"):
        return oracle_matrix(kind, grid, ncols, int(rng.integers(2**31)))
    matrix = oracle_matrix("plain", grid, ncols, int(rng.integers(2**31)))
    if kind == "-0.0":
        matrix[1:4] = -0.0
        matrix[:, ncols // 2] = -0.0
    elif kind == "lead-0.0":
        matrix[:, 0] = -0.0
        matrix[:, 1] = -np.abs(matrix[:, 1])
        matrix[1:4, 1] = -0.0
    elif kind == "zero":
        matrix[:] = 0.0
    return matrix


#: (grid, columns, member kinds, stack layout); odd node counts put the
#: members' rows at every alignment
STACK_CASES = [
    (make_grid(1, 64), 6, ("plain",), "C"),
    (make_grid(1, 64), 6, ("plain", "duplicate", "-0.0"), "C"),
    (make_grid(1, 64), 6, ("plain", "lead-0.0", "duplicate"), "C"),
    (make_grid(1, 64), 6, ("below-tol", "plain", "duplicate"), "F"),
    (make_grid(1, 13), 5, ("duplicate", "-0.0", "plain"), "C"),
    (make_grid(1, 6), 6, ("plain", "below-tol", "-0.0"), "F"),
    (make_grid(2, 16), 12, ("duplicate", "plain", "below-tol"), "C"),
    (make_grid(1, 64), 1, ("plain", "plain", "plain"), "C"),
]


class TestWeightedQRStackBitwise:
    """Every member of a stacked sweep against the column loop alone."""

    @staticmethod
    def check_stack(matrices, grid):
        before = matrices.copy()
        factors = list(weighted_qr_stack(matrices, grid))
        assert len(factors) == len(matrices)
        for matrix, f in zip(matrices, factors):
            q, r, dependent = column_mgs(matrix, grid)
            assert f.dependent == dependent
            assert f.q_matrix.tobytes() == q.tobytes()
            assert f.r_matrix.tobytes() == r.tobytes()
            assert f.q_matrix.shape == q.shape and f.r_matrix.shape == r.shape
            assert f.q_matrix.strides == q.strides
            assert f.r_matrix.flags.c_contiguous
        assert matrices.tobytes() == before.tobytes()
        return factors

    @pytest.mark.parametrize("case", range(len(STACK_CASES)))
    def test_stacks_of_one_three_and_twenty(self, case):
        grid, ncols, kinds, layout = STACK_CASES[case]
        rng = np.random.default_rng(case)
        for count in (1, 3, 20):
            members = [stack_member(kinds[b % len(kinds)], grid, ncols, rng)
                       for b in range(count)]
            matrices = np.stack(members)
            if layout == "F":
                matrices = np.asfortranarray(matrices)
            factors = self.check_stack(matrices, grid)
            if count > 1 and "plain" in kinds and len(set(kinds)) > 1:
                assert len({f.rank for f in factors}) > 1  # mixed ranks

    def test_a_member_behind_keeps_the_zeros_of_its_own_sweep(self):
        # an infinite entry sets an infinite threshold: the member's finite
        # columns are dependent and its third column comes in behind the
        # others, with NaN products against the slots it has not filled
        grid = make_grid(1, 64)
        rng = np.random.default_rng(5)
        members = [stack_member("plain", grid, 5, rng) for _ in range(3)]
        members[1][7, 2] = np.inf
        with np.errstate(all="ignore"):
            factors = list(weighted_qr_stack(np.stack(members), grid))
            expected = [column_mgs(m, grid) for m in members]
        assert factors[1].dependent == (True, True, False, False, False)
        for f, (q, r, dependent) in zip(factors, expected):
            assert f.dependent == dependent
            assert np.array_equal(f.q_matrix, q, equal_nan=True)
            assert np.array_equal(f.r_matrix, r, equal_nan=True)

    def test_tall_matrix_alone(self):
        grid = make_grid(2, 256)
        matrix = oracle_matrix("plain", grid, 12, 0)
        self.check_stack(matrix[None], grid)

    def test_weighted_qr_is_the_stack_of_one(self):
        grid = make_grid(1, 64)
        matrix = np.asfortranarray(oracle_matrix("duplicate", grid, 6, 1))
        f = weighted_qr(matrix, grid)
        g, = weighted_qr_stack(matrix[None], grid)
        assert f.dependent == g.dependent
        assert f.q_matrix.tobytes() == g.q_matrix.tobytes()
        assert f.r_matrix.tobytes() == g.r_matrix.tobytes()

    def test_a_zero_member_has_rank_0_when_it_is_reached(self, monkeypatch):
        grid = make_grid(1, 64)
        rng = np.random.default_rng(2)
        matrices = np.stack([stack_member(kind, grid, 4, rng)
                             for kind in ("plain", "zero", "plain")])
        sweeps = spy_sweeps(monkeypatch)
        factors = weighted_qr_stack(matrices, grid)
        first = next(factors)
        q, r, _ = column_mgs(matrices[0], grid)
        assert first.r_matrix.tobytes() == r.tobytes()
        assert sweeps == [(3, False), (1, True)]
        zero = next(factors)
        assert sweeps == [(3, False), (1, True), (1, True)]
        assert zero.rank == 0 and zero.dependent == (True,) * 4
        assert zero.q_matrix.shape == (64, 0) and zero.r_matrix.shape == (0, 4)
        assert next(factors).rank == 4

    def test_rejects_a_matrix_for_a_stack(self):
        with pytest.raises(GridMismatchError):
            weighted_qr_stack(np.ones((64, 3)), GRID)
        with pytest.raises(ValueError):
            weighted_qr_stack(np.ones((2, 64, 3)), GRID, rank_tol=0.0)


class TestTransposedRowsView:
    """A transposed view of C-ordered node-minor rows, as the Gauss-Newton
    step and ``mysovskii_check`` pass them, is swept without a copy and
    factors bit for bit as the C-ordered matrices do."""

    @pytest.mark.parametrize("kinds", [("plain",), ("plain", "plain", "plain"),
                                       ("plain", "duplicate", "-0.0")])
    @pytest.mark.parametrize("nodes", [6, 64, 129, 4096])
    def test_same_factors_as_the_c_ordered_matrices(self, monkeypatch, nodes,
                                                    kinds):
        grid = make_grid(1, nodes)
        rng = np.random.default_rng(nodes)
        matrices = np.stack([stack_member(kind, grid, 6, rng) for kind in kinds])
        rows = np.ascontiguousarray(matrices.transpose(0, 2, 1))
        swept, sweep = [], pseudoinverse._mgs_sweep

        def recorded(stack, *args):
            swept.append(np.shares_memory(stack, rows))
            return sweep(stack, *args)

        monkeypatch.setattr(pseudoinverse, "_mgs_sweep", recorded)
        from_view = list(weighted_qr_stack(rows.transpose(0, 2, 1), grid))
        assert swept[0]  # the sweep reads the caller's rows
        pairs = list(zip(from_view, weighted_qr_stack(matrices, grid)))
        pairs += [(weighted_qr(r.T, grid), weighted_qr(m, grid))
                  for r, m in zip(rows, matrices)]
        for got, expected in pairs:
            assert got.dependent == expected.dependent
            assert got.q_matrix.tobytes() == expected.q_matrix.tobytes()
            assert got.r_matrix.tobytes() == expected.r_matrix.tobytes()
            # Q.T @ y rounds by Q's strides: Q stays C-ordered (nodes, rank)
            assert got.q_matrix.flags.c_contiguous
            assert got.q_matrix.shape == (nodes, got.rank)

    def test_rank_threshold_sums_each_column_pairwise(self):
        # the threshold is rank_tol times the largest column norm, each norm
        # the pairwise sum of w * v * v along the column's contiguous row,
        # as np.sum of one vector adds; a running sum node by node rounds
        # differently and would move flags that sit at the threshold
        grid = make_grid(1, 4096)
        w = grid.weights
        rng = np.random.default_rng(41)
        flips = 0
        for _ in range(40):
            matrix = rng.standard_normal((grid.node_count, 2))
            matrix[:, 1] *= 1e-3
            running = np.sqrt(np.cumsum(w[:, None] * matrix * matrix, axis=0)[-1, 0])
            pairwise = np.sqrt(np.sum(w * matrix[:, 0] * matrix[:, 0]))
            residual = weighted_qr(matrix, grid, 1e-300).r_matrix[1, 1]
            tol = residual / running
            for _ in range(8):
                if (residual < tol * running) != (residual < tol * pairwise):
                    f = weighted_qr(matrix, grid, tol)
                    assert f.dependent == (False, bool(residual < tol * pairwise))
                    flips += 1
                    break
                tol = np.nextafter(tol, np.inf if running > pairwise else 0.0)
        assert flips > 0, flips


def gated_stack(matrices, grid=GRID):
    """Each member of a stacked sweep through :func:`full_rank`, as
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
            f = next(gated)
            assert f.r_matrix.tobytes() == weighted_qr(
                matrix, GRID).r_matrix.tobytes()
        with pytest.raises(RankDeficiencyError) as err:
            next(gated)
        assert str(err.value) == "derivative at p has rank 2 < 3"
        assert err.value.deficit == 1


def spy_sweeps(monkeypatch):
    """Record ``(count, shared)`` for every ``_mgs_sweep`` call: the stack
    size, and whether the sweep kept one rank (``None`` means it gave up)."""
    sweeps = []
    sweep = pseudoinverse._mgs_sweep

    def recorded(stack, *args):
        swept = sweep(stack, *args)
        sweeps.append((len(stack), swept is not None))
        return swept

    monkeypatch.setattr(pseudoinverse, "_mgs_sweep", recorded)
    return sweeps


class TestDivergentRanks:
    """A stack whose members disagree on a column's flag is swept one
    member at a time, when the iterator reaches it."""

    def test_members_after_a_deficient_one_are_never_swept(self, monkeypatch):
        rng = np.random.default_rng(61)
        members = [stack(random_columns(4, rng)) for _ in range(20)]
        members[2][:, 3] = members[2][:, 0] - 2.0 * members[2][:, 1]
        expected = [weighted_qr(m, GRID) for m in members[:2]]
        sweeps = spy_sweeps(monkeypatch)
        gated = gated_stack(np.stack(members))
        assert sweeps == [(20, False)]
        for alone in expected:
            f = next(gated)
            assert f.q_matrix.tobytes() == alone.q_matrix.tobytes()
            assert f.r_matrix.tobytes() == alone.r_matrix.tobytes()
            assert f.dependent == alone.dependent
        assert sweeps == [(20, False), (1, True), (1, True)]
        with pytest.raises(RankDeficiencyError,
                           match="^derivative at p has rank 3 < 4$"):
            next(gated)
        assert sweeps == [(20, False), (1, True), (1, True), (1, True)]

    def test_members_that_diverge_at_the_last_column(self, monkeypatch):
        grid = make_grid(1, 13)
        rng = np.random.default_rng(62)
        members = [stack_member("plain", grid, 5, rng) for _ in range(3)]
        members[1][:, 4] = 0.5 * members[1][:, 0] + 0.25 * members[1][:, 2]
        sweeps = spy_sweeps(monkeypatch)
        factors = TestWeightedQRStackBitwise.check_stack(np.stack(members), grid)
        assert [f.rank for f in factors] == [5, 4, 5]
        assert factors[1].dependent == (False,) * 4 + (True,)
        assert sweeps == [(3, False)] + [(1, True)] * 3

    def test_a_column_every_member_flags_keeps_the_shared_sweep(
        self, monkeypatch
    ):
        grid = make_grid(1, 64)
        rng = np.random.default_rng(63)
        members = [stack_member("duplicate", grid, 6, rng) for _ in range(20)]
        sweeps = spy_sweeps(monkeypatch)
        factors = TestWeightedQRStackBitwise.check_stack(np.stack(members), grid)
        assert {f.dependent for f in factors} == {(False, False, True) + (False,) * 3}
        assert sweeps == [(20, True)]


def upper_factors(n, rng, grid=GRID):
    """Factors holding a random ``q``, not orthonormal, and a random
    upper-triangular ``r``: all that ``pinv_apply`` reads."""
    q = rng.standard_normal((grid.node_count, n))
    r = np.triu(rng.standard_normal((n, n)) + 3.0 * np.eye(n))
    return QRFactors(grid, q, r, (False,) * n)


class TestTriangularSolve:
    """``pinv_apply`` solves ``R c = Q^T W x`` with ``np.linalg.solve``,
    bitwise the LAPACK ``dtrtrs`` call that
    ``scipy.linalg.solve_triangular`` makes, one right-hand side at a time
    or a stack of them."""

    @pytest.mark.parametrize("n", range(1, 13))
    def test_equals_solve_triangular_bit_for_bit(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(5):
            f = upper_factors(n, rng)
            x = GridFunction(GRID, rng.standard_normal(GRID.node_count))
            beta = f.q_matrix.T @ (GRID.weights * x.values)
            tri = f.r_matrix[:, list(range(n))]
            expected = solve_triangular(tri, beta, lower=False)
            assert pinv_apply(f, x).tobytes() == expected.tobytes()
            tri = np.asfortranarray(f.r_matrix)
            assert pseudoinverse._solve_upper(tri, beta).tobytes() == (
                solve_triangular(tri, beta, lower=False).tobytes())

    @pytest.mark.parametrize("n", [1, 2, 5, 12, 13, 20, 36, 60, 120])
    def test_a_stack_equals_solve_triangular_bit_for_bit(self, n):
        rng = np.random.default_rng(300 + n)
        for scale in (1e-6, 1.0, 1e3):
            # F order, as ``R[:, retained]`` is: LAPACK reads it as it is
            tri = np.asfortranarray(np.triu(scale * rng.standard_normal((n, n))
                                            + rng.uniform(0.01, 3.0) * np.eye(n)))
            betas = rng.standard_normal((7, n, 1)) * 10.0 ** rng.integers(-8, 8)
            expected = np.stack([solve_triangular(tri, b) for b in betas])
            assert pseudoinverse._solve_upper(tri, betas).tobytes() == (
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
            pinv_apply(QRFactors(GRID, f.q_matrix, r, f.dependent),
                       GridFunction(GRID, np.ones(GRID.node_count)))

    def test_zero_diagonal_raises_linalg_error(self):
        f = upper_factors(4, np.random.default_rng(11))
        r = f.r_matrix.copy()
        r[2, 2] = 0.0
        x = GridFunction(GRID, np.ones(GRID.node_count))
        with pytest.raises(np.linalg.LinAlgError) as err:
            pinv_apply(QRFactors(GRID, f.q_matrix, r, f.dependent), x)
        with pytest.raises(np.linalg.LinAlgError) as expected:
            np.linalg.solve(r[:, [0, 1, 2, 3]],
                            f.q_matrix.T @ (GRID.weights * x.values))
        assert str(err.value) == str(expected.value) == "Singular matrix"


def column_by_column(factors, matrix):
    """``pinv_apply`` of each column in turn: the loop the column-wise call
    replaced, kept as its oracle; an error comes back as ``(type,
    message)``."""
    out = np.empty((factors.column_count, matrix.shape[1]))
    try:
        for j in range(matrix.shape[1]):
            out[:, j] = pinv_apply(factors, GridFunction(factors.grid, matrix[:, j]))
    except (ValueError, np.linalg.LinAlgError) as err:
        return type(err), str(err)
    return out


def columns_outcome(factors, matrix):
    try:
        return pinv_apply_columns(factors, matrix)
    except (ValueError, np.linalg.LinAlgError) as err:
        return type(err), str(err)


class TestPinvApplyColumns:
    """``pinv_apply_columns`` is ``pinv_apply`` of each column, bit for bit,
    error for error."""

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    @pytest.mark.parametrize("n", [1, 3, 6, 12])
    def test_equals_pinv_apply_of_each_column(self, n, layout):
        rng = np.random.default_rng(200 + n)
        f = weighted_qr(stack(random_columns(n, rng)), GRID)
        for m in (1, n, 2 * n + 1):
            matrix = rng.standard_normal((GRID.node_count, 2 * m))
            matrix = {"C": np.ascontiguousarray(matrix[:, :m]),
                      "F": np.asfortranarray(matrix[:, :m]),
                      "strided": matrix[:, ::2]}[layout]
            out = pinv_apply_columns(f, matrix)
            expected = column_by_column(f, matrix)
            assert out.tobytes() == expected.tobytes()
            assert out.flags.c_contiguous and out.shape == (n, m)

    def test_a_deficient_factorization_gets_the_basic_solution(self):
        rng = np.random.default_rng(31)
        base = random_columns(3, rng)
        f = weighted_qr(stack(base + [base[0] - base[2]] + base[1:2]), GRID)
        assert f.rank == 3
        matrix = rng.standard_normal((GRID.node_count, 7))
        out = pinv_apply_columns(f, matrix)
        assert out.tobytes() == column_by_column(f, matrix).tobytes()
        assert not out[[3, 4]].any()
        assert out[:3].all()

    @pytest.mark.parametrize("bad_column", [None, 0, 2])
    @pytest.mark.parametrize("defect", ["none", "non-finite r", "zero diagonal"])
    def test_errors_are_those_of_the_column_loop(self, defect, bad_column):
        f = upper_factors(4, np.random.default_rng(11))
        r = f.r_matrix.copy()
        if defect == "non-finite r":
            r[1, 3] = np.inf
        elif defect == "zero diagonal":
            r[2, 2] = 0.0
        f = QRFactors(GRID, f.q_matrix, r, f.dependent)
        matrix = np.ones((GRID.node_count, 4))
        if bad_column is not None:
            matrix[9, bad_column] = np.nan
        outcome = columns_outcome(f, matrix)
        expected = column_by_column(f, matrix)
        if isinstance(expected, tuple):
            assert outcome == expected
        else:
            assert outcome.tobytes() == expected.tobytes()
        # no column, no solve: nothing to raise, as with no pinv_apply call
        assert pinv_apply_columns(f, matrix[:, :0]).shape == (4, 0)

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

    def test_deficient_factors_give_zero_at_the_dependent_column(self):
        rng = np.random.default_rng(31)
        base = random_columns(2, rng)
        cols = base + [base[0] + base[1]]
        f = weighted_qr(stack(cols), GRID)
        x = GridFunction(GRID, rng.standard_normal(GRID.node_count))
        coeffs = pinv_apply(f, x)
        assert coeffs[2] == 0.0  # the basic solution on the retained columns
        assert coeffs[:2].tobytes() == pinv_apply(
            weighted_qr(stack(base), GRID), x).tobytes()

    def test_rank_0_gives_zeros_without_a_triangular_solve(self, monkeypatch):
        def refused(*args):
            raise AssertionError("solve called on an empty triangle")

        monkeypatch.setattr(pseudoinverse, "_solve_upper", refused)
        f = weighted_qr(np.zeros((GRID.node_count, 3)), GRID)
        x = GridFunction(GRID, np.random.default_rng(3).standard_normal(
            GRID.node_count))
        coeffs = pinv_apply(f, x)
        assert coeffs.shape == (3,) and not coeffs.any()
        out = pinv_apply_columns(f, np.ones((GRID.node_count, 4)))
        assert out.shape == (3, 4) and not out.any()
        assert out.flags.c_contiguous

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

    def test_rank_deficient_reports_large_bl_residual(self):
        rng = np.random.default_rng(47)
        base = random_columns(2, rng)
        cols = base + [base[1]]
        f = weighted_qr(stack(cols), GRID)
        res = mp_residuals(stack(cols), f)
        # coefficient-space identity fails by an order-one amount, while the
        # function-space identities still hold
        assert res.bl > 0.1
        assert res.lbl < 1e-8
        assert res.lb < 1e-8


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
