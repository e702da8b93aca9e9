import numpy as np
import pytest

from gncoder.activations import Activation
from gncoder.diagnostics import cone_check, merge_duplicate, mysovskii_check
from gncoder.exceptions import (
    GridMismatchError,
    RankDeficiencyError,
    ZeroMatrixError,
)
from gncoder.grids import GridFunction, constant, inner_product, make_grid, norm
from gncoder.network import Params, eval_psi
from gncoder.operators import make_integration
from gncoder.pseudoinverse import (
    ConvergenceConstants,
    full_rank_qr,
    mp_residuals,
    pinv_apply,
    project,
    weighted_qr,
)
from gncoder.solver import SolveConfig, gauss_newton_step

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

    def test_zero_columns_rejected(self):
        with pytest.raises(ZeroMatrixError):
            weighted_qr(stack([constant(GRID, 0.0), constant(GRID, 0.0)]), GRID)

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

    def test_strict_mode_raises_with_deficit(self):
        rng = np.random.default_rng(31)
        base = random_columns(2, rng)
        cols = base + [base[0] + base[1]]
        f = weighted_qr(stack(cols), GRID)
        x = GridFunction(GRID, rng.standard_normal(GRID.node_count))
        with pytest.raises(RankDeficiencyError) as err:
            pinv_apply(f, x)
        assert err.value.deficit == 1
        coeffs = pinv_apply(f, x, strict=False)
        assert coeffs[2] == 0.0  # minimum-norm convention on retained columns

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


class TestFullRankQR:
    def test_full_rank_returns_the_weighted_qr_factors(self):
        matrix = stack(random_columns(3, np.random.default_rng(43)))
        f = full_rank_qr(matrix, GRID, 1e-10, "matrix")
        g = weighted_qr(matrix, GRID, 1e-10)
        assert f.rank == 3
        assert f.q_matrix.tobytes() == g.q_matrix.tobytes()
        assert f.r_matrix.tobytes() == g.r_matrix.tobytes()

    def test_dependent_column_raises_with_rank_and_deficit(self):
        base = random_columns(2, np.random.default_rng(47))
        matrix = stack(base + [base[0] + base[1]])
        with pytest.raises(RankDeficiencyError) as err:
            full_rank_qr(matrix, GRID, 1e-10, "matrix")
        assert str(err.value) == "matrix has rank 2 < 3"
        assert err.value.deficit == 1


def _gn_step(p, forward):
    """A Gauss-Newton step at ``p`` toward zero data."""
    sigmoid = Activation.sigmoid(1.0)
    cfg = SolveConfig(sigmoid, GRID, forward, p, constant(GRID, 0.0))
    return gauss_newton_step(p, cfg, forward.apply(eval_psi(p, sigmoid, GRID)))


#: caller -> (call at p, its message at the duplicated point)
GATED_CALLERS = {
    "gauss_newton_step": (_gn_step, "Jacobian has rank 6 < 9"),
    "cone_check": (
        lambda p, forward: cone_check(
            p, p, Activation.sigmoid(1.0), GRID, forward),
        "derivative at p1 has rank 6 < 9"),
    "mysovskii_check": (
        lambda p, forward: mysovskii_check(
            p, p, (0.5,), Activation.sigmoid(1.0), GRID, forward),
        "derivative at p has rank 6 < 9"),
}


@pytest.mark.parametrize("caller", GATED_CALLERS)
def test_every_caller_gates_on_full_column_rank(caller):
    call, message = GATED_CALLERS[caller]
    p = merge_duplicate(Params([1.5, -1.0], [[2.0], [-1.5]], [0.2, 0.8]))
    with pytest.raises(RankDeficiencyError) as err:
        call(p, make_integration(GRID))
    # the copied unit repeats its alpha, w and theta columns verbatim
    assert err.value.deficit == 3
    assert str(err.value) == message


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
