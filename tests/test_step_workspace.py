"""The step workspace: one set of arrays per ``solve`` call, same bits.

``solve`` builds the Jacobian rows of each iterate into one workspace dict
and takes ``psi`` from them; every Gauss-Newton step reuses those rows and
writes the weighted augmented image ``√W·[F·J | r]``, which LAPACK factors
in place, and LAPACK's arrays into the arrays held there.  These tests pin
that the workspace and the fused iterate change no bit, that the workspace
dies with the ``solve`` call, and that the layers called without one still
hand out fresh arrays.
"""

import dataclasses
import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from gncoder import network, solver
from gncoder.activations import Activation
from gncoder.diagnostics import merge_duplicate
from gncoder.exceptions import RankDeficiencyError, ShapeError
from gncoder.grids import make_grid, norm
from gncoder.network import Params, eval_psi, jacobian_rows
from gncoder.operators import parse_operator
from gncoder.pseudoinverse import held, weighted_qr
from gncoder.sampling import sample_params, unit_direction
from gncoder.solver import (IterationTrace, SolveConfig, gauss_newton_step,
                            solve)

SIGMOID = Activation.sigmoid(1.0)

#: (dim, points_per_axis, operator) of the workspace cases: small grids of
#: each operator, the 2-D Gaussian among them.
SHAPES = [(1, 32, "identity"), (1, 32, "volterra"), (1, 32, "gauss:0.05"),
          (2, 12, "gauss:0.05")]

OPERATORS = ["identity", "volterra", "gauss:0.05"]


def problem(dim, m, operator, units, rng, p=None):
    """A config whose data is the image of a sampled truth, started 0.3
    away from it (or at ``p``), and that start."""
    grid = make_grid(dim, m)
    forward = parse_operator(operator, grid)
    p_true = sample_params(rng, units, dim, box=(-5, 5), alpha_band=1.0)
    if p is None:
        p = Params.from_flat(
            p_true.flatten() + 0.3 * unit_direction(rng, p_true.n_star),
            units, dim)
    y = forward.apply(eval_psi(p_true, SIGMOID, grid))
    return SolveConfig(SIGMOID, grid, forward, p, y), p_true


def residual(p, cfg):
    return cfg.forward.apply(eval_psi(p, SIGMOID, cfg.grid)) - cfg.data


def trace_fields(trace):
    """Everything a trace records, floats as bytes."""
    return (np.array(trace.residuals).tobytes(),
            np.array(trace.step_norms).tobytes(),
            np.array(trace.param_errors).tobytes(), trace.ranks,
            trace.boundary_events, trace.status, trace.rank_deficit,
            trace.final_params.flatten().tobytes())


class TestSameBits:
    @pytest.mark.parametrize("dim, m, operator", SHAPES)
    def test_a_step_with_a_workspace_is_the_step_without(self, dim, m,
                                                         operator):
        rng = np.random.default_rng(m)
        work = {}  # one workspace for every draw, as across a solve's steps
        for units in (1, 2, 2, 3):
            cfg, _ = problem(dim, m, operator, units, rng)
            p, r = cfg.initial, residual(cfg.initial, cfg)
            try:
                fresh, fresh_diag = gauss_newton_step(p, cfg, r)
            except RankDeficiencyError as err:
                with pytest.raises(RankDeficiencyError, match=f"^{err}$"):
                    gauss_newton_step(p, cfg, r, work)
                continue
            kept, kept_diag = gauss_newton_step(p, cfg, r, work)
            assert kept.flatten().tobytes() == fresh.flatten().tobytes()
            assert kept_diag == fresh_diag
        assert set(work) == {"jacobian", "image", "tau", "geqrf"}

    @pytest.mark.parametrize("dim, m, operator", SHAPES)
    def test_a_duplicated_unit_raises_the_same_rank_error(self, dim, m,
                                                           operator):
        rng = np.random.default_rng(7)
        base = sample_params(rng, 2, dim, box=(-5, 5), alpha_band=1.0)
        cfg, _ = problem(dim, m, operator, 3, rng, p=merge_duplicate(base))
        p, r = cfg.initial, residual(cfg.initial, cfg)
        with pytest.raises(RankDeficiencyError) as fresh:
            gauss_newton_step(p, cfg, r)
        work = {}
        with pytest.raises(RankDeficiencyError) as kept:
            gauss_newton_step(p, cfg, r, work)
        assert str(kept.value) == str(fresh.value)
        assert kept.value.deficit == fresh.value.deficit > 0

    @pytest.mark.parametrize("dim, m, operator", SHAPES)
    def test_a_solve_is_the_one_of_fresh_steps(self, dim, m, operator,
                                               monkeypatch):
        rng = np.random.default_rng(3)
        runs = [problem(dim, m, operator, units, rng) for units in (1, 2, 2)]
        kept = [trace_fields(solve(cfg, p_true)) for cfg, p_true in runs]
        step = solver.gauss_newton_step
        seen = []

        def fresh_step(p, cfg, r, work=None):
            seen.append(work)
            return step(p, cfg, r)

        monkeypatch.setattr(solver, "gauss_newton_step", fresh_step)
        fresh = [trace_fields(solve(cfg, p_true)) for cfg, p_true in runs]
        assert kept == fresh
        assert seen and all(isinstance(work, dict) for work in seen)


def reference_solve(cfg, p_true):
    """``solve``'s Gauss-Newton loop spelled with the public layers alone:
    an ``eval_psi`` residual at each iterate and a step without a
    workspace, which builds its own Jacobian rows."""
    trace = IterationTrace()
    p, k, pending_step_stop = cfg.initial, 0, False
    while True:
        r = residual(p, cfg)
        trace.residuals.append(norm(r))
        trace.param_errors.append(
            float(np.linalg.norm(p.flatten() - p_true.flatten())))
        if trace.residuals[-1] <= cfg.tol_residual:
            trace.status = solver.STATUS_CONVERGED_RESIDUAL
            break
        if pending_step_stop:
            trace.status = solver.STATUS_CONVERGED_STEP
            break
        if k >= cfg.max_iters:
            trace.status = solver.STATUS_MAX_ITERS
            break
        try:
            p, diag = gauss_newton_step(p, cfg, r)
        except RankDeficiencyError as exc:
            trace.status = solver.STATUS_RANK_DEFICIENT
            trace.rank_deficit = exc.deficit
            break
        trace.ranks.append(diag.rank)
        if diag.clamped:
            trace.boundary_events.append(k)
        trace.step_norms.append(diag.step_norm)
        k += 1
        pending_step_stop = diag.step_norm <= cfg.tol_step
    trace.final_params = p
    return trace


def fused_cases(dim, m, operator):
    """``(cfg, p_true)`` of free runs, a run clamped to a tight box and a
    run started at a duplicated unit, which stops rank deficient."""
    rng = np.random.default_rng(11)
    # at 3 units, psi from the alpha rows' transposed view without its
    # C-ordered copy would round otherwise than eval_psi
    runs = [problem(dim, m, operator, units, rng) for units in (1, 2, 3)]
    cfg, p_true = problem(dim, m, operator, 3, rng)
    runs.append((dataclasses.replace(cfg, param_box=(-2.0, 2.0)), p_true))
    base = sample_params(rng, 2, dim, box=(-5, 5), alpha_band=1.0)
    runs.append(problem(dim, m, operator, 3, rng, p=merge_duplicate(base)))
    return runs


class TestFusedIterate:
    @pytest.mark.parametrize("dim, m, operator", SHAPES)
    def test_a_solve_is_the_loop_of_public_steps(self, dim, m, operator):
        runs = fused_cases(dim, m, operator)
        traces = [solve(cfg, p_true) for cfg, p_true in runs]
        assert [trace_fields(trace) for trace in traces] == [
            trace_fields(reference_solve(cfg, p_true))
            for cfg, p_true in runs]
        assert traces[3].boundary_events
        assert traces[4].status == solver.STATUS_RANK_DEFICIENT

    @pytest.mark.parametrize("mode", [solver.MODE_GAUSS_NEWTON,
                                      solver.MODE_GRADIENT_DESCENT])
    @pytest.mark.parametrize("dim, m, operator", SHAPES)
    def test_one_jacobian_build_per_iterate_and_no_eval_psi(
            self, dim, m, operator, mode, monkeypatch):
        builds, evals = [], []

        def spy(record, fn):
            def wrapped(*args, **kwargs):
                record.append(1)
                return fn(*args, **kwargs)
            return wrapped

        runs = fused_cases(dim, m, operator)
        build, evaluate = network._jacobian_matrices, network.eval_psi
        for module in (network, solver):
            monkeypatch.setattr(module, "_jacobian_matrices",
                                spy(builds, build))
            monkeypatch.setattr(module, "eval_psi", spy(evals, evaluate))
        for cfg, p_true in runs:
            cfg = dataclasses.replace(cfg, mode=mode, max_iters=4)
            builds.clear()
            trace = solve(cfg, p_true)
            assert len(builds) == len(trace.residuals)
        assert evals == []


class TestLifetime:
    def test_the_steps_of_a_solve_share_one_workspace(self, monkeypatch):
        cfg, p_true = problem(2, 16, "gauss:0.05", 2,
                              np.random.default_rng(0))
        step = solver.gauss_newton_step
        arrays = []

        def spy(p, cfg, r, work=None):
            result = step(p, cfg, r, work)
            arrays.append({key: id(value) for key, value in work.items()})
            return result

        monkeypatch.setattr(solver, "gauss_newton_step", spy)
        solve(cfg, p_true)
        assert len(arrays) >= 2
        assert all(ids == arrays[0] for ids in arrays)

    def test_nothing_of_the_workspace_outlives_the_solve(self, monkeypatch):
        cfg, p_true = problem(2, 16, "gauss:0.05", 2,
                              np.random.default_rng(0))
        step = solver.gauss_newton_step
        refs = []

        def spy(p, cfg, r, work=None):
            result = step(p, cfg, r, work)
            refs.extend(weakref.ref(value) for value in work.values())
            return result

        monkeypatch.setattr(solver, "gauss_newton_step", spy)
        trace = solve(cfg, p_true)
        gc.collect()
        assert refs and trace.iterations > 0
        assert [ref() for ref in refs] == [None] * len(refs)

    def test_traced_memory_returns_to_its_level_before_the_solve(self):
        # 2-D, 48 x 48 nodes, 3 units: each held array of the 12 Jacobian
        # rows is 221 KB, the workspace (those rows and the 13 rows of the
        # augmented image) about 460 KB
        cfg, p_true = problem(2, 48, "gauss:0.05", 3,
                              np.random.default_rng(1))
        solve(cfg, p_true)  # warm every cache first
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            trace = solve(cfg, p_true)
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        rows_bytes = 8 * 12 * cfg.grid.node_count
        assert trace.iterations > 0
        assert peak - before > 2 * rows_bytes  # the workspace was there
        assert after - before < rows_bytes // 8  # and is gone


class TestFreshWithoutWorkspace:
    def setup_method(self):
        self.cfg, _ = problem(1, 32, "volterra", 2, np.random.default_rng(5))
        self.flat = self.cfg.initial.flatten()[None]

    def test_jacobian_rows_are_fresh_and_owned(self):
        first = jacobian_rows(self.flat, 2, 1, SIGMOID, self.cfg.grid)
        copy = first.copy()
        second = jacobian_rows(self.flat, 2, 1, SIGMOID, self.cfg.grid)
        assert first.flags.owndata and second.flags.owndata
        assert not np.shares_memory(first, second)
        second[...] = 0.0
        assert first.tobytes() == copy.tobytes()

    def test_jacobian_rows_into_out_are_the_fresh_ones(self):
        fresh = jacobian_rows(self.flat, 2, 1, SIGMOID, self.cfg.grid)
        out = np.full(fresh.shape, np.nan)
        assert jacobian_rows(self.flat, 2, 1, SIGMOID, self.cfg.grid,
                             out) is out
        assert out.tobytes() == fresh.tobytes()
        with pytest.raises(ShapeError, match="out must be a C-ordered array"):
            jacobian_rows(self.flat, 2, 1, SIGMOID, self.cfg.grid,
                          np.empty(fresh.shape[::-1]).T)

    @pytest.mark.parametrize("operator", OPERATORS)
    def test_apply_rows_is_fresh_and_owned(self, operator):
        forward = parse_operator(operator, self.cfg.grid)
        rows = jacobian_rows(self.flat, 2, 1, SIGMOID, self.cfg.grid)[0]
        first = forward.apply_rows(rows)
        copy = first.copy()
        second = forward.apply_rows(rows)
        assert not np.shares_memory(first, second)
        assert not np.shares_memory(first, rows)
        second[...] = 0.0
        assert first.tobytes() == copy.tobytes()

    def test_weighted_qr_factors_are_fresh_and_owned(self):
        grid = self.cfg.grid
        rows = jacobian_rows(self.flat, 2, 1, SIGMOID, grid)[0]
        first = weighted_qr(rows.T, grid)
        q = first.q_matrix.copy()
        second = weighted_qr(2.0 * rows.T, grid)
        assert not np.shares_memory(first.q_matrix, second.q_matrix)
        assert first.q_matrix.tobytes() == q.tobytes()


@pytest.mark.parametrize("dim, m, operator", [
    (1, 16, "identity"), (1, 16, "volterra"), (1, 16, "gauss:0.05"),
    (2, 8, "identity"), (2, 8, "gauss:0.05")])
@pytest.mark.parametrize("order", ["C", "F"])
def test_apply_rows_into_out_is_bitwise_without(dim, m, operator, order):
    grid = make_grid(dim, m)
    forward = parse_operator(operator, grid)
    rng = np.random.default_rng(m)
    for shape in ((grid.node_count,), (5, grid.node_count),
                  (2, 3, grid.node_count)):
        rows = np.asarray(rng.standard_normal(shape), order=order)
        out = np.full(shape, np.nan)
        assert forward.apply_rows(rows, out=out) is out
        assert out.tobytes() == forward.apply_rows(rows).tobytes()
    with pytest.raises(ShapeError, match="out must be a C-ordered array"):
        forward.apply_rows(rows, out=np.empty((1,) + rows.shape))


def test_held_reuses_an_array_of_its_shape_only():
    work = {}
    first = held(work, "a", (2, 3))
    assert held(work, "a", (2, 3)) is first
    other = held(work, "a", (3, 2))
    assert other is not first and work["a"] is other
    assert held(None, "a", (3, 2)) is not other
