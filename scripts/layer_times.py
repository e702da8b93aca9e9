"""Time the layers of a solve, the two probes and an independence pass in
two checkouts and print one table.

Usage, from anywhere:

    python3 scripts/layer_times.py PARENT_TREE CHANGE_TREE [--rounds 5]

The solve stages are the ROADMAP's layer-by-layer list, each timed as
one Gauss-Newton step runs it, on node-minor rows: ``eval_psi``,
``jacobian_rows`` (the Jacobian's rows at one point), ``apply_rows``
(``forward.apply_rows`` of those rows), ``step_image`` (the image the step
factors, ``forward.step_image`` of those rows and the residual into one
held workspace: the weighted rows ``√W·[F·J | r]``, except under the 2-D
Gaussian, where it is the ``(n* + 1) x k²`` image in the operator's
truncated eigenbasis; skipped in a tree older than that method),
``augmented_qr`` (the R-only ``np.linalg.qr`` of the F-ordered transpose
of the weighted rows ``√W·[F·J | r]``, NumPy's reference for the next
stage), ``householder_r`` (LAPACK's ``dgeqrf`` of those full weighted rows
in place, with its arrays held in one workspace; each call factors what
the last one left in the buffer, at the same flop count, so no copy is
timed; under the 2-D Gaussian the step itself now factors the smaller
``step_image``), ``solve_upper`` (the triangular solve of R's leading
block against the top of its last column), one
Gauss-Newton step, ``lipschitz_constants``, ``independence_svd`` (the
singular values of a transposed view of the weighted rows, NumPy's
reference for the next stage) and ``independence_qr_svd`` (those
singular values as ``independence_reports`` takes them past LAPACK's
QR-first crossover: ``householder_r`` of a held copy of the weighted
rows, again on what the last call left there, then the SVD of its
``n* x n*`` R).  The ``gauss_newton_step`` stage
calls the step without a workspace, so every array is fresh; the
``solve`` stage after it is a whole ``solve`` from the same start, at the
solver settings of ``gncoder solve``, whose steps share one workspace.
Each runs at two shapes, the solve configs of the benchmark:

- desk: 1-D, 64 nodes, N=2, ``volterra``, 24 constants samples;
- wide: 2-D, 256x256 nodes, N=3, ``gauss:0.05``, 8 constants samples.

``gncoder solve`` does not call ``lipschitz_constants``; only ``gncoder
mysovskii`` does.  The ``lipschitz_constants`` stage still times it at
these shapes and sample counts: a layer that neither solve job runs, so
the ``cli_main`` stages below do not include it.

Each of the two shapes ends with one more stage, ``cli_main``: one
in-process ``gncoder.cli.main(["solve", "--config", ...])`` at that
config, writing into a temporary directory, as a benchmark job calls it.
It is the whole job, argument parsing and output files included, and
like a benchmark job after the first it finds the forward operator
already built in the process.

A third shape, probes, times the whole ``cone_check`` and
``mysovskii_check`` calls at the benchmark's probes configs (1-D, N=2,
``volterra``; cone on 6 nodes with its three ``t_values``, mysovskii on 64
nodes with its 20 probes), drawn as ``gncoder cone`` and ``gncoder
mysovskii`` draw them at seed 0.  Its ``mysovskii_refused`` stage times
``mysovskii_check`` on the draw of seed 110, until it raises
``RankDeficiencyError`` at the probe whose derivative at ``p`` has rank
5 < 6 (one of ``scripts/output_set.py``'s refused seeds).

Every stage calls the API that both trees share from commit ``fae5941``
on.  In an older tree a stage that raises ``TypeError`` or
``AttributeError`` is reported as skipped and the others still run; a
stage skipped in one tree prints ``skipped in a tree`` on that side, the
other side's times, and no ratios.  ``augmented_qr`` is NumPy alone, so it
runs in any tree, also in one whose step still factors by Gram-Schmidt
(``weighted_qr`` and ``pinv_apply``) and so never makes that call;
``householder_r`` and ``independence_qr_svd`` are skipped in a tree older
than the in-place factorization.

A fourth shape, independence, runs first and has one stage,
``independence_pass``: the benchmark's independence config (2-D, 64x64
nodes, N=3, ``sigmoid:1``), 100 trials at seed 0, drawn and assessed as
``gncoder independence`` does: one ``independence_reports`` call on the
stack of the trials' draws.

A fifth shape, fresh, runs last and times whole fresh processes of the
tree: ``import_cli`` is ``python -c "import gncoder.cli"`` and
``solve_default`` is ``python -m gncoder.cli solve`` at its defaults,
writing into a temporary directory.  This is the end-to-end time of a
``gncoder`` command, import included.  Its faults column counts only the
worker's own faults, not the child's.

Every round runs each tree in its own subprocess (this script in worker
mode, with that tree's ``src/`` first on ``sys.path``): the parent first in
even rounds, the change first in odd ones.  A worker times each stage with
``timeit``, at a call count that takes at least 0.2 s, best of 3, and
counts the minor page faults (``ru_minflt``) over those timed calls.  The
table shows, per stage and tree, the best and the median per-call time
over the rounds and their spread (the range over the median), and the
change's ratio to the parent of the best and of the median: a median ratio
far from the best one marks a stage the host's noise moves.  A faults
column after each tree's times gives its median minor faults per call: an
allocation that the kernel must fault in afresh on every call shows there.
Nothing is written to either tree.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from functools import partial
from pathlib import Path


def solve_calls(dim, points_per_axis, units, operator, samples):
    """``{stage: zero-argument callable}`` at one solve shape, built with
    the imported tree's public API the way ``gncoder solve`` builds its
    run."""
    import numpy as np

    from gncoder import pseudoinverse  # householder_r, absent in older trees
    from gncoder.activations import parse_activation
    from gncoder.cli import SolveOptions, synth_problem
    from gncoder.grids import make_grid
    from gncoder.network import eval_psi, jacobian_rows, lipschitz_constants
    from gncoder.operators import parse_operator
    from gncoder.params import Params
    from gncoder.pseudoinverse import _solve_upper
    from gncoder.sampling import unit_direction
    from gncoder.solver import SolveConfig, gauss_newton_step, solve

    opts = SolveOptions(units=units, dim=dim, points_per_axis=points_per_axis,
                        operator=operator, constants_samples=samples)
    grid = make_grid(dim, points_per_axis)
    activation = parse_activation(opts.activation)
    forward = parse_operator(operator, grid)
    p_true, data = synth_problem(opts, activation, forward)
    direction = unit_direction(np.random.default_rng(1), p_true.n_star)
    flat0 = p_true.flatten() + opts.p0_radius * direction
    p0 = Params.from_flat(flat0, units, dim)
    cfg = SolveConfig(activation, grid, forward, p0, data)
    solve_cfg = SolveConfig(activation, grid, forward, p0, data, **{
        key: getattr(opts, key) for key in (
            "max_iters", "tol_residual", "tol_step", "rank_tol", "mode",
            "step_size", "param_box")})
    residual = forward.apply(eval_psi(p0, activation, grid)) - data
    rows = jacobian_rows(flat0[None], units, dim, activation, grid)[0]
    n = p0.n_star
    augmented = np.concatenate([forward.apply_rows(rows), [residual.values]])
    augmented *= np.sqrt(forward.out_grid.weights)
    r = np.linalg.qr(augmented.T, mode="r")
    factored, work, image_work = augmented.copy(), {}, {}
    weighted = rows * np.sqrt(grid.weights)
    weighted_factored, independence_work = weighted.copy(), {}
    radius = opts.constants_ball_factor * opts.p0_radius
    return {
        "eval_psi": lambda: eval_psi(p0, activation, grid),
        "jacobian_rows": lambda: jacobian_rows(flat0[None], units, dim,
                                               activation, grid),
        "apply_rows": lambda: forward.apply_rows(rows),
        "step_image": lambda: forward.step_image(rows, residual.values,
                                                 image_work),
        "augmented_qr": lambda: np.linalg.qr(augmented.T, mode="r"),
        "householder_r": lambda: pseudoinverse.householder_r(factored, work),
        "solve_upper": lambda: _solve_upper(r[:n, :n], r[:n, n]),
        "gauss_newton_step": lambda: gauss_newton_step(p0, cfg, residual),
        "solve": lambda: solve(solve_cfg),
        "lipschitz_constants": lambda: lipschitz_constants(
            p_true, activation, grid, radius=radius, samples=samples, seed=0,
            box=opts.param_box),
        "independence_svd": lambda: np.linalg.svd(weighted.T, compute_uv=False),
        "independence_qr_svd": lambda: np.linalg.svd(
            pseudoinverse.householder_r(weighted_factored, independence_work),
            compute_uv=False),
    }


#: The benchmark's solve-desk and solve-wide configs.
DESK = {"units": 2, "dim": 1, "points_per_axis": 64, "operator": "volterra",
        "constants_samples": 24}
WIDE = {"units": 3, "dim": 2, "points_per_axis": 256, "operator": "gauss:0.05",
        "constants_samples": 8}


def job_calls(config):
    """The solve stages at ``config``, then ``cli_main``: a whole in-process
    ``gncoder solve`` at that config, writing into a temporary directory
    that lives as long as the stage."""
    import shutil
    import tempfile
    import weakref

    from gncoder import cli

    calls = solve_calls(config["dim"], config["points_per_axis"],
                        config["units"], config["operator"],
                        config["constants_samples"])
    tmp = tempfile.mkdtemp()
    path = Path(tmp) / "config.json"
    path.write_text(json.dumps(config))

    def cli_main():
        if cli.main(["solve", "--config", str(path), "--out", tmp]) != 0:
            raise RuntimeError(f"the solve at {config} did not exit 0")

    weakref.finalize(cli_main, shutil.rmtree, tmp, ignore_errors=True)
    return {**calls, "cli_main": cli_main}


def probe_calls():
    """``{stage: zero-argument callable}`` for the probes shape: the cone
    and mysovskii checks at the benchmark's probes configs, their points
    drawn at seed 0 as the ``cone`` and ``mysovskii`` subcommands draw
    them."""
    import numpy as np

    from gncoder.activations import parse_activation
    from gncoder.cli import ConeOptions, MysovskiiOptions
    from gncoder.diagnostics import cone_check, mysovskii_check
    from gncoder.exceptions import RankDeficiencyError
    from gncoder.grids import make_grid
    from gncoder.operators import parse_operator
    from gncoder.sampling import sample_params, unit_direction

    def parts(opts, seed):
        grid = make_grid(opts.dim, opts.points_per_axis)
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        return (grid, parse_activation(opts.activation),
                parse_operator(opts.operator, grid), rng,
                sample_params(rng, opts.units, opts.dim, box=opts.box,
                              alpha_band=opts.alpha_band))

    cone = ConeOptions(units=2, dim=1, points_per_axis=6, operator="volterra")
    grid, act, forward, rng, p1 = parts(cone, 0)
    direction = unit_direction(rng, p1.n_star)
    p2s = np.array([p1.flatten() + t * direction for t in cone.t_values])

    mys = MysovskiiOptions(units=2, dim=1, points_per_axis=64,
                           operator="volterra")

    def mysovskii_draw(seed):
        """``mysovskii_check`` with its arguments bound, on seed's draw."""
        m_grid, m_act, m_forward, m_rng, base = parts(mys, seed)
        probes = []
        for _ in range(mys.probes):
            p = base.flatten() + mys.jitter * unit_direction(m_rng, base.n_star)
            q = p + mys.segment_radius * unit_direction(m_rng, base.n_star)
            probes.append((p, q, (float(m_rng.uniform(0.05, 1.0)),)))
        return partial(mysovskii_check, probes, mys.units, mys.dim, m_act,
                       m_grid, m_forward)

    refused_check = mysovskii_draw(110)

    def refused():
        try:
            refused_check()
        except RankDeficiencyError:
            return
        raise AssertionError("the seed 110 draw was not refused")

    return {
        "cone_check": lambda: cone_check(p1, p2s, act, grid, forward),
        "mysovskii_check": mysovskii_draw(0),
        "mysovskii_refused": refused,
    }


def independence_calls():
    """``{stage: zero-argument callable}`` for the independence shape: the
    benchmark's independence config at seed 0, each trial's parameters
    drawn as ``independence_trial`` draws them."""
    import numpy as np

    from gncoder.activations import parse_activation
    from gncoder.cli import IndependenceOptions
    from gncoder.diagnostics import independence_reports
    from gncoder.grids import make_grid
    from gncoder.sampling import sample_params

    opts = IndependenceOptions(units=3, dim=2, points_per_axis=64, trials=100)
    grid = make_grid(opts.dim, opts.points_per_axis)
    activation = parse_activation(opts.activation)
    seeds = [opts.seed + index for index in range(opts.trials)]

    def independence_pass():
        points = np.array([sample_params(
            np.random.default_rng(seed), opts.units, opts.dim, box=opts.box,
            alpha_band=opts.alpha_band, allow_zero_alpha=opts.allow_zero_alpha,
        ).flatten() for seed in seeds])
        return independence_reports(points, opts.units, opts.dim, activation,
                                    grid, opts.rank_tol, seeds)

    return {"independence_pass": independence_pass}


def fresh_calls():
    """``{stage: zero-argument callable}`` for the fresh shape: a fresh
    interpreter of the imported tree that imports ``gncoder.cli``, and one
    that runs a default ``solve`` into a temporary directory."""
    import os
    import tempfile

    import gncoder

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(gncoder.__file__).parents[1]),
                    env.get("PYTHONPATH")) if p)

    def fresh(*args):
        with tempfile.TemporaryDirectory() as tmp:
            subprocess.run([sys.executable, *args], cwd=tmp, env=env,
                           check=True, capture_output=True)

    return {"import_cli": partial(fresh, "-c", "import gncoder.cli"),
            "solve_default": partial(fresh, "-m", "gncoder.cli", "solve",
                                     "--out", "out")}


#: shape -> builder of its ``{stage: callable}``, in the order a worker
#: runs them.  The independence shape runs first:
#: once the process has freed the wide shape's larger arrays, the allocator
#: stops mapping each fresh 393 KB Jacobian anew, so a tree that allocates
#: one per trial would not show the faults it takes in a fresh ``gncoder
#: independence`` job.
SHAPES = {
    "independence": independence_calls,
    "desk": partial(job_calls, DESK),
    "wide": partial(job_calls, WIDE),
    "probes": probe_calls,
    "fresh": fresh_calls,
}


def worker(src: Path) -> None:
    """Print ``{shape: {stage: [seconds, minor faults] per call}}`` for the
    tree at ``src``, ``None`` for a stage whose call does not fit this
    tree's signatures."""
    import resource
    import timeit

    sys.path.insert(0, str(src))
    import gncoder

    if Path(gncoder.__file__).resolve().parent != (src / "gncoder").resolve():
        sys.exit(f"error: imported gncoder from {gncoder.__file__}, not {src}")
    times = {}
    for shape, calls in SHAPES.items():
        times[shape] = {}
        for stage, call in calls().items():
            timer = timeit.Timer(call)
            try:
                number, _ = timer.autorange()
            except (TypeError, AttributeError) as exc:
                print(f"{shape} {stage} skipped: {type(exc).__name__}: {exc}",
                      file=sys.stderr)
                times[shape][stage] = None
                continue
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            best = min(timer.repeat(3, number)) / number
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
            times[shape][stage] = [best, faults / (3 * number)]
    print(json.dumps(times))


def run_worker(tree: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, __file__, "--worker", str(tree / "src")],
        capture_output=True, text=True, timeout=1800,
    )
    if proc.returncode != 0:
        sys.exit(f"error: worker for {tree} exited {proc.returncode}\n"
                 f"{proc.stderr.strip()[-2000:]}")
    sys.stderr.write(proc.stderr)  # each skipped stage, with its error
    return json.loads(proc.stdout.strip().splitlines()[-1])


def fmt(seconds: float) -> str:
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.2f} ms"
    return f"{seconds * 1e6:.1f} us"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, nargs="?", help="checkout of the parent")
    parser.add_argument("change", type=Path, nargs="?", help="checkout of the change")
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker is not None:
        worker(args.worker.resolve())
        return 0
    if args.parent is None or args.change is None:
        parser.error("PARENT_TREE and CHANGE_TREE are required")
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for tree in trees.values():
        if not (tree / "src" / "gncoder").is_dir():
            parser.error(f"no src/gncoder under {tree}")

    # (shape, stage) -> per round: [seconds, minor faults] per call, or None
    times = {side: {} for side in trees}
    for k in range(args.rounds):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for side in order:
            for shape, stages in run_worker(trees[side]).items():
                for stage, cell in stages.items():
                    times[side].setdefault((shape, stage), []).append(cell)
        print(f"round {k + 1} of {args.rounds} done ({order[0]} first)",
              file=sys.stderr, flush=True)

    print(f"per call over {args.rounds} interleaved rounds: best and median "
          f"time, spread (range / median), median minor faults")
    print(f"{'shape':12} {'stage':20} {'parent best':>12} {'median':>10} "
          f"{'spread':>7} {'faults':>8} {'change best':>12} {'median':>10} "
          f"{'spread':>7} {'faults':>8} {'ratio':>7} {'median':>7}")
    for shape, stage in times["parent"]:
        sides = times["parent"][(shape, stage)], times["change"][(shape, stage)]
        cells = ""
        for side in sides:  # a side that skipped the stage prints no times
            if None in side:
                cells += f" {'skipped':>12} {'in a tree':>10} {'-':>7} {'-':>8}"
                continue
            seconds = [cell[0] for cell in side]
            mid = statistics.median(seconds)
            spread = (max(seconds) - min(seconds)) / mid
            faults = statistics.median(cell[1] for cell in side)
            cells += (f" {fmt(min(seconds)):>12} {fmt(mid):>10} "
                      f"{spread:7.1%} {faults:8.1f}")
        if None not in sides[0] + sides[1]:
            best = [min(cell[0] for cell in side) for side in sides]
            median = [statistics.median(cell[0] for cell in side)
                      for side in sides]
            cells += f" {best[1] / best[0]:7.3f} {median[1] / median[0]:7.3f}"
        print(f"{shape:12} {stage:20}{cells}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
