import argparse
import csv
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gncoder import cli, diagnostics, network, solver
from gncoder.diagnostics import independence_trial
from gncoder.activations import parse_activation
from gncoder.cli import (
    _COMMANDS,
    Box,
    Coefficients,
    Floats,
    IndependenceOptions,
    SolveOptions,
    _build_parser,
    _config_hash,
    _load_config_file,
    _options,
    _public_config,
    main,
    synth_problem,
)
from gncoder.grids import make_grid, norm
from gncoder.network import eval_psi
from gncoder.operators import parse_operator

ROOT = Path(__file__).resolve().parents[1]

def run(args):
    return main([str(a) for a in args])


def files_in(path):
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


def solve_parts(opts):
    """The activation and forward operator a solve job builds once."""
    grid = make_grid(opts.dim, opts.points_per_axis)
    return parse_activation(opts.activation), parse_operator(opts.operator, grid)


class TestSolveCommand:
    def test_happy_path_writes_trace_and_metadata(self, tmp_path):
        cfg = {"seed": 19, "p0_radius": 0.3, "max_iters": 12}
        config_path = tmp_path / "bench.json"
        config_path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert run(["solve", "--config", config_path, "--out", out]) == 0
        traces = list(out.glob("solve_*_seed19.trace.csv"))
        metas = list(out.glob("solve_*_seed19.meta.json"))
        assert len(traces) == 1 and len(metas) == 1
        meta = json.loads(metas[0].read_text())
        assert meta["status"] == "converged_residual"
        assert meta["final_param_error"] < 1e-10
        # Θ_0 < 1/2 and falling fast, as a converging run's contractions do
        contractions = meta["step_contractions"]
        assert len(contractions) == meta["iterations"] - 1
        assert contractions[0] < 0.5
        assert contractions == sorted(contractions, reverse=True)
        assert meta["p_true"]["N"] == 2
        header = traces[0].read_text().splitlines()[0]
        assert header == "iter,residual,step_norm,param_error,rank,status"

    def test_solve_never_samples_the_convergence_constants(
        self, tmp_path, monkeypatch
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("solve sampled the convergence constants")

        monkeypatch.setattr(cli, "lipschitz_constants", refuse)
        monkeypatch.setattr(network, "lipschitz_constants", refuse)
        for seed in (0, 5):  # converged and rank deficient
            out = tmp_path / str(seed)
            assert run(["solve", "--seed", seed, "--out", out]) == 0
            meta = json.loads(next(out.glob("*.meta.json")).read_text())
            assert not {"constants", "constants_error",
                        "radius_satisfied"} & meta.keys()

    @pytest.mark.parametrize("args", [
        ["--seed", 1], ["--seed", 5], ["--seed", 7], ["--seed", 19],
        ["--max-iters", 1], ["--mode", "gradient_descent", "--max-iters", 3],
    ])
    def test_step_contractions_are_the_ratios_of_the_trace_step_norms(
        self, tmp_path, args
    ):
        out = tmp_path / "out"
        assert run(["solve", *args, "--out", out]) == 0
        meta = json.loads(next(out.glob("*.meta.json")).read_text())
        with open(next(out.glob("*.trace.csv")), newline="") as fh:
            norms = [float(row["step_norm"]) for row in csv.DictReader(fh)
                     if row["step_norm"]]
        assert meta["step_contractions"] == [
            b / a for a, b in zip(norms, norms[1:])]
        if len(norms) < 2:
            assert meta["step_contractions"] == []
        assert all(map(math.isfinite, meta["step_contractions"]))

    def test_an_oversized_constants_samples_is_accepted_and_unused(
        self, tmp_path
    ):
        # 3000 samples once needed a Gram screen of gigabytes and exited 1;
        # solve no longer samples, so the value is only recorded and hashed
        cfg = {"points_per_axis": 16}
        outs = []
        for samples in (3000, 24):
            config = write_config(tmp_path, f"s{samples}",
                                  {**cfg, "constants_samples": samples})
            outs.append(tmp_path / str(samples))
            assert run(["solve", "--config", config, "--out", outs[-1]]) == 0
        metas = [json.loads(next(out.glob("*.meta.json")).read_text())
                 for out in outs]
        assert metas[0]["config"]["constants_samples"] == 3000
        assert metas[0]["config_hash"] != metas[1]["config_hash"]
        for meta in metas:
            del meta["config"], meta["config_hash"]
        assert metas[0] == metas[1]
        traces = [next(out.glob("*.trace.csv")).read_bytes() for out in outs]
        assert traces[0] == traces[1]

    def test_missing_config_exits_one_and_names_path(self, tmp_path, capsys):
        code = run(["solve", "--config", tmp_path / "absent.json"])
        assert code == 1
        assert "absent.json" in capsys.readouterr().err

    def test_malformed_config_exits_one(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run(["solve", "--config", bad]) == 1
        unknown = tmp_path / "unknown.json"
        unknown.write_text(json.dumps({"volume": 11}))
        assert run(["solve", "--config", unknown]) == 1

    def test_unknown_subcommand_exits_one(self, capsys):
        assert run(["transmogrify"]) == 1
        assert "usage" in capsys.readouterr().err.lower()


class TestOneOperatorPerProcess:
    """Jobs in one process share the forward operator of their descriptor
    and grid, built by the first of them."""

    #: the ``solve_gauss2d`` case of ``tests/test_reference.py``
    CONFIG = {"dim": 2, "points_per_axis": 16, "operator": "gauss:0.1",
              "constants_samples": 4}

    def test_identical_solves_build_once_and_write_the_same_files(
        self, tmp_path, monkeypatch
    ):
        built = []

        def counted(text, grid):
            built.append(text)
            return parse_operator(text, grid)

        monkeypatch.setattr(cli, "parse_operator", counted)
        cli._operator.cache_clear()
        config = write_config(tmp_path, "gauss2d", self.CONFIG)
        outs = [tmp_path / name for name in ("a", "b", "c")]
        for out in outs[:2]:
            assert run(["solve", "--config", config, "--out", out]) == 0
        assert built == ["gauss:0.1"]
        assert cli._operator.cache_info().hits == 1
        cli._operator.cache_clear()  # a cold build writes the same bytes
        assert run(["solve", "--config", config, "--out", outs[2]]) == 0
        assert built == ["gauss:0.1"] * 2
        assert files_in(outs[0]) == files_in(outs[1]) == files_in(outs[2])

    #: command -> (the name it calls in ``cli`` with its grid and operator,
    #: which of that call's arguments they are)
    GRID_USERS = {
        "solve": ("solve", lambda cfg, **_: (cfg.grid, cfg.forward)),
        "cone": ("cone_check", lambda p1, p2s, act, grid, fwd, **_:
                 (grid, fwd)),
        "mysovskii": ("mysovskii_reports",
                      lambda probes, units, dim, act, grid, fwd, **_:
                      (grid, fwd)),
    }

    @pytest.mark.parametrize("command", GRID_USERS)
    def test_jobs_run_on_the_grid_of_the_cached_operator(
        self, tmp_path, monkeypatch, command
    ):
        name, grid_and_forward = self.GRID_USERS[command]
        real, seen = getattr(cli, name), []

        def spy(*args, **kwargs):
            seen.append(grid_and_forward(*args, **kwargs))
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, name, spy)
        cli._operator.cache_clear()
        for out in ("a", "b"):
            assert run([command, "--seed", 0, "--out", tmp_path / out]) == 0
        (first_grid, forward), (second_grid, second_forward) = seen
        assert second_forward is forward
        assert first_grid is forward.in_grid
        assert second_grid is forward.in_grid
        assert files_in(tmp_path / "a") == files_in(tmp_path / "b")

    def test_config_hashes_and_file_names_are_the_recorded_ones(self,
                                                                tmp_path):
        reference = json.loads((ROOT / "tests" / "reference"
                                / "solve_gauss2d.meta.json").read_text())
        digest = reference["config_hash"]
        config = write_config(tmp_path, "gauss2d", self.CONFIG)
        for out in (tmp_path / "a", tmp_path / "b"):
            assert run(["solve", "--config", config, "--out", out]) == 0
            assert sorted(files_in(out)) == [f"solve_{digest}_seed0.meta.json",
                                             f"solve_{digest}_seed0.trace.csv"]
            meta = json.loads(
                (out / f"solve_{digest}_seed0.meta.json").read_text())
            assert meta["config_hash"] == digest
            assert (meta["operator_condition_number"]
                    == reference["operator_condition_number"])

    @pytest.mark.parametrize("command", ["solve", "cone", "mysovskii"])
    @pytest.mark.parametrize("descriptor", ["radon", "gauss:inf", "gauss:-1"])
    def test_a_refused_descriptor_exits_one_at_every_call(
        self, tmp_path, capsys, command, descriptor
    ):
        config = write_config(tmp_path, "bad", {"operator": descriptor})
        cached = cli._operator.cache_info().currsize
        for _ in range(2):
            assert run([command, "--config", config,
                        "--out", tmp_path / "out"]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: operator: ")
            assert len(err.strip().splitlines()) == 1
        assert cli._operator.cache_info().currsize == cached
        assert not (tmp_path / "out").exists()


class TestDeterminism:
    def test_solve_rerun_is_bitwise_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run(["solve", "--seed", 19, "--out", out]) == 0
        assert files_in(a) == files_in(b)

    def test_independence_rerun_is_bitwise_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["independence", "--trials", 8, "--seed", 7,
                "--points-per-axis", 32]
        assert run(args + ["--out", a]) == 0
        assert run(args + ["--out", b]) == 0
        assert files_in(a) == files_in(b)

    def test_manifold_rerun_is_bitwise_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run(["manifold", "--resolution", 31, "--out", out]) == 0
        assert files_in(a) == files_in(b)


#: command -> its arguments for a small run
SMALL_RUNS = {
    "solve": [],
    "independence": ["--trials", 2, "--points-per-axis", 16],
    "cone": [],
    "mysovskii": ["--probes", 2],
    "manifold": ["--resolution", 11],
    "check-derivatives": [],
}


@pytest.mark.parametrize("command", SMALL_RUNS)
def test_a_job_hashes_its_config_and_spawns_its_streams_once(
        command, tmp_path, monkeypatch):
    calls = {"_config_hash": 0, "_spawn_rngs": 0}

    def counted(name):
        real = getattr(cli, name)

        def spy(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return spy

    for name in calls:
        monkeypatch.setattr(cli, name, counted(name))
    assert run([command, *SMALL_RUNS[command], "--out", tmp_path]) == 0
    assert calls == {"_config_hash": 1,
                     "_spawn_rngs": int(command == "solve")}


class TestIndependenceCommand:
    def test_writes_one_report_per_trial(self, tmp_path):
        out = tmp_path / "out"
        assert run([
            "independence", "--trials", 6, "--seed", 3,
            "--points-per-axis", 32, "--out", out,
        ]) == 0
        reports = list(out.glob("independence_*.reports.jsonl"))[0]
        lines = [json.loads(line) for line in reports.read_text().splitlines()]
        assert len(lines) == 6
        assert [r["trial"] for r in lines] == list(range(6))
        assert [r["seed"] for r in lines] == [3 + i for i in range(6)]
        meta = json.loads(
            list(out.glob("independence_*.meta.json"))[0].read_text()
        )
        assert meta["degenerate_count"] == 0

    def test_a_report_below_full_rank_is_degenerate(self, tmp_path):
        # one ReLU unit in dimension 1: a dead draw has an all-zero
        # Jacobian (rank 0), a live one a dependent alpha column (rank 2)
        out = tmp_path / "out"
        assert run(["independence", "--activation", "relu", "--units", 1,
                    "--dim", 1, "--trials", 50, "--out", out]) == 0
        rows = [json.loads(line) for line in
                next(out.glob("*.reports.jsonl")).read_text().splitlines()]
        assert len(rows) == 50
        assert all(row["degenerate"] == (row["rank"] < 3) for row in rows)
        assert {row["rank"] for row in rows} == {0, 2}
        meta = json.loads(next(out.glob("*.meta.json")).read_text())
        assert meta["degenerate_count"] == 50

    def test_each_report_is_the_trial_at_its_seed(self, tmp_path):
        out = tmp_path / "out"
        assert run([
            "independence", "--trials", 4, "--seed", 5, "--units", 2,
            "--points-per-axis", 16, "--out", out,
        ]) == 0
        reports = list(out.glob("independence_*.reports.jsonl"))[0]
        grid = make_grid(2, 16)
        assert [json.loads(line) for line in reports.read_text().splitlines()] == [
            dict(independence_trial(parse_activation("sigmoid:1"), 2, 2, grid,
                                    box=(-5.0, 5.0), seed=5 + i,
                                    alpha_band=0.05).to_json_dict(), trial=i)
            for i in range(4)]


class TestConeCommand:
    def test_reports_cover_all_perturbation_sizes(self, tmp_path):
        out = tmp_path / "out"
        assert run(["cone", "--seed", 0, "--out", out]) == 0
        reports = list(out.glob("cone_*.reports.jsonl"))[0]
        lines = [json.loads(line) for line in reports.read_text().splitlines()]
        assert [r["t"] for r in lines] == [1e-2, 1e-3, 1e-4]
        meta = json.loads(list(out.glob("cone_*.meta.json"))[0].read_text())
        assert meta["max_decomposition_residual"] < 1e-6


class TestMysovskiiCommand:
    def test_reports_and_cross_estimate(self, tmp_path):
        out = tmp_path / "out"
        config = tmp_path / "mys.json"
        config.write_text(json.dumps({
            "base_params": {
                "N": 2, "n": 1,
                "alpha": [12.0, -12.0], "w": [[3.0], [-3.0]],
                "theta": [-0.9, 2.1],
            },
            "probes": 6,
            "seed": 5,
        }))
        assert run(["mysovskii", "--config", config, "--out", out]) == 0
        meta = json.loads(
            list(out.glob("mysovskii_*.meta.json"))[0].read_text()
        )
        assert meta["max_bound_ratio"] > 0
        assert meta["ratio_over_product"] < 1.2
        lines = list(out.glob("mysovskii_*.reports.jsonl"))[0].read_text()
        assert len(lines.splitlines()) == 6


#: the benchmark's probes config of mysovskii
PROBES_CONFIG = {"units": 2, "dim": 1, "points_per_axis": 64,
                 "operator": "volterra", "constants_samples": 32}


def write_config(tmp_path, name, cfg):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg))
    return path


class TestProbeChunks:
    """The probes are checked in chunks under ``network.CHUNK_BYTES``;
    the chunk size changes no output bit."""

    RUNS = [
        ("mysovskii", {}),
        ("mysovskii", {"operator": "gauss:0.05", "probes": 7, "seed": 3}),
        ("mysovskii", {"units": 1, "probes": 25, "seed": 4}),
        ("mysovskii", {"activation": "tanh", "dim": 2, "points_per_axis": 8,
                       "operator": "identity", "probes": 9, "seed": 5}),
        ("cone", {}),
        ("cone", {"dim": 2, "points_per_axis": 8, "operator": "gauss:0.1",
                  "t_values": [0.1, 0.01, 0.001, 1e-4, 1e-5]}),
        ("cone", {"activation": "tanh", "units": 3, "points_per_axis": 16,
                  "operator": "identity", "t_values": [0.5, 0.1, 0.01]}),
    ]

    @pytest.mark.parametrize("run_index", range(len(RUNS)))
    def test_outputs_do_not_depend_on_the_chunk_size(
        self, tmp_path, monkeypatch, run_index
    ):
        command, cfg = self.RUNS[run_index]
        config = write_config(tmp_path, "cfg", cfg)
        outputs = []
        for budget in (network.CHUNK_BYTES, 1, 2**40):
            monkeypatch.setattr(network, "CHUNK_BYTES", budget)
            out = tmp_path / f"out{budget}"
            assert run([command, "--config", config, "--out", out]) == 0
            outputs.append(files_in(out))
        assert len(outputs[0]) == 2
        assert outputs[0] == outputs[1] == outputs[2]

    @pytest.mark.parametrize("budget", [None, 1])
    def test_a_deficient_probe_mid_run_exits_two_and_writes_nothing(
        self, tmp_path, monkeypatch, capsys, budget
    ):
        # seed 362 draws a rank-deficient probe at index 10 of 20: inside
        # the one chunk, or after ten chunks of one were written into the
        # new output directory
        if budget is not None:
            monkeypatch.setattr(network, "CHUNK_BYTES", budget)
        config = write_config(tmp_path, "probes", PROBES_CONFIG)
        out = tmp_path / "out"
        code = run(["mysovskii", "--config", config, "--seed", 362,
                    "--out", out])
        assert code == 2
        assert capsys.readouterr().err == (
            "numeric error: derivative at p has rank 5 < 6\n")
        assert not out.exists()

    def test_memory_stays_flat_in_the_probe_count(self, tmp_path, monkeypatch):
        # about twenty probes a chunk, so both runs hold chunks of one size
        monkeypatch.setattr(network, "CHUNK_BYTES", 2**18)
        peaks = []
        for probes in (20, 2000):
            tracemalloc.start()
            try:
                code = run(["mysovskii", "--probes", probes,
                            "--out", tmp_path / str(probes)])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert code == 0
        assert peaks[1] < 1.05 * peaks[0], peaks

    def test_a_chunk_stays_near_its_byte_budget(self, monkeypatch):
        # eight segment points a probe: the stacked directional derivatives
        # are most of a chunk, and a per-probe estimate that left them out
        # would let a chunk hold about four times the budget
        monkeypatch.setattr(network, "CHUNK_BYTES", 2**20)
        grid = make_grid(1, 64)
        forward = parse_operator("identity", grid)
        activation = parse_activation("sigmoid:1")
        base = np.array([3.0, 1.0, 0.1])
        rng = np.random.default_rng(0)

        def probes():
            for _ in range(400):
                p = base + 0.05 * rng.standard_normal(3)
                q = p + 0.2 * rng.standard_normal(3)
                yield p, q, tuple(np.linspace(0.1, 1.0, 8))

        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            count = sum(1 for _ in diagnostics.mysovskii_reports(
                probes(), 1, 1, activation, grid, forward))
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert count == 400
        assert peak < 1.5 * network.CHUNK_BYTES, peak


class TestConstantsRefusedFirst:
    """A config whose Lipschitz sample stack is refused exits 1 before any
    Mysovskii probe runs; ``solve`` samples no constants."""

    @pytest.mark.parametrize("command", ["mysovskii"])
    def test_refused_before_the_work(
        self, tmp_path, monkeypatch, capsys, command
    ):
        calls = []

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(solver, "gauss_newton_step", counting(
            "step", solver.gauss_newton_step))
        monkeypatch.setattr(diagnostics, "mysovskii_check", counting(
            "probe", diagnostics.mysovskii_check))
        config = write_config(tmp_path, "big", {
            "points_per_axis": 1_000_000, "constants_samples": 48})
        out = tmp_path / "out"
        assert run([command, "--config", config, "--out", out]) == 1
        assert capsys.readouterr().err == (
            "error: constants_samples 48 needs a 2.1 GiB sample stack on "
            "1000000 nodes, over the 1 GiB limit\n")
        assert calls == []
        assert not out.exists()


class TestExitCodes:
    def test_numeric_failure_exits_two(self, tmp_path, capsys):
        # a dead unit makes the derivative rank deficient at the base point
        config = tmp_path / "mys.json"
        config.write_text(json.dumps({
            "base_params": {
                "N": 2, "n": 1,
                "alpha": [0.0, 1.0], "w": [[1.0], [2.0]],
                "theta": [0.1, 0.2],
            },
            "jitter": 0.0,
            "probes": 1,
        }))
        code = run(["mysovskii", "--config", config, "--out", tmp_path / "o"])
        assert code == 2
        assert "rank" in capsys.readouterr().err

    def test_duplicated_unit_exits_two_naming_the_rank(self, tmp_path, capsys):
        config = tmp_path / "mys.json"
        config.write_text(json.dumps({"base_params": {
            "N": 2, "n": 1, "alpha": [1, 1], "w": [[1], [1]],
            "theta": [0.5, 0.5]}}))
        code = run(["mysovskii", "--config", config, "--out", tmp_path / "o"])
        assert code == 2
        assert capsys.readouterr().err == (
            "numeric error: derivative at p has rank 5 < 6\n")

    @pytest.mark.parametrize("command, cfg, message", [
        ("cone", {"activation": "relu", "units": 1},
         "derivative at p1 has rank 0 < 3"),
        ("mysovskii", {"activation": "relu", "units": 1, "probes": 2},
         "derivative at p has rank 0 < 3"),
    ])
    def test_a_zero_jacobian_exits_two_at_rank_0(
        self, tmp_path, capsys, command, cfg, message
    ):
        # every ReLU unit of the seed-0 draw is dead on the grid
        config = write_config(tmp_path, command, cfg)
        out = tmp_path / "out"
        assert run([command, "--config", config, "--seed", 0,
                    "--out", out]) == 2
        assert capsys.readouterr().err == f"numeric error: {message}\n"
        assert not out.exists()

    def test_a_rank_tolerance_of_2_reports_a_rank_deficient_solve(
        self, tmp_path
    ):
        config = write_config(tmp_path, "solve", {"rank_tol": 2})
        out = tmp_path / "out"
        assert run(["solve", "--config", config, "--out", out]) == 0
        meta = json.loads(next(out.glob("*.meta.json")).read_text())
        assert meta["status"] == "rank_deficient"
        assert meta["rank_deficit"] == 6
        assert meta["iterations"] == 0

    def test_two_nodes_under_nine_columns_report_a_rank_deficient_solve(
        self, tmp_path
    ):
        # the factored image is 2 x 10: R has 2 rows, so the 9 Jacobian
        # columns keep rank 2 at most
        config = write_config(tmp_path, "solve",
                              {"points_per_axis": 2, "units": 3})
        out = tmp_path / "out"
        assert run(["solve", "--config", config, "--out", out]) == 0
        meta = json.loads(next(out.glob("*.meta.json")).read_text())
        assert meta["status"] == "rank_deficient"
        assert meta["rank_deficit"] == 7
        assert meta["iterations"] == 0

    def test_a_residual_norm_that_is_not_finite_exits_two(
        self, tmp_path, capsys
    ):
        # the squared norm overflows: inf, with no warning
        config = write_config(tmp_path, "solve", {"noise": 1e300})
        out = tmp_path / "out"
        assert run(["solve", "--config", config, "--out", out]) == 2
        assert capsys.readouterr().err == (
            "numeric error: residual norm is inf at iterate 0\n")
        assert not out.exists() or not any(out.iterdir())

    def test_an_overflowing_residual_exits_two_with_warnings_as_errors(
        self, tmp_path
    ):
        # the squared norm overflows; the noise itself overflows; the start
        # and its radius overflow
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
        for index, cfg in enumerate([
            {"noise": 1e300}, {"noise": 1e308},
            {"param_box": [-1e307, 1e307], "p0_radius": 1e300},
        ]):
            config = tmp_path / f"solve{index}.json"
            config.write_text(json.dumps(cfg))
            out = tmp_path / f"out{index}"
            result = subprocess.run(
                [sys.executable, "-W", "error::RuntimeWarning", "-m",
                 "gncoder.cli", "solve", "--config", str(config),
                 "--out", str(out)],
                cwd=tmp_path, env=env, capture_output=True, text=True,
                timeout=120)
            assert (result.returncode, result.stderr) == (
                2, "numeric error: residual norm is inf at iterate 0\n"), cfg
            assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("command, activation, message", [
        ("independence", "step", "activation: step activation is "
                                 "discontinuous; no derivative"),
        ("cone", "step", "activation: step activation is discontinuous; "
                         "no derivative"),
        ("mysovskii", "step", "activation: step activation is "
                              "discontinuous; no derivative"),
        ("check-derivatives", "relu", "activation: relu activation has no "
                                      "second derivative"),
        ("solve", "relu", "activation must be twice differentiable for the "
                          "solver, got 'relu'"),
    ])
    def test_an_activation_without_the_derivative_exits_one_naming_the_key(
        self, tmp_path, capsys, command, activation, message
    ):
        config = write_config(tmp_path, command, {"activation": activation})
        out = tmp_path / "out"
        assert run([command, "--config", config, "--out", out]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("command, key, value", [
        ("independence", "trials", 0),
        ("cone", "t_values", []),
        ("mysovskii", "probes", 0),
        ("check-derivatives", "probes", 0),
    ])
    def test_empty_run_exits_one_before_writing(
        self, tmp_path, capsys, command, key, value
    ):
        config = tmp_path / "empty.json"
        config.write_text(json.dumps({key: value}))
        out = tmp_path / "out"
        assert run([command, "--config", config, "--out", out]) == 1
        assert key in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())


class TestManifoldCommand:
    def test_sweep_csv_shape(self, tmp_path):
        out = tmp_path / "out"
        assert run(["manifold", "--resolution", 11, "--extent", 2.0,
                    "--out", out]) == 0
        csv_path = list(out.glob("manifold_*.csv"))[0]
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "x,y,f1,f2,det"
        assert len(lines) == 1 + 11 * 11
        first = [float(v) for v in lines[1].split(",")]
        assert first[:2] == [-2.0, -2.0]


class TestCheckDerivativesCommand:
    def test_report_contains_small_errors(self, tmp_path):
        out = tmp_path / "out"
        assert run(["check-derivatives", "--probes", 3, "--out", out]) == 0
        report = json.loads(
            list(out.glob("check-derivatives_*.report.json"))[0].read_text()
        )
        assert report["max_first_order_relative_error"] < 1e-6
        assert report["max_second_order_relative_error"] < 1e-4


class TestSynthProblem:
    def test_noiseless_data_is_exact_forward_image(self):
        opts = SolveOptions(seed=19)
        p_true, y = synth_problem(opts, *solve_parts(opts))
        grid = make_grid(opts.dim, opts.points_per_axis)
        forward = parse_operator(opts.operator, grid)
        exact = forward.apply(
            eval_psi(p_true, parse_activation(opts.activation), grid)
        )
        assert norm(y - exact) == 0.0

    def test_noise_norm_matches_requested_level(self):
        opts = SolveOptions(seed=4, noise=0.01, dim=1, points_per_axis=1024)
        parts = solve_parts(opts)
        p_true, y = synth_problem(opts, *parts)
        _, y_clean = synth_problem(replace(opts, noise=0.0), *parts)
        level = norm(y - y_clean)
        assert abs(level - 0.01) <= 0.15 * 0.01

    def test_given_streams_draw_what_it_spawns(self):
        opts = SolveOptions(seed=8, noise=0.01)
        parts = solve_parts(opts)
        p1, y1 = synth_problem(opts, *parts)
        p2, y2 = synth_problem(opts, *parts, cli._spawn_rngs(opts.seed))
        assert p1.flatten().tobytes() == p2.flatten().tobytes()
        assert y1.values.tobytes() == y2.values.tobytes()

    def test_same_seed_reproduces_problem(self):
        opts = SolveOptions(seed=8)
        p1, y1 = synth_problem(opts, *solve_parts(opts))
        p2, y2 = synth_problem(opts, *solve_parts(opts))
        assert np.array_equal(p1.flatten(), p2.flatten())
        assert np.array_equal(y1.values, y2.values)


_COMMAND_CHOICES = "{solve,independence,cone,mysovskii,manifold,check-derivatives}"
_USAGE = f"usage: gncoder [-h]\n               {_COMMAND_CHOICES}\n               ...\n"

#: argv -> (exit code, stdout, stderr) at 80 columns, as printed when every
#: run built the parsers of all six subcommands.
USAGE_TEXT = {
    (): (1, "", _USAGE + "error: the following arguments are required: command\n"),
    ("-h",): (
        0,
        _USAGE
        + "\n"
        "Batch experiment runner.\n"
        "\n"
        "positional arguments:\n"
        f"  {_COMMAND_CHOICES}\n"
        "    solve               Run one synthetic solve.\n"
        "    independence        Monte-Carlo independence trials.\n"
        "    cone                Shrinking-perturbation cone check.\n"
        "    mysovskii           Newton-Mysovskii quadratic-bound probes.\n"
        "    manifold            Degenerate-manifold sweep CSV.\n"
        "    check-derivatives   Finite-difference derivative check.\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n",
        "",
    ),
    ("bogus",): (
        1,
        "",
        _USAGE
        + "error: argument command: invalid choice: 'bogus' (choose from 'solve', "
        "'independence', 'cone', 'mysovskii', 'manifold', 'check-derivatives')\n",
    ),
    ("solve", "--bogus"): (
        1, "", _USAGE + "error: unrecognized arguments: --bogus\n",
    ),
    ("solve", "-h"): (
        0,
        "usage: gncoder solve [-h] [--config CONFIG] [--out OUT_DIR] [--seed SEED]\n"
        "                     [--mode {gauss_newton,gradient_descent}] [--noise NOISE]\n"
        "                     [--p0-radius P0_RADIUS] [--max-iters MAX_ITERS]\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --config CONFIG       JSON config file\n"
        "  --out OUT_DIR         output directory\n"
        "  --seed SEED\n"
        "  --mode {gauss_newton,gradient_descent}\n"
        "  --noise NOISE\n"
        "  --p0-radius P0_RADIUS\n"
        "  --max-iters MAX_ITERS\n",
        "",
    ),
}


@pytest.mark.parametrize("argv", list(USAGE_TEXT),
                         ids=lambda argv: " ".join(argv) or "no-arguments")
def test_usage_and_help_text_are_unchanged(argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    try:
        code = main(list(argv))
    except SystemExit as exc:  # -h exits from argparse
        code = exc.code
    out, err = capsys.readouterr()
    assert (code, out, err) == USAGE_TEXT[argv]


def test_one_parser_serves_every_call_of_a_process(tmp_path, capsys,
                                                   monkeypatch):
    """Runs, usage errors and help all parse with the parser the first call
    of the process built, and a run after them writes the same files."""
    monkeypatch.setenv("COLUMNS", "80")
    _build_parser.cache_clear()

    def call(*argv):
        try:
            return main(list(argv))
        except SystemExit as exc:  # -h exits from argparse
            return exc.code

    assert call("solve", "--out", str(tmp_path / "first")) == 0
    capsys.readouterr()
    for argv in [("solve", "--bogus"), ("-h",), ("bogus",), ("solve", "-h")]:
        assert (call(*argv), *capsys.readouterr()) == USAGE_TEXT[argv]
    assert call("solve", "--out", str(tmp_path / "second")) == 0
    info = _build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 5)
    assert files_in(tmp_path / "first") == files_in(tmp_path / "second")


# Each row was reproduced at the commit before the typed options: a raw
# traceback (TypeError, AttributeError, KeyError, ...), a bad value run as
# if it were another one, or an exit 1 whose message did not name the key.
BAD_CONFIGS = [
    ("solve", "units", 2.5),
    ("solve", "activation", 3),
    ("solve", "tol_residual", "x"),
    ("independence", "trials", 2.5),
    ("cone", "t_values", 0.01),
    ("cone", "t_values", [0.01, "a"]),
    ("mysovskii", "base_params", {"N": 2}),
    ("solve", "noise", math.nan),
    ("solve", "noise", -1),
    ("solve", "max_iters", True),
    ("solve", "max_iters", 25.0),
    ("independence", "allow_zero_alpha", "yes"),
    ("manifold", "extent", math.nan),
    ("check-derivatives", "step_first", 0),
    ("solve", "seed", -3),
    ("solve", "sampler_box", [5, -5]),
    ("solve", "activation", "sigmoid:abc"),
    # these hung in sample_params, redrawing output weights forever
    ("solve", "alpha_band", 6),
    ("independence", "alpha_band", 5),
    ("cone", "alpha_band", 6.0),
    ("mysovskii", "alpha_band", 6),
    ("check-derivatives", "alpha_band", 3),
    # n=2 against dim 1: exited 1 naming neither key
    ("mysovskii", "base_params",
     {"N": 2, "n": 2, "alpha": [1.0, -1.0], "w": [[1.0, 0.5], [-1.0, 0.5]],
      "theta": [0.0, 0.5]}),
    # a dense lattice of resolution**2 rows: a raw allocation traceback
    ("manifold", "resolution", 20000),
    # a t of 0 wrote a bare NaN ratio that the spread then ignored
    ("cone", "t_values", [0.01, 0.0]),
    # a zero radius checked nothing and reported a ratio of 0.0
    ("mysovskii", "segment_radius", 0),
    # a Gram screen of (samples * n*)**2 floats: gigabytes, unchecked
    ("mysovskii", "constants_samples", 3000),
    # a NaN reached the back-substitution's "array must not contain infs or
    # NaNs"; an Infinity overflowed and exited 2 as a rank deficiency
    ("mysovskii", "base_params",
     {"N": 2, "n": 1, "alpha": [math.nan, 1.0], "w": [[1.0], [-1.0]],
      "theta": [0.0, 0.5]}),
    ("mysovskii", "base_params",
     {"N": 2, "n": 1, "alpha": [math.inf, 1.0], "w": [[1.0], [-1.0]],
      "theta": [0.0, 0.5]}),
    # a constants ball leaving param_box failed only after every probe
    ("mysovskii", "base_params",
     {"N": 2, "n": 1, "alpha": [14.9, 1.0], "w": [[1.0], [-1.0]],
      "theta": [0.0, 0.5]}),
    # 12 columns on 4 nodes failed inside the first trial, naming no key
    ("independence", "points_per_axis", 2),
    # an infinite width or scale gave an all-ones kernel or a constant
    # activation, and the run exited 0 with an Infinity in its outputs
    ("solve", "operator", "gauss:inf"),
    ("independence", "activation", "sigmoid:inf"),
    # a width past the float range: numpy's "high - low range exceeds valid
    # bounds" traceback from the first draw
    ("solve", "sampler_box", [-1e308, 1e308]),
    ("independence", "box", [-1e308, 1e308]),
    ("cone", "box", [-1e308, 1e308]),
    ("mysovskii", "box", [-1e308, 1e308]),
    ("check-derivatives", "box", [-1e308, 1e308]),
    # the same width in the clamp box was accepted
    ("solve", "param_box", [-1e308, 1e308]),
]


class TestConfigSchema:
    @pytest.mark.parametrize(
        "command, key, value", BAD_CONFIGS,
        ids=[f"{c}-{k}-{v!r}" for c, k, v in BAD_CONFIGS],
    )
    def test_bad_config_exits_one_naming_the_key(
        self, tmp_path, capsys, command, key, value
    ):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({key: value}))
        out = tmp_path / "out"
        assert run([command, "--config", config, "--out", out]) == 1
        err = capsys.readouterr().err
        assert key in err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("command, key, value", [
        ("solve", "noise", 10**400),
        ("solve", "sampler_box", [-(10**400), 5]),
        ("solve", "sampler_box", [-int(1e308), int(1e308)]),
    ], ids=["number", "bound", "width"])
    def test_an_integer_past_the_float_range_exits_one_naming_the_key(
        self, tmp_path, capsys, command, key, value
    ):
        # each was an OverflowError traceback from a float conversion
        config = tmp_path / "big.json"
        config.write_text(json.dumps({key: value}))
        out = tmp_path / "out"
        assert run([command, "--config", config, "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} must be ")
        assert len(err.strip().splitlines()) == 1
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("sizes", [{"dim": 2}, {"units": 3}])
    def test_base_params_disagreeing_with_sizes_names_both_keys(
        self, tmp_path, capsys, sizes
    ):
        config = tmp_path / "mys.json"
        config.write_text(json.dumps({"base_params": _COEFFICIENTS, **sizes}))
        assert run(["mysovskii", "--config", config, "--out", tmp_path]) == 1
        err = capsys.readouterr().err
        assert "base_params" in err and next(iter(sizes)) in err

    def test_band_check_is_off_when_zero_alpha_is_allowed(self):
        opts = _options(IndependenceOptions,
                        {"alpha_band": 6, "allow_zero_alpha": True}, {})
        assert opts.alpha_band == 6

    def test_oversized_gaussian_kernel_is_refused_before_building(
        self, tmp_path, capsys
    ):
        config = tmp_path / "wide.json"
        config.write_text(json.dumps(
            {"operator": "gauss:0.05", "points_per_axis": 16384}
        ))
        start = time.perf_counter()
        code = run(["solve", "--config", config, "--out", tmp_path / "out"])
        elapsed = time.perf_counter() - start
        assert code == 1
        assert "points_per_axis" in capsys.readouterr().err
        assert elapsed < 1.0

    def test_oversized_grid_is_refused_before_allocating(self, tmp_path, capsys):
        # 144e6 nodes of 2-D nodes and weights take 3.2 GiB
        out = tmp_path / "out"
        tracemalloc.start()
        try:
            code = run(["independence", "--points-per-axis", 12000, "--dim", 2,
                        "--out", out])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        assert capsys.readouterr().err == (
            "error: points_per_axis: points_per_axis 12000 in dimension 2 "
            "needs a 3.2 GiB grid, over the 1 GiB limit\n")
        assert peak < 2**20, peak
        assert not out.exists()

    @pytest.mark.parametrize("command, gib", [
        ("solve", 5.9), ("independence", 8.9), ("cone", 5.9), ("mysovskii", 5.9),
        ("check-derivatives", 8.9)])
    def test_oversized_jacobian_is_refused_before_the_grid(
        self, tmp_path, capsys, command, gib
    ):
        # 36e6 2-D nodes: the 0.80 GiB grid fits the budget, the one-point
        # Jacobian of the default unit count does not
        config = write_config(tmp_path, command,
                              {"dim": 2, "points_per_axis": 6000})
        out = tmp_path / "out"
        tracemalloc.start()
        try:
            code = run([command, "--config", config, "--out", out])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: points_per_axis 6000 in dimension 2 needs a {gib} GiB "
            "1-point Jacobian stack, over the 1 GiB limit\n")
        assert peak < 2**20, peak
        assert not out.exists()

    def test_flag_surface_is_unchanged(self):
        common = {"--config": str, "--out": str, "--seed": int}
        expected = {
            "solve": {"--mode": str, "--noise": float, "--p0-radius": float,
                      "--max-iters": int},
            "independence": {"--trials": int, "--activation": str,
                             "--units": int, "--dim": int,
                             "--points-per-axis": int,
                             "--allow-zero-alpha": bool},
            "cone": {"--activation": str, "--units": int, "--dim": int,
                     "--points-per-axis": int, "--operator": str},
            "mysovskii": {"--probes": int, "--operator": str},
            "manifold": {"--extent": float, "--resolution": int},
            "check-derivatives": {"--probes": int, "--activation": str},
        }
        subparsers = next(
            a for a in _build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)
        )
        assert set(subparsers.choices) == set(expected)
        for command, sub in subparsers.choices.items():
            found = {
                a.option_strings[-1]: bool if a.nargs == 0 else (a.type or str)
                for a in sub._actions if a.dest != "help"
            }
            assert found == {**common, **expected[command]}, command
        mode = next(a for a in subparsers.choices["solve"]._actions
                    if a.dest == "mode")
        assert set(mode.choices) == {"gauss_newton", "gradient_descent"}

    def test_default_config_hashes_are_unchanged(self):
        # the hashes name every output file; a new or renamed key moves them
        recorded = {
            "solve": "f1a5e3fc647e",
            "independence": "c04146245c90",
            "cone": "4b13ec0c2648",
            "mysovskii": "e0e6990a247f",
            "manifold": "91cb7f7c4b09",
            "check-derivatives": "ac41217a62b1",
        }
        for command, (cls, _) in _COMMANDS.items():
            assert (_config_hash(_public_config(_options(cls, {}, {})))
                    == recorded[command])

    def test_readme_solve_defaults_match_the_schema(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        after = readme.split("Defaults (`SolveOptions`):", 1)[1]
        block = after.split("```json", 1)[1].split("```", 1)[0]
        schema = json.loads(json.dumps(_public_config(SolveOptions())))
        assert json.loads(block) == schema

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), cls=st.sampled_from([c for c, _ in _COMMANDS.values()]))
    def test_config_file_resolves_like_direct_construction(self, data, cls):
        values = {
            f.name: data.draw(_valid_values(f), label=f.name)
            for f in fields(cls) if data.draw(st.booleans())
        }
        assume(_meets_cross_field_limits(cls(**values)))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "config.json"
            path.write_text(json.dumps(values))
            resolved = _options(cls, _load_config_file(str(path)), {})
        direct = cls(**{
            k: tuple(v) if isinstance(v, list) else v for k, v in values.items()
        })
        assert resolved == direct
        assert (_config_hash(_public_config(resolved))
                == _config_hash(_public_config(cls(**values))))
        for key, value in values.items():
            if isinstance(value, (int, float)):
                assert type(getattr(resolved, key)) is type(value), key


_COEFFICIENTS = {"N": 2, "n": 1, "alpha": [12.0, -12.0], "w": [[3.0], [-3.0]],
                 "theta": [-0.9, 2.1]}


def _meets_cross_field_limits(opts):
    """The limits that tie one field to others, stated again: the output
    weight band lies below the sampling box, and coefficients match the
    unit count and input dimension."""
    box = getattr(opts, "sampler_box", getattr(opts, "box", None))
    if hasattr(opts, "alpha_band") and not getattr(opts, "allow_zero_alpha", False):
        if opts.alpha_band >= max(abs(b) for b in box):
            return False
    coefficients = getattr(opts, "base_params", None)
    return coefficients is None or (
        (coefficients["N"], coefficients["n"]) == (opts.units, opts.dim))


def _valid_values(f):
    """Values a config file may give for one options field."""
    limits = f.metadata
    if "band_of" in limits:
        # mostly inside the sampling box, which is rarely narrower than 3
        return st.one_of(st.integers(0, 2), st.floats(0, 3, exclude_max=True))
    if "choices" in limits:
        return st.sampled_from(limits["choices"])
    if f.type is Coefficients:
        return st.sampled_from([None, _COEFFICIENTS])
    if f.type is bool:
        return st.booleans()
    if f.type is str:
        return st.text(max_size=8)
    if f.type is int:
        return st.integers(min_value=limits.get("min", -10**6), max_value=10**6)
    low = limits.get("min", limits.get("above", -1e6))
    numbers = st.one_of(
        st.integers(min_value=math.floor(low) + 1, max_value=10**6),
        st.floats(min_value=low, max_value=1e6, exclude_min="above" in limits),
    )
    if f.type is Floats:
        return st.lists(numbers.filter(lambda v: v != 0), min_size=1, max_size=4)
    if f.type is Box:
        return st.lists(numbers, min_size=2, max_size=2).filter(
            lambda b: b[0] < b[1])
    return numbers


def test_importing_the_cli_loads_no_scipy(tmp_path):
    """A fresh ``import gncoder.cli`` leaves no ``scipy`` module behind:
    scipy is a test dependency only, and its import would be most of a fresh
    process's time."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, "-c", "import sys, gncoder.cli; print(sorted(m for m in "
         "sys.modules if m == 'scipy' or m.startswith('scipy.')))"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"
