import json

import numpy as np
import pytest

from gncoder.cli import _SOLVE_DEFAULTS, main, synth_problem
from gncoder.grids import norm


def run(args):
    return main([str(a) for a in args])


def files_in(path):
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


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
        assert meta["radius_satisfied"] is True
        assert meta["p_true"]["N"] == 2
        header = traces[0].read_text().splitlines()[0]
        assert header == "iter,residual,step_norm,param_error,rank,status"

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
        cfg = dict(_SOLVE_DEFAULTS)
        cfg["seed"] = 19
        from gncoder.activations import parse_activation
        from gncoder.grids import make_grid
        from gncoder.network import eval_psi
        from gncoder.operators import parse_operator

        p_true, y = synth_problem(cfg)
        grid = make_grid(cfg["dim"], cfg["points_per_axis"])
        forward = parse_operator(cfg["operator"], grid)
        exact = forward.apply(
            eval_psi(p_true, parse_activation(cfg["activation"]), grid)
        )
        assert norm(y - exact) == 0.0

    def test_noise_norm_matches_requested_level(self):
        cfg = dict(_SOLVE_DEFAULTS)
        cfg.update(seed=4, noise=0.01, dim=1, points_per_axis=1024)
        p_true, y = synth_problem(cfg)
        cfg_clean = dict(cfg)
        cfg_clean["noise"] = 0.0
        _, y_clean = synth_problem(cfg_clean)
        level = norm(y - y_clean)
        assert abs(level - 0.01) <= 0.15 * 0.01

    def test_same_seed_reproduces_problem(self):
        cfg = dict(_SOLVE_DEFAULTS)
        cfg["seed"] = 8
        p1, y1 = synth_problem(cfg)
        p2, y2 = synth_problem(cfg)
        assert np.array_equal(p1.flatten(), p2.flatten())
        assert np.array_equal(y1.values, y2.values)
