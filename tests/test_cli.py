import argparse
import json
import math
import tempfile
import time
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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

    def test_duplicated_unit_exits_two_naming_the_rank(self, tmp_path, capsys):
        config = tmp_path / "mys.json"
        config.write_text(json.dumps({"base_params": {
            "N": 2, "n": 1, "alpha": [1, 1], "w": [[1], [1]],
            "theta": [0.5, 0.5]}}))
        code = run(["mysovskii", "--config", config, "--out", tmp_path / "o"])
        assert code == 2
        assert capsys.readouterr().err == (
            "numeric error: derivative at p has rank 5 < 6\n")

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
    ("solve", "constants_samples", 3000),
    ("mysovskii", "constants_samples", 3000),
    # a NaN reached scipy's "array must not contain infs or NaNs"; an
    # Infinity overflowed and exited 2 as a rank deficiency
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
            assert _config_hash(_options(cls, {}, {})) == recorded[command]

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
        assert _config_hash(resolved) == _config_hash(cls(**values))
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
