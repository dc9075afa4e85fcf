from __future__ import annotations

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import poissonkit
import poissonkit.structure
from poissonkit import BoxDomain
from poissonkit.cli import dump_json, main

KMK_CONFIG = {
    "version": 1,
    "system": {"name": "kmk"},
    "hamiltonian": {"kind": "quadratic-diagonal", "params": {"weights": [1, 1, 1]}},
    "initial_state": [1.0, 1.1, 0.9],
}


EXPLICIT_CONFIG = {
    "version": 1,
    "n": 3,
    "r": 2,
    "B": [1, 0, 0, 0, 1, 0, 1, 1, 1],
    "factors": [
        {"kind": "linear", "params": {"slope": 1.0}, "validity": [0, None]},
        {"kind": "affine", "params": {"slope": 1.0, "intercept": 0.5}},
    ],
    "domain": {"lower": [0, 0, 0], "upper": [None, None, None],
               "sample_lower": [0.5, 0.5, 0.5], "sample_upper": [2.5, 2.5, 2.5]},
}


def _with(base: dict, path: tuple, value) -> dict:
    """Deep copy of ``base`` with the entry at ``path`` replaced."""
    config = json.loads(json.dumps(base))
    target = config
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return config


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDumpJson:
    def test_floats_are_17_digits_and_round_trip(self):
        text = dump_json({"x": 0.1, "y": 1e-7})
        parsed = json.loads(text)
        assert parsed["x"] == 0.1
        assert parsed["y"] == 1e-7
        assert "0.10000000000000001" in text

    def test_non_finite_becomes_null(self):
        parsed = json.loads(dump_json({"a": math.inf, "b": math.nan, "c": -math.inf}))
        assert parsed == {"a": None, "b": None, "c": None}

    def test_numpy_values(self):
        parsed = json.loads(dump_json({"m": np.eye(2), "v": np.float64(0.5)}))
        assert parsed == {"m": [[1.0, 0.0], [0.0, 1.0]], "v": 0.5}

    def test_float_arrays_match_the_generic_path(self):
        m = np.array([[0.1, -0.0, np.nan], [np.inf, -np.inf, 1e-300], [2.0, 3.5, -7.25]])
        for value in (m, m[0], m[:0], np.zeros((2, 0)), np.arange(3.0)):
            # A list goes through the element-by-element path.
            assert dump_json({"a": value}) == dump_json({"a": value.tolist()})
        assert "[0.10000000000000001, -0, null]" in dump_json(m)


def test_cli_import_defers_scipy():
    code = (
        "import sys, poissonkit.cli; "
        "print(sorted(m for m in ('scipy.stats', 'scipy.integrate') if m in sys.modules))"
    )
    src = os.path.dirname(os.path.dirname(poissonkit.__file__))
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={"PYTHONPATH": src},
    ).stdout
    assert out.strip() == "[]"


class TestCatalogCommand:
    def test_list(self, capsys):
        code, out, _ = _run(capsys, ["catalog", "list"])
        assert code == 0
        assert "kmk:" in out and "toda:" in out and "counterexample3:" in out


class TestVerifyCommand:
    def test_kmk_passes(self, capsys):
        code, out, _ = _run(
            capsys, ["verify", "--system", "kmk", "--points", "30", "--seed", "7"]
        )
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert report["jacobi"]["passed"] is True
        assert report["rank"]["observed"] == [2]
        assert report["casimirs"]["coefficient_rank"] == 1

    def test_seeded_runs_byte_identical(self, capsys):
        argv = ["verify", "--system", "kmk", "--points", "40", "--seed", "7"]
        _, out1, _ = _run(capsys, argv)
        _, out2, _ = _run(capsys, argv)
        assert out1 == out2

    def test_threads_do_not_change_report(self, capsys, monkeypatch):
        argv = ["verify", "--system", "toda", "--param", "N=3", "--seed", "5"]
        _, serial, _ = _run(capsys, argv)
        monkeypatch.setenv("POISSON_THREADS", "4")
        _, threaded, _ = _run(capsys, argv)
        assert serial == threaded

    def test_large_scale_genuine_structure_passes(self, capsys):
        code, out, _ = _run(
            capsys, ["verify", "--system", "kmk", "--param", "R=1e6", "--points", "20"]
        )
        assert code == 0
        jacobi = json.loads(out)["jacobi"]
        # The absolute residual is round-off at |J| ~ 1e7; the verdict is
        # taken on the residual normalized by |J| |dJ|.
        assert jacobi["max_abs_residual"] > jacobi["tolerance"]
        assert jacobi["max_normalized_residual"] <= 1e-15
        assert jacobi["passed"] is True

    def test_counterexample_normalized_residual(self, capsys):
        code, out, _ = _run(capsys, ["verify", "--system", "counterexample3"])
        assert code == 1
        jacobi = json.loads(out)["jacobi"]
        assert jacobi["passed"] is False
        assert jacobi["max_normalized_residual"] == pytest.approx(0.75, abs=0.01)

    def test_one_sample_draw_and_one_structure_evaluation(self, capsys, monkeypatch):
        calls = {"halton": 0, "evaluate": 0}
        halton = BoxDomain.halton_points

        def counting_halton(self, num, seed):
            calls["halton"] += 1
            return halton(self, num, seed)

        monkeypatch.setattr(BoxDomain, "halton_points", counting_halton)
        import poissonkit.verify as verify_module

        evaluate = verify_module.evaluate_structure

        def counting_evaluate(spec, x):
            calls["evaluate"] += 1
            return evaluate(spec, x)

        monkeypatch.setattr(verify_module, "evaluate_structure", counting_evaluate)
        code, _, _ = _run(capsys, ["verify", "--system", "toda", "--param", "N=3"])
        assert code == 0
        assert calls == {"halton": 1, "evaluate": 1}

    def test_reports_do_not_depend_on_block_size(self, capsys, monkeypatch):
        argvs = [
            [cmd, "--system", "toda", "--param", "N=3", "--seed", "5"]
            for cmd in ("verify", "darboux")
        ]
        whole = [_run(capsys, argv) for argv in argvs]
        # One sample point per block of structure matrices.
        monkeypatch.setattr(poissonkit.structure, "BLOCK_FLOATS", 1)
        assert [_run(capsys, argv) for argv in argvs] == whole

    def test_counterexample_fails_with_exit_one(self, capsys):
        code, out, _ = _run(
            capsys, ["verify", "--system", "counterexample3", "--points", "20"]
        )
        assert code == 1
        report = json.loads(out)
        assert report["passed"] is False
        assert report["jacobi"]["argmax_triple"] == [1, 2, 3]
        assert report["kernel"] is None

    def test_rank_zero_spec_passes_with_zero_residual(self, capsys):
        code, out, _ = _run(
            capsys,
            [
                "verify",
                "--system",
                "constant-symplectic",
                "--param",
                "s=0",
                "--param",
                "n=3",
            ],
        )
        assert code == 0
        assert json.loads(out)["jacobi"]["max_abs_residual"] == 0.0

    def test_missing_system_is_usage_error(self, capsys):
        code, _, err = _run(capsys, ["verify"])
        assert code == 2
        assert "error" in err

    def test_bad_config_file_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        code, _, err = _run(capsys, ["verify", "--config", str(bad)])
        assert code == 2
        assert "invalid JSON" in err

    def test_config_file_route(self, tmp_path, capsys):
        path = tmp_path / "kmk.json"
        path.write_text(json.dumps(KMK_CONFIG), encoding="utf-8")
        code, out, _ = _run(capsys, ["verify", "--config", str(path), "--seed", "3"])
        assert code == 0
        assert json.loads(out)["system"]["name"] == "kmk"

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code, out, _ = _run(
            capsys,
            ["verify", "--system", "kmk", "--seed", "2", "--out", str(target)],
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["passed"] is True


class TestDarbouxCommand:
    def test_kmk_chart(self, capsys):
        code, out, _ = _run(capsys, ["darboux", "--system", "kmk"])
        assert code == 0
        report = json.loads(out)
        assert report["block_count"] == 1
        assert report["casimirs"] == [[1.0, 1.0, 1.0]]
        assert report["certification"]["passed"] is True
        assert report["anchors"] == [1.0, 1.0]
        assert report["B"] == [[1, 0, 0], [0, 1, 0], [1, 1, 1]]

    def test_toda_chart(self, capsys):
        code, out, _ = _run(
            capsys, ["darboux", "--system", "toda", "--param", "N=3"]
        )
        assert code == 0
        report = json.loads(out)
        assert report["block_count"] == 2
        assert report["casimirs"] == [[0, 0, 1, 1, 1]]

    def test_counterexample_is_usage_error(self, capsys):
        code, _, err = _run(capsys, ["darboux", "--system", "counterexample3"])
        assert code == 2
        assert "multiseparable" in err


class TestIntegrateCommand:
    def test_casimir_hamiltonian_constant_columns(self, capsys):
        code, out, err = _run(
            capsys,
            [
                "integrate",
                "--system",
                "kmk",
                "--hamiltonian",
                "linear:1,1,1",
                "--x0",
                "1.0,1.2,0.8",
                "--dt",
                "0.01",
                "--steps",
                "20",
            ],
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "t,x1,x2,x3,dH,dC_3"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 21
        states = {tuple(row[1:4]) for row in rows}
        assert len(states) == 1
        assert "max|dH|=0.000000e+00" in err

    def test_zero_steps_single_row(self, capsys):
        code, out, _ = _run(
            capsys,
            [
                "integrate",
                "--system",
                "kmk",
                "--hamiltonian",
                "quadratic-diagonal:1,1,1",
                "--x0",
                "1,1,1",
                "--steps",
                "0",
            ],
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 2
        assert lines[1].startswith("0,1,1,1,")

    def test_canonical_route_casimir_column_tiny(self, capsys):
        code, out, err = _run(
            capsys,
            [
                "integrate",
                "--system",
                "kmk",
                "--hamiltonian",
                "quadratic-diagonal:1,2,0.5",
                "--x0",
                "1.0,1.2,0.8",
                "--dt",
                "0.001",
                "--steps",
                "500",
                "--route",
                "canonical",
            ],
        )
        assert code == 0
        rows = out.strip().split("\n")[1:]
        dC = [abs(float(r.split(",")[-1])) for r in rows]
        assert max(dC) <= 1e-10
        assert "route=canonical" in err

    def test_config_supplies_hamiltonian_and_state(self, tmp_path, capsys):
        path = tmp_path / "kmk.json"
        path.write_text(json.dumps(KMK_CONFIG), encoding="utf-8")
        code, out, _ = _run(
            capsys,
            ["integrate", "--config", str(path), "--dt", "0.01", "--steps", "5"],
        )
        assert code == 0
        assert len(out.strip().split("\n")) == 7

    def test_missing_hamiltonian_is_usage_error(self, capsys):
        code, _, err = _run(
            capsys,
            ["integrate", "--system", "kmk", "--x0", "1,1,1"],
        )
        assert code == 2
        assert "hamiltonian" in err

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "traj.csv"
        code, out, _ = _run(
            capsys,
            [
                "integrate",
                "--system",
                "kmk",
                "--hamiltonian",
                "coordinate:3",
                "--x0",
                "1,1,1",
                "--steps",
                "3",
                "--out",
                str(target),
            ],
        )
        assert code == 0
        assert target.read_text().startswith("t,x1,x2,x3,dH,dC_3")


@pytest.mark.parametrize("route", ["direct", "canonical"])
@pytest.mark.parametrize("dt", ["nan", "inf", "-1"])
def test_bad_dt_is_usage_error(capsys, dt, route):
    code, out, err = _run(
        capsys,
        [
            "integrate", "--system", "kmk", "--hamiltonian", "quadratic-diagonal:1,1,1",
            "--x0", "1,1.1,0.9", "--steps", "5", "--route", route, "--dt", dt,
        ],
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: dt must be finite and positive")


@pytest.mark.parametrize(
    "config, field",
    [
        (_with(EXPLICIT_CONFIG, ("factors", 0, "params", "slope"), None),
         "factors[0].params.slope"),
        (_with(EXPLICIT_CONFIG, ("factors", 1, "params", "intercept"), "0.5"),
         "factors[1].params.intercept"),
        (_with(EXPLICIT_CONFIG, ("factors", 0, "params", "slope"), True),
         "factors[0].params.slope"),
        (_with(EXPLICIT_CONFIG, ("factors", 0, "validity", 0), "zero"),
         "factors[0].validity[0]"),
        (_with(EXPLICIT_CONFIG, ("factors", 0, "validity", 1), [1.0]),
         "factors[0].validity[1]"),
        (_with(EXPLICIT_CONFIG, ("B", 4), None), "B[4]"),
        (_with(EXPLICIT_CONFIG, ("B", 0), [1, 0, 0]), "B[0]"),
        (_with(EXPLICIT_CONFIG, ("initial_state",), [1.0, None, 0.9]), "initial_state[1]"),
        (_with(KMK_CONFIG, ("initial_state",), [1.0, 1.1, {}]), "initial_state[2]"),
        (_with(EXPLICIT_CONFIG, ("domain", "lower", 2), "0"), "domain.lower[2]"),
        (_with(KMK_CONFIG, ("hamiltonian", "params", "weights"), [True, "1.5", 1]),
         "hamiltonian.params.weights[0]"),
        (_with(KMK_CONFIG, ("hamiltonian", "params", "weights"), [1, "1.5", 1]),
         "hamiltonian.params.weights[1]"),
        (_with(KMK_CONFIG, ("hamiltonian",),
               {"kind": "linear", "params": {"coefficients": [1, 2, None]}}),
         "hamiltonian.params.coefficients[2]"),
        (_with(KMK_CONFIG, ("hamiltonian",), {"kind": "coordinate", "params": {"index": True}}),
         "hamiltonian.params.index"),
        (_with(KMK_CONFIG, ("hamiltonian",), {"kind": "coordinate", "params": {"index": 2.9}}),
         "hamiltonian.params.index"),
    ],
)
def test_malformed_config_names_field(tmp_path, capsys, config, field):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    code, out, err = _run(capsys, ["verify", "--config", str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {field}: expected a number")


def test_missing_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_malformed_param_is_usage_error(capsys):
    code, _, err = _run(capsys, ["verify", "--system", "toda", "--param", "N4"])
    assert code == 2
    assert "K=V" in err


def test_unknown_builder_param_is_usage_error(capsys):
    code, _, err = _run(capsys, ["verify", "--system", "kmk", "--param", "gamma=2"])
    assert code == 2
    assert "rejected" in err


def test_invalid_points_is_usage_error(capsys):
    code, _, err = _run(capsys, ["verify", "--system", "kmk", "--points", "0"])
    assert code == 2


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--hamiltonian", "quadratic-diagonal:1,a,1"),
        ("--hamiltonian", "coordinate:2.9"),
        ("--x0", "1,b,1"),
    ],
)
def test_malformed_integrate_flag_names_flag(capsys, flag, value):
    argv = {"--hamiltonian": "quadratic-diagonal:1,1,1", "--x0": "1,1.1,0.9"}
    argv[flag] = value
    code, out, err = _run(
        capsys,
        ["integrate", "--system", "kmk", "--steps", "5",
         "--hamiltonian", argv["--hamiltonian"], "--x0", argv["--x0"]],
    )
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {flag}: ")


KMK_INTEGRATE = ["integrate", "--system", "kmk", "--steps", "5"]
WEIGHTS_2 = {"kind": "quadratic-diagonal", "params": {"weights": [1, 1]}}


@pytest.mark.parametrize(
    "config, argv, message",
    [
        (_with(KMK_CONFIG, ("initial_state",), [1.0, 1.1]), ["verify"],
         "initial_state: expected 3 numbers"),
        (_with(EXPLICIT_CONFIG, ("hamiltonian",), WEIGHTS_2), ["verify"],
         "hamiltonian.params.weights: expected 3 numbers"),
        (_with(EXPLICIT_CONFIG, ("hamiltonian",), WEIGHTS_2), ["darboux"],
         "hamiltonian.params.weights: expected 3 numbers"),
        (_with(EXPLICIT_CONFIG, ("factors", 0, "params", "slope"), math.inf), ["verify"],
         "factors[0].params.slope: expected a finite number"),
        (_with(EXPLICIT_CONFIG, ("B", 4), -math.inf), ["verify"],
         "B[4]: expected a finite number"),
        (_with(KMK_CONFIG, ("hamiltonian", "params", "weights"), [1, math.nan, 1]),
         ["integrate"], "hamiltonian.params.weights[1]: expected a finite number"),
        (_with(KMK_CONFIG, ("initial_state",), [1.0, 1.1, math.nan]), ["verify"],
         "initial_state[2]: expected a finite number"),
        (_with(KMK_CONFIG, ("hamiltonian",), {"kind": "coordinate", "params": {}}),
         ["integrate"], "hamiltonian.params.index: expected a number that is an integer"),
        (None, KMK_INTEGRATE + ["--hamiltonian", "linear:1,1,1", "--x0", "1,1"],
         "--x0: expected 3 numbers"),
        (None, KMK_INTEGRATE + ["--hamiltonian", "linear:1,1,1", "--x0", "1,nan,1"],
         "--x0[1]: expected a finite number"),
        (None, KMK_INTEGRATE + ["--hamiltonian", "quadratic-diagonal:1,inf,1", "--x0", "1,1,1"],
         "--hamiltonian[1]: expected a finite number"),
        (None, KMK_INTEGRATE + ["--hamiltonian", "quadratic-diagonal:1,1", "--x0", "1,1,1"],
         "--hamiltonian: expected 3 numbers"),
        (None, KMK_INTEGRATE + ["--hamiltonian", "coordinate", "--x0", "1,1,1"],
         "--hamiltonian: expected a number that is an integer"),
    ],
)
def test_input_checked_at_load_names_field(tmp_path, capsys, config, argv, message):
    """Every key and flag is checked against the system's dimension and
    for finite numbers when the system is loaded, whatever the command."""
    if config is not None:
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        argv = argv + ["--config", str(path)]
    code, out, err = _run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_infinite_domain_bound_is_an_unbounded_side(tmp_path, capsys):
    reports = []
    for upper in (None, math.inf):
        path = tmp_path / "box.json"
        config = _with(EXPLICIT_CONFIG, ("domain", "upper"), [upper] * 3)
        path.write_text(json.dumps(config), encoding="utf-8")
        reports.append(_run(capsys, ["verify", "--config", str(path), "--points", "5"]))
    assert reports[0][0] == 0
    assert reports[1] == reports[0]


@pytest.mark.parametrize(
    "system, params, name",
    [
        ("toda", ["N=3.7"], "N"),
        ("toda", ["N=true"], "N"),
        ("toda", ["N=abc"], "N"),
        ("constant-symplectic", ["s=1.5"], "s"),
        ("constant-symplectic", ["s=2", "n=3.2"], "n"),
        ("kmk", ["R=abc"], "R"),
        ("kmk", ["kappa1=false"], "kappa1"),
        ("kmk", ["kappa2=[1]"], "kappa2"),
        ("kmk", ["R=Infinity"], "R"),
        ("kmk", ["kappa1=Infinity"], "kappa1"),
        ("kmk", ["kappa2=NaN"], "kappa2"),
    ],
)
def test_malformed_catalog_param_names_parameter(capsys, system, params, name):
    argv = ["verify", "--system", system]
    for p in params:
        argv += ["--param", p]
    code, out, err = _run(capsys, argv)
    assert code == 2
    assert out == ""
    assert f"parameter {name} must be" in err


def test_integral_float_catalog_param_is_accepted(capsys):
    code, out, _ = _run(capsys, ["verify", "--system", "toda", "--param", "N=3.0", "--points", "5"])
    assert code == 0
    assert json.loads(out)["jacobi"]["dimension"] == 5


def test_verify_box_far_from_origin(tmp_path, capsys):
    config = {
        "version": 1, "n": 2, "r": 2, "B": [1, 0, 0, 1],
        "factors": [{"kind": "constant", "params": {"c": 1.0}}] * 2,
        "domain": {"lower": [1e8, 1e8], "upper": [100000000.0000001] * 2},
    }
    path = tmp_path / "far.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    code, out, err = _run(capsys, ["verify", "--config", str(path)])
    assert code == 0, err
    assert json.loads(out)["passed"] is True
