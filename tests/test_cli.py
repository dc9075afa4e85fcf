from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import poissonkit
import poissonkit.domain
import poissonkit.structure
from poissonkit import BoxDomain
from poissonkit.catalog import CATALOG
from poissonkit.cli import _emit_floats, _number, dump_json, main, run_verify
from poissonkit.config import load_system
from poissonkit.factors import FactorBank

KMK_CONFIG = {
    "version": 1,
    "system": {"name": "kmk"},
    "hamiltonian": {"kind": "quadratic-diagonal", "params": {"weights": [1, 1, 1]}},
    "initial_state": [1.0, 1.1, 0.9],
}

KMK_INTEGRATE = ["integrate", "--system", "kmk", "--steps", "5"]


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

    def test_row_format_path_writes_the_element_text(self):
        def by_element(arr):
            if arr.ndim == 1:
                return "[" + ", ".join(map(_number, arr.tolist())) + "]"
            return "[" + ", ".join(by_element(row) for row in arr) + "]"

        edge = np.array([-0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 0.1, 1 / 3])
        finite = [edge, -edge, edge.reshape(2, 3), edge.reshape(3, 2), edge.reshape(1, 3, 2)]
        empty = [np.zeros(0), np.zeros((2, 0)), np.zeros((2, 0, 3)), np.arange(24.0).reshape(2, 3, 4)]
        special = [np.array([1.0, np.nan]), edge.reshape(2, 3) * np.array([1, np.inf, 1]),
                   np.array([[[-np.inf]], [[0.5]]])]
        for arr in finite + empty + special:
            assert _emit_floats(arr) == by_element(arr)
        assert _emit_floats(special[0]) == "[1, null]"


FIVE_KIND_CONFIG = {
    "version": 1,
    "n": 6,
    "r": 6,
    "B": [1, 0, 1, 0, 0, 0,
          0, 1, 0, 0, 1, 0,
          0, 0, 1, 1, 0, 0,
          0, 0, 0, 1, 0, 1,
          0, 0, 0, 0, 1, 0,
          0, 0, 0, 0, 0, 1],
    "factors": [
        {"kind": "linear", "params": {"slope": 1.5}},
        {"kind": "affine", "params": {"slope": 1.0, "intercept": 0.5}},
        {"kind": "exponential", "params": {"amplitude": 1.0, "rate": 0.2}},
        {"kind": "power", "params": {"coefficient": 1.0, "exponent": 0.5}},
        {"kind": "constant", "params": {"c": 2.0}},
        {"kind": "linear", "params": {"slope": 0.5}},
    ],
    "domain": {"lower": [0.5] * 6, "upper": [1.5] * 6},
}


def test_cli_import_defers_scipy(tmp_path):
    """Importing the CLI imports no scipy module, and neither do verify,
    darboux and a canonical integrate whose factors are built in: their
    Halton draws need numpy alone."""
    path = tmp_path / "five.json"
    path.write_text(json.dumps(FIVE_KIND_CONFIG), encoding="utf-8")
    runs = [
        [command, *system, "--points", "10"]
        for command in ("verify", "darboux")
        for system in (["--system", "kmk"], ["--config", str(path)])
    ]
    runs.append(
        ["integrate", "--system", "toda", "--param", "N=3",
         "--hamiltonian", "quadratic-diagonal:1,1,1,1,1", "--x0", "0.8,0.7,0.1,-0.2,0.3",
         "--route", "canonical", "--steps", "5"]
    )
    code = (
        "import contextlib, io, json, sys\n"
        "from poissonkit.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "    codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
        "print(json.dumps([codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')]))\n"
    )
    src = os.path.dirname(os.path.dirname(poissonkit.__file__))
    out = subprocess.run(
        [sys.executable, "-c", code, json.dumps(runs)],
        capture_output=True,
        text=True,
        check=True,
        env={"PYTHONPATH": src},
    ).stdout
    assert json.loads(out) == [[0] * len(runs), []]


class TestCatalogCommand:
    def test_list(self, capsys):
        code, out, err = _run(capsys, ["catalog", "list"])
        assert (code, err) == (0, "")
        assert out == (
            "kmk: three-species epidemic bracket, n=3, rank 2, Casimir x1+x2+x3\n"
            "toda: lattice bracket in Flaschka variables, n=2N-1, rank 2N-2, Casimir sum(beta)\n"
            "constant-symplectic: constant canonical block matrix, identity chart\n"
            "counterexample3: non-example field J12=x2, J23=x1 failing the Jacobi identity\n"
        )


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
        assert jacobi["max_normalized_residual"] == pytest.approx(1.0, abs=0.01)

    def test_one_sample_draw_and_one_structure_evaluation(self, capsys, monkeypatch):
        calls = {"halton": 0, "evaluate": 0, "values": 0}
        halton = BoxDomain.halton_points

        def counting_halton(self, num, seed):
            calls["halton"] += 1
            return halton(self, num, seed)

        monkeypatch.setattr(BoxDomain, "halton_points", counting_halton)
        import poissonkit.verify as verify_module

        structure_slopes = verify_module.structure_slopes

        def counting_structure_slopes(spec, x):
            calls["evaluate"] += 1
            return structure_slopes(spec, x)

        # One structure_slopes call per block gives J and W from one factor
        # value pass; the default 50 points at n = 5 are one block.
        monkeypatch.setattr(verify_module, "structure_slopes", counting_structure_slopes)
        apply = FactorBank.apply

        def counting_apply(self, name, *args, **kwargs):
            calls["values"] += name == "value"
            return apply(self, name, *args, **kwargs)

        monkeypatch.setattr(FactorBank, "apply", counting_apply)
        code, _, _ = _run(capsys, ["verify", "--system", "toda", "--param", "N=3"])
        assert code == 0
        assert calls == {"halton": 1, "evaluate": 1, "values": 1}

    def test_reports_do_not_depend_on_block_size(self, capsys, monkeypatch):
        argvs = [
            [cmd, "--system", "toda", "--param", "N=3", "--seed", "5"]
            for cmd in ("verify", "darboux")
        ]
        whole = [_run(capsys, argv) for argv in argvs]
        # One sample point per block of structure matrices.
        monkeypatch.setattr(poissonkit.structure, "BLOCK_FLOATS", 1)
        assert [_run(capsys, argv) for argv in argvs] == whole

    def test_spec_sweep_never_forms_partials(self, refuse_structure):
        refuse_structure("structure_partials")
        for system in ({"name": "kmk"}, {"name": "toda", "params": {"N": 4}}):
            code, report = run_verify(load_system({"system": system}), 30, 2)
            assert code == 0 and report["passed"] is True

    @pytest.mark.parametrize("param", ["kappa1=1e308", "R=1e308"])
    def test_overflowing_parameter_is_a_named_usage_error(self, capsys, param):
        code, out, err = _run(capsys, ["verify", "--system", "kmk", "--param", param])
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "(linear)" in err and "y = " in err and "sample point x = [" in err
        assert ("factor 1 (linear) value is inf" in err) == (param == "kappa1=1e308")
        assert ("product of factors 1 (linear) and 2 (linear)" in err) == (param == "R=1e308")

    def test_overflowing_contraction_is_a_named_usage_error(self, tmp_path, capsys):
        # J and W are finite at every point; the contraction (J W^T) L'^T
        # is not.  The sweep names the first such point, with no warning.
        config = {
            "version": 1, "n": 3, "r": 2, "B": [1, 0, 0, 0, 1, 0, 0, 0, 1],
            "factors": [
                {"kind": "exponential", "params": {"amplitude": 1e160, "rate": 1.0}},
                {"kind": "exponential", "params": {"amplitude": 1.0, "rate": 1.0}},
            ],
            "domain": {"lower": [0.5] * 3, "upper": [1.5] * 3},
        }
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        code, out, err = _run(capsys, ["verify", "--config", str(path), "--points", "5"])
        assert code == 2
        assert out == ""
        assert err == (
            "error: the Jacobi contraction overflows at sample point "
            "x = [0.5991217806861316, 0.5539137627458123, 0.800776229495886]\n"
        )

    def test_default_kmk_split_of_large_rate_accepted(self, capsys):
        code, out, err = _run(
            capsys, ["verify", "--system", "kmk", "--param", "R=509129.9814107553"]
        )
        assert code == 0 and err == ""
        assert json.loads(out)["passed"] is True

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

    @pytest.mark.parametrize("param", ["kappa1=1e308", "R=1e308"])
    def test_overflowing_parameter_is_a_named_usage_error(self, capsys, param):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = _run(capsys, ["darboux", "--system", "kmk", "--param", param])
        assert caught == []
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "(linear)" in err and "y = " in err and "sample point x = [" in err
        assert ("factor 1 (linear) value is inf" in err) == (param == "kappa1=1e308")
        assert ("product of factors 1 (linear) and 2 (linear)" in err) == (param == "R=1e308")

    def test_certification_failure_is_reported(self, capsys, monkeypatch):
        point = np.array([1.0, 2.0, 0.5])

        def failing(*args, **kwargs):
            raise poissonkit.CertificationFailureError(point, (1, 2), 3e-9)

        monkeypatch.setattr(poissonkit.cli, "certify_canonical", failing)
        code, out, err = _run(capsys, ["darboux", "--system", "kmk"])
        assert code == 1 and err == ""
        report = json.loads(out)
        assert report["passed"] is False
        assert report["certification"] == {
            "passed": False, "worst_point": [1.0, 2.0, 0.5], "worst_entry": [1, 2],
            "deviation": 3e-09,
        }


#: The (method, route) pairs that integrate: rk4 runs on the direct route
#: only.
METHOD_ROUTES = [("rk4", "direct"), ("implicit-midpoint", "direct"),
                 ("implicit-midpoint", "canonical")]


class TestIntegrateCommand:
    @pytest.mark.parametrize("method, route", METHOD_ROUTES)
    def test_overflowing_parameter_is_a_named_usage_error(self, capsys, route, method):
        argv = [
            "integrate", "--system", "kmk", "--param", "kappa1=1e308",
            "--hamiltonian", "quadratic-diagonal:1,1,1", "--x0", "2,1,1",
            "--steps", "3", "--route", route, "--method", method,
        ]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = _run(capsys, argv)
        assert caught == []
        assert code == 2 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0] == (
            "error: factor 1 (linear) value is inf at y = 2.0, "
            "initial state x = [2.0, 1.0, 1.0]"
        )

    @pytest.mark.parametrize("route", ["direct", "canonical"])
    def test_overflowing_hamiltonian_gradient_is_a_usage_error(self, capsys, route):
        argv = [
            "integrate", "--system", "kmk", "--hamiltonian", "quadratic-diagonal:1e308,1,1",
            "--x0", "2,1,1", "--steps", "3", "--route", route,
        ]
        code, out, err = _run(capsys, argv)
        assert code == 2 and out == ""
        assert err == "error: the vector field overflows at initial state x = [2.0, 1.0, 1.0]\n"

    @pytest.mark.parametrize("route", ["direct", "canonical"])
    @pytest.mark.parametrize(
        "hamiltonian, steps, what",
        [
            ("quadratic-diagonal:1e308,1,1", "0", "the vector field"),
            ("linear:1e308,1e308,1e308", "3", "the Hamiltonian"),
        ],
    )
    def test_overflowing_start_is_a_usage_error(self, capsys, route, hamiltonian, steps, what):
        """The start is checked whether or not a step follows, and H(x0)
        as well as the field."""
        argv = [
            "integrate", "--system", "kmk", "--hamiltonian", hamiltonian,
            "--x0", "2,1,1", "--steps", steps, "--route", route,
        ]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = _run(capsys, argv)
        assert caught == []
        assert code == 2 and out == ""
        assert err == f"error: {what} overflows at initial state x = [2.0, 1.0, 1.0]\n"

    def test_casimir_face_exit_keeps_states_inside(self, capsys):
        """H = x2 drives x3 to its face x3 = 0: the box check ends the run."""
        argv = [
            "integrate", "--system", "kmk", "--hamiltonian", "coordinate:2",
            "--x0", "1,1,0.5", "--dt", "0.1", "--steps", "100", "--route", "canonical",
        ]
        code, out, err = _run(capsys, argv)
        assert code == 0
        assert "domain_exit=true" in err
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert len(rows) == 5
        assert all(float(row[3]) > 0.0 for row in rows)

    @pytest.mark.parametrize("method, route", METHOD_ROUTES)
    def test_overflowing_step_is_a_silent_domain_exit(self, capsys, route, method):
        argv = [
            "integrate", "--system", "kmk", "--hamiltonian", "quadratic-diagonal:1,2,3",
            "--x0", "2,1,1", "--steps", "50", "--dt", "3", "--route", route,
            "--method", method,
        ]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = _run(capsys, argv)
        assert caught == []
        assert code == 0
        lines = err.splitlines()
        assert len(lines) == 1 and "domain_exit=true" in lines[0]

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

    def test_missing_initial_state_is_usage_error(self, capsys):
        argv = ["integrate", "--system", "kmk", "--hamiltonian", "linear:1,1,1"]
        code, out, err = _run(capsys, argv)
        assert (code, out, err) == (2, "", "error: no initial state given (config or --x0)\n")

    def test_non_multiseparable_system_is_usage_error(self, capsys):
        argv = ["integrate", "--system", "counterexample3", "--hamiltonian", "linear:1,1,1",
                "--x0", "2,1,1"]
        code, out, err = _run(capsys, argv)
        assert (code, out, err) == (2, "", "error: integrate requires a multiseparable system\n")

    def test_library_failure_exits_one(self, capsys):
        # A step of 20 on the canonical route leaves Newton's method without
        # convergence: a PoissonKitError that is not a usage error.
        argv = [
            "integrate", "--system", "toda", "--param", "N=3",
            "--hamiltonian", "quadratic-diagonal:1,1,5,5,5", "--x0", "0.9,0.9,0.2,-0.2,0",
            "--dt", "20", "--steps", "3", "--route", "canonical",
        ]
        code, out, err = _run(capsys, argv)
        assert (code, out) == (1, "")
        assert err == "error: implicit midpoint: no convergence in 50 iterations\n"

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

    def test_canonical_route_method(self, capsys):
        """The canonical route integrates by implicit midpoint, its default;
        asking it for rk4 is a usage error naming --method."""
        argv = KMK_INTEGRATE + ["--hamiltonian", "linear:1,2,3", "--x0", "1,1.1,0.9",
                                "--route", "canonical"]
        default = _run(capsys, argv)
        assert default[0] == 0
        assert _run(capsys, argv + ["--method", "implicit-midpoint"]) == default
        code, out, err = _run(capsys, argv + ["--method", "rk4"])
        assert (code, out) == (2, "")
        assert err == (
            "error: --method: the canonical route integrates by implicit-midpoint only, "
            "got 'rk4'\n"
        )


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--system", "kmk", "--points", "5"],
        ["darboux", "--system", "kmk", "--points", "5"],
        KMK_INTEGRATE + ["--hamiltonian", "linear:1,2,3", "--x0", "1,1.1,0.9"],
    ],
)
def test_unwritable_out_is_usage_error(tmp_path, capsys, argv):
    target = tmp_path / "missing" / "report"
    code, out, err = _run(capsys, argv + ["--out", str(target)])
    assert (code, out) == (2, "")
    assert err == f"error: --out: cannot write {str(target)!r}: No such file or directory\n"


OUT_COMMANDS = [
    ["verify", "--system", "kmk", "--points", "5"],
    ["darboux", "--system", "kmk", "--points", "5"],
    KMK_INTEGRATE + ["--hamiltonian", "linear:1,2,3", "--x0", "1,1.1,0.9"],
]


def _lock(monkeypatch, tmp_path):
    """Make os.access report every path named "locked..." as not writable,
    whoever runs the tests, and give tmp_path a locked directory holding an
    existing file and a locked existing file."""
    access = os.access

    def locked_access(path, mode):
        return not os.path.basename(path).startswith("locked") and access(path, mode)

    monkeypatch.setattr(os, "access", locked_access)
    (tmp_path / "locked").mkdir()
    (tmp_path / "locked" / "report").write_text("old")
    (tmp_path / "locked-file").write_text("old")


@pytest.mark.parametrize("argv", OUT_COMMANDS)
@pytest.mark.parametrize(
    "target, reason",
    [
        ("missing/report", "No such file or directory"),
        ("locked/new", "Permission denied"),
        ("locked-file", "Permission denied"),
    ],
)
def test_unwritable_out_fails_before_the_command_runs(
    tmp_path, capsys, monkeypatch, argv, target, reason
):
    """A new --out in a missing or unwritable directory, or an existing
    --out that is not writable, exits 2 before the sweep, the chart or the
    integration starts."""

    def refuse(*args, **kwargs):
        raise AssertionError("the command ran")

    for name in ("run_verify", "run_darboux", "run_integrate"):
        monkeypatch.setattr(poissonkit.cli, name, refuse)
    _lock(monkeypatch, tmp_path)
    target = tmp_path / target
    code, out, err = _run(capsys, argv + ["--out", str(target)])
    assert (code, out) == (2, "")
    assert err == f"error: --out: cannot write {str(target)!r}: {reason}\n"


@pytest.mark.parametrize("argv", OUT_COMMANDS)
def test_writable_file_in_unwritable_directory_is_written(tmp_path, capsys, monkeypatch, argv):
    """Overwriting an existing file needs access to the file, not to its
    directory, so the command runs and replaces the file; so does
    os.devnull."""
    _lock(monkeypatch, tmp_path)
    target = tmp_path / "locked" / "report"
    assert _run(capsys, argv + ["--out", str(target)])[:2] == (0, "")
    assert target.read_text() not in ("", "old")
    assert _run(capsys, argv + ["--out", os.devnull])[:2] == (0, "")


@pytest.mark.parametrize(
    "target, reason", [(".", "Is a directory"), ("file/report", "Not a directory")]
)
def test_out_that_fails_at_write_time_is_usage_error(tmp_path, capsys, target, reason):
    """A failure that only opening the file finds, here an --out that is a
    directory or lies under a file, is reported the same way after the run."""
    (tmp_path / "file").write_text("")
    target = os.path.normpath(tmp_path / target)
    argv = ["verify", "--system", "kmk", "--points", "5", "--out", target]
    code, out, err = _run(capsys, argv)
    assert (code, out) == (2, "")
    assert err == f"error: --out: cannot write {target!r}: {reason}\n"


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
    assert err.startswith("error: --dt: expected a finite number > 0, got ")


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


@pytest.mark.parametrize("system", sorted(CATALOG))
def test_unknown_builder_param_is_usage_error(capsys, system):
    code, out, err = _run(capsys, ["verify", "--system", system, "--param", "gamma=2"])
    assert (code, out) == (2, "")
    assert err == (
        "error: system definition rejected: "
        f"unknown parameters for {system}: ['gamma']\n"
    )


def test_invalid_points_is_usage_error(capsys):
    for command in ("verify", "darboux"):
        for flag, value in (("--points", "0"), ("--seed", "-1")):
            code, out, err = _run(capsys, [command, "--system", "kmk", flag, value])
            assert code == 2
            assert out == ""
            assert len(err.splitlines()) == 1 and err.startswith(f"error: {flag}: ")


@pytest.mark.parametrize(
    "error",
    [
        MemoryError("Unable to allocate 21.8 TiB"),
        ValueError("array is too big; `arr.size * arr.dtype.itemsize` is too large"),
        ValueError("Maximum allowed dimension exceeded"),
    ],
)
def test_points_too_many_to_draw_is_usage_error(monkeypatch, capsys, error):
    """A Halton draw of --points points that numpy cannot allocate or size
    exits 2 naming --points; the draw is stubbed, so nothing is allocated."""
    draw = poissonkit.domain._scrambled_halton

    def too_many(num, d, seed):
        if num == 12345:
            raise error
        return draw(num, d, seed)

    monkeypatch.setattr(poissonkit.domain, "_scrambled_halton", too_many)
    for command in ("verify", "darboux"):
        code, out, err = _run(capsys, [command, "--system", "toda", "--points", "12345"])
        assert (code, out) == (2, "")
        assert err == "error: --points: 12345 points in dimension 5 do not fit in memory\n"


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--hamiltonian", "quadratic-diagonal:1,a,1"),
        ("--hamiltonian", "coordinate:2.9"),
        ("--hamiltonian", "coordinate:1,2"),
        ("--hamiltonian", "coordinate:1,banana"),
        ("--hamiltonian", "coordinate:"),
        ("--hamiltonian", "linear:1,2,3,"),
        ("--hamiltonian", "linear:,1,2,3"),
        ("--hamiltonian", "linear:"),
        ("--hamiltonian", "quadratic-diagonal:1,,1,1"),
        ("--hamiltonian", "foo:1,2,3"),
        ("--x0", "1,b,1"),
        ("--steps", "-1"),
        ("--dt", "0"),
        ("--dt", "nan"),
        ("--dt", "-1e-3"),
        ("--dt", "1e308"),
    ],
)
def test_malformed_integrate_flag_names_flag(capsys, flag, value):
    argv = {"--hamiltonian": "quadratic-diagonal:1,1,1", "--x0": "1,1.1,0.9", "--steps": "5"}
    argv[flag] = value
    code, out, err = _run(
        capsys,
        ["integrate", "--system", "kmk", *(f"{k}={v}" for k, v in argv.items())],
    )
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {flag}: ")


def test_unreadable_config_names_flag(tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    code, out, err = _run(capsys, ["verify", "--config", missing])
    assert (code, out) == (2, "")
    assert err == f"error: --config: cannot read {missing!r}: No such file or directory\n"


def test_non_utf8_config_names_flag(tmp_path, capsys):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe" + json.dumps(KMK_CONFIG).encode("utf-16-le"))
    code, out, err = _run(capsys, ["verify", "--config", str(path)])
    assert (code, out) == (2, "")
    assert err == (
        f"error: --config: cannot read {str(path)!r}: 'utf-8' codec can't decode byte 0xff"
        " in position 0: invalid start byte\n"
    )


def test_config_and_system_are_exclusive(tmp_path, capsys):
    path = tmp_path / "kmk.json"
    path.write_text(json.dumps(KMK_CONFIG), encoding="utf-8")
    code, out, err = _run(capsys, ["verify", "--config", str(path), "--system", "kmk"])
    assert (code, out, err) == (2, "", "error: --config and --system are mutually exclusive\n")


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
        (None, KMK_INTEGRATE + ["--hamiltonian", "linear:1,1,1", "--x0=-1,1,1"],
         "--x0: point [-1.0, 1.0, 1.0] is outside the domain box"),
        (_with(KMK_CONFIG, ("initial_state",), [0, 1, 1]), ["integrate"],
         "initial_state: point [0.0, 1.0, 1.0] is outside the domain box"),
        (_with(KMK_CONFIG, ("initial_state",), [0, 1, 1]), ["verify"],
         "initial_state: point [0.0, 1.0, 1.0] is outside the domain box"),
        ([], ["verify"], "<root>: expected a JSON object"),
        (_with(KMK_CONFIG, ("version",), "1"), ["verify"], "version: expected an integer"),
        (_with(KMK_CONFIG, ("hamiltonian",), []), ["integrate"],
         "hamiltonian: expected an object with a kind"),
        (_with(KMK_CONFIG, ("system", "params"), []), ["verify"],
         "system.params: expected an object"),
        (_with(EXPLICIT_CONFIG, ("n",), "3"), ["verify"], "n: expected an integer >= 2"),
        (_with(EXPLICIT_CONFIG, ("r",), 4), ["verify"], "r: rank must lie in 0..3"),
        ({k: v for k, v in EXPLICIT_CONFIG.items() if k != "domain"}, ["verify"],
         "domain: missing"),
        (_with(EXPLICIT_CONFIG, ("domain", "lower"), [0, 0]), ["verify"],
         "domain.lower: expected a list of 3 numbers"),
        (_with(EXPLICIT_CONFIG, ("factors", 0), "linear"), ["verify"],
         "factors[0]: expected an object with a kind"),
        (_with(EXPLICIT_CONFIG, ("factors", 0, "validity"), 0), ["verify"],
         "factors[0].validity: expected [lo, hi]"),
        (_with(KMK_CONFIG, ("hamiltonian",), {"kind": "coordinate", "params": {"index": 5}}),
         ["integrate"], "hamiltonian.params.index: index 5 outside 1..3"),
        (_with(EXPLICIT_CONFIG, ("B", 0), 10**400), ["verify"], "B[0]: number out of range"),
        (_with(EXPLICIT_CONFIG, ("domain",), [0, 1]), ["verify"],
         "domain: expected an object with lower/upper"),
        (_with(EXPLICIT_CONFIG, ("domain", "upper"), [1, 1, 1]), ["darboux"],
         "domain: sample box must lie inside the domain box"),
        (_with(EXPLICIT_CONFIG, ("domain", "lower"), 0), ["verify"],
         "domain.lower: expected a list of 3 numbers"),
        (_with(EXPLICIT_CONFIG, ("factors", 0, "params"), [1.0]), ["darboux"],
         "factors[0].params: expected an object"),
        (_with(EXPLICIT_CONFIG, ("factors", 0, "params", "bogus"), 1.0), ["verify"],
         "factors[0].params: unknown parameters for linear: ['bogus']"),
        (_with(EXPLICIT_CONFIG, ("factors", 1, "params", "validity"), 1.0), ["darboux"],
         "factors[1].params: unknown parameters for affine: ['validity']"),
        (_with(KMK_CONFIG, ("hamiltonian", "params"), [1, 1, 1]), ["integrate"],
         "hamiltonian.params: expected an object"),
        (_with(KMK_CONFIG, ("system",), "kmk"), ["integrate"],
         "system: expected an object with a name"),
        (_with(EXPLICIT_CONFIG, ("r",), 2.0), ["verify"], "r: expected an integer"),
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


def test_unbounded_domain_without_sample_box_is_usage_error(tmp_path, capsys):
    config = _with(EXPLICIT_CONFIG, ("domain",), {"lower": [0, 0, 0], "upper": [None, None, 1]})
    path = tmp_path / "unbounded.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    for command in ("verify", "darboux"):
        code, out, err = _run(capsys, [command, "--config", str(path)])
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: domain.sample_lower/domain.sample_upper: ")
    # The canonical route runs on a chart that is left unvalidated.
    code, out, err = _run(
        capsys,
        ["integrate", "--config", str(path), "--route", "canonical", "--steps", "3",
         "--hamiltonian", "quadratic-diagonal:1,1,1", "--x0", "1,0.5,0.5"],
    )
    assert code == 0, err
    assert "domain_exit=false" in err


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
        ("kmk", ["R=null"], "R"),
        ("kmk", ["kappa1=null"], "kappa1"),
        ("kmk", ["kappa2=null"], "kappa2"),
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


def test_overflowing_projected_interval_is_a_usage_error(tmp_path, capsys):
    linear = {"kind": "linear", "params": {"slope": 1.0}}
    factor_row = {
        "version": 1, "n": 2, "r": 2, "B": [1e308, 0, 0, 1],
        "factors": [linear] * 2,
        "domain": {"lower": [0.5, 0.5], "upper": [10, 10]},
    }
    # A Casimir row (q > r) is checked like a factor row.
    casimir_row = {
        "version": 1, "n": 3, "r": 2, "B": [1, 0, 0, 0, 1, 0, 0, 0, 1e308],
        "factors": [linear] * 2,
        "domain": {"lower": [0.5] * 3, "upper": [10] * 3},
    }
    cases = (
        (factor_row, "B row 1: the projected interval (5e+307, inf) of factor 1 overflows"),
        (casimir_row, "B row 3: the projected interval (5e+307, inf) overflows"),
    )
    for config, message in cases:
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        ones = ",".join(["1"] * config["n"])
        integrate = ["integrate", "--x0", ones, "--hamiltonian", "quadratic-diagonal:" + ones]
        for argv in (["verify"], ["darboux"], integrate, [*integrate, "--route", "canonical"]):
            code, out, err = _run(capsys, [*argv, "--config", str(path)])
            assert code == 2
            assert out == ""
            assert len(err.splitlines()) == 1
            assert message in err


def test_reused_parser_leaks_no_state(capsys):
    toda = ["--hamiltonian", "quadratic-diagonal:1,1,1,1,1", "--x0", "0.1,0.2,0.3,1,1"]
    kmk = [*KMK_INTEGRATE, "--hamiltonian", "linear:1,2,3", "--x0", "1,1.1,0.9"]
    argvs = [
        ["integrate", "--system", "toda", "--param", "N=3", "--steps", "3", *toda],
        ["verify", "--system", "kmk", "--points", "5"],
        ["integrate", "--system", "kmk", "--route", "sideways"],
        [*kmk, "--method", "implicit-midpoint"],
        kmk,
    ]
    src = os.path.dirname(os.path.dirname(poissonkit.__file__))
    results = []
    for argv in argvs:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        results.append((code, captured.out, captured.err))
        fresh = subprocess.run(
            [sys.executable, "-m", "poissonkit.cli", *argv],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": src},
        )
        assert results[-1] == (fresh.returncode, fresh.stdout, fresh.stderr)
    assert [code for code, _, _ in results] == [0, 0, 2, 0, 0]
    assert results[3][1] != results[4][1]  # the last call integrates by rk4 again
