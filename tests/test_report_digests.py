"""Byte identity of the CLI's reports on a fixed argv list.

``report_digests.json`` holds, for each argv, its exit code and the sha256
of its stdout and of its stderr, with the configs the argvs name and the
numpy version that made the digests; ``{name}`` in an argv is the path of
config ``name``.  A change that moves a report on purpose regenerates the
file and names the argvs that moved:

    PYTHONPATH=src python tests/test_report_digests.py

which prints each argv whose digest moved, and each new one (a case given
by its ``argv`` alone), before it rewrites the file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from poissonkit.cli import main

DIGESTS = Path(__file__).with_name("report_digests.json")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _run(argv: list[str], paths: dict[str, str]) -> tuple[int, str, str]:
    """main on the argv with its config names filled in: exit code, stdout
    and stderr.  A warning fails the run, since no report may carry one."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([arg.format(**paths) for arg in argv])
    return code, out.getvalue(), err.getvalue()


def _digest(argv: list[str], paths: dict[str, str]) -> dict:
    code, out, err = _run(argv, paths)
    return {"argv": argv, "exit": code, "stdout": _sha256(out), "stderr": _sha256(err)}


def _write_configs(configs: dict, directory: Path) -> dict[str, str]:
    paths = {}
    for name, config in configs.items():
        paths[name] = str(directory / f"{name}.json")
        Path(paths[name]).write_text(json.dumps(config), encoding="utf-8")
    return paths


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    data = json.loads(DIGESTS.read_text(encoding="utf-8"))
    if data["numpy"] != np.__version__:
        pytest.skip(f"digests made with numpy {data['numpy']}, running {np.__version__}")
    return data, _write_configs(data["configs"], tmp_path_factory.mktemp("configs"))


def test_reports_are_byte_identical(recorded):
    data, paths = recorded
    moved = [
        case["argv"] for case in data["cases"] if _digest(case["argv"], paths) != case
    ]
    assert moved == []


def test_small_scale_run_conserves_h_as_its_twin(recorded):
    """kmk from 1e-8 x0 with H / 1e-16 is the s = 1 run scaled, and direct
    midpoint conserves a quadratic H to its Newton stop, which follows the
    scale: both runs report the same max|dH|."""
    data, paths = recorded
    argvs = [
        ["integrate", "--system", "kmk", "--hamiltonian", f"quadratic-diagonal:{weights}",
         "--x0", x0, "--steps", "200", "--dt", "0.01", "--method", "implicit-midpoint"]
        for weights, x0 in (("1e16,2e16,3e16", "2e-8,1e-8,1e-8"), ("1,2,3", "2,1,1"))
    ]
    assert all(any(case["argv"] == argv for case in data["cases"]) for argv in argvs)
    drifts = [re.search(r"max\|dH\|=(\S+)", _run(argv, paths)[2]).group(1) for argv in argvs]
    assert drifts[0] == drifts[1]


if __name__ == "__main__":
    import tempfile

    data = json.loads(DIGESTS.read_text(encoding="utf-8"))
    with tempfile.TemporaryDirectory() as directory:
        paths = _write_configs(data["configs"], Path(directory))
        cases = [_digest(case["argv"], paths) for case in data["cases"]]
    if data["numpy"] != np.__version__:
        print(f"numpy {data['numpy']} -> {np.__version__}")
    for old, new in zip(data["cases"], cases):
        if new != old:
            print("new:" if len(old) == 1 else "moved:", " ".join(old["argv"]))
    data["cases"], data["numpy"] = cases, np.__version__
    # One line per config and per case, so that a moved report moves one line.
    configs = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in data["configs"].items())
    cases = ",\n".join(f"  {json.dumps(case)}" for case in data["cases"])
    DIGESTS.write_text(
        f'{{"numpy": {json.dumps(data["numpy"])},\n "configs": {{\n{configs}\n }},\n'
        f' "cases": [\n{cases}\n ]}}\n',
        encoding="utf-8",
    )
