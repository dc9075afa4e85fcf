"""The benchmark's output checks, run as a test: the first job of each
workload at seed 1, through the CLI in-process, must pass its workload's
own check (exit codes, every ``passed`` flag, Casimir drift, rk4/midpoint
and canonical/direct agreement)."""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import pytest

from poissonkit.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from workloads import WORKLOADS  # noqa: E402


def _call(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_first_job_passes_its_check(name, tmp_path):
    workload = WORKLOADS[name]
    workload.prepare(1, str(tmp_path))
    job = next(iter(workload.jobs(1, str(tmp_path))))
    results = [_call(argv) for argv in job.argvs]
    reference = [_call(argv) for argv in job.reference_argvs]
    assert workload.check(job, results, reference) == []
