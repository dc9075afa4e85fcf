"""Benchmark workloads: seeded inputs, CLI argument lists and output checks.

Every input is drawn from ``random.Random`` seeded with the workload seed,
so the same seed gives the same configs, initial states and per-job
``--seed`` values.  poissonkit receives only the generated command lines.
This module imports neither numpy nor poissonkit, so a worker can time the
poissonkit import on its own.

A job is one or two in-process CLI calls.  Its output check runs outside
the timed window; ``reference_argvs`` are extra untimed CLI calls that the
check compares against.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Job:
    argvs: tuple[tuple[str, ...], ...]
    units: int
    reference_argvs: tuple[tuple[str, ...], ...] = ()


def _rng(name: str, seed: int, stream: str) -> random.Random:
    return random.Random(f"{name}:{seed}:{stream}")


def _fmt(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _csv_rows(text: str) -> list[list[float]]:
    lines = text.splitlines()
    return [[float(v) for v in line.split(",")] for line in lines[1:]]


def _summary_flag(stderr: str, key: str) -> str | None:
    for token in stderr.split():
        if token.startswith(key + "="):
            return token.split("=", 1)[1]
    return None


def _exit_problems(results) -> list[str]:
    return [
        f"call {k}: exit {code}: {err.strip()[:200]}"
        for k, (code, _, err) in enumerate(results)
        if code != 0
    ]


def _passed_flags(obj) -> list[bool]:
    if isinstance(obj, dict):
        flags = [v for k, v in obj.items() if k == "passed"]
        for v in obj.values():
            flags += _passed_flags(v)
        return flags
    if isinstance(obj, list):
        return [f for v in obj for f in _passed_flags(v)]
    return []


def _trajectory_problems(label, stdout, stderr, records, casimir, tol) -> tuple[list[str], list[float]]:
    """Check one integrate call; return (problems, final state)."""
    rows = _csv_rows(stdout)
    problems = []
    if len(rows) != records:
        problems.append(f"{label}: {len(rows)} records, expected {records}")
    if _summary_flag(stderr, "domain_exit") != "false":
        problems.append(f"{label}: domain_exit is not false")
    if not rows:
        return problems + [f"{label}: empty trajectory"], []
    c0 = casimir(rows[0])
    drift = max(abs(casimir(row) - c0) for row in rows)
    if not drift <= tol:
        problems.append(f"{label}: max|dC| = {drift:.3e} exceeds {tol:g}")
    return problems, rows[-1]


class CheckMixed:
    """verify + darboux on an explicit n=32, r=30 system with all five
    built-in factor kinds."""

    name = "check-mixed"
    unit_name = "points"
    N = 32
    R = 30
    VERIFY_POINTS = 50
    CERT_POINTS = 100
    KINDS = ("linear", "affine", "exponential", "power", "constant")
    PARAM_RANGES = {
        "linear": {"slope": (0.5, 2.0)},
        "affine": {"slope": (0.5, 2.0), "intercept": (0.1, 1.0)},
        "exponential": {"amplitude": (0.5, 2.0), "rate": (-0.3, 0.3)},
        "power": {"coefficient": (0.5, 2.0), "exponent": (-1.5, 1.5)},
        "constant": {"c": (0.5, 2.0)},
    }

    def config(self, seed: int) -> dict:
        """B = I + 0/1 strictly-upper entries at density 0.15 on the box
        (0.5, 1.5)^n: every projected interval is positive, so every factor
        kind is nonvanishing on it."""
        rng = _rng(self.name, seed, "config")
        n = self.N
        B = [
            [1.0 if i == j else (1.0 if j > i and rng.random() < 0.15 else 0.0) for j in range(n)]
            for i in range(n)
        ]
        factors = []
        for q in range(self.R):
            kind = self.KINDS[q % len(self.KINDS)]
            ranges = self.PARAM_RANGES[kind]
            params = {key: rng.uniform(lo, hi) for key, (lo, hi) in ranges.items()}
            factors.append({"kind": kind, "params": params})
        return {
            "version": 1,
            "n": n,
            "r": self.R,
            "B": [v for row in B for v in row],
            "factors": factors,
            "domain": {"lower": [0.5] * n, "upper": [1.5] * n},
        }

    def _config_path(self, workdir: str) -> str:
        return os.path.join(workdir, "check-mixed.json")

    def prepare(self, seed: int, workdir: str) -> None:
        with open(self._config_path(workdir), "w", encoding="utf-8") as fh:
            json.dump(self.config(seed), fh)

    def jobs(self, seed: int, workdir: str):
        rng = _rng(self.name, seed, "jobs")
        path = self._config_path(workdir)
        while True:
            s = str(rng.randrange(1_000_000))
            yield Job(
                argvs=(
                    ("verify", "--config", path, "--points", str(self.VERIFY_POINTS), "--seed", s),
                    ("darboux", "--config", path, "--points", str(self.CERT_POINTS), "--seed", s),
                ),
                units=self.VERIFY_POINTS + self.CERT_POINTS,
            )

    def check(self, job: Job, results, reference) -> list[str]:
        problems = _exit_problems(results)
        try:
            verify = json.loads(results[0][1])
            darboux = json.loads(results[1][1])
        except (json.JSONDecodeError, IndexError) as exc:
            return problems + [f"unreadable report: {exc}"]
        flags = _passed_flags(verify) + _passed_flags(darboux)
        if not flags or not all(f is True for f in flags):
            problems.append(f"passed flags {flags}")
        if verify.get("rank", {}).get("observed") != [self.R]:
            problems.append(f"rank.observed {verify.get('rank')}")
        jacobi = verify.get("jacobi", {})
        if jacobi.get("num_points") != self.VERIFY_POINTS:
            problems.append(f"jacobi.num_points {jacobi.get('num_points')}")
        if jacobi.get("num_triples") != math.comb(self.N, 3):
            problems.append(f"jacobi.num_triples {jacobi.get('num_triples')}")
        if darboux.get("certification", {}).get("num_points") != self.CERT_POINTS:
            problems.append("certification.num_points differs")
        return problems


class IntegrateCanonical:
    """Canonical-route integration of the N=6 lattice bracket; every job
    rebuilds and validates the chart."""

    name = "integrate-canonical"
    unit_name = "steps"
    LATTICE_N = 6
    STEPS = 100
    DT = "1e-3"
    CASIMIR_TOL = 1e-10
    AGREEMENT_TOL = 1e-6
    #: Direct-route RK4 to the same final time t = 0.1 in ten steps: its own
    #: error (about 5e-10 against 100 steps) is far below AGREEMENT_TOL, and
    #: it keeps the untimed check cheap, so a run holds more jobs.
    REFERENCE_RK4 = ("--route", "direct", "--method", "rk4", "--steps", "10", "--dt", "1e-2")

    def prepare(self, seed: int, workdir: str) -> None:
        pass

    def jobs(self, seed: int, workdir: str):
        rng = _rng(self.name, seed, "jobs")
        N = self.LATTICE_N
        n = 2 * N - 1
        while True:
            # alpha in (0.5, 1), beta in (-0.5, 0.5): far from the alpha > 0
            # face for the whole run.
            x0 = [rng.uniform(0.5, 1.0) for _ in range(N - 1)]
            x0 += [rng.uniform(-0.5, 0.5) for _ in range(N)]
            weights = [rng.uniform(0.5, 1.5) for _ in range(n)]
            problem = (
                "integrate", "--system", "toda", "--param", f"N={N}",
                "--hamiltonian", "quadratic-diagonal:" + _fmt(weights), "--x0", _fmt(x0),
            )
            yield Job(
                argvs=(problem + ("--route", "canonical", "--steps", str(self.STEPS), "--dt", self.DT),),
                units=self.STEPS,
                reference_argvs=(problem + self.REFERENCE_RK4,),
            )

    def check(self, job: Job, results, reference) -> list[str]:
        problems = _exit_problems(results) + _exit_problems(reference)
        N = self.LATTICE_N
        n = 2 * N - 1

        def casimir(row):  # sum of the betas
            return math.fsum(row[N : 1 + n])

        found, final = _trajectory_problems(
            "canonical", results[0][1], results[0][2], self.STEPS + 1, casimir, self.CASIMIR_TOL
        )
        problems += found
        ref_rows = _csv_rows(reference[0][1])
        if final and ref_rows:
            x, x_ref = final[1 : 1 + n], ref_rows[-1][1 : 1 + n]
            for a, b in zip(x, x_ref):
                if not abs(a - b) <= self.AGREEMENT_TOL * (1.0 + abs(b)):
                    problems.append(f"final state {x} differs from direct RK4 {x_ref}")
                    break
        return problems


class IntegrateDirect:
    """Direct-route RK4 and implicit midpoint on the three-species bracket."""

    name = "integrate-direct"
    unit_name = "steps"
    STEPS = 150
    CASIMIR_TOL = 1e-12
    AGREEMENT_TOL = 1e-5

    def prepare(self, seed: int, workdir: str) -> None:
        pass

    def jobs(self, seed: int, workdir: str):
        rng = _rng(self.name, seed, "jobs")
        while True:
            x0 = [rng.uniform(0.5, 1.5) for _ in range(3)]
            weights = [rng.uniform(0.5, 1.5) for _ in range(3)]
            common = (
                "integrate", "--system", "kmk",
                "--hamiltonian", "quadratic-diagonal:" + _fmt(weights),
                "--x0", _fmt(x0), "--route", "direct", "--steps", str(self.STEPS),
            )
            yield Job(
                argvs=(common + ("--method", "rk4"), common + ("--method", "implicit-midpoint")),
                units=2 * self.STEPS,
            )

    def check(self, job: Job, results, reference) -> list[str]:
        problems = _exit_problems(results)

        def casimir(row):  # x1 + x2 + x3
            return math.fsum(row[1:4])

        finals = []
        for label, (_, out, err) in zip(("rk4", "implicit-midpoint"), results):
            found, final = _trajectory_problems(
                label, out, err, self.STEPS + 1, casimir, self.CASIMIR_TOL
            )
            problems += found
            finals.append(final[1:4])
        if all(finals):
            gap = max(abs(a - b) for a, b in zip(*finals))
            if not gap <= self.AGREEMENT_TOL:
                problems.append(f"rk4 and midpoint final states differ by {gap:.3e}")
        return problems


WORKLOADS = {w.name: w for w in (CheckMixed(), IntegrateCanonical(), IntegrateDirect())}
