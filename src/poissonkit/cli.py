"""Command-line front-end.

Commands: ``verify`` (axiom sweep, JSON report), ``darboux`` (chart export
plus canonical-form certification), ``integrate`` (trajectory CSV), and
``catalog list``.  Exit codes are a stable contract: 0 success, 1
verification or certification failure, 2 usage or configuration error.
Reports are byte-deterministic for a fixed config and seed; floats are
serialized with 17 significant digits so binary64 values round-trip, nan
and inf as null, and numpy values as their ``tolist``.  A ``verify``
report has the same sections with or without a spec: ``kernel`` and
``casimirs`` are null for a candidate field.  ``--out`` is checked before
the command runs, a directory included.  Sweeps run in one thread with
numpy batching.  One parser, built on first use, serves every ``main``
call in a process; parsing leaves it unchanged.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import asdict

import numpy as np

from .catalog import CATALOG
from .config import (
    HAMILTONIAN_KINDS,
    System,
    build_hamiltonian,
    load_system,
    parse_config,
    state_in_box,
)
from .darboux import casimirs, certify_canonical, darboux_chart
from .dynamics import (
    HamiltonianField,
    integrate_canonical,
    integrate_direct,
    trajectory_to_csv,
)
from .errors import (
    CertificationFailureError,
    ConfigError,
    ConfigValidationError,
    EmptyDomainSampleError,
    PoissonKitError,
)
from .structure import MultiseparableSpec
from .verify import jacobi_sweep, kernel_violation, numerical_rank

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2

KERNEL_TOL_FACTOR = 1e-12


# ---------------------------------------------------------------------------
# deterministic JSON
# ---------------------------------------------------------------------------

def _number(v: float) -> str:
    return format(v, ".17g") if math.isfinite(v) else "null"


def _emit(obj, indent: int) -> str:
    if isinstance(obj, (np.ndarray, np.generic)):
        obj = obj.tolist()
    pad = "  " * indent
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _number(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):  # finite floats in one format call
        if obj and all(type(v) is float for v in obj) and math.isfinite(sum(obj)):
            return "[" + ", ".join(["%.17g"] * len(obj)) % tuple(obj) + "]"
        return "[" + ", ".join(_emit(v, indent) for v in obj) + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f'{pad}  {json.dumps(str(k))}: {_emit(v, indent + 1)}' for k, v in obj.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def dump_json(obj) -> str:
    """Deterministic JSON with 17-significant-digit floats (non-finite
    values become null)."""
    return _emit(obj, 0) + "\n"


# ---------------------------------------------------------------------------
# command implementations (importable; the CLI wires them to argparse)
# ---------------------------------------------------------------------------

def run_verify(system: System, points: int, seed: int) -> tuple[int, dict]:
    """Jacobi sweep plus Casimir-kernel and rank checks at the same sample
    points, reusing the sweep's J at each point; exit 0 iff all pass."""
    spec = system.spec
    report = {
        "command": "verify",
        "system": system.descriptor,
        "points": points,
        "seed": seed,
    }
    blocks = []  # per block of sample points: (ranks, max |J|, kernel violation per Casimir)

    def reuse(structures: np.ndarray) -> None:
        violation = kernel_violation(spec, structures) if spec is not None else 0.0
        blocks.append(
            (numerical_rank(structures), float(np.max(np.abs(structures))), violation)
        )

    jacobi = jacobi_sweep(system.field, points, seed=seed, visit=reuse)
    report["jacobi"] = asdict(jacobi)

    ranks = sorted({int(k) for block_ranks, _, _ in blocks for k in block_ranks})
    report["kernel"] = None
    report["rank"] = {
        "expected": None if spec is None else spec.r,
        "observed": ranks,
        "passed": len(ranks) == 1 if spec is None else ranks == [spec.r],
    }
    report["casimirs"] = None
    if spec is not None:
        max_abs_J = max(scale for _, scale, _ in blocks)
        violations = np.max([violation for _, _, violation in blocks], axis=0)
        # Each Casimir's violation over max|c_p|, so scaling a row of B,
        # which leaves J as it is, changes no verdict.
        row_max = np.abs(spec.B[spec.r :]).max(axis=1)
        report["kernel"] = {
            "max_violation": float(np.max(violations, initial=0.0)),
            "structure_scale": max_abs_J,
            "tolerance_factor": KERNEL_TOL_FACTOR,
            "passed": bool(np.all(violations / row_max <= KERNEL_TOL_FACTOR * max_abs_J)),
        }
        # Each row scaled by the power of two of its largest entry, exactly:
        # the rank's default tolerance is relative to the largest row.
        C = casimirs(spec)
        scale = np.frexp(np.abs(C).max(axis=1, initial=0.0))[1]
        casimir_rank = int(np.linalg.matrix_rank(np.ldexp(C, -scale[:, None])))
        report["casimirs"] = {
            "count": spec.n - spec.r,
            "coefficient_rank": casimir_rank,
            "passed": casimir_rank == spec.n - spec.r,
        }
    sections = (report["kernel"], report["rank"], report["casimirs"])
    passed = jacobi.passed and all(s["passed"] for s in sections if s is not None)
    report["passed"] = passed
    return (EXIT_OK if passed else EXIT_FAILED), report


def _factor_descriptor(f) -> dict:
    lo, hi = f.validity
    return {
        "kind": f.kind,
        "params": f.params(),
        "validity": [None if math.isinf(lo) else lo, None if math.isinf(hi) else hi],
    }


def run_darboux(system: System, points: int = 100, seed: int = 0) -> tuple[int, dict]:
    """Chart description plus canonical-form certification verdict."""
    spec = system.spec
    if spec is None:
        raise ConfigValidationError(
            "darboux requires a multiseparable system definition"
        )
    chart = darboux_chart(spec)
    report = {
        "command": "darboux",
        "system": system.descriptor,
        "dimension": spec.n,
        "rank": spec.r,
        "block_count": chart.block_count,
        "B": spec.B,
        "A": spec.A,
        "factors": [_factor_descriptor(f) for f in spec.factors],
        "anchors": list(chart.anchors),
        "casimirs": casimirs(spec),
        "image_lower": chart.image_lower,
        "image_upper": chart.image_upper,
    }
    try:
        result = certify_canonical(chart, num_points=points, seed=seed)
    except CertificationFailureError as exc:
        report["certification"] = {
            "passed": False,
            "worst_point": exc.point,
            "worst_entry": list(exc.entry),
            "deviation": exc.deviation,
        }
        report["passed"] = False
        return EXIT_FAILED, report
    report["certification"] = asdict(result)
    report["passed"] = True
    return EXIT_OK, report


def run_integrate(
    spec: MultiseparableSpec | None,
    H: HamiltonianField | None,
    x0: np.ndarray | None,
    dt: float,
    steps: int,
    route: str,
    method: str | None = None,
) -> tuple[int, str, str]:
    """Returns (exit code, CSV text, one-line summary).  ``method`` defaults
    to the route's: rk4 on the direct route, implicit-midpoint on the
    canonical route, which has no other."""
    if spec is None:
        raise ConfigValidationError("integrate requires a multiseparable system")
    if H is None:
        raise ConfigValidationError("no hamiltonian given (config or --hamiltonian)")
    if x0 is None:
        raise ConfigValidationError("no initial state given (config or --x0)")
    if route == "canonical" and method not in (None, "implicit-midpoint"):
        raise ConfigValidationError(
            f"--method: the canonical route integrates by implicit-midpoint only, got {method!r}"
        )
    if route == "direct":
        record = integrate_direct(spec, H, x0, dt, steps, method=method or "rk4")
    elif route == "canonical":
        record = integrate_canonical(spec, H, x0, dt, steps)
    else:
        raise ConfigValidationError(f"unknown route {route!r}")
    summary = (
        f"integrate route={route} records={record.num_records} "
        f"max|dH|={record.max_energy_drift():.6e} "
        f"max|dC|={record.max_casimir_drift():.6e} "
        f"domain_exit={str(record.domain_exit).lower()} "
        f"t_final={record.times[-1]:.17g}"
    )
    return EXIT_OK, trajectory_to_csv(record), summary


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------

def _parse_param(text: str) -> tuple[str, object]:
    if "=" not in text:
        raise ConfigValidationError(f"--param expects K=V, got {text!r}")
    key, raw = text.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key, value


def _system_from_args(args) -> System:
    if args.config and args.system:
        raise ConfigValidationError("--config and --system are mutually exclusive")
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:  # a decode error has no strerror
            reason = f"cannot read {args.config!r}: {getattr(exc, 'strerror', None) or exc}"
            raise ConfigValidationError(f"--config: {reason}") from None
        return parse_config(text)
    if args.system:
        params = dict(_parse_param(p) for p in args.param)
        return load_system({"system": {"name": args.system, "params": params}})
    raise ConfigValidationError("provide --config PATH or --system NAME")


def _flag_numbers(flag: str, convert, values: list[str]) -> list:
    """``convert`` of each value; a usage error naming the flag if it fails."""
    try:
        return [convert(v) for v in values]
    except ValueError as exc:
        raise ConfigValidationError(f"{flag}: {exc}") from None


def _hamiltonian_flag(text: str, n: int) -> HamiltonianField:
    kind, _, rest = text.partition(":")
    if kind not in HAMILTONIAN_KINDS:
        kinds = f"unknown kind {kind!r}; choose from {HAMILTONIAN_KINDS}"
        raise ConfigValidationError(f"--hamiltonian: {kinds}")
    values = rest.split(",") if rest else []
    if kind != "coordinate":
        value = _flag_numbers("--hamiltonian", float, values)
    elif len(values) > 1:
        raise ConfigValidationError(f"--hamiltonian: coordinate takes one index, got {rest!r}")
    else:  # a token that is no integer literal fails as the config's index does
        try:
            value = int(rest)
        except ValueError:
            value = rest
    return build_hamiltonian(kind, value, n, "--hamiltonian")


def _write_output(text: str, out: str | None):
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        message = exc.strerror or exc
        raise ConfigValidationError(f"--out: cannot write {out!r}: {message}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poissonkit",
        description="Construct, verify, reduce, and integrate structure-matrix systems.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)
    commands = (
        sub.add_parser("verify", help="run Jacobi/kernel/rank sweeps"),
        sub.add_parser("darboux", help="export the canonical chart"),
        p_int := sub.add_parser("integrate", help="integrate and emit trajectory CSV"),
    )
    for p in commands:
        p.add_argument("--config", help="path to a JSON system definition")
        p.add_argument("--system", help="catalog system name")
        p.add_argument(
            "--param", action="append", default=[], metavar="K=V",
            help="catalog system parameter (repeatable)",
        )
    for p, points in zip(commands, (50, 100)):
        p.add_argument("--points", type=int, default=points)
        p.add_argument("--seed", type=int, default=0)

    p_int.add_argument("--hamiltonian", help="KIND:ARGS, e.g. quadratic-diagonal:1,1,1")
    p_int.add_argument("--x0", help="comma-separated initial state")
    p_int.add_argument("--dt", type=float, default=1e-3)
    p_int.add_argument("--steps", type=int, default=1000)
    p_int.add_argument("--route", choices=("direct", "canonical"), default="direct")
    p_int.add_argument("--method", choices=("rk4", "implicit-midpoint"))
    for p in commands:  # last, as the usage line lists it
        p.add_argument("--out", help="write the output here instead of stdout")

    p_cat = sub.add_parser("catalog", help="catalog operations")
    p_cat.add_argument("action", choices=("list",))
    return parser


_shared_parser = functools.cache(build_parser)  # built on the first main call


def main(argv=None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        if args.cmd == "catalog":
            for name, (description, *_) in CATALOG.items():
                sys.stdout.write(f"{name}: {description}\n")
            return EXIT_OK
        if args.cmd in ("verify", "darboux"):
            for flag, value, least in (("--points", args.points, 1), ("--seed", args.seed, 0)):
                if value < least:
                    raise ConfigValidationError(
                        f"{flag}: expected an integer >= {least}, got {value}"
                    )
        if args.cmd == "integrate":
            if args.steps < 0:
                raise ConfigValidationError(f"--steps: expected an integer >= 0, got {args.steps}")
            if not (math.isfinite(args.dt) and args.dt > 0):
                raise ConfigValidationError(f"--dt: expected a finite number > 0, got {args.dt}")
            if not math.isfinite(args.dt * args.steps):
                raise ConfigValidationError(f"--dt: {args.dt} * --steps {args.steps} overflows")
        if args.out:  # not a directory; an existing file writable, a new one its directory
            parent = os.path.dirname(args.out) or "."
            target = args.out if os.path.exists(args.out) else parent
            if os.path.isdir(args.out) or not os.access(target, os.W_OK):
                reason = "Is a directory" if os.path.isdir(args.out) else "Permission denied"
                reason = reason if os.path.exists(parent) else "No such file or directory"
                raise ConfigValidationError(f"--out: cannot write {args.out!r}: {reason}")
        if args.cmd in ("verify", "darboux"):
            system = _system_from_args(args)
            run = run_verify if args.cmd == "verify" else run_darboux
            try:
                code, report = run(system, args.points, args.seed)
            except MemoryError as exc:  # the Halton draw of --points points
                raise ConfigValidationError(f"--points: {exc}") from None
            _write_output(dump_json(report), args.out)
            return code
        if args.cmd == "integrate":
            system = _system_from_args(args)
            n = system.field.n
            H = _hamiltonian_flag(args.hamiltonian, n) if args.hamiltonian else system.hamiltonian
            x0 = system.initial_state
            if args.x0:
                x0 = _flag_numbers("--x0", float, args.x0.split(","))
                x0 = state_in_box(x0, "--x0", system.field.domain)
            code, csv_text, summary = run_integrate(
                system.spec, H, x0, args.dt, args.steps, args.route, args.method
            )
            _write_output(csv_text, args.out)
            sys.stderr.write(summary + "\n")
            return code
    except (ConfigError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except EmptyDomainSampleError as exc:  # a sweep over a box with no sample box
        sys.stderr.write(f"error: domain.sample_lower/domain.sample_upper: {exc}\n")
        return EXIT_USAGE
    except PoissonKitError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_FAILED
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
