"""Command-line front-end.

Commands: ``verify`` (axiom sweep, JSON report), ``darboux`` (chart export
plus canonical-form certification), ``integrate`` (trajectory CSV), and
``catalog list``.  Exit codes are a stable contract: 0 success, 1
verification or certification failure, 2 usage or configuration error.
Reports are byte-deterministic for a fixed config and seed; floats are
serialized with 17 significant digits so binary64 values round-trip.
Sweeps run in one thread with numpy batching.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict

import numpy as np

from .catalog import CATALOG
from .config import (
    HAMILTONIAN_KINDS,
    System,
    build_hamiltonian,
    load_system,
    number_list,
    parse_config,
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
    PoissonKitError,
)
from .structure import MultiseparableSpec
from .verify import jacobi_sweep, kernel_violation, numerical_rank

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2

JACOBI_SWEEP_TOL = 1e-7
KERNEL_TOL_FACTOR = 1e-12


# ---------------------------------------------------------------------------
# deterministic JSON
# ---------------------------------------------------------------------------

def _coerce(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, tuple):
        return list(obj)
    return obj


def _number(v: float) -> str:
    return format(v, ".17g") if math.isfinite(v) else "null"


def _emit_floats(arr: np.ndarray) -> str:
    """A float array, row by row; the same text as the generic path."""
    if arr.ndim == 1:
        return "[" + ", ".join(map(_number, arr.tolist())) + "]"
    return "[" + ", ".join(_emit_floats(row) for row in arr) + "]"


def _emit(obj, indent: int) -> str:
    if isinstance(obj, np.ndarray) and obj.dtype.kind == "f" and obj.ndim:
        return _emit_floats(obj)
    obj = _coerce(obj)
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
    if isinstance(obj, list):
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
    blocks = []  # per block of sample points: (ranks, max |J|, kernel violation)

    def reuse(structures: np.ndarray) -> None:
        violation = kernel_violation(spec, structures) if spec is not None else 0.0
        blocks.append(
            (numerical_rank(structures), float(np.max(np.abs(structures))), violation)
        )

    jacobi = jacobi_sweep(
        system.field, points, seed=seed, tolerance=JACOBI_SWEEP_TOL, visit=reuse
    )
    report["jacobi"] = asdict(jacobi)

    ranks = sorted({int(k) for block_ranks, _, _ in blocks for k in block_ranks})
    if spec is not None:
        max_abs_J = max(scale for _, scale, _ in blocks)
        kernel_max = max(violation for _, _, violation in blocks)
        kernel_passed = kernel_max <= KERNEL_TOL_FACTOR * max_abs_J
        report["kernel"] = {
            "max_violation": kernel_max,
            "structure_scale": max_abs_J,
            "tolerance_factor": KERNEL_TOL_FACTOR,
            "passed": kernel_passed,
        }
        rank_passed = ranks == [spec.r]
        report["rank"] = {
            "expected": spec.r,
            "observed": ranks,
            "passed": rank_passed,
        }
        casimir_rank = int(np.linalg.matrix_rank(casimirs(spec))) if spec.n > spec.r else 0
        casimir_passed = casimir_rank == spec.n - spec.r
        report["casimirs"] = {
            "count": spec.n - spec.r,
            "coefficient_rank": casimir_rank,
            "passed": casimir_passed,
        }
        passed = jacobi.passed and kernel_passed and rank_passed and casimir_passed
    else:
        report["kernel"] = None
        report["rank"] = {
            "expected": None,
            "observed": ranks,
            "passed": len(ranks) == 1,
        }
        report["casimirs"] = None
        passed = jacobi.passed and len(ranks) == 1
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
        result = certify_canonical(spec, chart, num_points=points, seed=seed)
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
    method: str = "rk4",
) -> tuple[int, str, str]:
    """Returns (exit code, CSV text, one-line summary)."""
    if spec is None:
        raise ConfigValidationError("integrate requires a multiseparable system")
    if H is None:
        raise ConfigValidationError("no hamiltonian given (config or --hamiltonian)")
    if x0 is None:
        raise ConfigValidationError("no initial state given (config or --x0)")
    if route == "direct":
        record = integrate_direct(spec, H, x0, dt, steps, method=method)
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
        except OSError as exc:
            raise ConfigValidationError(f"cannot read config: {exc}") from exc
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
        raise ConfigValidationError(f"unknown hamiltonian kind {kind!r}")
    values = [v for v in rest.split(",") if v != ""]
    if kind == "coordinate":
        value = _flag_numbers("--hamiltonian", int, values[:1])[0] if values else None
    else:
        value = _flag_numbers("--hamiltonian", float, values)
    return build_hamiltonian(kind, value, n, "--hamiltonian")


def _add_system_args(parser: argparse.ArgumentParser):
    parser.add_argument("--config", help="path to a JSON system definition")
    parser.add_argument("--system", help="catalog system name")
    parser.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="K=V",
        help="catalog system parameter (repeatable)",
    )


def _write_output(text: str, out: str | None):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poissonkit",
        description="Construct, verify, reduce, and integrate structure-matrix systems.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_verify = sub.add_parser("verify", help="run Jacobi/kernel/rank sweeps")
    _add_system_args(p_verify)
    p_verify.add_argument("--points", type=int, default=50)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--out", help="write the JSON report here instead of stdout")

    p_darboux = sub.add_parser("darboux", help="export the canonical chart")
    _add_system_args(p_darboux)
    p_darboux.add_argument("--points", type=int, default=100)
    p_darboux.add_argument("--seed", type=int, default=0)
    p_darboux.add_argument("--out")

    p_int = sub.add_parser("integrate", help="integrate and emit trajectory CSV")
    _add_system_args(p_int)
    p_int.add_argument("--hamiltonian", help="KIND:ARGS, e.g. quadratic-diagonal:1,1,1")
    p_int.add_argument("--x0", help="comma-separated initial state")
    p_int.add_argument("--dt", type=float, default=1e-3)
    p_int.add_argument("--steps", type=int, default=1000)
    p_int.add_argument("--route", choices=("direct", "canonical"), default="direct")
    p_int.add_argument("--method", choices=("rk4", "implicit-midpoint"), default="rk4")
    p_int.add_argument("--out")

    p_cat = sub.add_parser("catalog", help="catalog operations")
    p_cat.add_argument("action", choices=("list",))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.cmd == "catalog":
            for name, description in CATALOG.items():
                sys.stdout.write(f"{name}: {description}\n")
            return EXIT_OK
        if args.cmd == "verify":
            code, report = run_verify(_system_from_args(args), args.points, args.seed)
            _write_output(dump_json(report), args.out)
            return code
        if args.cmd == "darboux":
            code, report = run_darboux(
                _system_from_args(args), points=args.points, seed=args.seed
            )
            _write_output(dump_json(report), args.out)
            return code
        if args.cmd == "integrate":
            system = _system_from_args(args)
            n = system.field.n
            H = _hamiltonian_flag(args.hamiltonian, n) if args.hamiltonian else system.hamiltonian
            x0 = (
                number_list(_flag_numbers("--x0", float, args.x0.split(",")), "--x0", n)
                if args.x0
                else system.initial_state
            )
            code, csv_text, summary = run_integrate(
                system.spec, H, x0, args.dt, args.steps, args.route, args.method
            )
            _write_output(csv_text, args.out)
            sys.stderr.write(summary + "\n")
            return code
    except ConfigError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except PoissonKitError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_FAILED
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
