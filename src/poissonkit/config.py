"""Declarative JSON system definitions for the command-line front-end.

A config names either a catalog system,

    {"version": 1, "system": {"name": "kmk", "params": {"R": 1.0}}}

or spells one out explicitly with n, r, a row-major B of n*n reals, a
factor list, and a domain whose bounds use null for an unbounded side:

    {"version": 1, "n": 3, "r": 2,
     "B": [1,0,0, 0,1,0, 1,1,1],
     "factors": [{"kind": "linear", "params": {"slope": 1.0},
                  "validity": [0, null]}, ...],
     "domain": {"lower": [0,0,0], "upper": [null,null,null],
                "sample_lower": [0.5,0.5,0.5], "sample_upper": [2.5,2.5,2.5]}}

Optional keys: "hamiltonian" ({"kind": ..., "params": ...} with kinds
linear, quadratic-diagonal, coordinate) and "initial_state".
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .catalog import CATALOG, catalog_entry, counterexample_field
from .domain import BoxDomain
from .dynamics import (
    HamiltonianField,
    coordinate_hamiltonian,
    linear_hamiltonian,
    quadratic_hamiltonian,
)
from .errors import ConfigParseError, ConfigValidationError, PoissonKitError
from .factors import FACTOR_KINDS, FactorFunction
from .structure import MultiseparableSpec, build_spec
from .verify import StructureField, structure_field

HAMILTONIAN_KINDS = ("linear", "quadratic-diagonal", "coordinate")


@dataclass(frozen=True)
class SystemConfig:
    """Validated configuration; exactly one of the two routes is set."""

    version: int
    system_name: str | None = None
    system_params: dict = field(default_factory=dict)
    n: int | None = None
    r: int | None = None
    B: np.ndarray | None = None
    factors: tuple[FactorFunction, ...] = ()
    domain: BoxDomain | None = None
    hamiltonian: dict | None = None
    initial_state: np.ndarray | None = None

    @property
    def is_catalog(self) -> bool:
        return self.system_name is not None


def _fail(path: str, message: str):
    raise ConfigValidationError(f"{path}: {message}")


def _is_number(v) -> bool:
    # JSON numbers decode to exactly int or float; this also rejects bool.
    return type(v) in (int, float)


def _number(v, path: str, null: float | None = None) -> float:
    """A JSON number as a float; ``null`` stands in for a JSON null where
    one is allowed (an unbounded side)."""
    if v is None and null is not None:
        return null
    if not _is_number(v):
        _fail(path, "expected a number" if null is None else "expected a number or null")
    try:
        return float(v)
    except OverflowError:
        _fail(path, "number out of range")


def _number_list(raw: list, path: str) -> np.ndarray:
    if not set(map(type, raw)) <= {int, float}:
        i = next(i for i, v in enumerate(raw) if not _is_number(v))
        _fail(f"{path}[{i}]", "expected a number")
    try:
        return np.array(raw, dtype=float)
    except OverflowError:
        _fail(path, "number out of range")


def _bound_list(raw, n: int, path: str, sign: float) -> np.ndarray:
    if not isinstance(raw, list) or len(raw) != n:
        _fail(path, f"expected a list of {n} numbers")
    return np.array(
        [_number(v, f"{path}[{i}]", sign * math.inf) for i, v in enumerate(raw)]
    )


def _parse_domain(raw, n: int) -> BoxDomain:
    if not isinstance(raw, dict):
        _fail("domain", "expected an object with lower/upper")
    lower = _bound_list(raw.get("lower"), n, "domain.lower", -1.0)
    upper = _bound_list(raw.get("upper"), n, "domain.upper", +1.0)
    sample_lower = sample_upper = None
    if "sample_lower" in raw or "sample_upper" in raw:
        sample_lower = _bound_list(raw.get("sample_lower"), n, "domain.sample_lower", -1.0)
        sample_upper = _bound_list(raw.get("sample_upper"), n, "domain.sample_upper", +1.0)
    try:
        return BoxDomain(lower, upper, sample_lower, sample_upper)
    except ValueError as exc:
        _fail("domain", str(exc))


def _parse_factor(raw, idx: int) -> FactorFunction:
    path = f"factors[{idx}]"
    if not isinstance(raw, dict):
        _fail(path, "expected an object with a kind")
    kind = raw.get("kind")
    if kind not in FACTOR_KINDS:
        _fail(f"{path}.kind", f"unknown factor kind {kind!r}")
    params = raw.get("params", {})
    if not isinstance(params, dict):
        _fail(f"{path}.params", "expected an object")
    kwargs = {k: _number(v, f"{path}.params.{k}") for k, v in params.items()}
    if "validity" in raw:
        v = raw["validity"]
        if not isinstance(v, list) or len(v) != 2:
            _fail(f"{path}.validity", "expected [lo, hi]")
        lo = _number(v[0], f"{path}.validity[0]", -math.inf)
        hi = _number(v[1], f"{path}.validity[1]", math.inf)
        kwargs["validity"] = (lo, hi)
    try:
        return FACTOR_KINDS[kind](**kwargs)
    except (TypeError, ValueError) as exc:
        _fail(path, str(exc))


def _parse_hamiltonian(raw) -> dict:
    if not isinstance(raw, dict):
        _fail("hamiltonian", "expected an object with a kind")
    kind = raw.get("kind")
    if kind not in HAMILTONIAN_KINDS:
        _fail("hamiltonian.kind", f"unknown kind {kind!r}; choose from {HAMILTONIAN_KINDS}")
    params = raw.get("params", {})
    if not isinstance(params, dict):
        _fail("hamiltonian.params", "expected an object")
    if kind == "coordinate":
        if "index" in params and type(params["index"]) is not int:
            _fail("hamiltonian.params.index", "expected a number that is an integer")
    else:
        key = "coefficients" if kind == "linear" else "weights"
        path = f"hamiltonian.params.{key}"
        if key in params:
            if not isinstance(params[key], list):
                _fail(path, "expected a list of numbers")
            _number_list(params[key], path)
    return {"kind": kind, "params": params}


def parse_config(text: str) -> SystemConfig:
    """Parse and validate a JSON configuration.

    Raises ConfigParseError for malformed JSON and ConfigValidationError
    for schema or dimension problems; messages carry the offending field.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        _fail("<root>", "expected a JSON object")
    version = raw.get("version", 1)
    if not isinstance(version, int):
        _fail("version", "expected an integer")

    has_catalog = "system" in raw
    has_explicit = any(k in raw for k in ("n", "r", "B", "factors"))
    if has_catalog and has_explicit:
        _fail("<root>", "catalog reference and explicit definition are mutually exclusive")
    if not has_catalog and not has_explicit:
        _fail("<root>", "provide either a system reference or an explicit definition")

    hamiltonian = _parse_hamiltonian(raw["hamiltonian"]) if "hamiltonian" in raw else None
    initial_state = None
    if "initial_state" in raw:
        state = raw["initial_state"]
        if not isinstance(state, list):
            _fail("initial_state", "expected a list of numbers")
        initial_state = _number_list(state, "initial_state")

    if has_catalog:
        system = raw["system"]
        if not isinstance(system, dict) or "name" not in system:
            _fail("system", "expected an object with a name")
        name = system["name"]
        if name not in CATALOG:
            _fail("system.name", f"unknown system {name!r}; see `catalog list`")
        params = system.get("params", {})
        if not isinstance(params, dict):
            _fail("system.params", "expected an object")
        return SystemConfig(
            version=version,
            system_name=name,
            system_params=params,
            hamiltonian=hamiltonian,
            initial_state=initial_state,
        )

    n = raw.get("n")
    if not isinstance(n, int) or n < 2:
        _fail("n", "expected an integer >= 2")
    r = raw.get("r")
    if not isinstance(r, int):
        _fail("r", "expected an integer")
    if r % 2 != 0:
        _fail("r", "rank must be even")
    if r < 0 or r > n:
        _fail("r", f"rank must lie in 0..{n}")
    B_raw = raw.get("B")
    if not isinstance(B_raw, list) or len(B_raw) != n * n:
        _fail("B", f"expected a row-major list of {n * n} reals")
    B = _number_list(B_raw, "B").reshape(n, n)
    factors_raw = raw.get("factors", [])
    if not isinstance(factors_raw, list) or len(factors_raw) != r:
        _fail("factors", f"expected {r} factor objects")
    factors = tuple(_parse_factor(f, i) for i, f in enumerate(factors_raw))
    if "domain" not in raw:
        _fail("domain", "missing")
    domain = _parse_domain(raw["domain"], n)
    if initial_state is not None and initial_state.shape != (n,):
        _fail("initial_state", f"expected {n} numbers")
    return SystemConfig(
        version=version,
        n=n,
        r=r,
        B=B,
        factors=factors,
        domain=domain,
        hamiltonian=hamiltonian,
        initial_state=initial_state,
    )


def resolve_system(config: SystemConfig) -> tuple[MultiseparableSpec | None, StructureField]:
    """Build the spec (when multiseparable) and its field view.

    The counterexample system yields a bare field with spec None.  Build
    failures surface as ConfigValidationError so the CLI can map them to
    the usage exit code.
    """
    try:
        if config.is_catalog:
            if config.system_name == "counterexample3":
                fld = counterexample_field()
                return None, fld
            entry = catalog_entry(config.system_name, **config.system_params)
            return entry.spec, structure_field(entry.spec)
        spec = build_spec(config.n, config.r, config.B, config.factors, config.domain)
        return spec, structure_field(spec)
    except ConfigValidationError:
        raise
    except (PoissonKitError, TypeError, ValueError) as exc:
        raise ConfigValidationError(f"system definition rejected: {exc}") from exc


def hamiltonian_from_descriptor(descriptor: dict, n: int) -> HamiltonianField:
    """Instantiate a built-in scalar function from a descriptor."""
    kind = descriptor["kind"]
    params = descriptor.get("params", {})
    if kind not in HAMILTONIAN_KINDS:
        raise ConfigValidationError(f"hamiltonian: unknown kind {kind!r}")
    try:
        if kind == "coordinate":
            return coordinate_hamiltonian(int(params["index"]), n)
        key = "coefficients" if kind == "linear" else "weights"
        values = np.array([float(v) for v in params[key]])
        if values.shape != (n,):
            raise ValueError(f"expected {n} {key}")
        return (linear_hamiltonian if kind == "linear" else quadratic_hamiltonian)(values)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigValidationError(f"hamiltonian: {exc}") from exc
