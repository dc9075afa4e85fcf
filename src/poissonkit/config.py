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
linear (params.coefficients), quadratic-diagonal (params.weights) and
coordinate (params.index, 1-based)) and "initial_state".

One rule holds whatever the command: :func:`load_system` validates the
whole definition when it is loaded and builds the system in the same pass,
checking "hamiltonian" and "initial_state" against the system's dimension
n.  Every number must be finite, except domain and validity bounds, where
null or an infinity marks an unbounded side.  Errors name the offending
field path.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass

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

#: Built-in Hamiltonian kinds and the one parameter each reads.
_HAMILTONIAN_PARAM = {
    "linear": "coefficients",
    "quadratic-diagonal": "weights",
    "coordinate": "index",
}
HAMILTONIAN_KINDS = tuple(_HAMILTONIAN_PARAM)


@dataclass(frozen=True)
class System:
    """A loaded system definition.

    ``descriptor`` is the ``system`` entry of a report; ``spec`` is None for
    the counterexample field, which has no multiseparable form.
    """

    descriptor: dict
    spec: MultiseparableSpec | None
    field: StructureField
    hamiltonian: HamiltonianField | None = None
    initial_state: np.ndarray | None = None


def _fail(path: str, message: str):
    raise ConfigValidationError(f"{path}: {message}")


def _is_number(v) -> bool:
    # JSON numbers decode to exactly int or float; this also rejects bool.
    return type(v) in (int, float)


def _number(v, path: str, null: float | None = None) -> float:
    """A JSON number as a finite float.  Where ``null`` is given (a bound),
    a JSON null stands for it and infinities are allowed."""
    if v is None and null is not None:
        return null
    if not _is_number(v):
        _fail(path, "expected a number" if null is None else "expected a number or null")
    try:
        x = float(v)
    except OverflowError:
        _fail(path, "number out of range")
    if null is None and not math.isfinite(x):
        _fail(path, "expected a finite number")
    return x


def number_list(raw, path: str, n: int | None = None) -> np.ndarray:
    """A list of finite numbers as a float array, of length n when given.

    ``path`` is the field path or command-line flag that errors name.
    """
    if not isinstance(raw, list):
        _fail(path, "expected a list of numbers")
    if not set(map(type, raw)) <= {int, float}:
        i = next(i for i, v in enumerate(raw) if not _is_number(v))
        _fail(f"{path}[{i}]", "expected a number")
    try:
        values = np.array(raw, dtype=float)
    except OverflowError:
        _fail(path, "number out of range")
    finite = np.isfinite(values)
    if not finite.all():
        _fail(f"{path}[{int(np.argmin(finite))}]", "expected a finite number")
    if n is not None and values.shape != (n,):
        _fail(path, f"expected {n} numbers")
    return values


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


def build_hamiltonian(kind: str, value, n: int, path: str) -> HamiltonianField:
    """The built-in Hamiltonian ``kind`` on n coordinates from its one
    parameter: a 1-based index for coordinate, a list of n numbers for the
    others.  ``path`` is the field path or command-line flag that errors
    name."""
    if kind == "coordinate":
        if type(value) is not int:
            _fail(path, "expected a number that is an integer")
        try:
            return coordinate_hamiltonian(value, n)
        except ValueError as exc:
            _fail(path, str(exc))
    values = number_list(value, path, n)
    return (linear_hamiltonian if kind == "linear" else quadratic_hamiltonian)(values)


def hamiltonian_from_descriptor(raw, n: int) -> HamiltonianField:
    """Validate the ``hamiltonian`` descriptor of a config and build it on
    n coordinates."""
    if not isinstance(raw, dict):
        _fail("hamiltonian", "expected an object with a kind")
    kind = raw.get("kind")
    if kind not in HAMILTONIAN_KINDS:
        _fail("hamiltonian.kind", f"unknown kind {kind!r}; choose from {HAMILTONIAN_KINDS}")
    params = raw.get("params", {})
    if not isinstance(params, dict):
        _fail("hamiltonian.params", "expected an object")
    key = _HAMILTONIAN_PARAM[kind]
    return build_hamiltonian(kind, params.get(key), n, f"hamiltonian.params.{key}")


@contextmanager
def _builder_errors():
    """Report what a system builder rejects as a configuration error."""
    try:
        yield
    except (PoissonKitError, TypeError, ValueError) as exc:
        raise ConfigValidationError(f"system definition rejected: {exc}") from exc


def _catalog_system(raw) -> tuple[dict, MultiseparableSpec | None, StructureField]:
    if not isinstance(raw, dict) or "name" not in raw:
        _fail("system", "expected an object with a name")
    name = raw["name"]
    if not isinstance(name, str) or name not in CATALOG:
        _fail("system.name", f"unknown system {name!r}; see `catalog list`")
    params = raw.get("params", {})
    if not isinstance(params, dict):
        _fail("system.params", "expected an object")
    descriptor = {"name": name, "params": params}
    if name == "counterexample3":
        return descriptor, None, counterexample_field()
    with _builder_errors():
        spec = catalog_entry(name, **params).spec
    return descriptor, spec, structure_field(spec)


def _explicit_system(raw: dict) -> tuple[dict, MultiseparableSpec, StructureField]:
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
    B = number_list(B_raw, "B").reshape(n, n)
    factors_raw = raw.get("factors", [])
    if not isinstance(factors_raw, list) or len(factors_raw) != r:
        _fail("factors", f"expected {r} factor objects")
    factors = tuple(_parse_factor(f, i) for i, f in enumerate(factors_raw))
    if "domain" not in raw:
        _fail("domain", "missing")
    domain = _parse_domain(raw["domain"], n)
    with _builder_errors():
        spec = build_spec(n, r, B, factors, domain)
    return {"name": "explicit", "n": n, "r": r}, spec, structure_field(spec)


def load_system(raw) -> System:
    """Validate a decoded system definition and build the system, in one
    pass whatever the command (see the module docstring).

    Raises ConfigValidationError naming the offending field, or saying that
    a builder rejected the definition.
    """
    if not isinstance(raw, dict):
        _fail("<root>", "expected a JSON object")
    if not isinstance(raw.get("version", 1), int):
        _fail("version", "expected an integer")
    has_catalog = "system" in raw
    has_explicit = any(k in raw for k in ("n", "r", "B", "factors"))
    if has_catalog and has_explicit:
        _fail("<root>", "catalog reference and explicit definition are mutually exclusive")
    if not has_catalog and not has_explicit:
        _fail("<root>", "provide either a system reference or an explicit definition")
    if has_catalog:
        descriptor, spec, fld = _catalog_system(raw["system"])
    else:
        descriptor, spec, fld = _explicit_system(raw)
    hamiltonian = initial_state = None
    if "hamiltonian" in raw:
        hamiltonian = hamiltonian_from_descriptor(raw["hamiltonian"], fld.n)
    if "initial_state" in raw:
        initial_state = number_list(raw["initial_state"], "initial_state", fld.n)
    return System(descriptor, spec, fld, hamiltonian, initial_state)


def parse_config(text: str) -> System:
    """Decode a JSON configuration and load it with :func:`load_system`.

    Raises ConfigParseError for malformed JSON and ConfigValidationError
    for schema or dimension problems; messages carry the offending field.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigParseError(f"invalid JSON: {exc}") from exc
    return load_system(raw)
