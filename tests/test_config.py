from __future__ import annotations

import json

import numpy as np
import pytest

from poissonkit import ConfigParseError, ConfigValidationError
from poissonkit.config import hamiltonian_from_descriptor, parse_config

KMK_EXPLICIT = {
    "version": 1,
    "n": 3,
    "r": 2,
    "B": [1, 0, 0, 0, 1, 0, 1, 1, 1],
    "factors": [
        {"kind": "linear", "params": {"slope": 1.0}, "validity": [0, None]},
        {"kind": "linear", "params": {"slope": 1.0}, "validity": [0, None]},
    ],
    "domain": {
        "lower": [0, 0, 0],
        "upper": [None, None, None],
        "sample_lower": [0.5, 0.5, 0.5],
        "sample_upper": [2.5, 2.5, 2.5],
    },
}


def test_parse_catalog_reference():
    system = parse_config(json.dumps({"version": 1, "system": {"name": "kmk"}}))
    assert system.descriptor == {"name": "kmk", "params": {}}
    spec = system.spec
    assert spec is not None and spec.n == 3


def test_parse_catalog_with_params():
    spec = parse_config(
        json.dumps(
            {"version": 1, "system": {"name": "toda", "params": {"N": 4}}}
        )
    ).spec
    assert spec.n == 7 and spec.r == 6


def test_parse_explicit_definition():
    system = parse_config(json.dumps(KMK_EXPLICIT))
    assert system.descriptor == {"name": "explicit", "n": 3, "r": 2}
    spec = system.spec
    assert spec.r == 2
    x = np.array([2.0, 3.0, 1.0])
    from poissonkit import evaluate_structure

    assert evaluate_structure(spec, x)[0, 1] == pytest.approx(6.0)


def test_invalid_json_is_parse_error():
    with pytest.raises(ConfigParseError):
        parse_config("{not json")


def test_odd_rank_rejected():
    bad = dict(KMK_EXPLICIT, r=3)
    with pytest.raises(ConfigValidationError, match="rank must be even"):
        parse_config(json.dumps(bad))


def test_wrong_matrix_length_rejected():
    bad = dict(KMK_EXPLICIT, B=KMK_EXPLICIT["B"][:-1])
    with pytest.raises(ConfigValidationError, match="row-major"):
        parse_config(json.dumps(bad))


def test_unknown_factor_kind_rejected():
    bad = json.loads(json.dumps(KMK_EXPLICIT))
    bad["factors"][0]["kind"] = "tangent"
    with pytest.raises(ConfigValidationError, match="unknown factor kind"):
        parse_config(json.dumps(bad))


def test_wrong_factor_count_rejected():
    bad = json.loads(json.dumps(KMK_EXPLICIT))
    bad["factors"] = bad["factors"][:1]
    with pytest.raises(ConfigValidationError, match="factor"):
        parse_config(json.dumps(bad))


def test_mutually_exclusive_routes():
    bad = dict(KMK_EXPLICIT)
    bad["system"] = {"name": "kmk"}
    with pytest.raises(ConfigValidationError, match="mutually exclusive"):
        parse_config(json.dumps(bad))
    with pytest.raises(ConfigValidationError):
        parse_config(json.dumps({"version": 1}))


def test_unknown_system_rejected():
    with pytest.raises(ConfigValidationError, match="unknown system"):
        parse_config(json.dumps({"version": 1, "system": {"name": "nope"}}))


def test_catalog_parameter_errors_are_validation_errors():
    with pytest.raises(ConfigValidationError):
        parse_config(
            json.dumps(
                {
                    "version": 1,
                    "system": {"name": "kmk", "params": {"R": 1.0, "kappa1": 3.0, "kappa2": 1.0}},
                }
            )
        )


def test_counterexample_resolves_to_field():
    system = parse_config(
        json.dumps({"version": 1, "system": {"name": "counterexample3"}})
    )
    assert system.spec is None
    assert system.field.n == 3


def test_initial_state_and_hamiltonian():
    payload = dict(KMK_EXPLICIT)
    payload["hamiltonian"] = {
        "kind": "quadratic-diagonal",
        "params": {"weights": [1, 1, 1]},
    }
    payload["initial_state"] = [1.0, 1.1, 0.9]
    system = parse_config(json.dumps(payload))
    H = system.hamiltonian
    assert H.value_at([1.0, 1.0, 1.0]) == pytest.approx(1.5)
    np.testing.assert_array_equal(system.initial_state, [1.0, 1.1, 0.9])


def test_hamiltonian_descriptor_errors():
    with pytest.raises(ConfigValidationError):
        hamiltonian_from_descriptor({"kind": "cubic", "params": {}}, 3)
    with pytest.raises(ConfigValidationError):
        hamiltonian_from_descriptor(
            {"kind": "linear", "params": {"coefficients": [1.0]}}, 3
        )
    with pytest.raises(ConfigValidationError):
        parse_config(
            json.dumps(
                {
                    "version": 1,
                    "system": {"name": "kmk"},
                    "hamiltonian": {"kind": "cubic"},
                }
            )
        )


def test_coordinate_descriptor():
    H = hamiltonian_from_descriptor({"kind": "coordinate", "params": {"index": 3}}, 3)
    assert H.value_at([5.0, 6.0, 7.0]) == 7.0
