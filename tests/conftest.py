from __future__ import annotations

import sys

import numpy as np
import pytest

from poissonkit import kermack_mckendrick, toda


@pytest.fixture
def kmk_spec():
    return kermack_mckendrick(1.0, 1.0, 1.0)


@pytest.fixture
def toda3_spec():
    return toda(3)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


#: The structure operations that form J, its pair-product slopes or its
#: partials tensor.
STRUCTURE_FORMS = (
    "evaluate_structure",
    "structure_slopes",
    "unchecked_structure",
    "structure_partials",
)


@pytest.fixture
def refuse_structure(monkeypatch):
    """A function that makes the named structure operations, by default all
    of STRUCTURE_FORMS, raise wherever a poissonkit module binds them, so a
    test can show that a path never calls them."""

    def refuse(*names):
        for name in names or STRUCTURE_FORMS:

            def refused(*args, name=name, **kwargs):
                raise AssertionError(f"{name} was called")

            for module_name, module in list(sys.modules.items()):
                if module_name.split(".")[0] == "poissonkit" and hasattr(module, name):
                    monkeypatch.setattr(module, name, refused)

    return refuse
