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


@pytest.fixture
def refuse_partials_tensor(monkeypatch):
    """Make structure_partials raise wherever a poissonkit module binds it,
    so a test can show that a path never forms the partials tensor."""

    def refuse(spec, x):
        raise AssertionError("the partials tensor was formed")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "poissonkit" and hasattr(module, "structure_partials"):
            monkeypatch.setattr(module, "structure_partials", refuse)
