from __future__ import annotations

import types

import poissonkit


def test_every_exported_name_resolves():
    assert len(set(poissonkit.__all__)) == len(poissonkit.__all__)
    missing = [name for name in poissonkit.__all__ if not hasattr(poissonkit, name)]
    assert missing == []


def test_every_public_attribute_is_exported():
    public = {
        name
        for name, value in vars(poissonkit).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(public - set(poissonkit.__all__)) == []
