"""The package's public names: each module's ``__all__``, exported once."""

from __future__ import annotations

import ietkit
from ietkit import criterion, diagnostics, iet, perm, suspension


def test_the_package_exports_each_module_name_once():
    names = [(module, name) for module in (perm, iet, suspension, criterion, diagnostics) for name in module.__all__]
    for module, name in names:
        assert getattr(ietkit, name) is getattr(module, name), name
    assert sorted(ietkit.__all__) == sorted(name for _, name in names)
    assert len(set(ietkit.__all__)) == len(ietkit.__all__)
