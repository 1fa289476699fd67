"""Interval exchange transformations with exact suspension geometry.

The package splits along the mathematics: ``perm`` holds the permutation
combinatorics and the exchange matrix, ``iet`` the exchange map and its
orbits, ``suspension`` the plane chains and the exact self-intersection test,
``criterion`` the monotone-slope certification and curve scans,
``diagnostics`` the empirical equidistribution statistics, counted by
``rauzy``, and ``cli`` the command-line front end.  The package exports
each module's ``__all__``.

The exported names load on first use, so that a command that needs one
module compiles no other: ``import ietkit`` alone imports no submodule.  The
first lookup of an exported name, or of ``__all__``, imports the five
library modules and binds every name in their ``__all__`` here.  A submodule
looked up by name, as ``from . import criterion`` does, is imported alone.
"""

__version__ = "0.1.0"

# The library modules whose ``__all__`` the package exports, in export order.
_EXPORTING = ("perm", "iet", "suspension", "criterion", "diagnostics")


def _submodule(name: str):
    # Through the import statement's own machinery, which binds the
    # submodule here once it has run.
    __import__(f"{__name__}.{name}")
    return globals()[name]


def _export() -> None:
    exported: list[str] = []
    for name in _EXPORTING:
        module = _submodule(name)
        globals().update((n, getattr(module, n)) for n in module.__all__)
        exported += module.__all__
    globals()["__all__"] = exported


def __getattr__(name: str):
    if name in _EXPORTING:
        return _submodule(name)
    if "__all__" not in globals():
        _export()
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    if "__all__" not in globals():
        _export()
    return list(globals())
