"""The package's public names, each module's ``__all__`` exported once, and
the imports of the package and its tests."""

from __future__ import annotations

import ast
import copy
import functools
import inspect
import os
import pickle
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import ietkit
from ietkit import criterion, diagnostics, iet, perm, suspension
from ietkit.errors import _lazy
from conftest import frozen_crossing_diagram

TESTS = Path(__file__).parent
PACKAGE = Path(ietkit.__file__).parent
MODULES = (perm, iet, suspension, criterion, diagnostics)


def test_the_package_exports_each_module_name_once():
    names = [(module, name) for module in MODULES for name in module.__all__]
    for module, name in names:
        assert getattr(ietkit, name) is getattr(module, name), name
    assert sorted(ietkit.__all__) == sorted(name for _, name in names)
    assert len(set(ietkit.__all__)) == len(ietkit.__all__)


RECORDS = [obj for module in MODULES for obj in map(module.__dict__.get, module.__all__)
           if isinstance(obj, type) and "__match_args__" in vars(obj)]


def _sigma():
    return perm.validate_permutation([3, 2, 1])


def _diagram():
    diagram = suspension.build_suspension(_sigma(), [1, "1/2", 2], [1, 0, -1])
    # Every cached attribute is read, so the pickled state holds them too.
    (diagram.slopes, diagram.top_chain, diagram.bottom_chain, diagram.return_profile,
     diagram.first_slope_vs_bottom_first, diagram.first_slope_vs_bottom_last)
    return diagram


def _curve():
    spec = criterion.curve_spec([[0, 1], [0, 0, 1], [0, 0, 0, 1]])
    spec._integer_rows
    return spec


# One instance of each record, as the library makes it.
RECORD_EXAMPLES = {
    "Permutation": _sigma,
    "OmegaMatrix": lambda: perm.omega(_sigma()),
    "Iet": lambda: iet.build_iet(_sigma(), [1, "1/2", 2]),
    "Connection": lambda: iet.find_connections(
        iet.build_iet(perm.validate_permutation([2, 1]), [1, 1]), 2)[0],
    "SegmentRelation": lambda: suspension.self_intersects(frozen_crossing_diagram()).witness.relation,
    "Witness": lambda: suspension.self_intersects(frozen_crossing_diagram()).witness,
    "IntersectionReport": lambda: suspension.self_intersects(frozen_crossing_diagram()),
    "SuspensionDiagram": _diagram,
    "CriterionReport": lambda: criterion.convexity_criterion(_sigma(), [1, "1/2", 2], [1, 0, -1]),
    "CurveSpec": _curve,
    "ScanSummary": lambda: criterion.scan_curve(_curve(), _sigma(), [1, 2]),
    "OrbitStats": lambda: diagnostics.visit_frequencies(
        iet.build_iet(_sigma(), [1, "1/2", 2]), 0, 10),
}


def test_every_record_has_an_example():
    assert sorted(cls.__name__ for cls in RECORDS) == sorted(RECORD_EXAMPLES)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_records_are_frozen_values_of_their_fields(cls):
    record = RECORD_EXAMPLES[cls.__name__]()
    assert type(record) is cls
    names = cls.__match_args__
    assert names == tuple(cls.__annotations__)
    values = tuple(getattr(record, name) for name in names)
    # Built positionally or by keyword, equal and hashed by the field tuple.
    for built in (cls(*values), cls(**dict(zip(names, values)))):
        assert built == record and hash(built) == hash(record) == hash(values)
    assert record != values
    assert type(cls.__name__, (cls,), {})(*values) != record
    for name in names:
        changed = copy.copy(record)
        object.__setattr__(changed, name, object())
        assert changed != record, name
    fields = ", ".join(f"{name}={value!r}" for name, value in zip(names, values))
    assert repr(record) == f"{cls.__name__}({fields})"
    for name in (*names, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert tuple(getattr(record, name) for name in names) == values
    # A round trip keeps the fields and whatever was cached.
    loaded = pickle.loads(pickle.dumps(record))
    assert loaded == record and repr(loaded) == repr(record)
    assert loaded.__dict__ == record.__dict__


# The attributes each record derives on first read, by the one descriptor.
LAZY_ATTRIBUTES = {
    "Permutation": ["inverse"],
    "Iet": ["_integers", "disc_top", "disc_bottom", "translations", "total"],
    "SuspensionDiagram": ["_integers", "_profile", "top_chain", "bottom_chain",
                          "return_profile", "slopes", "first_slope_vs_bottom_first",
                          "first_slope_vs_bottom_last"],
    "CurveSpec": ["_integer_rows"],
}
FRESH_RECORDS = {
    "Permutation": lambda: perm.Permutation((3, 2, 1)),
    "Iet": lambda: iet.Iet(_sigma(), (1, Fraction(1, 2), 2)),
    "SuspensionDiagram": lambda: suspension.SuspensionDiagram(
        _sigma(), (1, Fraction(1, 2), 2), (1, 0, -1)),
    "CurveSpec": lambda: criterion.CurveSpec(2, ((Fraction(0), Fraction(1, 3)), (Fraction(2),))),
}


def test_no_module_uses_cached_property():
    # functools.cached_property takes a class-wide lock on each first read
    # before Python 3.12; the package's records use ``errors._lazy``.
    for module in MODULES:
        assert not hasattr(module, "cached_property"), module.__name__
        for cls in filter(inspect.isclass, vars(module).values()):
            for attr in vars(cls).values():
                assert not isinstance(attr, functools.cached_property), cls.__name__
    lazy = {cls.__name__: [name for name, attr in vars(cls).items() if isinstance(attr, _lazy)]
            for cls in RECORDS}
    assert {name: names for name, names in lazy.items() if names} == LAZY_ATTRIBUTES


@pytest.mark.parametrize("name", LAZY_ATTRIBUTES)
def test_lazy_attributes_are_computed_once_per_instance(name, monkeypatch):
    cls = next(cls for cls in RECORDS if cls.__name__ == name)
    calls = Counter()
    for attr in LAZY_ATTRIBUTES[name]:
        descriptor = vars(cls)[attr]
        # Read on the class, the attribute is the descriptor, documented as
        # its method is.
        assert getattr(cls, attr) is descriptor
        assert descriptor.__doc__ == descriptor.func.__doc__
        compute = descriptor.func

        def counted(record, attr=attr, compute=compute):
            calls[attr] += 1
            return compute(record)

        monkeypatch.setattr(descriptor, "func", counted)
    first, second = FRESH_RECORDS[name](), FRESH_RECORDS[name]()
    assert not set(LAZY_ATTRIBUTES[name]) & set(vars(first))
    for attr in LAZY_ATTRIBUTES[name]:
        value = getattr(first, attr)
        # The value lands in the instance __dict__, where later reads find it.
        assert vars(first)[attr] is value and getattr(first, attr) is value
        assert getattr(second, attr) == value
    # Each instance computes each attribute once, whatever reads it first
    # (``disc_top`` reads ``_integers``, which is already there).
    assert calls == Counter({attr: 2 for attr in LAZY_ATTRIBUTES[name]})
    assert first == second
    # Still frozen: a derived attribute is not assigned or deleted either.
    for attr in LAZY_ATTRIBUTES[name]:
        with pytest.raises(AttributeError):
            setattr(first, attr, None)
        with pytest.raises(AttributeError):
            delattr(first, attr)
    # A round trip keeps equality and every cached value, computing none.
    loaded = pickle.loads(pickle.dumps(first))
    assert loaded == first and vars(loaded) == vars(first)
    assert [getattr(loaded, attr) for attr in LAZY_ATTRIBUTES[name]] == [
        getattr(first, attr) for attr in LAZY_ATTRIBUTES[name]]
    assert calls == Counter({attr: 2 for attr in LAZY_ATTRIBUTES[name]})


FRESH_IMPORT_SCRIPT = """
import sys
import ietkit

print(sorted(m for m in sys.modules if m.startswith("ietkit.")))
if sys.argv[1] == "dir":
    names = dir(ietkit)
    print(sorted(set(ietkit.__all__) - set(names)))
else:
    from ietkit import convexity_criterion
    from ietkit.criterion import convexity_criterion as own
    print(convexity_criterion is own)
"""


@pytest.mark.parametrize("first, then", [("name", "True"), ("dir", "[]")])
def test_the_package_loads_its_modules_on_first_use(first, then):
    # In a fresh interpreter, importing the package loads no submodule; the
    # first exported name looked up is the module's own object, and dir()
    # lists every exported name.
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run([sys.executable, "-c", FRESH_IMPORT_SCRIPT, first],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", then]


def _imports(tree: ast.AST) -> list[ast.Import | ast.ImportFrom]:
    return [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]


def _imported(path: Path) -> list[tuple[str, str]]:
    """``("file:line", module)`` for each module that ``path`` imports; a
    relative import's module starts with its dots."""
    found = []
    for node in _imports(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        else:
            modules = ["." * node.level + (node.module or "")]
        found += [(f"{path.name}:{node.lineno}", module) for module in modules]
    return found


def _in_the_standard_library(module: str) -> bool:
    return module.split(".")[0] in sys.stdlib_module_names


def test_the_oracles_import_only_the_standard_library():
    # The oracles share no code with the package, and the benchmark loads
    # the file by path, outside any test run.
    imported = _imported(TESTS / "oracles.py")
    assert [(where, m) for where, m in imported if not _in_the_standard_library(m)] == []


def test_the_package_has_no_runtime_dependency():
    # Beyond its own modules the package imports only the standard library,
    # so no module loads jsonschema, which only the tests use to check the
    # CLI's schema validator; and pyproject.toml lists no dependency.
    imported = [item for path in sorted(PACKAGE.glob("*.py")) for item in _imported(path)]
    assert [(where, m) for where, m in imported
            if not m.startswith(".") and not _in_the_standard_library(m)] == []
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((TESTS.parent / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == []
    assert "jsonschema>=4" in project["optional-dependencies"]["test"]


def _unused_imports(path: Path) -> list[str]:
    """The names that ``path`` imports and never reads; a name listed in the
    module's ``__all__`` is read."""
    tree = ast.parse(path.read_text())
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    unused = []
    for node in _imports(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read:
                unused.append(f"{path.name}:{node.lineno} {name}")
    return unused


def test_no_module_imports_a_name_it_never_uses():
    # The package's __init__ imports its modules' names to export them.
    paths = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted(TESTS.glob("*.py"))
    assert [name for path in paths for name in _unused_imports(path)] == []
