"""The package's public names, each module's ``__all__`` exported once, and
the imports of the package and its tests."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ietkit
from ietkit import criterion, diagnostics, iet, perm, suspension

TESTS = Path(__file__).parent
PACKAGE = Path(ietkit.__file__).parent


def test_the_package_exports_each_module_name_once():
    names = [(module, name) for module in (perm, iet, suspension, criterion, diagnostics) for name in module.__all__]
    for module, name in names:
        assert getattr(ietkit, name) is getattr(module, name), name
    assert sorted(ietkit.__all__) == sorted(name for _, name in names)
    assert len(set(ietkit.__all__)) == len(ietkit.__all__)


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


def test_the_oracles_import_only_the_standard_library():
    # The oracles share no code with the package, and the benchmark loads
    # the file by path, outside any test run.
    for node in _imports(ast.parse((TESTS / "oracles.py").read_text())):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        else:
            assert node.level == 0, f"relative import at line {node.lineno}"
            modules = [node.module]
        for module in modules:
            assert module.split(".")[0] in sys.stdlib_module_names, module


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
