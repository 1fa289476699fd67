"""Line counts of the package's modules.

From the root of a checkout::

    python3 tools/loc.py

prints one JSON object: for each module of ``src/ietkit``, by its path
relative to that directory, and under ``total``, ``lines`` (every line) and
``code`` (lines that are not blank, not a comment and not inside a
docstring).  A docstring is the string that opens a module, a class or a
function.  Standard library only.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ietkit"


def docstring_lines(tree: ast.Module) -> set[int]:
    """The 1-based numbers of the lines that a docstring spans."""
    spans = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                spans.update(range(first.lineno, first.end_lineno + 1))
    return spans


def count(path: Path) -> dict[str, int]:
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    skip = docstring_lines(ast.parse(text))
    code = sum(1 for n, line in enumerate(lines, start=1)
               if n not in skip and line.strip() and not line.strip().startswith("#"))
    return {"lines": len(lines), "code": code}


def main() -> None:
    counts = {str(p.relative_to(PACKAGE)): count(p) for p in sorted(PACKAGE.rglob("*.py"))}
    counts["total"] = {key: sum(c[key] for c in counts.values()) for key in ("lines", "code")}
    print(json.dumps(counts, indent=2))


if __name__ == "__main__":
    main()
