"""The library imports nothing beyond the standard library and numpy:
scipy, sympy and hypothesis stay out of ``src/``; and every name a module
exports exists."""

import ast
import importlib
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "tsvar"
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def foreign_imports(source: str) -> list[str]:
    """Top-level names of the absolute imports in source outside ALLOWED."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [name for name in names if name.split(".")[0] not in ALLOWED]


def test_library_imports_only_stdlib_and_numpy():
    files = sorted(SRC.glob("*.py"))
    assert len(files) >= 7
    found = {p.name: foreign_imports(p.read_text(encoding="utf-8")) for p in files}
    assert {name: bad for name, bad in found.items() if bad} == {}


def test_foreign_imports_are_found_anywhere_in_a_module():
    source = (
        "import os, scipy.linalg\n"
        "from numpy import linalg\n"
        "from . import expr\n"
        "def f():\n"
        "    import sympy\n"
        "    from hypothesis import strategies\n"
    )
    assert foreign_imports(source) == ["scipy.linalg", "sympy", "hypothesis"]


def test_every_exported_name_resolves():
    # a name left in __all__ after its definition goes fails here, not at
    # a user's ``from tsvar.<module> import *``
    missing = {}
    for path in sorted(SRC.glob("*.py")):
        if path.stem != "__init__":
            module = importlib.import_module(f"tsvar.{path.stem}")
            missing[path.stem] = [n for n in module.__all__ if not hasattr(module, n)]
    assert len(missing) >= 6 and {name: bad for name, bad in missing.items() if bad} == {}
