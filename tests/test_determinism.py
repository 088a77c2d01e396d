"""Random numbers enter the library in one place, the multistarts of
``solver._starts``: the probe, the consistency scan and everything else are
deterministic."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "tsvar"


def random_uses(source: str) -> set[str]:
    """The innermost enclosing functions ('' for module level) of the uses
    of ``np.random``/``numpy.random``, ``default_rng`` or the ``random``
    module in source."""
    tree = ast.parse(source)
    functions = [node for node in ast.walk(tree)
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]

    def where(node):
        inside = [f for f in functions if f.lineno <= node.lineno <= f.end_lineno]
        return max(inside, key=lambda f: f.lineno).name if inside else ""

    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            hit = node.attr in ("random", "default_rng")
        elif isinstance(node, ast.Name):
            hit = node.id == "default_rng"
        elif isinstance(node, ast.Import):
            hit = any(alias.name.split(".")[-1] == "random" for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            hit = (node.module or "").split(".")[-1] == "random" or any(
                alias.name in ("random", "default_rng") for alias in node.names)
        else:
            hit = False
        if hit:
            found.add(where(node))
    return found


def test_only_the_multistarts_draw_random_numbers():
    files = sorted(SRC.glob("*.py"))
    assert len(files) >= 7
    found = {p.name: random_uses(p.read_text(encoding="utf-8")) for p in files}
    assert {name: uses for name, uses in found.items() if uses} == {"solver.py": {"_starts"}}


def test_random_uses_are_found_anywhere_in_a_module():
    source = (
        "import random\n"
        "from numpy.random import default_rng\n"
        "def probe(seed):\n"
        "    rng = np.random.default_rng(seed)\n"
        "    def inner():\n"
        "        return default_rng(1)\n"
        "    return rng.standard_normal(3)\n"
        "def seeded(n):\n"
        "    return numpy.random.uniform(size=n)\n"
    )
    assert random_uses(source) == {"", "probe", "inner", "seeded"}
    assert random_uses("import numpy as np\nx = np.linspace(0, 1)\n") == set()
