"""The package imports nothing at run time beyond the standard library and numpy."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "espc"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "espc"}


def test_imports_only_stdlib_numpy_and_espc():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    for path in sources:
        roots = set()
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                roots.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:  # level > 0: within espc
                roots.add(node.module.split(".")[0])
        assert roots <= ALLOWED, f"{path.name} imports {sorted(roots - ALLOWED)}"


def test_no_cached_property():
    # Each structure makes its record when it is made; a cached_property would write it
    # into the instance on the first read, which slows every attribute read after it.
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {getattr(node, field, None)  # names, attributes and imported names
                for node in ast.walk(tree) for field in ("id", "attr", "name")}
        assert "cached_property" not in used, f"{path.name} uses cached_property"
