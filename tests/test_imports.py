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
