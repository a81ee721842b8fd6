"""The runtime imports nothing outside the standard library and the package."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "turanhg"


def test_imports_are_standard_library_or_package():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    for path in modules:
        depth = len(path.relative_to(PACKAGE).parts)
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            elif isinstance(node, ast.ImportFrom):
                # a relative import may climb no higher than turanhg itself
                assert node.level <= depth, f"{path.name}: import leaves turanhg"
                continue
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names, f"{path.name} imports {name}"
