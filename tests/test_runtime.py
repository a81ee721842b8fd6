"""The runtime imports nothing outside the standard library and the package,
the package imports none of its submodules, and every package name the
benchmark and the scripts read exists."""

import ast
import importlib
import os
import subprocess
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


def _package_reads(path: Path) -> list[tuple[str, str]]:
    """(module, attribute) pairs that a script reads from turanhg.

    Covers `from turanhg import <submodule>` followed by
    `<submodule>.<attr>`, and `from turanhg.<submodule> import <attr>`.
    """
    tree = ast.parse(path.read_text(), str(path))
    submodules: dict[str, str] = {}  # local name -> turanhg submodule
    reads = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.ImportFrom) and node.level == 0 and node.module):
            continue
        for alias in node.names:
            if node.module == "turanhg":
                reads.append(("turanhg", alias.name))
                if (PACKAGE / f"{alias.name}.py").exists():
                    submodules[alias.asname or alias.name] = f"turanhg.{alias.name}"
            elif node.module.startswith("turanhg."):
                reads.append((node.module, alias.name))
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in submodules
        ):
            reads.append((submodules[node.value.id], node.attr))
    return reads


def test_bench_and_scripts_read_existing_names():
    # bench/ and scripts/ are not edited with the package, so a name they
    # read that a refactor removes would only show when they run
    root = PACKAGE.parents[1]
    paths = sorted((root / "bench").glob("*.py")) + sorted((root / "scripts").glob("*.py"))
    assert paths
    seen = set()
    for path in paths:
        for module, attr in _package_reads(path):
            if module == "turanhg" and (PACKAGE / f"{attr}.py").exists():
                # as `from turanhg import <submodule>` does, load it first:
                # the package itself imports none of its submodules
                importlib.import_module(f"turanhg.{attr}")
            assert hasattr(importlib.import_module(module), attr), (
                f"{path.relative_to(root)} reads {module}.{attr}, which does not exist"
            )
            seen.add(f"{module}.{attr}")
    assert {"turanhg.krawtchouk.Shift", "turanhg.stability.classify_tuples"} <= seen


def test_package_import_loads_no_submodule():
    # every name lives in one module and is imported from there
    code = (
        "import sys, turanhg; "
        "print(sorted(m for m in sys.modules if m.startswith('turanhg.')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out == "[]\n"
