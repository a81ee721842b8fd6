"""The runtime imports nothing outside the standard library and the package,
the package imports none of its submodules, and every package name the
benchmark and the scripts read exists."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def _modules_after(argv: list[str] | None, cwd: Path) -> tuple[int | None, set[str]]:
    """run_cli(argv)'s exit code and which turanhg modules, and which of
    dataclasses, inspect and fractions, a fresh interpreter holds after
    it; build_parser() alone when argv is None."""
    call = "code = None; build_parser()" if argv is None else f"code = run_cli({argv!r})"
    code = (
        "import contextlib, io, json, sys\n"
        "from turanhg.cli import build_parser, run_cli\n"
        "with contextlib.redirect_stdout(io.StringIO()), "
        "contextlib.redirect_stderr(io.StringIO()):\n"
        f"    {call}\n"
        "print(json.dumps([code, sorted(m for m in sys.modules\n"
        "    if m.startswith('turanhg') or m in ('dataclasses', 'inspect', 'fractions'))]))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    ).stdout
    exit_code, modules = json.loads(out)
    return exit_code, set(modules)


_BASE = {"turanhg", "turanhg.cli"}
_IMPORT_SETS = [
    (["kraw", "tstar", "--n", "9", "--k", "2"], 0, {"core", "construct", "krawtchouk"}),
    (["kraw", "row", "--n", "4", "--x", "1"], 0, {"core", "construct", "krawtchouk"}),
    (["kraw", "eval", "--m", "2", "--n", "4", "--x", "1"], 0, {"core", "construct", "krawtchouk"}),
    (["count", "b", "--n", "8", "--k", "2", "--two-t", "4"], 0, {"core", "construct"}),
    (
        ["count", "d", "--n", "8", "--k", "2", "--two-t", "4", "--side", "small"],
        0,
        {"core", "construct"},
    ),
    (["construct", "parity", "--n", "6", "--k", "1", "--two-t", "0"], 0, {"core", "construct"}),
    (["construct", "sidorenko", "--n", "8", "--k", "1", "--p", "2"], 0, {"core", "construct"}),
    (["check", "free", "--file", "h.hg", "--r", "3"], 0, {"core", "freeness"}),
    (["check", "maximal", "--file", "h.hg", "--r", "3"], 0, {"core", "freeness"}),
    (["color", "gen", "--p", "2"], 0, {"core", "algebra"}),
    (["color", "verify", "--file", "c.col"], 0, {"core", "algebra"}),
    (["color", "group", "--file", "c.col"], 0, {"core", "algebra"}),
    (["shadow", "--file", "f.fam"], 0, {"core", "shadow"}),
    (
        ["stability", "census", "--file", "h.hg", "--partition", "p.txt"],
        0,
        {"core", "construct", "freeness", "stability"},
    ),
    (
        ["stability", "improve", "--file", "h.hg", "--partition", "p.txt"],
        0,
        {"core", "construct", "freeness", "stability"},
    ),
    (
        ["stability", "simonovits", "--graph", "g.txt", "--s", "2"],
        0,
        {"core", "construct", "freeness", "stability"},
    ),
    (["search", "exact", "--n", "5"], 0, {"core", "construct", "krawtchouk", "search"}),
    (["--help"], 0, set()),
    (["count", "b", "--n", "eight"], 2, set()),
    (["--threads", "0", "count", "b", "--n", "8", "--k", "2", "--two-t", "4"], 2, set()),
    (None, None, set()),
]


@pytest.mark.parametrize(
    "argv, exit_code, library",
    _IMPORT_SETS,
    ids=[" ".join(argv) if argv else "build_parser" for argv, _, _ in _IMPORT_SETS],
)
def test_cli_command_imports_only_what_it_runs(tmp_path, argv, exit_code, library):
    # a module-level library import in turanhg.cli would load it for every
    # command, the usage errors and --help included; only stability's
    # TupleCensus is a dataclass, so only its commands load dataclasses
    # (which imports inspect), and only stability's simonovits_partition
    # keeps Fraction fields, so only its commands load fractions (shadow
    # decides in integers)
    from turanhg import algebra, construct, core, shadow, stability

    h, part = construct.build_parity(6, 1, construct.Shift(0))
    (tmp_path / "h.hg").write_text(core.write_hypergraph(h))
    (tmp_path / "p.txt").write_text(stability.write_bipartition(part))
    fam = core.set_family(5, 2, list(core.enumerate_ksubsets(4, 2)))
    (tmp_path / "f.fam").write_text(shadow.write_family(fam))
    (tmp_path / "c.col").write_text(algebra.write_coloring(algebra.generate_gf2_coloring(2)))
    (tmp_path / "g.txt").write_text("turan-g v1\nn=4\ng 0 1\ng 1 2\ng 2 3\ng 0 3\n")
    want = _BASE | {f"turanhg.{name}" for name in library}
    if "stability" in library:
        want |= {"dataclasses", "inspect", "fractions"}
    assert _modules_after(argv, tmp_path) == (exit_code, want)
