"""Static guards on the package source: checks survive `python -O`, and the
runtime imports stay inside the standard library."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "stab3").glob("*.py"))


def test_sources_found():
    assert {path.name for path in SOURCES} >= {"__init__.py", "cohomology.py", "cli.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_bare_assert_and_stdlib_only(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    asserts = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not asserts, f"bare assert (stripped by python -O) at lines {asserts}"
    modules = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.append(node.module)
    outside = sorted(m for m in modules if m.split(".")[0] not in sys.stdlib_module_names)
    assert not outside, f"imports outside the standard library: {outside}"


#: Imports kept on purpose though the module never reads them: the benchmark's
#: tracer tests look `kernel_basis` up as `cohomology.kernel_basis`.
KEPT_IMPORTS = {"cohomology.py": {"kernel_basis"}}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    kept = KEPT_IMPORTS.get(path.name, set())
    assert kept <= imported, f"stale exception in KEPT_IMPORTS: {sorted(kept - imported)}"
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(imported - used - kept)
    assert not unused, f"imported but never used: {unused}"
