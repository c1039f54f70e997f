"""Static guards on the package source: checks survive `python -O`, the
runtime imports stay inside the standard library, and every definition is
used by the package itself."""

import ast
import os
import subprocess
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


def test_importing_the_package_loads_no_dataclasses():
    # dataclasses loads inspect and ten more modules that nothing else here needs
    modules = [f"stab3.{path.stem}" for path in SOURCES if path.stem != "__init__"]
    path = [str(SOURCES[0].parent.parent), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    code = f"import sys, {', '.join(modules)}; print('dataclasses' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_no_function_defaults_the_prime():
    # the prime comes from the caller (the CLI's --prime), never from a default
    defaulted = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                positional = args.posonlyargs + args.args
                with_default = positional[len(positional) - len(args.defaults):]
                with_default += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d]
                defaulted += [f"{path.name}:{a.lineno}" for a in with_default if a.arg == "p"]
    assert not defaulted, f"parameter p given a default at {defaulted}"


def test_every_definition_is_referenced_in_the_package():
    # a function, class or method that only the tests use belongs in the tests
    referenced, defined = set(), []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.append(f"{path.name}:{node.lineno} {node.name}")
    unreferenced = [d for d in defined if d.split()[-1] not in referenced]
    assert not unreferenced, f"defined but never referenced in src/stab3: {unreferenced}"
