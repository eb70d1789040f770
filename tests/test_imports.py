"""No dead names in the package, and no private names shared across it.

Every module-level import is used by its module, and every module-level
private function, class or constant is referenced somewhere in the
package.  No linter ships with the project, so these stand in for the
unused-import and dead-code rules.  Package ``__init__`` files are skipped
by the import rule: their imports are the public re-exports.  A private
name stays in its module: no module imports another's ``_name``.
Importing the package loads no more of scipy than it calls.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "pcesobol"

# (module, name) pairs imported on purpose without a use
ALLOWED = {
    # perfbench's trace plan counts calls through this name
    ("regression.py", "cho_factor"),
}

MODULES = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")


def _imported_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_module_imports_are_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    rel = str(path.relative_to(PACKAGE))
    unused = [
        name
        for name in _imported_names(tree)
        if name not in used and (rel, name) not in ALLOWED
    ]
    assert not unused, f"{rel} imports {unused} without using them"


def _private_definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        yield from (n for n in names if n.startswith("_") and not n.startswith("__"))


def _referenced_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def test_private_definitions_are_referenced():
    trees = {
        str(path.relative_to(PACKAGE)): ast.parse(path.read_text(), filename=str(path))
        for path in sorted(PACKAGE.rglob("*.py"))
    }
    used = {name for tree in trees.values() for name in _referenced_names(tree)}
    dead = [
        f"{rel}: {name}"
        for rel, tree in trees.items()
        for name in _private_definitions(tree)
        if name not in used
    ]
    assert not dead, f"private names defined but never referenced: {dead}"


def test_no_private_names_imported():
    shared = [
        f"{path.relative_to(PACKAGE)}: {alias.name}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.startswith("__")
    ]
    assert not shared, f"private names imported from another module: {shared}"


def test_import_does_not_load_scipy_stats():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")])
    )
    code = (
        "import sys, pcesobol, pcesobol.cli; "
        "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "[]"
