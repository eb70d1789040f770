"""No dead names in the package.

Every module-level import is used by its module, and every module-level
private function, class or constant is referenced somewhere in the
package.  No linter ships with the project, so these stand in for the
unused-import and dead-code rules.  Package ``__init__`` files are skipped
by the import rule: their imports are the public re-exports.
"""

import ast
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
