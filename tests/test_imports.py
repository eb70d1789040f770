"""Every module-level import in the package is used by its module.

No linter ships with the project, so this stands in for the unused-import
rule.  Package ``__init__`` files are skipped: their imports are the
public re-exports.
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
