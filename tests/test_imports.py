"""No dead names in the package, and no private names shared across it.

Every module-level import is used by its module, and every module-level
private function, class or constant is referenced somewhere in the
package.  No linter ships with the project, so these stand in for the
unused-import and dead-code rules.  Package ``__init__`` files are skipped
by the import rule: their imports are the public re-exports.  A private
name stays in its module: no module imports another's ``_name``.
Process pools are built in ``evaluation.py`` alone, so every map over
workers goes through its one pool constructor.  Importing the package
loads no more of scipy than it calls, and pins each BLAS thread variable
the user left unset to one thread: the variables perfbench pins.
"""

import ast
import importlib.util
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
    # perfbench's trace plan wraps this name
    ("sensitivity.py", "adaptive_fit"),
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


POOLS = {"ProcessPoolExecutor", "Pool"}


def test_pools_are_built_in_evaluation_only():
    built = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}"
        for path in MODULES
        if path.name != "evaluation.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) in POOLS
    ]
    assert not built, f"process pools built outside evaluation.py: {built}"


def _run_python(code, env=None):
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout.strip()


def test_import_does_not_load_scipy_stats():
    code = (
        "import sys, pcesobol, pcesobol.cli; "
        "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))"
    )
    assert _run_python(code) == "[]"


def _bench_thread_vars():
    path = PACKAGE.parent.parent / "perfbench" / "benchenv.py"
    spec = importlib.util.spec_from_file_location("benchenv", path)
    benchenv = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(benchenv)
    return benchenv.THREAD_VARS


def test_import_pins_unset_blas_threads():
    env = {k: v for k, v in os.environ.items() if not k.endswith("_THREADS")}
    env["OPENBLAS_NUM_THREADS"] = "3"  # the user's setting is kept
    code = (
        "import os, pcesobol; from pcesobol.evaluation import THREAD_VARS; "
        "print(' '.join(sorted(f'{v}={os.environ.get(v)}' for v in THREAD_VARS)))"
    )
    expected = sorted(
        f"{v}={'3' if v == 'OPENBLAS_NUM_THREADS' else '1'}" for v in _bench_thread_vars()
    )
    assert _run_python(code, env) == " ".join(expected)
