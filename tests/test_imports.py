"""No dead names in the package, and no private names shared across it.

Every module-level import is used by its module, and every module-level
private function, class or constant is referenced somewhere in the
package.  Every public name is used by the pipeline: by the package
itself, the demos, the benchmark or the acceptance criteria; a name only
unit tests call belongs under ``tests/``.  No linter ships with the
project, so these stand in for the unused-import and dead-code rules.
Package ``__init__`` files are skipped by the import rule: their imports
are the public re-exports.  A private name stays in its module: no
module imports another's ``_name``.  Process pools are built in
``evaluation.py`` alone, so every map over workers goes through its one
pool constructor.  Importing the package
pins each BLAS thread variable the user left unset to one thread, the
variables perfbench pins, and loads no scipy module.  Over uniform inputs
the design, fit and Sobol' path runs on numpy alone, in the library and in
the ``sample``, ``fit`` and ``sobol`` commands, the demo model's config
included; scipy is loaded where it is called: by the aquifer solver, which
``pcesobol.aquifer`` serves on first use of one of its names, and by the
Gaussian ``Marginal.cdf`` and ``ppf``, which load ``scipy.special`` only.
"""

import ast
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "pcesobol"

# (module, name) pairs imported on purpose without a use
ALLOWED = {
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


def _uses(path):
    """Names ``path`` uses: loaded names, attributes, imported names and
    string constants, the keys of lookups such as ``vars(module)[name]``.
    A definition is not a use."""
    tree = ast.parse(path.read_text(), filename=str(path))
    yield from _referenced_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_public_names_are_used_by_the_pipeline():
    import pcesobol

    repo = PACKAGE.parent.parent
    users = (
        MODULES
        + sorted((repo / "demos").rglob("*.py"))
        + sorted((repo / "perfbench").rglob("*.py"))
        + [repo / "tests" / "test_acceptance.py"]
    )
    used = {name for path in users for name in _uses(path)}
    unused = [name for name in pcesobol.__all__ if name not in used]
    assert not unused, f"public names only the unit tests use: {unused}"


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


SCIPY_LOADED = "print(sorted(m for m in sys.modules if m.startswith('scipy')))"


def test_import_loads_no_scipy():
    assert _run_python(f"import sys, pcesobol, pcesobol.cli; {SCIPY_LOADED}") == "[]"


def test_uniform_subsample_study_loads_no_scipy():
    code = (
        "import sys, numpy as np, pcesobol as ps\n"
        "rv = ps.RandomVector(('a', 'b'), (ps.Marginal.uniform(0, 1),) * 2)\n"
        "design = ps.lhs(60, rv, 3)\n"
        "y = np.exp(design.points[:, 0]) + design.points[:, 1] ** 2\n"
        "study = ps.repeated_subsample_study(\n"
        "    design, y, rv, subset_size=40, repetitions=2, p_range=range(1, 4))\n"
        "assert np.all(np.isfinite(study.totals))\n"
        f"{SCIPY_LOADED}"
    )
    assert _run_python(code) == "[]"


def test_gaussian_cdf_ppf_load_scipy_special_only():
    code = (
        "import sys; from pcesobol import Marginal\n"
        "m = Marginal.gaussian(1.5, 2.0)\n"
        "print(m.cdf([-1.0, 1.5, 4.0]).tolist(), m.ppf([0.025, 0.5, 0.9]).tolist())\n"
        f"{SCIPY_LOADED}"
    )
    values, loaded = _run_python(code).splitlines()
    assert values == (
        "[0.10564977366685535, 0.5, 0.8943502263331446] "
        "[-2.419927969080109, 1.5, 4.063103131089201]"
    )
    special = _run_python(f"import sys, scipy.special; {SCIPY_LOADED}")
    assert "'scipy.special'" in loaded
    assert set(ast.literal_eval(loaded)) <= set(ast.literal_eval(special))


def _cli_fit_stages_scipy(tmp_path, random_vector, p_range):
    """sample, fit and sobol on a config; the scipy modules they loaded."""
    config = {
        "output_dir": str(tmp_path),
        "random_vector": random_vector,
        "design": {"n": 40, "seed": 5},
        "fit": {"q": 1.0, "p_range": p_range},
    }
    (tmp_path / "run.yaml").write_text(json.dumps(config))  # JSON is YAML
    code = (
        "import sys, numpy as np\n"
        "from pcesobol import ExperimentalDesign\n"
        "from pcesobol.cli import main\n"
        f"out, cfg = {str(tmp_path)!r}, {str(tmp_path / 'run.yaml')!r}\n"
        "assert main(['sample', '--config', cfg]) == 0\n"
        "x = ExperimentalDesign.from_csv(out + '/design.csv').points\n"
        "y = x[:, 0] + x[:, 1] * x[:, 2] ** 2\n"
        "np.savetxt(out + '/y.csv', y, header='response', comments='')\n"
        "assert main(['fit', '--config', cfg, '--design', out + '/design.csv',\n"
        "             '--responses', out + '/y.csv']) == 0\n"
        "assert main(['sobol', '--config', cfg, '--pce', out + '/pce.json']) == 0\n"
        f"{SCIPY_LOADED}"
    )
    loaded = _run_python(code).splitlines()[-1]
    assert (tmp_path / "sobol_report.json").exists()
    return loaded


def test_cli_fit_stages_load_no_scipy(tmp_path):
    # a config whose inputs are not the demo model's
    uniforms = [
        {"name": n, "kind": "uniform", "lower": -1.0, "upper": 2.0} for n in "abc"
    ]
    assert _cli_fit_stages_scipy(tmp_path, uniforms, [1, 3]) == "[]"


def test_demo_config_fit_stages_load_no_scipy(tmp_path):
    # the aquifer's 78 inputs: the stages read its random vector, not its solver
    assert _cli_fit_stages_scipy(tmp_path, "demo", [1, 2]) == "[]"


def test_aquifer_loads_scipy_on_first_model_use():
    code = (
        "import sys; from pcesobol import aquifer\n"
        "rv = aquifer.random_vector(aquifer.default_model())\n"
        "assert rv.m == 78\n"
        f"{SCIPY_LOADED}\n"
        "aquifer.evaluate\n"
        f"{SCIPY_LOADED}"
    )
    before, after = _run_python(code).splitlines()
    assert before == "[]"
    assert "scipy.sparse" in ast.literal_eval(after)


def test_aquifer_serves_every_solver_name():
    from pcesobol import aquifer
    from pcesobol.aquifer import model, solver

    init = PACKAGE / "aquifer" / "__init__.py"
    eager = {
        alias.name
        for node in ast.parse(init.read_text()).body
        if isinstance(node, ast.ImportFrom) and node.module == "model"
        for alias in node.names
    }
    lazy = set(aquifer._SOLVER_NAMES)
    assert sorted(aquifer.__all__) == sorted(eager | lazy)
    # every public name solver defines, so a new one cannot be left out
    assert lazy == {
        name
        for name, value in vars(solver).items()
        if not name.startswith("_") and getattr(value, "__module__", None) == solver.__name__
    }
    for name in aquifer.__all__:
        source = solver if name in lazy else model
        assert getattr(aquifer, name) is getattr(source, name), name
    assert set(aquifer.__all__) <= set(dir(aquifer))


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
