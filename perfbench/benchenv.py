"""Process environment of the benchmark: thread pinning, imports, machine facts.

Only the standard library is imported here, because ``pin_threads`` must run
before numpy is loaded.  Every process the benchmark starts, evaluation
workers included, inherits the pinned environment.
"""

from __future__ import annotations

import hashlib
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# BLAS and OpenMP pools; one thread each, so that the evaluation workers do
# not oversubscribe the cores and a fit's time does not depend on how many
# idle threads the BLAS library happened to start
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class SetupError(RuntimeError):
    """The checkout cannot be benchmarked: the program's sources are missing,
    the wrong copy was imported, or stored data does not match its design."""


def pin_threads() -> None:
    if "numpy" in sys.modules:
        raise RuntimeError("pin_threads must run before numpy is imported")
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_program():
    """Import ``pcesobol`` from this checkout's ``src`` and nowhere else."""
    if not (SRC / "pcesobol" / "__init__.py").is_file():
        raise SetupError(f"no program sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import pcesobol

    where = Path(pcesobol.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SetupError(f"pcesobol imported from {where}, not from {SRC}")
    return pcesobol


def cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def machine_facts() -> dict:
    import numpy as np
    import scipy

    blas = {}
    try:
        cfg = np.show_config(mode="dicts")
        dep = cfg["Build Dependencies"]["blas"]
        blas = {"name": dep.get("name"), "version": dep.get("version")}
    except (TypeError, KeyError):
        pass
    return {
        "cores": cores(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "machine": platform.machine(),
    }


def points_sha256(points) -> str:
    """Hash of a design's points as little-endian float64, row-major."""
    import numpy as np

    arr = np.ascontiguousarray(np.asarray(points, dtype="<f8"))
    head = f"{arr.shape[0]}x{arr.shape[1]}:".encode()
    return hashlib.sha256(head + arr.tobytes()).hexdigest()
