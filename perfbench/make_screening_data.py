"""Regenerate the stored screening responses through the program's CLI.

    python3 perfbench/make_screening_data.py

Runs ``pcesobol sample`` and ``pcesobol evaluate`` (model kind ``demo``, one
worker per core) on the paper's screening design, LHS(500, seed 42) over the
78 aquifer inputs, and writes ``data/screening_responses.csv`` with a
``.json`` sidecar that binds the responses to the design: its size, its seed
and a hash of its points.  A serial in-process pass then evaluates every row
again, checks that it gives the CLI's value, and lists in the sidecar the
rows that need the solver's coupled fallback, which ``aquifer-evaluate``
mixes into every batch in a fixed number.  About 45 s for the CLI on 2 cores
and 85 s for the serial pass, on a quiet machine.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import benchenv

N, SEED = 500, 42
DATA = Path(__file__).resolve().parent / "data"
RESPONSES = DATA / "screening_responses.csv"
META = DATA / "screening_responses.json"


def coupled_fallback_rows(points, model, expected):
    """Indices of the rows whose ``evaluate`` factors a third matrix, the
    coupled operator, counted through the solver module's reference to
    ``splu``.  Each row's value must equal ``expected`` to 1e-9 relative."""
    from pcesobol.aquifer import solver

    splu, calls, rows = solver.splu, [0], []

    def counting(*args, **kwargs):
        calls[0] += 1
        return splu(*args, **kwargs)

    solver.splu = counting
    try:
        for i, row in enumerate(points):
            before = calls[0]
            value = solver.evaluate(row, model)
            if abs(value - expected[i]) > 1e-9 * abs(expected[i]):
                raise RuntimeError(f"row {i}: serial {value!r} against CLI {expected[i]!r}")
            if calls[0] - before >= 3:
                rows.append(i)
    finally:
        solver.splu = splu
    return rows


def main() -> int:
    benchenv.pin_threads()
    ps = benchenv.import_program()
    from pcesobol import aquifer, cli

    work = benchenv.ROOT / "perfbench" / "out" / "regenerate"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        config = work / "run.yaml"
        config.write_text(
            json.dumps(
                {
                    "output_dir": str(work),
                    "random_vector": "demo",
                    "design": {"n": N, "seed": SEED},
                    "model": {"kind": "demo", "workers": benchenv.cores()},
                }
            )
        )
        cli.main(["sample", "--config", str(config)])
        cli.main(["evaluate", "--config", str(config), "--design", str(work / "design.csv")])
        design = ps.ExperimentalDesign.from_csv(
            work / "design.csv", work / "design.responses.csv"
        )
        DATA.mkdir(exist_ok=True)
        design.responses_to_csv(RESPONSES)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    fallback_rows = coupled_fallback_rows(
        design.points, aquifer.default_model(), design.responses
    )
    meta = {
        "design": {
            "kind": "lhs",
            "random_vector": "aquifer.random_vector(aquifer.default_model())",
            "n": N,
            "seed": SEED,
            "points_sha256": benchenv.points_sha256(design.points),
        },
        "responses": RESPONSES.name,
        "model": "aquifer.evaluate (pcesobol evaluate, model kind demo)",
        "coupled_fallback_rows": fallback_rows,
        "regenerate": "python3 perfbench/make_screening_data.py",
        "machine": benchenv.machine_facts(),
    }
    META.write_text(json.dumps(meta, indent=1) + "\n")
    print(f"wrote {RESPONSES} and {META}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
