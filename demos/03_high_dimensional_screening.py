"""Screening all 78 uncertain inputs of the cross-section model.

Runs the full pipeline at a modest design size: Latin hypercube sample,
one model evaluation per point, sparse fit under a hyperbolic truncation,
then total-index screening and per-property grouped sums.  Even a few
hundred runs separate the handful of influential petrofacies from the
rest of the 78 inputs.

Run:  python demos/03_high_dimensional_screening.py [n_points] [p_max]
(defaults n=150, p_max=3).  The model rows run on every available core:
the defaults took 25 s on 2 cores with OPENBLAS_NUM_THREADS=1, and 58 s
with OpenBLAS's default threads, which make the workers compete.
"""

import os
import sys
import time

import numpy as np

import pcesobol as ps
from pcesobol import aquifer as aq


def main():
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 150
    p_max = int(sys.argv[2]) if len(sys.argv) > 2 else 3

    rv = aq.random_vector(aq.default_model())
    design = ps.lhs(n, rv, seed=7)

    print(f"evaluating the cross-section model at {n} design points ...")
    t0 = time.time()
    y = np.empty(n)
    workers = len(os.sched_getaffinity(0))
    for i, value, err in ps.evaluate_rows(aq.evaluate, design.points, workers):
        if err:
            raise SystemExit(f"row {i} failed: {err}")
        y[i] = value
        if (i + 1) % 25 == 0:
            print(f"  {i + 1}/{n} done ({time.time() - t0:.0f} s)")
    print(f"responses: {y.min():,.0f} to {y.max():,.0f} years")

    pce, diag = ps.adaptive_fit(design, y, rv, range(1, p_max + 1), q=0.5)
    print(f"\nfit: degree {pce.degree}, {len(pce.active_set)} of "
          f"{pce.candidate_size} candidates, err*_loo={pce.err_loo_corrected:.3f}")

    grouping = {name: name.split(":")[0] for name in rv.names}
    report = ps.sobol_report(pce, threshold=0.01, grouping=grouping)
    print(f"\nscreening at total index < 0.01: "
          f"{len(report.unimportant)} of {rv.m} inputs unimportant")
    print("ten largest total indices:")
    for rank, (name, total, first) in enumerate(report.ranked(10), start=1):
        print(f"  {rank:2d}. {name:<12s} total={total:.4f}  first={first:.4f}")
    print("\nsums of first-order indices per property type:")
    for label, value in sorted(report.grouped_sums.items(), key=lambda kv: -kv[1]):
        print(f"  {label:<8s} {value:.4f}")


if __name__ == "__main__":
    main()
