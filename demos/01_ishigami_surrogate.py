"""Sparse chaos surrogate of the Ishigami function, checked against closed forms.

Walks the core loop once: draw a Latin hypercube design, run the adaptive
degree sweep, then read moments and the full ladder of Sobol' indices off
the coefficients and compare with the analytic decomposition.

Run:  python demos/01_ishigami_surrogate.py [n_points]
"""

import sys

import numpy as np

import pcesobol as ps

A, B = 7.0, 0.1


def ishigami(x):
    return np.sin(x[:, 0]) + A * np.sin(x[:, 1]) ** 2 + B * x[:, 2] ** 4 * np.sin(x[:, 0])


def analytic_indices():
    pi = np.pi
    v1 = 0.5 * (1 + B * pi**4 / 5) ** 2
    v2 = A**2 / 8
    v13 = B**2 * pi**8 * (1 / 18 - 1 / 50)
    d = v1 + v2 + v13
    return {"S1": v1 / d, "S2": v2 / d, "S3": 0.0, "S13": v13 / d, "D": d}


def main():
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 200
    rv = ps.RandomVector(
        ("x1", "x2", "x3"),
        tuple(ps.Marginal.uniform(-np.pi, np.pi) for _ in range(3)),
    )
    design = ps.lhs(n, rv, seed=2024)
    y = ishigami(design.points)
    print(f"design: {n} LHS points, responses from the analytic model")

    pce, diagnostics = ps.adaptive_fit(design, y, rv, range(1, 13), q=1.0)
    print("\ndegree sweep (corrected LOO error):")
    for row in diagnostics.rows:
        err = row["err_loo_corrected"]
        print(f"  p={row['p']:2d}  candidates={row['candidate_size']:4d}  "
              f"active={row['active_size']:3d}  err*={err:.3e}")
    print(f"selected degree {pce.degree}, {len(pce.active_set)} of "
          f"{pce.candidate_size} candidates retained "
          f"(sparsity {pce.sparsity_index:.3f})")

    mean, sd = ps.moments(pce)
    ref = analytic_indices()
    print(f"\nmoments: mean {mean:.4f} (exact {A / 2:.4f}), "
          f"sd {sd:.4f} (exact {np.sqrt(ref['D']):.4f})")

    s1 = ps.sobol_first(pce)
    st = ps.sobol_total(pce)
    s2 = ps.sobol_second(pce)
    print("\nindices vs analytic:")
    for i, key in enumerate(("S1", "S2", "S3")):
        print(f"  {key}: {s1[i]:.4f}  (exact {ref[key]:.4f})   "
              f"total: {st[i]:.4f}")
    print(f"  S13: {s2.get((0, 2), 0.0):.4f}  (exact {ref['S13']:.4f})")

    grid = np.linspace(-np.pi, np.pi, 9)
    effect = ps.univariate_effect(pce, 1, grid)
    print("\nunivariate effect of x2 (conditional mean minus overall mean):")
    for xval, eval_ in zip(grid, effect):
        bar = "#" * int(20 * (eval_ - effect.min())
                        / max(np.ptp(effect), 1e-12))
        print(f"  x2={xval:+.2f}  {eval_:+8.4f}  {bar}")


if __name__ == "__main__":
    main()
