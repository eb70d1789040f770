"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them);
tolerances are pinned here, not deferred.  The heavyweight end-to-end
criteria (9 and 10) take a few minutes combined on one core.
"""

import math
import os
import time
from fractions import Fraction

import numpy as np
import pytest

import pcesobol as ps
from pcesobol import aquifer as aq
from conftest import (
    G_FUNCTION_A,
    g_function,
    g_function_first_order,
    ishigami,
    ishigami_analytic,
)
from sobol_reference import group_index

ISHIGAMI = ishigami_analytic()


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def ishigami_fit(ishigami_rv):
    design = ps.lhs(200, ishigami_rv, seed=2024)
    y = ishigami(design.points)
    t0 = time.time()
    pce, _ = ps.adaptive_fit(design, y, ishigami_rv, range(1, 13), q=1.0)
    return pce, time.time() - t0


@pytest.fixture(scope="module")
def gfunction_fit(gfunction_rv):
    design = ps.lhs(500, gfunction_rv, seed=321)
    y = g_function(design.points)
    pce, _ = ps.adaptive_fit(design, y, gfunction_rv, range(1, 11), q=0.5)
    return pce


def test_criterion_1_hyperbolic_enumeration_exact():
    t0 = time.time()
    n_8 = len(ps.enumerate_hyperbolic(78, 8, 0.5))
    t_8 = time.time() - t0
    t0 = time.time()
    n_10 = len(ps.enumerate_hyperbolic(78, 10, 0.5))
    t_10 = time.time() - t0
    ok = n_8 == 18_643 and n_10 == 106_887 and t_8 < 10.0 and t_10 < 10.0
    report(
        1, ok,
        f"card(78,8,0.5)={n_8} in {t_8:.2f}s, card(78,10,0.5)={n_10} in {t_10:.2f}s",
    )


def test_criterion_2_total_degree_count_exact():
    value = ps.count_total_degree(78, 8)
    report(2, value == 53_060_358_690, f"binom(86,8)={value}")


def test_criterion_3_orthonormality_gram_identity():
    worst = 0.0
    for family in ("legendre", "hermite"):
        if family == "legendre":
            x, w = np.polynomial.legendre.leggauss(40)
            w = w / 2.0
        else:
            x, w = np.polynomial.hermite_e.hermegauss(40)
            w = w / math.sqrt(2 * math.pi)
        table = ps.eval_orthonormal_all(family, 15, x)
        gram = (table * w[:, None]).T @ table
        worst = max(worst, float(np.max(np.abs(gram - np.eye(16)))))
    report(3, worst < 1e-10, f"max |Gram - I| = {worst:.2e} up to degree 15")


def test_criterion_4_loo_identity_50_random_problems():
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(15, 41))
        p = int(rng.integers(2, 11))
        psi = np.column_stack([np.ones(n), rng.normal(size=(n, p - 1))])
        beta_true = rng.normal(size=p)
        y = psi @ beta_true + 0.2 * rng.normal(size=n)
        beta, *_ = np.linalg.lstsq(psi, y, rcond=None)
        fast = ps.loo_error(psi, y, beta)
        naive = np.empty(n)
        for i in range(n):
            keep = np.arange(n) != i
            bi, *_ = np.linalg.lstsq(psi[keep], y[keep], rcond=None)
            naive[i] = (y[i] - psi[i] @ bi) ** 2
        slow = naive.mean() / np.var(y, ddof=1)
        worst = max(worst, abs(fast - slow) / slow)
    report(4, worst < 1e-8, f"max relative gap hat-matrix vs refit LOO = {worst:.2e}")


def test_criterion_5_ishigami_benchmark(ishigami_fit):
    pce, elapsed = ishigami_fit
    s1 = ps.sobol_first(pce)
    s2 = ps.sobol_second(pce)
    checks = {
        "S1": abs(s1[0] - ISHIGAMI["S1"]) <= 0.02,
        "S2": abs(s1[1] - ISHIGAMI["S2"]) <= 0.02,
        "S3": s1[2] <= 0.01,
        "S13": abs(s2.get((0, 2), 0.0) - ISHIGAMI["S13"]) <= 0.03,
        "runtime": elapsed < 30.0,
    }
    detail = (
        f"S1={s1[0]:.4f} (ref {ISHIGAMI['S1']:.4f}), "
        f"S2={s1[1]:.4f} (ref {ISHIGAMI['S2']:.4f}), S3={s1[2]:.4f}, "
        f"S13={s2.get((0, 2), 0.0):.4f} (ref {ISHIGAMI['S13']:.4f}), "
        f"fit {elapsed:.1f}s"
    )
    report(5, all(checks.values()), detail)


def test_criterion_6_sobol_g_function(gfunction_fit):
    s1 = ps.sobol_first(gfunction_fit)
    analytic = g_function_first_order()
    worst = float(np.max(np.abs(s1 - analytic)))
    report(
        6, worst < 0.05,
        f"max |S_i - analytic| = {worst:.4f} over 8 variables (N=500)",
    )


def test_criterion_7_sobol_ladder_consistency(ishigami_fit, gfunction_fit):
    rng = np.random.default_rng(99)
    rv = ps.RandomVector(
        ("a", "b", "c", "d"),
        tuple(ps.Marginal.uniform(-1, 1) for _ in range(4)),
    )
    design = ps.lhs(120, rv, seed=55)
    x = design.points
    y = (
        0.5
        + x[:, 0]
        + x[:, 1] * x[:, 2]
        + x[:, 3] ** 3
        + 0.05 * rng.normal(size=120)
    )
    synthetic, _ = ps.adaptive_fit(design, y, rv, range(1, 6), q=1.0)

    worst_partition = 0.0
    all_ok = True
    details = []
    for label, pce in (
        ("ishigami", ishigami_fit[0]),
        ("g-function", gfunction_fit),
        ("synthetic", synthetic),
    ):
        m = pce.active_set.m
        first = ps.sobol_first(pce)
        total = ps.sobol_total(pce)
        second = ps.sobol_second(pce)
        # implicit full partition: sum over all u of S_u
        partition = float(np.sum(pce.coefficients[1:] ** 2)) / ps.total_variance(pce)
        worst_partition = max(worst_partition, abs(partition - 1.0))
        ok = (
            abs(partition - 1.0) < 1e-12
            and np.all(total + 1e-15 >= first)
            and all(
                group_index(pce, (i,)) == first[i] for i in range(m)
            )
            and all(
                group_index(pce, pair) == val for pair, val in second.items()
            )
        )
        all_ok = all_ok and ok
        details.append(f"{label}: partition-1={partition - 1.0:+.1e}")
    report(7, all_ok, "; ".join(details) + f"; group/pair identities exact")


def test_criterion_8_aquifer_physics():
    from test_aquifer import plain_params, slab_model

    # (a) homogeneous slab: exact linear head
    model = slab_model()
    flow = aq.solve_flow(model, plain_params(model))
    exact = 10.0 - 10.0 * model.x_centers() / model.length
    err_a = float(np.max(np.abs(flow.head - exact[None, :])))

    # (b) plug-flow travel time within 1% on a refined grid
    model_b = slab_model(nx=500, phi=0.25, head_left=10.0, head_right=0.0, d_m=0.0)
    params_b = plain_params(model_b, phi=0.25, alpha_l=0.0)
    mle_b = aq.solve_mle(model_b, aq.solve_flow(model_b, params_b), params_b)
    q = 1e-5 * 10.0 / model_b.length
    x = model_b.x_centers()
    ref_b = 0.25 * (model_b.length - x) / q / model_b.seconds_per_year
    sel = x < 0.8 * model_b.length
    err_b = float(np.max(np.abs(mle_b.e_years[0, sel] - ref_b[sel]) / ref_b[sel]))

    # (c) pure-diffusion parabola within 1%
    model_c = slab_model(nx=400, phi=0.3, head_left=5.0, head_right=5.0, d_m=2.3e-9)
    params_c = plain_params(model_c, phi=0.3, alpha_l=0.0)
    mle_c = aq.solve_mle(model_c, aq.solve_flow(model_c, params_c), params_c)
    xc = model_c.x_centers()
    ref_c = xc * (model_c.length - xc) / (2 * 2.3e-9) / model_c.seconds_per_year
    err_c = float(np.max(np.abs(mle_c.e_years[1] - ref_c) / ref_c.max()))

    # (d) nominal run: outflow split, response band, runtime
    demo = aq.default_model()
    nominal = aq.nominal_parameters(demo)
    t0 = time.time()
    response = aq.evaluate(nominal, demo)
    elapsed = time.time() - t0
    mp = aq.ModelParameters.from_vector(demo, nominal)
    budget = aq.outflow_budget(aq.solve_flow(demo, mp), demo)
    fr = budget.fractions
    ok = (
        err_a < 1e-10
        and err_b < 0.01
        and err_c < 0.01
        and abs(fr.get("top", 0.0) - 0.02) <= 0.10
        and abs(fr.get("oxfordian", 0.0) - 0.60) <= 0.10
        and abs(fr.get("dogger", 0.0) - 0.38) <= 0.10
        and 40_000.0 <= response <= 200_000.0
        and elapsed < 1.0
    )
    report(
        8, ok,
        f"slab {err_a:.1e}; plug {err_b:.2%}; diffusion {err_c:.2%}; "
        f"split (top {fr.get('top', 0):.3f}, ox {fr.get('oxfordian', 0):.3f}, "
        f"dogger {fr.get('dogger', 0):.3f}); TZ {response:,.0f} yr; "
        f"eval {elapsed:.2f}s",
    )


def test_criterion_9_end_to_end_demo_screening():
    t0 = time.time()
    model = aq.default_model()
    rv = aq.random_vector(model)
    design = ps.lhs(500, rv, seed=42)
    workers = len(os.sched_getaffinity(0))
    rows = list(ps.evaluate_rows(aq.evaluate, design.points, workers))
    failed = [(i, err) for i, _, err in rows if err]
    assert not failed, f"criterion 9: model rows failed: {failed}"
    y = np.array([value for _, value, _ in rows])
    pce, _ = ps.adaptive_fit(design, y, rv, range(1, 7), q=0.5)
    grouping = {name: name.split(":")[0] for name in rv.names}
    rep = ps.sobol_report(pce, threshold=0.01, grouping=grouping)
    elapsed = time.time() - t0

    n_unimportant = len(rep.unimportant)
    only_phi = all(name.startswith("phi:") for name in rep.important)
    sums = rep.grouped_sums
    phi_largest = all(
        sums["phi"] > v for label, v in sums.items() if label != "phi"
    )
    ok = (
        elapsed < 1800.0
        and n_unimportant >= 60
        and only_phi
        and phi_largest
        and len(rep.important) >= 1
    )
    report(
        9, ok,
        f"{n_unimportant}/78 unimportant, important={rep.important}, "
        f"group sums {dict((k, round(v, 4)) for k, v in sums.items())}, "
        f"{elapsed / 60:.1f} min",
    )


def test_criterion_10_subsample_robustness(ishigami_rv):
    t0 = time.time()
    design = ps.lhs(2000, ishigami_rv, seed=77)
    y = ishigami(design.points)
    full, _ = ps.adaptive_fit(design, y, ishigami_rv, range(1, 13), q=1.0)
    full_totals = ps.sobol_total(full)
    study = ps.repeated_subsample_study(
        design, y, ishigami_rv,
        subset_size=200, repetitions=100, seed=7,
        p_range=range(1, 13), q=1.0,
    )
    summary = study.summary()
    iqr = summary["q75"] - summary["q25"]
    med_gap = np.abs(summary["median"] - full_totals)
    elapsed = time.time() - t0
    ok = (
        float(np.max(iqr)) <= 0.06
        and float(np.max(med_gap)) <= 0.05
        and elapsed < 600.0
    )
    report(
        10, ok,
        f"max IQR={np.max(iqr):.4f} (<=0.06), "
        f"max median gap={np.max(med_gap):.4f} (<=0.05), "
        f"{elapsed / 60:.1f} min for 100 repetitions",
    )
