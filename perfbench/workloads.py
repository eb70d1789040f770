"""The benchmark's workloads: inputs, unit of work, traced pass and checks.

Each workload drives the program through its public entry points only.  Its
``batch`` is the unit of work that the timed phase repeats; ``traced``
repeats it with layer wrappers installed and returns the per-layer figures;
``check`` compares the outputs with computations made apart from the
program, or with properties the method must have.  ``tiny`` shrinks the
inputs so that every check runs in seconds.
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path

import numpy as np
from numpy.polynomial import legendre

import benchenv
from layers import Tracer

DATA = Path(__file__).resolve().parent / "data"
SCREENING_META = DATA / "screening_responses.json"
SCREENING_RESPONSES = DATA / "screening_responses.csv"


class CheckFailed(AssertionError):
    """An output of the program is wrong."""


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


def _write_config(path: Path, doc: dict) -> None:
    # JSON is a subset of YAML, which the CLI reads
    path.write_text(json.dumps(doc, indent=1))


def _timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - t0, out


def _rel_dev(a, b) -> float:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b) / np.maximum(np.abs(b), 1e-300)))


class _TracedLU:
    """SuperLU factor whose ``solve`` calls are spans."""

    def __init__(self, lu, tracer: Tracer):
        self._lu = lu
        self.solve = tracer.span("solver.lu_solve", lu.solve)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class _FitRecorder:
    """Counts over the fit layers, taken from the results of wrapped calls."""

    def __init__(self):
        self.candidates = 0
        self.matrix_mb = 0.0
        self.lar_steps = 0
        self.kept = 0
        self.steps_at_selected = 0
        self._last_steps = 0
        self._fits = []  # (pce, LAR steps) of the current adaptive fit

    def enumerate(self, mset, *args, **kwargs):
        self.candidates += len(mset)
        return mset

    def basis_matrix(self, psi, *args, **kwargs):
        # computed size of the dense matrix, not a measured allocation
        self.matrix_mb = max(self.matrix_mb, psi.shape[0] * psi.shape[1] * 8 / 2**20)
        return psi

    def lar(self, order, *args, **kwargs):
        self._last_steps = len(order)
        self.lar_steps += len(order)
        return order

    def hybrid(self, pce, *args, **kwargs):
        self._fits.append((pce, self._last_steps))
        return pce

    def adaptive(self, result, *args, **kwargs):
        best = result[0]
        for pce, steps in self._fits:
            if pce is best:
                self.kept += len(pce.active_set) - 1
                self.steps_at_selected += steps
        self._fits = []
        return result


def _fit_plan(tracer: Tracer, rec: _FitRecorder, regression):
    span = tracer.span
    return [
        (regression, "enumerate_hyperbolic",
         lambda f: span("basis.enumerate", f, rec.enumerate)),
        (regression, "eval_basis_matrix",
         lambda f: span("basis.eval_matrix", f, rec.basis_matrix)),
        (regression, "hybrid_fit", lambda f: span("regression.hybrid_fit", f, rec.hybrid)),
        (regression, "lar_path", lambda f: span("regression.lar_path", f, rec.lar)),
        (regression, "cho_factor", lambda f: tracer.counter("regression.cho_factor", f)),
    ]


def _fit_metrics(tracer: Tracer, rec: _FitRecorder, batches: int) -> dict:
    st = tracer.stat
    return {
        "basis.enumerate_calls": st("basis.enumerate").calls / batches,
        "basis.enumerate_s": st("basis.enumerate").total_s / batches,
        "basis.candidates": rec.candidates / batches,
        "basis.eval_matrix_s": st("basis.eval_matrix").total_s / batches,
        "basis.matrix_mb": rec.matrix_mb,
        "regression.fits": st("regression.hybrid_fit").calls / batches,
        "regression.lar_s": st("regression.lar_path").total_s / batches,
        "regression.lar_steps": rec.lar_steps / batches,
        "regression.cholesky_calls": tracer.counts.get("regression.cho_factor", 0) / batches,
        "regression.scan_s": st("regression.hybrid_fit").self_s / batches,
        "regression.kept_per_step": rec.kept / max(rec.steps_at_selected, 1),
    }


FIT_SPANS = (
    "basis.enumerate",
    "basis.eval_matrix",
    "regression.adaptive_fit",
    "regression.hybrid_fit",
    "regression.lar_path",
)


def _share(tracer: Tracer, names, batch_total: float) -> float:
    return sum(tracer.stat(n).self_s for n in names) / batch_total


def _overhead(traced: list, untraced: list) -> float:
    base = float(np.median(untraced))
    return (float(np.median(traced)) - base) / base


def load_screening(ps, rv):
    """The paper's screening design, regenerated, with its stored responses.

    Refuses to run when the regenerated points do not hash to the ones the
    responses were computed at.
    """
    meta = json.loads(SCREENING_META.read_text())["design"]
    design = ps.lhs(int(meta["n"]), rv, int(meta["seed"]))
    digest = benchenv.points_sha256(design.points)
    if digest != meta["points_sha256"]:
        raise benchenv.SetupError(
            f"LHS({meta['n']}, seed {meta['seed']}) hashes to {digest}, the stored "
            f"responses belong to {meta['points_sha256']}; regenerate them with "
            "python3 perfbench/make_screening_data.py"
        )
    y = ps.load_responses_csv(SCREENING_RESPONSES)
    if y.shape != (design.n,) or not np.all(np.isfinite(y)):
        raise benchenv.SetupError(f"{SCREENING_RESPONSES.name}: need {design.n} finite values")
    return design.with_responses(y)


def screening_fallback_rows() -> np.ndarray:
    """Rows of the screening design whose evaluation needs the solver's
    coupled fallback, as listed when the responses were stored."""
    return np.asarray(json.loads(SCREENING_META.read_text())["coupled_fallback_rows"], dtype=int)


class Workload:
    """Subclasses provide ``setup()``; ``batch(k)``, the k-th unit of work,
    whose inputs ``prepare(k)`` makes untimed beforehand; ``traced(seconds)``,
    which returns the per-layer metrics; and ``check()``, which raises
    ``CheckFailed`` or returns the check figures.  Every operation run adds
    to ``attempted`` and, if it failed, ``failed``."""

    name = ""
    ops_name = ""
    rss_includes_workers = False

    def __init__(self, ps, seed: int, workdir: Path, tiny: bool = False):
        self.ps = ps
        self.seed = seed
        self.workdir = workdir
        self.tiny = tiny
        self.attempted = 0
        self.failed = 0

    def prepare(self, k):
        pass


# -- aquifer-evaluate -----------------------------------------------------------


class AquiferEvaluate(Workload):
    """``pcesobol evaluate`` (demo model, one worker per core) on 40-row
    designs drawn from the screening design, LHS(500, seed 42), whose rows
    are all known to evaluate: about one fresh-LHS row in a thousand makes
    ``aq.evaluate`` raise.  Batch k draws its rows with the stream
    ``[seed, k]``: 2 of the 19 rows that need the solver's coupled fallback
    and 38 of the others.  The coupled solve doubles a row's cost and adds
    about 36 MB to its worker, so a batch drawn freely would cost and weigh
    what its luck gave it.  A fresh output directory per batch, because the
    CLI resumes from a journal keyed only by row index."""

    name = "aquifer-evaluate"
    ops_name = "design row"
    rss_includes_workers = True

    def setup(self):
        from pcesobol import aquifer, cli

        self.aq, self.cli = aquifer, cli
        self.rows = 4 if self.tiny else 40
        self.workers = benchenv.cores()
        self.model = aquifer.default_model()
        self.pool = load_screening(self.ps, aquifer.random_vector(self.model))
        self.hard = screening_fallback_rows()
        self.easy = np.setdiff1d(np.arange(self.pool.n), self.hard)
        self.hard_per_batch = 1 if self.tiny else 2
        config = self.workdir / "run.yaml"
        _write_config(
            config,
            {
                "output_dir": str(self.workdir / "default-out"),
                "random_vector": "demo",
                "model": {"kind": "demo", "workers": self.workers},
            },
        )
        self.cfg = cli.load_config(config)
        self.designs = {}  # batch -> (pool rows, design CSV)
        self.outputs = []  # (pool rows, CLI responses) of every batch run
        self.serial = []  # in-process responses of the first batch's rows

    def prepare(self, k):
        rng = np.random.default_rng([self.seed, k])
        idx = rng.permutation(np.concatenate([
            rng.choice(self.hard, self.hard_per_batch, replace=False),
            rng.choice(self.easy, self.rows - self.hard_per_batch, replace=False),
        ]))
        out = self.workdir / f"repeat{k:04d}"
        out.mkdir()
        design_csv = out / "design.csv"
        self.ps.ExperimentalDesign(self.pool.names, self.pool.points[idx]).to_csv(design_csv)
        self.designs[k] = (idx, design_csv)

    def batch(self, k):
        idx, design_csv = self.designs[k]
        try:
            self.cli.cmd_evaluate(self.cfg, design_csv, design_csv.parent)
        except SystemExit:
            pass  # failed rows are left as NaN in the responses file
        values = self.ps.load_responses_csv(design_csv.parent / "design.responses.csv")
        self.outputs.append((idx, values))
        self.attempted += self.rows
        self.failed += int(np.count_nonzero(~np.isfinite(values)))

    def traced(self, seconds):
        from pcesobol.aquifer import model as model_mod
        from pcesobol.aquifer import solver

        tracer = Tracer()
        span = tracer.span
        traced_lu = lambda lu, *a, **k: _TracedLU(lu, tracer)  # noqa: E731
        plan = [
            (solver, "evaluate", lambda f: span("solver.evaluate", f)),
            (solver, "solve_flow", lambda f: span("solver.flow", f)),
            (solver, "solve_mle", lambda f: span("solver.mle", f)),
            (solver, "splu", lambda f: span("solver.splu", f, traced_lu)),
            (solver, "validate_parameters", lambda f: span("model.validate", f)),
            (model_mod.ModelParameters, "from_vector",
             lambda f: span("model.from_vector", f)),
        ]
        t_start = time.perf_counter()
        self.prepare(0)
        wall = _timed(self.batch, 0)[0]
        rows = self.pool.points[self.designs[0][0]]
        untraced, traced, fallbacks = [], [], 0
        while True:
            dt, values = _timed(lambda: [self.aq.evaluate(r, self.model) for r in rows])
            untraced.append(dt)
            self.serial.append(values)
            self.attempted += 2 * self.rows
            with tracer.installed(plan):
                t0 = time.perf_counter()
                values = []
                for row in rows:
                    before = tracer.stat("solver.splu").calls
                    values.append(solver.evaluate(row, self.model))
                    fallbacks += tracer.stat("solver.splu").calls - before >= 3
                traced.append(time.perf_counter() - t0)
            self.serial.append(values)
            if time.perf_counter() - t_start >= seconds:
                break
        n_eval = self.rows * len(traced)
        st = tracer.stat
        solver_spans = ("solver.evaluate", "solver.flow", "solver.mle",
                        "solver.splu", "solver.lu_solve")
        return {
            "solver.flow_s": st("solver.flow").total_s / n_eval,
            "solver.mle_s": st("solver.mle").total_s / n_eval,
            "solver.factorizations": st("solver.splu").calls / n_eval,
            "solver.factor_s": st("solver.splu").total_s / n_eval,
            "solver.lu_solves": st("solver.lu_solve").calls / n_eval,
            "solver.lu_solve_s": st("solver.lu_solve").total_s / n_eval,
            "solver.assembly_s": (st("solver.flow").self_s + st("solver.mle").self_s) / n_eval,
            "solver.coupled_fallbacks": fallbacks / len(traced),
            "model.validate_s": (st("model.validate").total_s
                                 + st("model.from_vector").total_s) / n_eval,
            "cli.parallel_efficiency": float(np.median(untraced)) / (self.workers * wall),
            "trace.batch_s": float(np.median(traced)),
            "trace.overhead_share": _overhead(traced, untraced),
            "trace.layer_share": _share(
                tracer, solver_spans + ("model.validate", "model.from_vector"), sum(traced)
            ),
        }

    def check(self):
        """Every CLI row against the stored ``aq.evaluate`` value of the same
        pool row; three rows of the first batch against a serial in-process
        ``aq.evaluate``, with flow conservation and lifetimes on two of them.
        A serial pass over every row would cost as much as the timed phase."""
        aq, stored = self.aq, self.pool.responses
        require(self.outputs, "no batch was run")
        worst_stored = 0.0
        for idx, values in self.outputs:
            require(values.shape == idx.shape, "CLI wrote the wrong number of rows")
            ok = np.isfinite(values)  # NaN rows are counted as failed operations
            require(np.all(values[ok] > 0), "CLI responses must be positive")
            worst_stored = max(worst_stored, _rel_dev(values[ok], stored[idx][ok]))
        require(worst_stored <= 1e-8,
                f"CLI responses differ from the stored ones by {worst_stored:.2e} (relative)")

        # one row through the coupled fallback and two picked by the seed
        idx0, values0 = self.outputs[0]
        hard = np.flatnonzero(np.isin(idx0, self.hard))[:1]
        others = np.setdiff1d(np.arange(self.rows), hard)
        picks = np.concatenate(
            [hard, np.random.default_rng(self.seed).choice(others, 2, replace=False)]
        )
        ref = np.array([aq.evaluate(self.pool.points[idx0[j]], self.model) for j in picks])
        require(np.all(np.isfinite(ref)) and np.all(ref > 0),
                "serial responses must be finite and positive")
        dev_stored = _rel_dev(ref, stored[idx0[picks]])
        require(dev_stored <= 1e-8,
                f"serial responses differ from the stored ones by {dev_stored:.2e}")
        ok = np.isfinite(values0[picks])
        worst = _rel_dev(values0[picks][ok], ref[ok])
        for values in self.serial:
            worst = max(worst, _rel_dev(np.asarray(values)[picks], ref))
        require(worst <= 1e-9,
                f"CLI responses differ from serial aq.evaluate by {worst:.2e} (relative)")

        div_worst = imbalance_worst = 0.0
        for j, expected in zip(picks[:2], ref):
            mp = aq.ModelParameters.from_vector(self.model, self.pool.points[idx0[j]])
            flow = aq.solve_flow(self.model, mp)
            budget = aq.outflow_budget(flow, self.model)
            net_out = (flow.flux_x[:, 1:] - flow.flux_x[:, :-1]
                       + flow.flux_z[1:, :] - flow.flux_z[:-1, :])
            div_worst = max(div_worst, float(np.max(np.abs(net_out))) / budget.inflow_total)
            imbalance_worst = max(imbalance_worst, budget.imbalance)
            mle = aq.solve_mle(self.model, flow, mp)
            require(float(np.min(mle.e_years)) >= 0.0, "negative lifetime")
            require(_rel_dev(mle.response, expected) <= 1e-9,
                    "solve_mle response differs from evaluate")
        require(div_worst <= 1e-5, f"cell divergence {div_worst:.2e} of total inflow")
        require(imbalance_worst <= 1e-7, f"global imbalance {imbalance_worst:.2e}")
        return {
            "rows_per_batch": self.rows,
            "batches_checked": len(self.outputs),
            "max_rel_dev_vs_stored": worst_stored,
            "serial_rows_rechecked": [int(idx0[j]) for j in picks],
            "max_rel_dev_vs_serial": worst,
            "max_cell_divergence": div_worst,
            "max_imbalance": imbalance_worst,
        }


# -- screening-fit ----------------------------------------------------------------


def _legendre_basis(degree_rows, u) -> np.ndarray:
    """Orthonormal Legendre products, evaluated with numpy's own Legendre
    series rather than the program's recurrences."""
    n = u.shape[0]
    psi = np.ones((n, len(degree_rows)))
    for k, row in enumerate(degree_rows):
        for j, d in row:
            c = np.zeros(d + 1)
            c[d] = math.sqrt(2 * d + 1)
            psi[:, k] *= legendre.legval(u[:, j], c)
    return psi


def _partition(degree_rows, coeffs):
    """Variance share of each exact support set, keyed by sorted variables."""
    parts = {}
    for row, c in zip(degree_rows, coeffs):
        key = tuple(sorted(j for j, _ in row))
        if key:
            parts[key] = parts.get(key, 0.0) + c * c
    return parts


class ScreeningFit(Workload):
    """``pcesobol fit`` then ``pcesobol sobol`` on the paper's screening
    design, LHS(500, seed 42) over the 78 inputs, with stored responses."""

    name = "screening-fit"
    ops_name = "fit + sobol stage pair"

    def setup(self):
        from pcesobol import aquifer, cli

        self.aq, self.cli = aquifer, cli
        self.model = aquifer.default_model()
        design = load_screening(self.ps, aquifer.random_vector(self.model))
        y = design.responses
        self.full_points, self.full_y = design.points, y
        self.design_csv = self.workdir / "design.csv"
        if self.tiny:
            design = self.ps.ExperimentalDesign(design.names, design.points[:150], y[:150])
            self.responses_csv = self.workdir / "responses.csv"
            design.responses_to_csv(self.responses_csv)
        else:
            self.responses_csv = SCREENING_RESPONSES
        design.to_csv(self.design_csv)
        self.points = design.points
        self.y = y[: design.n]
        config = self.workdir / "run.yaml"
        _write_config(
            config,
            {
                "output_dir": str(self.workdir / "default-out"),
                "random_vector": "demo",
                "fit": {"q": 0.5, "p_range": [1, 2] if self.tiny else [1, 6],
                        "scale": "original"},
                "sobol": {"screening_threshold": 0.01, "grouping": "auto"},
            },
        )
        self.cfg = cli.load_config(config)
        self.out = self.workdir / "fit"
        self.out.mkdir()
        self.pce_texts = set()

    def _stages(self):
        pce_path = self.cli.cmd_fit(self.cfg, self.design_csv, self.responses_csv, out=self.out)
        self.cli.cmd_sobol(self.cfg, pce_path, out=self.out)

    def batch(self, k):
        self._stages()
        self.attempted += 1
        self.pce_texts.add((self.out / "pce.json").read_text())

    def traced(self, seconds):
        from pcesobol import cli, regression

        tracer, rec = Tracer(), _FitRecorder()
        span = tracer.span
        plan = [
            (cli, "cmd_fit", lambda f: span("cli.cmd_fit", f)),
            (cli, "cmd_sobol", lambda f: span("cli.cmd_sobol", f)),
            (cli, "adaptive_fit", lambda f: span("regression.adaptive_fit", f, rec.adaptive)),
            (cli, "sobol_report", lambda f: span("sensitivity.sobol_report", f)),
        ] + _fit_plan(tracer, rec, regression)
        t_start = time.perf_counter()
        untraced, traced = [], []
        k = 0
        while True:
            untraced.append(_timed(self.batch, k)[0])
            with tracer.installed(plan):
                traced.append(_timed(self.batch, k + 1)[0])
            k += 2
            if time.perf_counter() - t_start >= seconds:
                break
        n = len(traced)
        st = tracer.stat
        cli_self = st("cli.cmd_fit").self_s + st("cli.cmd_sobol").self_s
        metrics = _fit_metrics(tracer, rec, n)
        metrics.update({
            "cli.stage_overhead_s": cli_self / n,
            "sensitivity.report_s": st("sensitivity.sobol_report").total_s / n,
            "trace.batch_s": float(np.median(traced)),
            "trace.overhead_share": _overhead(traced, untraced),
            "trace.layer_share": _share(
                tracer,
                ("cli.cmd_fit", "cli.cmd_sobol", "sensitivity.sobol_report") + FIT_SPANS,
                sum(traced),
            ),
        })
        return metrics

    def check(self):
        require(len(self.pce_texts) == 1,
                f"repeated fits wrote {len(self.pce_texts)} different pce.json files")
        report = json.loads((self.out / "sobol_report.json").read_text())
        pce = self.ps.SparsePce.load(self.out / "pce.json")
        rows = pce.active_set.to_sparse_pairs()
        coeffs = pce.coefficients
        margs = pce.random_vector.marginals
        require(all(m.kind == "uniform" for m in margs), "the aquifer inputs are uniform")
        lo = np.array([m.a for m in margs])
        hi = np.array([m.b for m in margs])
        u = 2.0 * (self.points - lo) / (hi - lo) - 1.0
        psi = _legendre_basis(rows, u)
        y = self.y
        n, card = psi.shape

        ols = np.linalg.lstsq(psi, y, rcond=None)[0]
        coef_dev = float(np.max(np.abs(ols - coeffs))) / float(np.max(np.abs(ols)))
        require(coef_dev <= 1e-8, f"coefficients differ from OLS by {coef_dev:.2e}")

        resid = np.empty(n)
        keep = np.ones(n, dtype=bool)
        for i in range(n):
            keep[i] = False
            beta = np.linalg.lstsq(psi[keep], y[keep], rcond=None)[0]
            resid[i] = y[i] - psi[i] @ beta
            keep[i] = True
        loo = float(np.mean(resid**2) / np.var(y, ddof=1))
        loo_dev = abs(pce.err_loo - loo) / loo
        require(loo_dev <= 1e-6,
                f"stored LOO error {pce.err_loo:.6g} against brute force {loo:.6g}")
        require(pce.err_loo_corrected >= pce.err_loo, "corrected LOO below LOO")

        variance = float(np.sum(coeffs[1:] ** 2))
        parts = _partition(rows, coeffs)
        partition_sum = sum(parts.values()) / variance
        require(abs(partition_sum - 1.0) <= 1e-12, f"Sobol' partition sums to {partition_sum!r}")
        first = np.zeros(len(lo))
        total = np.zeros(len(lo))
        for key, v in parts.items():
            total[list(key)] += v / variance
            if len(key) == 1:
                first[key[0]] += v / variance
        rep_first = np.array([v["first_order"] for v in report["variables"]])
        rep_total = np.array([v["total"] for v in report["variables"]])
        index_dev = max(float(np.max(np.abs(rep_first - first))),
                        float(np.max(np.abs(rep_total - total))))
        require(index_dev <= 1e-12, f"reported indices differ by {index_dev:.2e}")
        require(np.all(rep_first >= 0.0) and np.all(rep_total >= rep_first - 1e-15),
                "need S_T >= S_1 >= 0")

        rng = np.random.default_rng(self.seed)
        picks = rng.choice(len(self.full_y), size=1 if self.tiny else 3, replace=False)
        stored_dev = max(
            _rel_dev(self.aq.evaluate(self.full_points[i], self.model), self.full_y[i])
            for i in picks
        )
        require(stored_dev <= 1e-8,
                f"stored responses differ from aq.evaluate by {stored_dev:.2e}")
        return {
            "terms": card,
            "degree": pce.degree,
            "coef_dev_vs_ols": coef_dev,
            "loo_dev_vs_brute_force": loo_dev,
            "partition_sum": float(partition_sum),
            "stored_rows_rechecked": [int(i) for i in picks],
            "stored_rel_dev": stored_dev,
        }


# -- subsample-study --------------------------------------------------------------


def ishigami(x, a=7.0, b=0.1):
    return np.sin(x[:, 0]) + a * np.sin(x[:, 1]) ** 2 + b * x[:, 2] ** 4 * np.sin(x[:, 0])


def ishigami_totals(a=7.0, b=0.1):
    """Closed-form total indices with inputs uniform on [-pi, pi]."""
    pi = math.pi
    v1 = 0.5 * (1.0 + b * pi**4 / 5.0) ** 2
    v2 = a**2 / 8.0
    v13 = b**2 * pi**8 * (1.0 / 18.0 - 1.0 / 50.0)
    d = v1 + v2 + v13
    return np.array([(v1 + v13) / d, v2 / d, v13 / d])


class SubsampleStudy(Workload):
    """``repeated_subsample_study`` on Ishigami: 200-point subsets of a
    2000-point LHS (seed 77), p in [1, 12], q = 1, three repetitions per
    batch; each batch draws new subsets from a stream derived from the
    benchmark seed.  Short batches give a run many of them to take the
    median of."""

    name = "subsample-study"
    ops_name = "subsample repetition"

    def setup(self):
        ps = self.ps
        self.reps = 6 if self.tiny else 3
        self.rv = ps.RandomVector(
            ("x1", "x2", "x3"), tuple(ps.Marginal.uniform(-math.pi, math.pi) for _ in range(3))
        )
        self.design = ps.lhs(2000, self.rv, 77)
        self.y = ishigami(self.design.points)
        self.totals = []

    def _study_seed(self, k):
        return int(np.random.SeedSequence([self.seed, k]).generate_state(1)[0])

    def _run(self, study_fn, k):
        study = study_fn(
            self.design, self.y, self.rv, subset_size=200, repetitions=self.reps,
            seed=self._study_seed(k), p_range=range(1, 13), q=1.0,
        )
        self.totals.append(study.totals)
        self.attempted += self.reps

    def batch(self, k):
        self._run(self.ps.repeated_subsample_study, k)

    def traced(self, seconds):
        from pcesobol import regression, sensitivity

        tracer, rec = Tracer(), _FitRecorder()
        span = tracer.span
        plan = [
            (sensitivity, "repeated_subsample_study",
             lambda f: span("sensitivity.study", f)),
            (sensitivity, "adaptive_fit",
             lambda f: span("regression.adaptive_fit", f, rec.adaptive)),
        ] + _fit_plan(tracer, rec, regression)
        t_start = time.perf_counter()
        untraced, traced = [], []
        k = 0
        while True:
            untraced.append(_timed(self._run, self.ps.repeated_subsample_study, k)[0])
            with tracer.installed(plan):
                traced.append(
                    _timed(lambda: self._run(sensitivity.repeated_subsample_study, k))[0]
                )
            k += 1
            if time.perf_counter() - t_start >= seconds:
                break
        n = len(traced)
        metrics = _fit_metrics(tracer, rec, n)
        metrics.update({
            "sensitivity.study_self_s": tracer.stat("sensitivity.study").self_s / n,
            "trace.batch_s": float(np.median(traced)),
            "trace.overhead_share": _overhead(traced, untraced),
            "trace.layer_share": _share(
                tracer, ("sensitivity.study",) + FIT_SPANS, sum(traced)
            ),
        })
        return metrics

    def check(self):
        totals = np.vstack(self.totals)
        med = np.median(totals, axis=0)
        iqr = np.percentile(totals, 75, axis=0) - np.percentile(totals, 25, axis=0)
        gap = float(np.max(np.abs(med - ishigami_totals())))
        require(np.all(totals >= 0.0) and np.all(totals <= 1.0 + 1e-12),
                "total indices outside [0, 1]")
        require(gap <= 0.05, f"median total indices {med} are {gap:.3f} from closed form")
        require(float(np.max(iqr)) <= 0.06, f"IQR of total indices {iqr} above 0.06")
        return {
            "repetitions": int(totals.shape[0]),
            "median_totals": [float(v) for v in med],
            "max_gap": gap,
            "max_iqr": float(np.max(iqr)),
        }


WORKLOADS = {w.name: w for w in (AquiferEvaluate, ScreeningFit, SubsampleStudy)}
