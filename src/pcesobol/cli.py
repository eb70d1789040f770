"""Command-line pipeline: sample, evaluate, fit, sobol, study, demo, full.

The run configuration is a YAML document; every report written carries
full provenance (config hash, seeds, package and numpy versions, response
scale).  Model evaluation is resumable: completed rows are journaled and
re-runs compute only what is missing.

External models plug in through a file exchange: for each design row the
runner writes a one-row CSV parameter file, invokes the configured command
(``{input}``, ``{output}`` and ``{index}`` placeholders), and reads a
single scalar back from the output file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shlex
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .probability import Marginal, RandomVector
from .sampling import ExperimentalDesign, lhs, load_responses_csv, nested_lhs_enrich
from .regression import SparsePce, adaptive_fit, generalization_error
from .sensitivity import (
    grouped_sums,
    repeated_subsample_study,
    sobol_report,
    univariate_effect,
)
from . import aquifer

_CONFIG_DEFAULTS = {
    "output_dir": "pcesobol-out",
    "model": {"kind": "demo", "workers": 1},
    "random_vector": "demo",
    "design": {"n": 100, "seed": 0},
    "fit": {
        "q": 0.5,
        "p_range": [1, 6],
        "scale": "original",
        "early_stop": True,
        "use_enrichment": "none",
    },
    "sobol": {
        "screening_threshold": 0.01,
        "grouping": "auto",
        "top": 10,
        "univariate_grid": 41,
    },
    "study": {"subset_size": 200, "repetitions": 100, "seed": 0},
}


class ConfigError(ValueError):
    pass


_JOURNAL_FORMAT = "pcesobol-journal/1"


def _merge(defaults, overrides):
    out = dict(defaults)
    for key, value in (overrides or {}).items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = value
    return out


def load_config(path) -> dict:
    with open(path) as fh:
        raw = yaml.safe_load(fh) or {}
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a mapping")
    cfg = _merge(_CONFIG_DEFAULTS, raw)
    cfg["_sha256"] = hashlib.sha256(
        json.dumps(raw, sort_keys=True, default=str).encode()
    ).hexdigest()
    cfg["_path"] = str(path)
    _validate_config(cfg)
    return cfg


def _validate_config(cfg) -> None:
    fit = cfg["fit"]
    lo, hi = fit["p_range"]
    if not (1 <= int(lo) <= int(hi)):
        raise ConfigError("fit.p_range must be [low, high] with 1 <= low <= high")
    if not (0.0 < float(fit["q"]) <= 1.0):
        raise ConfigError("fit.q must lie in (0, 1]")
    if fit["scale"] not in ("original", "log"):
        raise ConfigError("fit.scale must be 'original' or 'log'")
    if fit["use_enrichment"] not in ("none", "validation", "joint"):
        raise ConfigError(
            "fit.use_enrichment must be 'none', 'validation' or 'joint'"
        )
    thr = float(cfg["sobol"]["screening_threshold"])
    if not (0.0 <= thr <= 1.0):
        raise ConfigError("sobol.screening_threshold must lie in [0, 1]")
    kind = cfg["model"]["kind"]
    if kind not in ("demo", "external"):
        raise ConfigError("model.kind must be 'demo' or 'external'")
    if kind == "external" and not cfg["model"].get("command"):
        raise ConfigError("external models need model.command")
    if cfg["random_vector"] == "demo":
        return
    if not isinstance(cfg["random_vector"], list):
        raise ConfigError("random_vector must be 'demo' or a list of marginals")


def config_random_vector(cfg) -> RandomVector:
    spec = cfg["random_vector"]
    if spec == "demo":
        return aquifer.random_vector(aquifer.default_model())
    names, margs = [], []
    for entry in spec:
        names.append(str(entry["name"]))
        kind = entry["kind"]
        if kind == "uniform":
            margs.append(Marginal.uniform(entry["lower"], entry["upper"]))
        elif kind == "gaussian":
            margs.append(Marginal.gaussian(entry["mean"], entry["sd"]))
        else:
            raise ConfigError(f"unknown marginal kind {kind!r}")
    return RandomVector(tuple(names), tuple(margs))


def provenance(cfg, **extra) -> dict:
    doc = {
        "config": cfg.get("_path"),
        "config_sha256": cfg.get("_sha256"),
        "pcesobol_version": __version__,
        "numpy_version": np.__version__,
        "response_scale": cfg["fit"]["scale"],
        "time_unit": "years (1 yr = 3.15576e7 s)",
    }
    doc.update(extra)
    return doc


def _outdir(cfg) -> Path:
    out = Path(cfg["output_dir"])
    out.mkdir(parents=True, exist_ok=True)
    return out


# -- sample -------------------------------------------------------------------


def cmd_sample(cfg, out: Path | None = None) -> list:
    rv = config_random_vector(cfg)
    out = out or _outdir(cfg)
    design_cfg = cfg["design"]
    design = lhs(int(design_cfg["n"]), rv, int(design_cfg["seed"]))
    written = []
    path = out / "design.csv"
    design.to_csv(path)
    written.append(path)
    enrich = design_cfg.get("enrichment")
    if enrich:
        extra = nested_lhs_enrich(
            design, int(enrich["n"]), rv, int(enrich["seed"])
        )
        epath = out / "design_enrichment.csv"
        extra.to_csv(epath)
        written.append(epath)
    for p in written:
        print(f"wrote {p}")
    return written


# -- evaluate -----------------------------------------------------------------


def _demo_row(args):
    index, params = args
    try:
        return index, float(aquifer.evaluate(params)), ""
    except Exception as exc:  # recorded per-row, run continues
        return index, float("nan"), str(exc)


def _external_row(command, workdir: Path, index: int, names, params):
    inp = workdir / f"row_{index:06d}.in.csv"
    outp = workdir / f"row_{index:06d}.out"
    with open(inp, "w") as fh:
        fh.write(",".join(names) + "\n")
        fh.write(",".join(f"{v:.17g}" for v in params) + "\n")
    cmd = command.format(input=str(inp), output=str(outp), index=index)
    proc = subprocess.run(shlex.split(cmd), capture_output=True, text=True)
    if proc.returncode != 0:
        return float("nan"), f"exit {proc.returncode}: {proc.stderr.strip()[:200]}"
    try:
        value = float(outp.read_text().strip().splitlines()[0])
    except (OSError, ValueError, IndexError) as exc:
        return float("nan"), f"unreadable response: {exc}"
    if not np.isfinite(value):
        return float("nan"), "non-finite response"
    return value, ""


def journal_header(design: ExperimentalDesign, model_cfg: dict) -> str:
    """First line of an evaluation journal: a sha256 of the design points
    and of the model settings other than ``workers``, which changes where
    rows run but not their values."""
    settings = {k: v for k, v in model_cfg.items() if k != "workers"}
    points = np.ascontiguousarray(design.points, dtype=float)
    digest = hashlib.sha256(repr(points.shape).encode())
    digest.update(points.tobytes())
    digest.update(json.dumps(settings, sort_keys=True, default=str).encode())
    return f"{_JOURNAL_FORMAT} {digest.hexdigest()}\n"


def _read_journal(journal: Path, header: str) -> dict:
    """Completed rows ``{index: value}`` of a journal written under ``header``.

    A line cut off before its newline, or one that does not parse as
    ``index,value``, is dropped, so its row runs again; a cut-off tail is
    also removed from the file, so that appended lines start on their own.
    """
    data = journal.read_bytes() if journal.exists() else b""
    cut = data.rfind(b"\n") + 1
    if cut == 0:  # no complete header line, so no row was recorded
        journal.write_text(header)
        return {}
    first, _, body = data[:cut].decode("ascii", errors="replace").partition("\n")
    if first + "\n" != header:
        raise ConfigError(
            f"{journal}: journal was written for another design or model;"
            " remove it to evaluate this design"
        )
    if cut < len(data):
        with open(journal, "r+b") as fh:
            fh.truncate(cut)
    done = {}
    for line in body.splitlines():
        index, _, value = line.partition(",")
        try:
            done[int(index)] = float(value)
        except ValueError:
            continue
    return done


def cmd_evaluate(cfg, design_path, out: Path | None = None) -> Path:
    """Evaluate the model at every design row, resumably.

    Completed rows are journaled to ``<design>.partial.csv`` as they
    finish; a re-run recomputes only rows without a recorded success.  The
    journal's first line binds it to the design points and the model
    settings (see ``journal_header``); a journal written for other inputs
    is refused with ``ConfigError``.
    Failures are recorded per row (NaN in the final column) and reported
    at the end.
    """
    outdir = out or _outdir(cfg)
    design = ExperimentalDesign.from_csv(design_path)
    journal = outdir / (Path(design_path).stem + ".partial.csv")
    final = outdir / (Path(design_path).stem + ".responses.csv")

    done = _read_journal(journal, journal_header(design, cfg["model"]))
    todo = [i for i in range(design.n) if i not in done]

    failures = []
    kind = cfg["model"]["kind"]
    with open(journal, "a") as jfh:

        def record(index, value, err):
            if err:
                failures.append((index, err))
                print(f"row {index}: FAILED ({err})", file=sys.stderr)
                return
            done[index] = value
            jfh.write(f"{index},{value:.17g}\n")
            jfh.flush()

        if kind == "demo":
            workers = int(cfg["model"].get("workers", 1))
            jobs = [(i, design.points[i]) for i in todo]
            if workers > 1 and len(jobs) > 1:
                with ProcessPoolExecutor(max_workers=workers) as pool:
                    for index, value, err in pool.map(_demo_row, jobs, chunksize=4):
                        record(index, value, err)
            else:
                for job in jobs:
                    record(*_demo_row(job))
        else:
            command = cfg["model"]["command"]
            exchange = outdir / "exchange"
            exchange.mkdir(exist_ok=True)
            for i in todo:
                value, err = _external_row(
                    command, exchange, i, design.names, design.points[i]
                )
                record(i, value, err)

    responses = np.array([done.get(i, float("nan")) for i in range(design.n)])
    with open(final, "w") as fh:
        fh.write("response\n")
        np.savetxt(fh, responses, fmt="%.17g")
    print(f"wrote {final} ({design.n - len(failures)}/{design.n} rows ok)")
    if failures:
        raise SystemExit(f"{len(failures)} row(s) failed; re-run to retry them")
    return final


# -- fit ----------------------------------------------------------------------


def cmd_fit(
    cfg,
    design_path,
    responses_path,
    validation_design=None,
    validation_responses=None,
    out: Path | None = None,
) -> Path:
    outdir = out or _outdir(cfg)
    rv = config_random_vector(cfg)
    design = ExperimentalDesign.from_csv(design_path, responses_path)
    fit_cfg = cfg["fit"]
    lo, hi = (int(v) for v in fit_cfg["p_range"])

    validation = None
    if validation_design:
        validation = ExperimentalDesign.from_csv(
            validation_design, validation_responses
        )
        if validation.responses is None:
            raise ConfigError("validation design needs responses")

    if fit_cfg["use_enrichment"] == "joint" and validation is not None:
        design = design.stacked(validation)
        validation = None

    pce, diag = adaptive_fit(
        design,
        design.responses,
        rv,
        range(lo, hi + 1),
        q=float(fit_cfg["q"]),
        scale=fit_cfg["scale"],
        early_stop=bool(fit_cfg["early_stop"]),
    )
    if validation is not None:
        pce.err_gen = generalization_error(pce, validation)

    path = outdir / "pce.json"
    pce.save(
        path,
        extra=provenance(
            cfg,
            design=str(design_path),
            design_size=design.n,
            seeds={"design": cfg["design"].get("seed")},
            sweep=diag.rows,
            selected_p=diag.selected_p,
        ),
    )
    print(
        f"wrote {path} (p={pce.degree}, {len(pce.active_set)} terms, "
        f"err*_loo={pce.err_loo_corrected:.4g}"
        + (f", err_gen={pce.err_gen:.4g}" if pce.err_gen is not None else "")
        + ")"
    )
    return path


# -- sobol --------------------------------------------------------------------


def _auto_grouping(names):
    return {n: n.split(":")[0] for n in names if ":" in n} if all(
        ":" in n for n in names
    ) else None


def cmd_sobol(cfg, pce_path, grouping_path=None, out: Path | None = None) -> list:
    outdir = out or _outdir(cfg)
    pce = SparsePce.load(pce_path)
    scfg = cfg["sobol"]

    grouping = None
    if grouping_path:
        with open(grouping_path) as fh:
            grouping = {str(k): str(v) for k, v in yaml.safe_load(fh).items()}
    elif scfg["grouping"] == "auto":
        grouping = _auto_grouping(pce.random_vector.names)
    elif isinstance(scfg["grouping"], dict):
        grouping = {str(k): str(v) for k, v in scfg["grouping"].items()}

    report = sobol_report(
        pce, threshold=float(scfg["screening_threshold"]), grouping=grouping
    )
    written = []

    rpath = outdir / "sobol_report.json"
    doc = report.to_dict()
    doc["provenance"] = provenance(cfg, pce=str(pce_path))
    doc["provenance"]["response_scale"] = pce.response_scale
    with open(rpath, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    written.append(rpath)

    fpath = outdir / "sobol_first_total.csv"
    with open(fpath, "w") as fh:
        fh.write("variable,first_order,total,important\n")
        for i, name in enumerate(report.variable_names):
            fh.write(
                f"{name},{report.first_order[i]:.17g},{report.total[i]:.17g},"
                f"{int(name in report.important)}\n"
            )
    written.append(fpath)

    spath = outdir / "sobol_second_order.csv"
    with open(spath, "w") as fh:
        fh.write("variable_i,variable_j,index\n")
        for (i, j), v in sorted(report.second_order.items(), key=lambda kv: -kv[1]):
            fh.write(
                f"{report.variable_names[i]},{report.variable_names[j]},{v:.17g}\n"
            )
    written.append(spath)

    top = report.ranked(int(scfg["top"]))
    tpath = outdir / "sobol_top.txt"
    with open(tpath, "w") as fh:
        fh.write(
            f"ten largest total indices (scale: {pce.response_scale}); "
            f"threshold {report.screening_threshold}\n"
        )
        for rank, (name, tot, first) in enumerate(top, 1):
            fh.write(f"{rank:2d}. {name:<16s} total={tot:.4f} first={first:.4f}\n")
        fh.write(
            f"\nimportant: {len(report.important)} / "
            f"{len(report.variable_names)} variables\n"
        )
        if report.grouped_sums:
            fh.write("\nsums of first-order indices per group:\n")
            for label, v in sorted(report.grouped_sums.items(), key=lambda kv: -kv[1]):
                fh.write(f"  {label:<12s} {v:.4f}\n")
    written.append(tpath)

    grid_n = int(scfg["univariate_grid"])
    for name, _, _ in top:
        i = report.variable_names.index(name)
        marg = pce.random_vector.marginals[i]
        if marg.kind == "uniform":
            grid = np.linspace(marg.a, marg.b, grid_n)
        else:
            grid = np.linspace(marg.a - 3 * marg.b, marg.a + 3 * marg.b, grid_n)
        eff = univariate_effect(pce, i, grid)
        epath = outdir / f"effect_{name.replace(':', '_')}.csv"
        with open(epath, "w") as fh:
            fh.write(f"{name},effect\n")
            np.savetxt(
                fh, np.column_stack([eff.grid, eff.values]), fmt="%.17g", delimiter=","
            )
        written.append(epath)

    for p in written:
        print(f"wrote {p}")
    return written


# -- study --------------------------------------------------------------------


def cmd_study(cfg, design_path, responses_path, out: Path | None = None) -> Path:
    outdir = out or _outdir(cfg)
    rv = config_random_vector(cfg)
    design = ExperimentalDesign.from_csv(design_path, responses_path)
    scfg = cfg["study"]
    fit_cfg = cfg["fit"]
    lo, hi = (int(v) for v in fit_cfg["p_range"])
    study = repeated_subsample_study(
        design,
        design.responses,
        rv,
        subset_size=int(scfg["subset_size"]),
        repetitions=int(scfg["repetitions"]),
        seed=int(scfg["seed"]),
        p_range=range(lo, hi + 1),
        q=float(fit_cfg["q"]),
        scale=fit_cfg["scale"],
    )
    summary = study.summary()
    path = outdir / "subsample_study.csv"
    with open(path, "w") as fh:
        fh.write("variable,median,q25,q75\n")
        for i, name in enumerate(summary["variable"]):
            fh.write(
                f"{name},{summary['median'][i]:.17g},"
                f"{summary['q25'][i]:.17g},{summary['q75'][i]:.17g}\n"
            )
    print(f"wrote {path}")
    return path


# -- demo ---------------------------------------------------------------------


def cmd_demo(out: Path) -> None:
    """Nominal run of the bundled cross-section, with field export."""
    out.mkdir(parents=True, exist_ok=True)
    model = aquifer.default_model()
    params = aquifer.nominal_parameters(model)
    mp = aquifer.ModelParameters.from_vector(model, params)
    flow = aquifer.solve_flow(model, mp)
    budget = aquifer.outflow_budget(flow, model)
    mle = aquifer.solve_mle(model, flow, mp)

    fields = out / "fields.csv"
    x = model.x_centers()
    z = model.z_centers()
    xx, zz = np.meshgrid(x, z)
    with open(fields, "w") as fh:
        fh.write("x,z,head,mle_years\n")
        np.savetxt(
            fh,
            np.column_stack(
                [xx.ravel(), zz.ravel(), flow.head.ravel(), mle.e_years.ravel()]
            ),
            fmt="%.10g",
            delimiter=",",
        )
    summary = {
        "target_zone_mle_years": mle.response,
        "outflow_fractions": budget.fractions,
        "mass_imbalance": budget.imbalance,
        "flow_residual": flow.residual,
        "mle_residual": mle.residual,
        "grid": {"nx": model.nx, "nz": model.nz},
        "time_unit": "years (1 yr = 3.15576e7 s)",
        "gradient_convention": "zone gradients rescale boundary heads about fixed segment means",
        "pcesobol_version": __version__,
    }
    with open(out / "demo_summary.json", "w") as fh:
        json.dump(summary, fh, indent=1)
        fh.write("\n")
    print(f"target-zone mean lifetime expectancy: {mle.response:,.0f} years")
    print(
        "outflow fractions: "
        + ", ".join(f"{k}={v:.3f}" for k, v in budget.fractions.items())
    )
    print(f"wrote {fields}")
    print(f"wrote {out / 'demo_summary.json'}")


# -- full pipeline --------------------------------------------------------------


def cmd_full(cfg) -> None:
    out = _outdir(cfg)
    written = cmd_sample(cfg, out)
    design_path = written[0]
    responses = cmd_evaluate(cfg, design_path, out)
    val_design = val_resp = None
    if len(written) > 1 and cfg["fit"]["use_enrichment"] != "none":
        val_design = written[1]
        val_resp = cmd_evaluate(cfg, val_design, out)
    pce_path = cmd_fit(cfg, design_path, responses, val_design, val_resp, out)
    cmd_sobol(cfg, pce_path, out=out)


# -- entry point -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcesobol",
        description="Sparse polynomial chaos surrogates and Sobol' sensitivity analysis.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def with_config(p):
        p.add_argument("--config", required=True, help="YAML run configuration")
        p.add_argument("--out", help="output directory (default: config output_dir)")
        return p

    with_config(sub.add_parser("sample", help="draw the experimental design(s)"))

    p = with_config(sub.add_parser("evaluate", help="run the model on a design"))
    p.add_argument("--design", required=True)

    p = with_config(sub.add_parser("fit", help="fit the sparse expansion"))
    p.add_argument("--design", required=True)
    p.add_argument("--responses", required=True)
    p.add_argument("--validation-design")
    p.add_argument("--validation-responses")

    p = with_config(sub.add_parser("sobol", help="indices and reports from a fit"))
    p.add_argument("--pce", required=True)
    p.add_argument("--grouping", help="YAML mapping variable -> group label")

    p = with_config(sub.add_parser("study", help="repeated-subsample robustness"))
    p.add_argument("--design", required=True)
    p.add_argument("--responses", required=True)

    p = sub.add_parser("demo", help="nominal cross-section run + field export")
    p.add_argument("--out", default="pcesobol-demo")

    with_config(sub.add_parser("full", help="sample + evaluate + fit + sobol"))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _run(args)
    except ConfigError as exc:
        print(f"pcesobol: error: {exc}", file=sys.stderr)
        return 2
    return 0


def _run(args) -> None:
    if args.command == "demo":
        cmd_demo(Path(args.out))
        return
    cfg = load_config(args.config)
    out = Path(args.out) if args.out else None
    if out:
        out.mkdir(parents=True, exist_ok=True)
    if args.command == "sample":
        cmd_sample(cfg, out)
    elif args.command == "evaluate":
        cmd_evaluate(cfg, args.design, out)
    elif args.command == "fit":
        cmd_fit(
            cfg,
            args.design,
            args.responses,
            args.validation_design,
            args.validation_responses,
            out,
        )
    elif args.command == "sobol":
        cmd_sobol(cfg, args.pce, args.grouping, out)
    elif args.command == "study":
        cmd_study(cfg, args.design, args.responses, out)
    elif args.command == "full":
        cmd_full(cfg)


if __name__ == "__main__":
    raise SystemExit(main())
