"""Command-line pipeline: sample, evaluate, fit, sobol, study, demo, full.

The run configuration is a YAML document; every report written carries
full provenance (config hash, seeds, package and numpy versions, response
scale).  ``pce.json`` also records the sha256 of the design points and of
the responses it was fitted to, and ``sobol_report.json`` the sha256 of the
``pce.json`` bytes it read.  Model evaluation is resumable: completed rows
are journaled and re-runs compute only what is missing.

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
from functools import partial
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .evaluation import evaluate_rows
from .probability import Marginal, RandomVector
from .sampling import ExperimentalDesign, lhs, nested_lhs_enrich, write_csv
from .regression import SparsePce, adaptive_fit, generalization_error
from .sensitivity import repeated_subsample_study, sobol_report, univariate_effect

_CONFIG_DEFAULTS = {
    "output_dir": "pcesobol-out",
    "model": {"kind": "demo", "workers": 1},
    "random_vector": "demo",
    "design": {"n": 100, "seed": 0},
    "fit": {
        "q": 0.5,
        "p_range": [1, 6],
        "scale": "original",
        "use_enrichment": "none",
    },
    "sobol": {"screening_threshold": 0.01, "grouping": "auto"},
    "study": {"subset_size": 200, "repetitions": 100, "seed": 0},
}
# keys a config may set that have no default
_OPTIONAL_KEYS = {"design": {"enrichment"}, "model": {"command"}}
# grid points of each univariate effect curve
_EFFECT_POINTS = 41


class ConfigError(ValueError):
    pass


_JOURNAL_FORMAT = "pcesobol-journal/1"


def _merge(defaults, overrides, section=None):
    out = dict(defaults)
    for key, value in overrides.items():
        name = f"{section}.{key}" if section else key
        if key not in defaults and key not in _OPTIONAL_KEYS.get(section, ()):
            raise ConfigError(f"unknown config key {name!r}")
        if isinstance(defaults.get(key), dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{name} must be a mapping")
            value = _merge(defaults[key], value, key)
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


def _check_int(cfg, key, low) -> None:
    """Refuse the dotted config ``key`` unless it is an integer >= ``low``."""
    value = cfg
    for part in key.split("."):
        value = value[part]
    if type(value) is not int or value < low:
        raise ConfigError(f"{key} must be an integer >= {low}")


def _validate_config(cfg) -> None:
    fit = cfg["fit"]
    p_range = fit["p_range"]
    if not (
        isinstance(p_range, list)
        and len(p_range) == 2
        and all(type(p) is int for p in p_range)
        and 1 <= p_range[0] <= p_range[1]
    ):
        raise ConfigError(
            "fit.p_range must be two integers [low, high] with 1 <= low <= high"
        )
    q = fit["q"]
    if not (type(q) in (int, float) and 0.0 < q <= 1.0):
        raise ConfigError("fit.q must be a number in (0, 1]")
    if fit["scale"] not in ("original", "log"):
        raise ConfigError("fit.scale must be 'original' or 'log'")
    if fit["use_enrichment"] not in ("none", "validation", "joint"):
        raise ConfigError(
            "fit.use_enrichment must be 'none', 'validation' or 'joint'"
        )
    thr = cfg["sobol"]["screening_threshold"]
    if not (type(thr) in (int, float) and 0.0 <= thr <= 1.0):
        raise ConfigError("sobol.screening_threshold must be a number in [0, 1]")
    if cfg["sobol"]["grouping"] not in ("auto", "none"):
        raise ConfigError("sobol.grouping must be 'auto' or 'none'")
    ints = {"design.n": 1, "design.seed": 0, "model.workers": 1,
            "study.subset_size": 1, "study.repetitions": 1, "study.seed": 0}
    enrich = cfg["design"].get("enrichment")
    if enrich is not None:
        if not (isinstance(enrich, dict) and set(enrich) == {"n", "seed"}):
            raise ConfigError(
                "design.enrichment must be a mapping with keys n and seed"
            )
        ints.update({"design.enrichment.n": 1, "design.enrichment.seed": 0})
    for key, low in ints.items():
        _check_int(cfg, key, low)
    model = cfg["model"]
    if model["kind"] not in ("demo", "external"):
        raise ConfigError("model.kind must be 'demo' or 'external'")
    if model["kind"] == "external":
        if not model.get("command"):
            raise ConfigError("external models need model.command")
        try:
            shlex.split(model["command"].format(input="", output="", index=0))
        except (KeyError, IndexError, ValueError, AttributeError) as exc:
            raise ConfigError(
                f"model.command is not a valid template ({type(exc).__name__}:"
                f" {exc}); its placeholders are {{input}}, {{output}} and"
                " {index}, and literal braces are written {{ }}"
            ) from None
    cfg["_random_vector"] = _random_vector(cfg["random_vector"])


def _random_vector(spec) -> RandomVector:
    if spec == "demo":
        from . import aquifer

        return aquifer.random_vector(aquifer.default_model())
    if not isinstance(spec, list):
        raise ConfigError("random_vector must be 'demo' or a list of marginals")
    names, margs = [], []
    try:
        for entry in spec:
            names.append(str(entry["name"]))
            kind = entry["kind"]
            if kind == "uniform":
                margs.append(Marginal.uniform(entry["lower"], entry["upper"]))
            elif kind == "gaussian":
                margs.append(Marginal.gaussian(entry["mean"], entry["sd"]))
            else:
                raise ValueError(f"unknown marginal kind {kind!r}")
        return RandomVector(tuple(names), tuple(margs))
    except KeyError as exc:
        raise ConfigError(f"random_vector: an entry has no {exc} key") from None
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"random_vector: {exc}") from None


def _load_design(path, names, responses_path=None) -> ExperimentalDesign:
    """A design CSV whose header must be ``names``, else ``ConfigError``."""
    design = ExperimentalDesign.from_csv(path, responses_path)
    try:
        design.check_names(names)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return design


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


def _write_json(path, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


# -- sample -------------------------------------------------------------------


def cmd_sample(cfg, out: Path) -> list:
    rv = cfg["_random_vector"]
    design_cfg = cfg["design"]
    design = lhs(design_cfg["n"], rv, design_cfg["seed"])
    written = []
    path = out / "design.csv"
    design.to_csv(path)
    written.append(path)
    enrich = design_cfg.get("enrichment")
    if enrich:
        extra = nested_lhs_enrich(design, enrich["n"], rv, enrich["seed"])
        epath = out / "design_enrichment.csv"
        extra.to_csv(epath)
        written.append(epath)
    for p in written:
        print(f"wrote {p}")
    return written


# -- evaluate -----------------------------------------------------------------


def _external_row(command, exchange_dir: Path, names, job):
    """Run the external command on one row through its exchange files.

    The files are deleted once the value is read; a failed row keeps them
    and raises an error that names them for inspection.
    """
    index, params = job
    inp = exchange_dir / f"row_{index:06d}.in.csv"
    outp = exchange_dir / f"row_{index:06d}.out"
    ExperimentalDesign(names, params).to_csv(inp)
    cmd = command.format(input=str(inp), output=str(outp), index=index)
    value, err = float("nan"), ""
    try:
        proc = subprocess.run(shlex.split(cmd), capture_output=True, text=True)
        if proc.returncode != 0:
            err = f"exit {proc.returncode}: {proc.stderr.strip()[:200]}"
        else:
            value = float(outp.read_text().strip().splitlines()[0])
    except (OSError, ValueError, IndexError) as exc:
        err = f"{type(exc).__name__}: {exc}"
    if not err and np.isfinite(value):
        inp.unlink()
        outp.unlink()
        return value
    kept = ", ".join(str(f) for f in (inp, outp) if f.exists())
    raise RuntimeError(f"{err or 'non-finite response'}; exchange files kept: {kept}")


def _array_digest(values):
    """A sha256 of an array's shape and float64 bytes, open for more input."""
    values = np.ascontiguousarray(values, dtype=float)
    digest = hashlib.sha256(repr(values.shape).encode())
    digest.update(values.tobytes())
    return digest


def journal_header(design: ExperimentalDesign, model_cfg: dict) -> str:
    """First line of an evaluation journal: a sha256 of the design points
    and of the model settings other than ``workers``, which changes where
    rows run but not their values."""
    settings = {k: v for k, v in model_cfg.items() if k != "workers"}
    digest = _array_digest(design.points)
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


def cmd_evaluate(cfg, design_path, out: Path) -> Path:
    """Evaluate the model at every design row, resumably.

    Completed rows are journaled to ``<design>.partial.csv`` as they
    finish; a re-run recomputes only rows without a recorded success.  The
    journal's first line binds it to the design points and the model
    settings (see ``journal_header``); a journal written for other inputs
    is refused with ``ConfigError``, and so is a demo-model design whose
    header is not the aquifer's parameter names, which it reads by
    position.
    Failures are recorded per row (NaN in the final column) and reported
    at the end.  Rows of either model kind run through ``evaluate_rows``
    on ``model.workers`` processes.
    """
    model = cfg["model"]
    if model["kind"] == "demo":
        from . import aquifer

        names = aquifer.parameter_names(aquifer.default_model())
        design = _load_design(design_path, names)
    else:
        design = ExperimentalDesign.from_csv(design_path)
    journal = out / (Path(design_path).stem + ".partial.csv")
    final = out / (Path(design_path).stem + ".responses.csv")

    done = _read_journal(journal, journal_header(design, model))
    todo = [i for i in range(design.n) if i not in done]
    points = design.points[todo]
    if model["kind"] == "demo":
        row = aquifer.evaluate
    else:
        exchange = out / "exchange"
        exchange.mkdir(exist_ok=True)
        row = partial(_external_row, model["command"], exchange, design.names)
        points = list(zip(todo, points))  # the exchange files carry the index

    failures = 0
    with open(journal, "a") as jfh:
        for k, value, err in evaluate_rows(row, points, model["workers"]):
            index = todo[k]
            if err:
                failures += 1
                print(f"row {index}: FAILED ({err})", file=sys.stderr)
                continue
            done[index] = value
            jfh.write(f"{index},{value:.17g}\n")
            jfh.flush()

    responses = np.array([done.get(i, float("nan")) for i in range(design.n)])
    design.with_responses(responses).responses_to_csv(final)
    print(f"wrote {final} ({design.n - failures}/{design.n} rows ok)")
    if failures:
        raise SystemExit(f"{failures} row(s) failed; re-run to retry them")
    return final


# -- fit ----------------------------------------------------------------------


def cmd_fit(
    cfg,
    design_path,
    responses_path,
    validation_design=None,
    validation_responses=None,
    *,
    out: Path,
) -> Path:
    rv = cfg["_random_vector"]
    design = _load_design(design_path, rv.names, responses_path)
    fit_cfg = cfg["fit"]
    lo, hi = fit_cfg["p_range"]

    validation = None
    if validation_design:
        validation = _load_design(validation_design, rv.names, validation_responses)
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
    )
    if validation is not None:
        pce.err_gen = generalization_error(pce, validation)

    path = out / "pce.json"
    pce.save(
        path,
        extra=provenance(
            cfg,
            design=str(design_path),
            design_size=design.n,
            points_sha256=_array_digest(design.points).hexdigest(),
            responses_sha256=_array_digest(design.responses).hexdigest(),
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


def cmd_sobol(cfg, pce_path, grouping_path=None, *, out: Path) -> list:
    pce_bytes = Path(pce_path).read_bytes()
    pce = SparsePce.from_dict(json.loads(pce_bytes))
    scfg = cfg["sobol"]

    grouping = None
    if grouping_path:
        with open(grouping_path) as fh:
            raw = yaml.safe_load(fh)
        if not isinstance(raw, dict):
            raise ConfigError(f"{grouping_path}: grouping must map variable -> group")
        grouping = {str(k): str(v) for k, v in raw.items()}
        missing = [n for n in pce.random_vector.names if n not in grouping]
        if missing:
            raise ConfigError(
                f"{grouping_path}: grouping misses variables {missing[:5]}"
            )
    elif scfg["grouping"] == "auto":
        grouping = _auto_grouping(pce.random_vector.names)

    report = sobol_report(
        pce, threshold=float(scfg["screening_threshold"]), grouping=grouping
    )
    written = []

    rpath = out / "sobol_report.json"
    doc = report.to_dict()
    doc["provenance"] = provenance(
        cfg, pce=str(pce_path), pce_sha256=hashlib.sha256(pce_bytes).hexdigest()
    )
    doc["provenance"]["response_scale"] = pce.response_scale
    _write_json(rpath, doc)
    written.append(rpath)

    names = report.variable_names
    fpath = out / "sobol_first_total.csv"
    columns = ("variable", "first_order", "total", "important")
    important = (int(name in report.important) for name in names)
    write_csv(fpath, columns, zip(names, report.first_order, report.total, important))
    written.append(fpath)

    spath = out / "sobol_second_order.csv"
    pairs = sorted(report.second_order.items(), key=lambda kv: -kv[1])
    rows = ((names[i], names[j], v) for (i, j), v in pairs)
    write_csv(spath, ("variable_i", "variable_j", "index"), rows)
    written.append(spath)

    top = report.ranked(10)
    tpath = out / "sobol_top.txt"
    with open(tpath, "w") as fh:
        fh.write(
            f"ten largest total indices (scale: {pce.response_scale}); "
            f"threshold {report.screening_threshold}\n"
        )
        for rank, (name, tot, first) in enumerate(top, 1):
            fh.write(f"{rank:2d}. {name:<16s} total={tot:.4f} first={first:.4f}\n")
        fh.write(
            f"\nimportant: {len(report.important)} / "
            f"{len(names)} variables\n"
        )
        if report.grouped_sums:
            fh.write("\nsums of first-order indices per group:\n")
            for label, v in sorted(report.grouped_sums.items(), key=lambda kv: -kv[1]):
                fh.write(f"  {label:<12s} {v:.4f}\n")
    written.append(tpath)

    for name, _, _ in top:
        i = names.index(name)
        marg = pce.random_vector.marginals[i]
        if marg.kind == "uniform":
            grid = np.linspace(marg.a, marg.b, _EFFECT_POINTS)
        else:
            grid = np.linspace(marg.a - 3 * marg.b, marg.a + 3 * marg.b, _EFFECT_POINTS)
        eff = univariate_effect(pce, i, grid)
        epath = out / f"effect_{name.replace(':', '_')}.csv"
        write_csv(epath, (name, "effect"), zip(eff.grid, eff.values))
        written.append(epath)

    for p in written:
        print(f"wrote {p}")
    return written


# -- study --------------------------------------------------------------------


def cmd_study(cfg, design_path, responses_path, out: Path) -> Path:
    rv = cfg["_random_vector"]
    design = _load_design(design_path, rv.names, responses_path)
    scfg = cfg["study"]
    fit_cfg = cfg["fit"]
    lo, hi = fit_cfg["p_range"]
    study = repeated_subsample_study(
        design,
        design.responses,
        rv,
        subset_size=scfg["subset_size"],
        repetitions=scfg["repetitions"],
        seed=scfg["seed"],
        p_range=range(lo, hi + 1),
        q=float(fit_cfg["q"]),
        scale=fit_cfg["scale"],
    )
    summary = study.summary()
    path = out / "subsample_study.csv"
    columns = ("variable", "median", "q25", "q75")
    write_csv(path, columns, zip(*(summary[c] for c in columns)))
    print(f"wrote {path}")
    return path


# -- demo ---------------------------------------------------------------------


def cmd_demo(out: Path) -> None:
    """Nominal run of the bundled cross-section, with field export."""
    from . import aquifer

    model = aquifer.default_model()
    params = aquifer.nominal_parameters(model)
    mp = aquifer.ModelParameters.from_vector(model, params)
    flow = aquifer.solve_flow(model, mp)
    budget = aquifer.outflow_budget(flow, model)
    mle = aquifer.solve_mle(model, flow, mp)

    fields = out / "fields.csv"
    aquifer.write_fields(fields, model, flow, mle)
    summary = {
        "target_zone_mle_years": mle.response,
        "outflow_fractions": budget.fractions,
        "mass_imbalance": budget.imbalance,
        "flow_residual": flow.residual,
        "mle_residual": mle.residual,
        "flow_iterations": flow.iterations,
        "mle_iterations": mle.iterations,
        "flow_coupled_fallback": flow.coupled_fallback,
        "mle_coupled_fallback": mle.coupled_fallback,
        "grid": {"nx": model.nx, "nz": model.nz},
        "time_unit": "years (1 yr = 3.15576e7 s)",
        "gradient_convention": "zone gradients rescale boundary heads about fixed segment means",
        "pcesobol_version": __version__,
    }
    _write_json(out / "demo_summary.json", summary)
    print(f"target-zone mean lifetime expectancy: {mle.response:,.0f} years")
    print(
        "outflow fractions: "
        + ", ".join(f"{k}={v:.3f}" for k, v in budget.fractions.items())
    )
    print(f"wrote {fields}")
    print(f"wrote {out / 'demo_summary.json'}")


# -- full pipeline --------------------------------------------------------------


def cmd_full(cfg, out: Path) -> None:
    written = cmd_sample(cfg, out)
    design_path = written[0]
    responses = cmd_evaluate(cfg, design_path, out)
    val_design = val_resp = None
    if len(written) > 1 and cfg["fit"]["use_enrichment"] != "none":
        val_design = written[1]
        val_resp = cmd_evaluate(cfg, val_design, out)
    pce_path = cmd_fit(cfg, design_path, responses, val_design, val_resp, out=out)
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
    cfg = None if args.command == "demo" else load_config(args.config)
    out = Path(args.out if cfg is None else args.out or cfg["output_dir"])
    out.mkdir(parents=True, exist_ok=True)
    if args.command == "demo":
        cmd_demo(out)
    elif args.command == "sample":
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
            out=out,
        )
    elif args.command == "sobol":
        cmd_sobol(cfg, args.pce, args.grouping, out=out)
    elif args.command == "study":
        cmd_study(cfg, args.design, args.responses, out)
    elif args.command == "full":
        cmd_full(cfg, out)


if __name__ == "__main__":
    raise SystemExit(main())
