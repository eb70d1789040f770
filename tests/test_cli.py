import json
import sys

import numpy as np
import pytest
import yaml

from pcesobol import ExperimentalDesign, load_responses_csv
from pcesobol.cli import ConfigError, journal_header, load_config, main
from conftest import ishigami, ishigami_analytic

THREE_UNIFORMS = [
    {"name": "x1", "kind": "uniform", "lower": -np.pi, "upper": np.pi},
    {"name": "x2", "kind": "uniform", "lower": -np.pi, "upper": np.pi},
    {"name": "x3", "kind": "uniform", "lower": -np.pi, "upper": np.pi},
]


def write_config(path, **overrides):
    cfg = {
        "output_dir": str(path.parent / "out"),
        "random_vector": [dict(e) for e in THREE_UNIFORMS],
        "design": {"n": 16, "seed": 11},
        "fit": {"q": 1.0, "p_range": [1, 2]},
        "model": {
            "kind": "external",
            "command": f"{sys.executable} -c \"open('{{output}}','w').write('1.0')\"",
        },
    }
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(cfg.get(key), dict):
            cfg[key].update(value)
        else:
            cfg[key] = value
    with open(path, "w") as fh:
        yaml.safe_dump(cfg, fh)
    return path


class TestConfig:
    def test_defaults_merged_and_hashed(self, tmp_path):
        path = write_config(tmp_path / "run.yaml")
        cfg = load_config(path)
        assert cfg["sobol"]["screening_threshold"] == 0.01
        assert len(cfg["_sha256"]) == 64

    def test_bad_values_rejected(self, tmp_path):
        for overrides in (
            {"fit": {"p_range": [3, 1]}},
            {"fit": {"q": 0.0}},
            {"fit": {"scale": "sqrt"}},
            {"fit": {"use_enrichment": "jiont"}},
            {"sobol": {"screening_threshold": 2.0}},
            {"model": {"kind": "quantum"}},
            {"model": {"kind": "external", "command": None}},
        ):
            path = write_config(tmp_path / "bad.yaml", **overrides)
            with pytest.raises(ConfigError):
                load_config(path)


class TestSample:
    def test_design_csv_written_and_stratified(self, tmp_path):
        cfg = write_config(tmp_path / "run.yaml", design={"n": 4, "seed": 3})
        assert main(["sample", "--config", str(cfg)]) == 0
        design = ExperimentalDesign.from_csv(tmp_path / "out" / "design.csv")
        assert design.points.shape == (4, 3)
        for j in range(3):
            p = (design.points[:, j] + np.pi) / (2 * np.pi)
            assert sorted(np.floor(p * 4).astype(int).tolist()) == [0, 1, 2, 3]

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path / "run.yaml", design={"n": 50, "seed": 9})
        main(["sample", "--config", str(cfg)])
        first = (tmp_path / "out" / "design.csv").read_bytes()
        main(["sample", "--config", str(cfg)])
        assert (tmp_path / "out" / "design.csv").read_bytes() == first

    def test_large_design_row_count(self, tmp_path):
        cfg = write_config(tmp_path / "run.yaml", design={"n": 2000, "seed": 1})
        main(["sample", "--config", str(cfg)])
        lines = (tmp_path / "out" / "design.csv").read_text().strip().splitlines()
        assert len(lines) == 2001

    def test_enrichment_written(self, tmp_path):
        cfg = write_config(
            tmp_path / "run.yaml",
            design={"n": 8, "seed": 1, "enrichment": {"n": 8, "seed": 2}},
        )
        main(["sample", "--config", str(cfg)])
        extra = ExperimentalDesign.from_csv(tmp_path / "out" / "design_enrichment.csv")
        assert extra.points.shape == (8, 3)


class TestEvaluate:
    def test_external_constant_command(self, tmp_path):
        cfg = write_config(tmp_path / "run.yaml", design={"n": 5, "seed": 2})
        main(["sample", "--config", str(cfg)])
        main(
            [
                "evaluate",
                "--config",
                str(cfg),
                "--design",
                str(tmp_path / "out" / "design.csv"),
            ]
        )
        responses = load_responses_csv(tmp_path / "out" / "design.responses.csv")
        assert np.array_equal(responses, np.ones(5))

    def test_empty_design_succeeds(self, tmp_path):
        cfg = write_config(tmp_path / "run.yaml")
        design = tmp_path / "empty.csv"
        design.write_text("x1,x2,x3\n")
        assert main(["evaluate", "--config", str(cfg), "--design", str(design)]) == 0
        assert load_responses_csv(tmp_path / "out" / "empty.responses.csv").size == 0

    def test_resume_skips_completed_rows(self, tmp_path):
        counter = tmp_path / "calls.log"
        command = (
            f"{sys.executable} -c \""
            f"import pathlib; pathlib.Path('{counter}').open('a').write('x');"
            f" open('{{output}}','w').write('2.5')\""
        )
        cfg = write_config(
            tmp_path / "run.yaml",
            design={"n": 6, "seed": 4},
            model={"kind": "external", "command": command},
        )
        main(["sample", "--config", str(cfg)])
        design_path = tmp_path / "out" / "design.csv"
        # pre-record rows 0..3 as done, as if a previous run was interrupted
        journal = tmp_path / "out" / "design.partial.csv"
        header = journal_header(
            ExperimentalDesign.from_csv(design_path), load_config(cfg)["model"]
        )
        journal.write_text(header + "".join(f"{i},7.0\n" for i in range(4)))
        main(["evaluate", "--config", str(cfg), "--design", str(design_path)])
        assert counter.read_text().count("x") == 2  # only rows 4 and 5 ran
        responses = load_responses_csv(tmp_path / "out" / "design.responses.csv")
        assert responses.tolist() == [7.0] * 4 + [2.5] * 2

    def test_torn_journal_lines_rerun_their_rows(self, tmp_path):
        counter = tmp_path / "calls.log"
        command = (
            f"{sys.executable} -c \""
            f"import pathlib; pathlib.Path('{counter}').open('a').write('x');"
            f" open('{{output}}','w').write('2.5')\""
        )
        cfg = write_config(
            tmp_path / "run.yaml",
            design={"n": 4, "seed": 4},
            model={"kind": "external", "command": command},
        )
        main(["sample", "--config", str(cfg)])
        design_path = tmp_path / "out" / "design.csv"
        journal = tmp_path / "out" / "design.partial.csv"
        header = journal_header(
            ExperimentalDesign.from_csv(design_path), load_config(cfg)["model"]
        )
        # row 1 garbled, row 3 cut off before its newline
        journal.write_text(header + "0,7.0\n1;7.0\n2,7.0\n3,7.")
        main(["evaluate", "--config", str(cfg), "--design", str(design_path)])
        assert counter.read_text().count("x") == 2  # rows 1 and 3 ran again
        responses = load_responses_csv(tmp_path / "out" / "design.responses.csv")
        assert responses.tolist() == [7.0, 2.5, 7.0, 2.5]
        assert journal.read_text().splitlines()[-2:] == ["1,2.5", "3,2.5"]

    def test_journal_from_another_design_refused(self, tmp_path, capsys):
        # the same output directory, first for seed 1, then for seed 2
        design_path = tmp_path / "out" / "design.csv"
        cfg = write_config(tmp_path / "one.yaml", design={"n": 3, "seed": 1})
        main(["sample", "--config", str(cfg)])
        main(["evaluate", "--config", str(cfg), "--design", str(design_path)])
        cfg = write_config(tmp_path / "two.yaml", design={"n": 3, "seed": 2})
        main(["sample", "--config", str(cfg)])
        capsys.readouterr()
        status = main(["evaluate", "--config", str(cfg), "--design", str(design_path)])
        assert status == 2
        err = capsys.readouterr().err
        assert err.startswith("pcesobol: error: ")
        assert "design.partial.csv" in err
        assert err.count("\n") == 1  # one line, no traceback

    def test_failed_rows_reported_and_retryable(self, tmp_path):
        command = f"{sys.executable} -c \"import sys; sys.exit(3)\""
        cfg = write_config(
            tmp_path / "run.yaml",
            design={"n": 3, "seed": 5},
            model={"kind": "external", "command": command},
        )
        main(["sample", "--config", str(cfg)])
        with pytest.raises(SystemExit):
            main(
                [
                    "evaluate",
                    "--config",
                    str(cfg),
                    "--design",
                    str(tmp_path / "out" / "design.csv"),
                ]
            )
        responses = load_responses_csv(tmp_path / "out" / "design.responses.csv")
        assert np.all(np.isnan(responses))

    def test_demo_nominal_row_in_band(self, tmp_path):
        from pcesobol import aquifer as aq

        model = aq.default_model()
        names = aq.parameter_names(model)
        cfg = write_config(tmp_path / "run.yaml", model={"kind": "demo"})
        design = tmp_path / "nominal.csv"
        with open(design, "w") as fh:
            fh.write(",".join(names) + "\n")
            fh.write(",".join(f"{v:.17g}" for v in aq.nominal_parameters(model)) + "\n")
        main(["evaluate", "--config", str(cfg), "--design", str(design)])
        responses = load_responses_csv(tmp_path / "out" / "nominal.responses.csv")
        assert 40_000.0 <= responses[0] <= 200_000.0


def prepare_ishigami_run(tmp_path, n=200, seed=42, p_max=12, scale="original"):
    cfg = write_config(
        tmp_path / "run.yaml",
        design={"n": n, "seed": seed},
        fit={"q": 1.0, "p_range": [1, p_max], "scale": scale},
    )
    main(["sample", "--config", str(cfg)])
    design = ExperimentalDesign.from_csv(tmp_path / "out" / "design.csv")
    y = ishigami(design.points)
    rpath = tmp_path / "out" / "responses.csv"
    with open(rpath, "w") as fh:
        fh.write("response\n")
        np.savetxt(fh, y, fmt="%.17g")
    return cfg, tmp_path / "out" / "design.csv", rpath


class TestFit:
    def test_single_degree_report(self, tmp_path):
        cfg, design, responses = prepare_ishigami_run(tmp_path, n=40, p_max=1)
        main(
            [
                "fit", "--config", str(cfg),
                "--design", str(design), "--responses", str(responses),
            ]
        )
        doc = json.loads((tmp_path / "out" / "pce.json").read_text())
        assert doc["truncation"]["p"] == 1
        assert len(doc["provenance"]["sweep"]) == 1
        assert doc["provenance"]["config_sha256"]

    def test_validation_set_reports_generalization_error(self, tmp_path):
        cfg, design, responses = prepare_ishigami_run(tmp_path, n=150, p_max=10)
        vcfg = write_config(
            tmp_path / "v.yaml", design={"n": 80, "seed": 77},
            output_dir=str(tmp_path / "vout"),
        )
        main(["sample", "--config", str(vcfg)])
        vdesign = ExperimentalDesign.from_csv(tmp_path / "vout" / "design.csv")
        vresp = tmp_path / "vout" / "responses.csv"
        with open(vresp, "w") as fh:
            fh.write("response\n")
            np.savetxt(fh, ishigami(vdesign.points), fmt="%.17g")
        main(
            [
                "fit", "--config", str(cfg),
                "--design", str(design), "--responses", str(responses),
                "--validation-design", str(tmp_path / "vout" / "design.csv"),
                "--validation-responses", str(vresp),
            ]
        )
        doc = json.loads((tmp_path / "out" / "pce.json").read_text())
        assert doc["errors"]["generalization"] is not None
        assert doc["errors"]["generalization"] < 0.05

    def test_abc_workflow_shapes(self, tmp_path):
        """Original-scale, log-scale and joint-set fits over the same data."""
        analytic = ishigami_analytic()
        cfg_a, design, responses = prepare_ishigami_run(tmp_path, n=150, p_max=8)
        vcfg = write_config(
            tmp_path / "v.yaml", design={"n": 150, "seed": 505},
            output_dir=str(tmp_path / "vout"),
        )
        main(["sample", "--config", str(vcfg)])
        vdesign_path = tmp_path / "vout" / "design.csv"
        vdesign = ExperimentalDesign.from_csv(vdesign_path)
        vresp = tmp_path / "vout" / "responses.csv"
        with open(vresp, "w") as fh:
            fh.write("response\n")
            # shift up so the log-scale variant is well defined
            np.savetxt(fh, ishigami(vdesign.points) + 20.0, fmt="%.17g")
        shifted = tmp_path / "out" / "shifted.csv"
        y = ishigami(ExperimentalDesign.from_csv(design).points) + 20.0
        with open(shifted, "w") as fh:
            fh.write("response\n")
            np.savetxt(fh, y, fmt="%.17g")

        # A: original scale with validation set
        main(
            ["fit", "--config", str(cfg_a), "--design", str(design),
             "--responses", str(shifted),
             "--validation-design", str(vdesign_path),
             "--validation-responses", str(vresp)]
        )
        doc_a = json.loads((tmp_path / "out" / "pce.json").read_text())
        # B: logarithmic scale, same design
        cfg_b = write_config(
            tmp_path / "b.yaml", design={"n": 150, "seed": 42},
            fit={"q": 1.0, "p_range": [1, 8], "scale": "log"},
            output_dir=str(tmp_path / "bout"),
        )
        main(
            ["fit", "--config", str(cfg_b), "--design", str(design),
             "--responses", str(shifted),
             "--validation-design", str(vdesign_path),
             "--validation-responses", str(vresp)]
        )
        doc_b = json.loads((tmp_path / "bout" / "pce.json").read_text())
        # C: joint set
        cfg_c = write_config(
            tmp_path / "c.yaml", design={"n": 150, "seed": 42},
            fit={"q": 1.0, "p_range": [1, 8], "use_enrichment": "joint"},
            output_dir=str(tmp_path / "cout"),
        )
        main(
            ["fit", "--config", str(cfg_c), "--design", str(design),
             "--responses", str(shifted),
             "--validation-design", str(vdesign_path),
             "--validation-responses", str(vresp)]
        )
        doc_c = json.loads((tmp_path / "cout" / "pce.json").read_text())

        assert doc_a["response_scale"] == "original"
        assert doc_b["response_scale"] == "log"
        assert doc_a["errors"]["generalization"] is not None
        assert doc_b["errors"]["generalization"] is not None
        assert doc_c["errors"]["generalization"] is None  # folded into training
        assert doc_c["provenance"]["design_size"] == 300


class TestSobol:
    def test_ishigami_end_to_end(self, tmp_path):
        analytic = ishigami_analytic()
        cfg, design, responses = prepare_ishigami_run(tmp_path, n=200)
        main(
            ["fit", "--config", str(cfg), "--design", str(design),
             "--responses", str(responses)]
        )
        grouping = tmp_path / "groups.yaml"
        with open(grouping, "w") as fh:
            yaml.safe_dump({"x1": "odd", "x2": "even", "x3": "odd"}, fh)
        main(
            ["sobol", "--config", str(cfg), "--pce",
             str(tmp_path / "out" / "pce.json"), "--grouping", str(grouping)]
        )
        doc = json.loads((tmp_path / "out" / "sobol_report.json").read_text())
        by_name = {v["name"]: v for v in doc["variables"]}
        assert by_name["x1"]["first_order"] == pytest.approx(analytic["S1"], abs=0.02)
        assert by_name["x2"]["first_order"] == pytest.approx(analytic["S2"], abs=0.02)
        assert by_name["x3"]["first_order"] <= 0.01
        s13 = [
            e["index"]
            for e in doc["second_order"]
            if {e["i"], e["j"]} == {"x1", "x3"}
        ]
        assert s13 and s13[0] == pytest.approx(analytic["S13"], abs=0.03)
        assert doc["grouped_sums"]["odd"] == pytest.approx(
            analytic["S1"] + analytic["S3"], abs=0.03
        )
        # CSVs and top table
        first_total = (tmp_path / "out" / "sobol_first_total.csv").read_text()
        assert first_total.splitlines()[0] == "variable,first_order,total,important"
        assert (tmp_path / "out" / "sobol_second_order.csv").exists()
        top = (tmp_path / "out" / "sobol_top.txt").read_text()
        assert "x2" in top
        effects = sorted(tmp_path.glob("out/effect_*.csv"))
        assert effects  # univariate effect curves for the top variables

    def test_absent_variable_zero_row(self, tmp_path):
        cfg, design, responses = prepare_ishigami_run(tmp_path, n=60, p_max=3)
        y = ExperimentalDesign.from_csv(design).points[:, 0] ** 2  # x2, x3 inert
        with open(responses, "w") as fh:
            fh.write("response\n")
            np.savetxt(fh, y, fmt="%.17g")
        main(
            ["fit", "--config", str(cfg), "--design", str(design),
             "--responses", str(responses)]
        )
        main(
            ["sobol", "--config", str(cfg),
             "--pce", str(tmp_path / "out" / "pce.json")]
        )
        doc = json.loads((tmp_path / "out" / "sobol_report.json").read_text())
        by_name = {v["name"]: v for v in doc["variables"]}
        assert by_name["x3"]["total"] == 0.0


class TestStudy:
    def test_single_repetition_stats(self, tmp_path):
        cfg, design, responses = prepare_ishigami_run(tmp_path, n=120, p_max=8)
        cfg2 = write_config(
            tmp_path / "study.yaml",
            design={"n": 120, "seed": 42},
            fit={"q": 1.0, "p_range": [1, 8]},
            study={"subset_size": 100, "repetitions": 1, "seed": 1},
        )
        main(
            ["study", "--config", str(cfg2), "--design", str(design),
             "--responses", str(responses)]
        )
        lines = (tmp_path / "out" / "subsample_study.csv").read_text().splitlines()
        assert lines[0] == "variable,median,q25,q75"
        assert len(lines) == 4


class TestFullPipeline:
    def test_tiny_demo_run(self, tmp_path):
        from pcesobol import aquifer as aq

        cfg = write_config(
            tmp_path / "full.yaml",
            random_vector="demo",
            model={"kind": "demo", "workers": 1},
            design={"n": 12, "seed": 100},
            fit={"q": 0.5, "p_range": [1, 1]},
        )
        assert main(["full", "--config", str(cfg)]) == 0
        out = tmp_path / "out"
        for name in (
            "design.csv",
            "design.responses.csv",
            "pce.json",
            "sobol_report.json",
            "sobol_first_total.csv",
            "sobol_top.txt",
        ):
            assert (out / name).exists(), name
        doc = json.loads((out / "sobol_report.json").read_text())
        assert len(doc["variables"]) == 78
        assert doc["grouped_sums"]  # auto grouping by property prefix


class TestDemo:
    def test_demo_outputs(self, tmp_path):
        assert main(["demo", "--out", str(tmp_path / "demo")]) == 0
        summary = json.loads((tmp_path / "demo" / "demo_summary.json").read_text())
        assert 40_000 <= summary["target_zone_mle_years"] <= 200_000
        fields = (tmp_path / "demo" / "fields.csv").read_text().splitlines()
        assert fields[0] == "x,z,head,mle_years"
        assert len(fields) == 1 + 250 * 104
