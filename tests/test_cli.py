"""Command-line interface: fit reports, dataset dumps, sweep outputs."""

import json
import os
import re
from dataclasses import asdict

import numpy as np
import pytest

from sparsemix import cli
from sparsemix.cli import SweepSpec, main, read_sample
from sparsemix.model import MixtureParams, NumericalError, SampleSet, penalized_value
from sparsemix.simulate import LabeledSample, write_sample


@pytest.fixture
def two_cluster_file(tmp_path):
    rng = np.random.default_rng(90)
    a = rng.normal(size=(5, 2)) * 0.4
    b = np.array([14.0, 11.0]) + rng.normal(size=(5, 2)) * 0.4
    sample = LabeledSample(
        points=np.vstack([a, b]),
        labels=np.array([0] * 5 + [1] * 5),
        centers=np.array([[0.0, 0.0], [14.0, 11.0]]),
    )
    path = tmp_path / "two_clusters.txt"
    write_sample(path, sample)
    return path


class TestFit:
    def test_two_cluster_fixture(self, two_cluster_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["fit", str(two_cluster_file), "-K", "2", "--seed", "1", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["components"] == 2 and report["n"] == 10 and report["dim"] == 2
        labels = report["assignments"]
        assert len(set(labels[:5])) == 1 and len(set(labels[5:])) == 1
        assert labels[0] != labels[5]
        # means reported in original coordinates: one near each blob center
        means = np.array(report["means"])
        dist_to_far = np.linalg.norm(means - np.array([14.0, 11.0]), axis=1)
        assert dist_to_far.min() < 3.0 and dist_to_far.max() > 10.0
        summary = capsys.readouterr().out
        assert "fit method=sparse" in summary

    def test_single_component(self, two_cluster_file, tmp_path):
        out = tmp_path / "single.json"
        code = main(["fit", str(two_cluster_file), "-K", "1", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert len(report["weights"]) == 1
        assert report["converged"]

    def test_baseline_method(self, two_cluster_file, tmp_path):
        out = tmp_path / "base.json"
        code = main(["fit", str(two_cluster_file), "-K", "2", "--method", "baseline", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["method"] == "baseline"
        assert "betas" not in report and "lams" not in report

    @pytest.mark.parametrize("lam_flags", [[], ["--lambda", "0.3"]])
    def test_lams_are_the_weights_behind_the_last_trace_entry(self, two_cluster_file, tmp_path, lam_flags):
        out = tmp_path / "report.json"
        assert main(["fit", str(two_cluster_file), "-K", "2", "--out", str(out)] + lam_flags) == 0
        report = json.loads(out.read_text())
        lams = np.array(report["lams"])
        assert lams.shape == (2,) and np.all(lams >= 0)
        if lam_flags:
            assert lams.tolist() == [0.3, 0.3]
        points, _ = read_sample(two_cluster_file)
        params = MixtureParams(
            weights=np.array(report["weights"]), betas=np.array(report["betas"]),
            variances=np.array(report["variances"]),
        )
        value = penalized_value(params, SampleSet(points), lams)
        assert value == pytest.approx(report["objective_trace"][-1], rel=1e-12)

    def test_headerless_input(self, tmp_path):
        path = tmp_path / "plain.txt"
        rng = np.random.default_rng(91)
        np.savetxt(path, rng.normal(size=(8, 3)))
        out = tmp_path / "plain.json"
        assert main(["fit", str(path), "-K", "2", "--out", str(out)]) == 0

    def test_empty_file_exit_2(self, tmp_path, capsys):
        path = tmp_path / "empty.txt"
        path.write_text("")
        assert main(["fit", str(path), "-K", "2"]) == 2
        assert "line 1" in capsys.readouterr().err

    def test_malformed_line_named(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("2 2 2\n0.0 0.0 0\nnot numbers here 1\n")
        assert main(["fit", str(path), "-K", "2"]) == 2
        assert "line 3" in capsys.readouterr().err

    def test_missing_file_exit_2(self, tmp_path):
        assert main(["fit", str(tmp_path / "nope.txt"), "-K", "2"]) == 2

    def test_numerical_failure_exit_1_leaves_no_report(self, two_cluster_file, tmp_path, monkeypatch, capsys):
        def failing_fit(*args, **kwargs):
            raise NumericalError("non-finite responsibilities")

        monkeypatch.setattr(cli, "sparse_fit", failing_fit)
        out = tmp_path / "report.json"
        assert main(["fit", str(two_cluster_file), "-K", "2", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: numerical failure: non-finite responsibilities\n"
        assert not out.exists()

    @pytest.mark.parametrize("scale", [1e8, 1e12, 1e100])
    @pytest.mark.parametrize("method", ["sparse", "baseline"])
    def test_large_coordinate_scales(self, tmp_path, scale, method):
        path = tmp_path / "far.txt"
        rng = np.random.default_rng(92)
        np.savetxt(path, scale * (1.0 + 0.1 * rng.normal(size=(10, 3))))
        out = tmp_path / "far.json"
        assert main(["fit", str(path), "-K", "3", "--method", method, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert np.all(np.isfinite(report["means"])) and np.all(np.isfinite(report["variances"]))


class TestSimulate:
    def test_dump_files(self, tmp_path):
        out = tmp_path / "dumps"
        code = main([
            "simulate", "--dim", "2", "--dilation", "10", "--replicates", "3",
            "--seed", "7", "--out", str(out),
        ])
        assert code == 0
        files = sorted(os.listdir(out))
        assert files == [
            "sample_dim2_dilation10_rep0.txt",
            "sample_dim2_dilation10_rep1.txt",
            "sample_dim2_dilation10_rep2.txt",
        ]
        header = (out / files[0]).read_text().splitlines()[0]
        assert header == "2 10 3"

    def test_dump_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            main(["simulate", "--dim", "2", "--dilation", "30", "--replicates", "2",
                  "--seed", "3", "--out", str(out)])
        for name in os.listdir(a):
            assert (a / name).read_bytes() == (b / name).read_bytes()


    def test_bool_number_exit_2(self, tmp_path, capsys):
        # argparse types the flags, so a bool reaches the command only through its namespace
        out = tmp_path / "sim"
        args = cli.build_parser().parse_args(["simulate", "--dim", "2", "--dilation", "30", "--out", str(out)])
        args.dilation = True
        assert args.func(args) == 2
        assert "dilation takes numbers, not bools, got True" in capsys.readouterr().err
        assert not out.exists()


class TestSweep:
    SWEEP_FLAGS = [
        "sweep", "--dims", "2", "--dilations", "10", "40", "--methods", "sparse", "baseline",
        "--replicates", "4", "--seed", "5", "--restarts", "2", "--max-cycles", "40",
        "--tol", "1e-7",
    ]

    def run_sweep(self, out_dir):
        return main(self.SWEEP_FLAGS + ["--out", str(out_dir)])

    def test_outputs_exist(self, tmp_path):
        out = tmp_path / "sweep"
        assert self.run_sweep(out) == 0
        names = sorted(os.listdir(out))
        assert "ancrci_sparse.csv" in names and "ancrci_baseline.csv" in names
        assert "replicates.csv" in names and "manifest.json" in names and "timings.txt" in names
        assert "plot_sparse_dim2_dilation10.csv" in names
        assert "plot_baseline_dim2_dilation40.csv" in names

    def test_table_shape_and_header(self, tmp_path):
        out = tmp_path / "sweep"
        self.run_sweep(out)
        lines = (out / "ancrci_sparse.csv").read_text().splitlines()
        assert lines[0] == "dim,dilation=10;cube=[-5..5],dilation=40;cube=[-20..20]"
        assert lines[1].startswith("2,")
        assert len(lines) == 2

    def test_csv_outputs_byte_identical_across_runs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert self.run_sweep(a) == 0
        assert self.run_sweep(b) == 0
        for name in sorted(os.listdir(a)):
            if name.endswith(".csv"):
                assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_methods_paired_on_identical_datasets(self, tmp_path):
        out = tmp_path / "sweep"
        self.run_sweep(out)
        rows = (out / "replicates.csv").read_text().splitlines()[1:]
        hashes = {}
        for row in rows:
            dim, dil, method, rep, correct, conv, h = row.split(",")
            hashes.setdefault((dim, dil, rep), set()).add(h)
        assert all(len(s) == 1 for s in hashes.values())

    def test_manifest_records_config(self, tmp_path):
        out = tmp_path / "sweep"
        self.run_sweep(out)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["replicates"] == 4
        assert manifest["seed"] == 5
        assert manifest["hyperparams"]["restarts"] == 2
        assert manifest["version"]
        assert len(manifest["cells"]) == 4
        for cell in manifest["cells"].values():
            assert 0 <= cell["ancrci"] <= 10

    def test_config_file_and_flag_override(self, tmp_path):
        cfg = {
            "dims": [2],
            "dilations": [10],
            "methods": ["baseline"],
            "replicates": 2,
            "seed": 9,
            "hyperparams": {"restarts": 1, "max_cycles": 30, "tol": 1e-6},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "from_config"
        code = main(["sweep", "--config", str(cfg_path), "--replicates", "3", "--out", str(out)])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["replicates"] == 3  # flag wins
        assert manifest["seed"] == 9       # file value kept
        assert manifest["methods"] == ["baseline"]

    def test_manifest_reports_every_config_setting(self, tmp_path):
        cfg = {
            "dims": [3],
            "dilations": [20.0, 40.0],
            "methods": ["baseline"],
            "replicates": 2,
            "seed": 4,
            "jobs": 2,
            "n_points": 8,
            "components": 2,
            "weights": [0.4, 0.6],
            "variances": [2.0, 3.0],
            "hyperparams": {"lam": 0.2, "max_cycles": 20, "tol": 1e-6, "variance_floor": 0.01,
                            "restarts": 1, "seed": 99},
        }
        defaults = json.loads(json.dumps(asdict(SweepSpec())))
        assert set(cfg) == set(defaults) - {"out"}
        assert all(defaults[key] != value for key, value in cfg.items())
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "all_keys"
        assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        for key, value in cfg.items():
            if key != "hyperparams":
                assert manifest[key] == value, key
        assert manifest["hyperparams"] == {**cfg["hyperparams"], "seed": 4}  # the sweep seed wins
        assert sorted(manifest["cells"]) == [
            "dim=3;dilation=20;cube=[-10..10];method=baseline",
            "dim=3;dilation=40;cube=[-20..20];method=baseline",
        ]

    def test_more_than_five_components(self, tmp_path):
        # scoring is an assignment on the confusion matrix, not a K! loop
        out = tmp_path / "k6"
        flags = [
            "sweep", "--components", "6", "--weights", ".1", ".2", ".1", ".2", ".2", ".2",
            "--variances", "1", "2", "3", "4", "5", "6", "--points", "12", "--dims", "2",
            "--dilations", "30", "--replicates", "2", "--seed", "1", "--restarts", "1",
            "--max-cycles", "10", "--out", str(out),
        ]
        assert main(flags) == 0
        rows = (out / "replicates.csv").read_text().splitlines()[1:]
        assert len(rows) == 4 and all(0 <= int(row.split(",")[4]) <= 12 for row in rows)

    def test_unknown_config_key_exit_2(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"dialations": [10]}))
        assert main(["sweep", "--config", str(cfg_path)]) == 2

    @pytest.mark.parametrize("config, message", [
        ({"hyperparams": {"tol": True, "lam": False}}, "takes numbers, not bools"),
        ({"hyperparams": {"variance_floor": True}}, "variance_floor takes numbers, not bools, got True"),
        ({"dilations": [True]}, r"dilations takes numbers, not bools, got \[True\]"),
        ({"weights": [True, False, False]}, r"weights takes numbers, not bools, got \[True, False, False\]"),
        ({"variances": [5.0, True, 10.0]}, r"variances takes numbers, not bools, got \[5.0, True, 10.0\]"),
    ])
    def test_bool_number_in_config_exit_2(self, config, message, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"replicates": 1, **config}))
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert re.search(message, capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("value", [True, False, 0, 1, ["runs"]])
    def test_non_string_out_in_config_exit_2(self, value, tmp_path, capsys, monkeypatch):
        # `true` used to become the directory ./True; `false` and 0 fell back to the default unannounced
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("SPARSEMIX_OUT", raising=False)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"out": value, "replicates": 1, "dims": [2], "dilations": [10],
                                        "methods": ["baseline"]}))
        assert main(["sweep", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err == f"error: out must be a path, got {value!r}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    def test_null_out_in_config_keeps_default(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("SPARSEMIX_OUT", raising=False)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"out": None, "replicates": 1, "dims": [2], "dilations": [10],
                                        "methods": ["baseline"], "hyperparams": {"restarts": 1}}))
        assert main(["sweep", "--config", str(cfg_path)]) == 0
        assert (tmp_path / SweepSpec.out / "manifest.json").exists()

    def test_spec_takes_a_path_for_out(self, tmp_path):
        assert SweepSpec(out=tmp_path / "runs").out == str(tmp_path / "runs")
        with pytest.raises(ValueError, match=r"^out must be a path, got True$"):
            SweepSpec(out=True)

    def test_spec_rejects_bool_before_casting(self):
        with pytest.raises(ValueError, match=r"^dilations takes numbers, not bools, got \(10.0, True\)$"):
            SweepSpec(dilations=(10.0, True))

    def test_env_var_output_dir(self, tmp_path, monkeypatch):
        env_out = tmp_path / "env_out"
        monkeypatch.setenv("SPARSEMIX_OUT", str(env_out))
        code = main(["sweep", "--dims", "2", "--dilations", "10", "--methods", "baseline",
                     "--replicates", "1", "--restarts", "1"])
        assert code == 0
        assert (env_out / "manifest.json").exists()

    @pytest.mark.parametrize("field, values", [
        ("dims", (2, 5, 2)),
        ("dilations", (10.0, 10.0)),
        ("methods", ("baseline", "sparse", "baseline")),
    ])
    def test_repeated_setting_named_with_value(self, field, values):
        with pytest.raises(ValueError, match=rf"^{field} must not repeat a value, got {re.escape(repr(values))}$"):
            SweepSpec(**{field: values})

    @pytest.mark.parametrize("field", ["dims", "dilations", "methods"])
    def test_empty_setting_named_with_value(self, field):
        with pytest.raises(ValueError, match=rf"^{field} must be non-empty, got \(\)$"):
            SweepSpec(**{field: ()})

    def test_too_few_points_named_with_values(self):
        with pytest.raises(ValueError, match=r"^points must be >= components, got points=2, components=3$"):
            SweepSpec(n_points=2, components=3)

    def test_bad_flags_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--methods", "kmeans"])
        assert exc.value.code == 2


class TestUsageErrors:
    """Invalid input exits 2 with an error line before any work starts."""

    @pytest.mark.parametrize("argv", [
        ["fit", "{sample}", "-K", "20", "--out", "{out}"],
        ["fit", "{sample}", "-K", "0", "--out", "{out}"],
        ["fit", "{sample}", "-K", "2", "--restarts", "0", "--out", "{out}"],
        ["fit", "{sample}", "-K", "2", "--tol", "0", "--out", "{out}"],
        ["fit", "{sample}", "-K", "2", "--seed", "-1", "--out", "{out}"],
        ["sweep", "--config", "{config}", "--out", "{out}"],
        ["sweep", "--components", "2", "--out", "{out}"],
        ["sweep", "--points", "2", "--out", "{out}"],
        ["simulate", "--dim", "0", "--dilation", "10", "--out", "{out}"],
        ["sweep", "--jobs", "0", "--out", "{out}"],
        ["sweep", "--seed", "-1", "--out", "{out}"],
        ["sweep", "--dims", "2", "--dilations", "inf", "--replicates", "1", "--restarts", "1", "--out", "{out}"],
        ["simulate", "--dim", "2", "--dilation", "inf", "--out", "{out}"],
        ["sweep", "--config", "{dims_config}", "--out", "{out}"],
        ["sweep", "--config", "{replicates_config}", "--out", "{out}"],
        ["sweep", "--config", "{hyperparams_config}", "--out", "{out}"],
        ["sweep", "--config", "{weights_config}", "--out", "{out}"],
        ["sweep", "--config", "{max_cycles_config}", "--out", "{out}"],
        ["sweep", "--config", "{fractional_replicates_config}", "--out", "{out}"],
        ["fit", "{sample}", "-K", "2", "--lambda", "inf", "--out", "{out}"],
        ["fit", "{sample}", "-K", "2", "--variance-floor", "inf", "--out", "{out}"],
        ["fit", "{sample}", "-K", "2", "--lambda", "inf", "--method", "baseline", "--out", "{out}"],
        ["sweep", "--lambda", "inf", "--out", "{out}"],
        ["sweep", "--variance-floor", "inf", "--out", "{out}"],
        ["fit", "{huge_sample}", "-K", "2", "--out", "{out}"],
        ["fit", "{huge_sample}", "-K", "2", "--method", "baseline", "--out", "{out}"],
        ["fit", "{near_max_sample}", "-K", "2", "--out", "{out}"],
        ["simulate", "--dim", "2", "--dilation", "10", "--variances", "inf", "1", "1", "--out", "{out}"],
        ["simulate", "--dim", "2", "--dilation", "10", "--weights", "nan", "0.5", "0.5", "--out", "{out}"],
        ["sweep", "--dims", "2", "--dilations", "10", "--variances", "inf", "1", "1", "--replicates", "1",
         "--restarts", "1", "--out", "{out}"],
        ["sweep", "--dims", "2", "2", "--dilations", "10", "--methods", "baseline", "--replicates", "2",
         "--restarts", "1", "--out", "{out}"],
        ["sweep", "--dims", "2", "--dilations", "10", "10", "--methods", "baseline", "--replicates", "2",
         "--restarts", "1", "--out", "{out}"],
        ["sweep", "--dims", "2", "--dilations", "10", "--methods", "baseline", "baseline", "--replicates", "2",
         "--restarts", "1", "--out", "{out}"],
        ["sweep", "--config", "{bool_replicates_config}", "--dims", "2", "--dilations", "10", "--methods", "baseline",
         "--restarts", "1", "--out", "{out}"],
    ])
    def test_exit_2(self, argv, two_cluster_file, tmp_path, capsys):
        configs = {
            "config": {"hyperparams": {"foo": 1}},
            "dims_config": {"dims": 5},
            "replicates_config": {"replicates": "many"},
            "hyperparams_config": {"hyperparams": 5},
            "weights_config": {"weights": [0.5, "x", 0.5]},
            "max_cycles_config": {"hyperparams": {"max_cycles": 2.5}},
            "fractional_replicates_config": {"replicates": 2.5},
            "bool_replicates_config": {"replicates": True},
        }
        paths = {name: tmp_path / f"{name}.json" for name in configs}
        for name, cfg in configs.items():
            paths[name].write_text(json.dumps(cfg))
        # squared norms past the float range
        paths["huge_sample"] = tmp_path / "huge.txt"
        np.savetxt(paths["huge_sample"], 1e160 * np.random.default_rng(93).normal(size=(10, 3)))
        # finite coordinates whose column sums overflow
        paths["near_max_sample"] = tmp_path / "near_max.txt"
        np.savetxt(paths["near_max_sample"], 5e307 * (1.0 + 0.1 * np.random.default_rng(94).normal(size=(10, 2))))
        out = tmp_path / "out"
        assert main([a.format(sample=two_cluster_file, out=out, **paths) for a in argv]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("argv, env_out", [
        (["fit", "{sample}", "-K", "2", "--out", "{missing}/report.json"], False),
        (["simulate", "--dim", "2", "--dilation", "10", "--out", "{taken}"], False),
        (["sweep", "--dims", "2", "--dilations", "10", "--replicates", "1", "--restarts", "1"], True),
    ])
    def test_unwritable_output_exit_2(self, argv, env_out, two_cluster_file, tmp_path, capsys, monkeypatch):
        # a missing directory for fit's report; a file where simulate or
        # sweep would make their output directory; fit finds its path
        # unwritable before it runs the estimator
        def no_fit(*args, **kwargs):
            raise AssertionError("the estimator ran before the output path was checked")

        monkeypatch.setattr(cli, "sparse_fit", no_fit)
        taken = tmp_path / "taken"
        taken.write_text("not a directory\n")
        if env_out:
            monkeypatch.setenv("SPARSEMIX_OUT", str(taken))
        paths = dict(sample=two_cluster_file, missing=tmp_path / "missing", taken=taken)
        assert main([a.format(**paths) for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and ("missing" in err or "taken" in err)
        assert taken.read_text() == "not a directory\n"
        assert not (tmp_path / "missing").exists()


class TestConsoleScript:
    def test_version_flag(self):
        import subprocess
        import sys

        out = subprocess.run(
            [sys.executable, "-m", "sparsemix.cli", "--version"],
            capture_output=True, text=True,
        )
        assert out.returncode == 0
        assert "sparsemix" in out.stdout
