"""Command-line behaviour: files, formats, determinism, configuration."""

import csv

import numpy as np
import pytest

from fdo_mlp.cli import main
from fdo_mlp.data import load_csv, xor_csv_path
from fdo_mlp.mlp import load_params


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture()
def synth_csv(tmp_path):
    path = tmp_path / "synth.csv"
    assert run("generate", "--samples", 60, "--features", 3, "--separation", 6,
               "--balance", 0.5, "--seed", 3, "--out", path) == 0
    return path


class TestGenerate:
    def test_line_count_287(self, tmp_path, capsys):
        out = tmp_path / "big.csv"
        assert run("generate", "--samples", 287, "--features", 18,
                   "--seed", 1, "--out", out) == 0
        assert len(out.read_text().splitlines()) == 288

    def test_default_balance_counts(self, tmp_path):
        out = tmp_path / "big.csv"
        run("generate", "--samples", 287, "--features", 18, "--seed", 1, "--out", out)
        data = load_csv(out, "label")
        assert int(np.sum(data.labels == 1)) == 183
        assert int(np.sum(data.labels == 0)) == 104

    def test_roundtrip(self, synth_csv):
        data = load_csv(synth_csv, "label")
        assert data.n_samples == 60
        assert data.n_features == 3


class TestTrain:
    def test_xor_outputs_exist(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run("train", "--data", xor_csv_path(), "--population", 20,
                   "--iterations", 30, "--seed", 44, "--out-dir", out) == 0
        for name in ("model.txt", "convergence.csv", "metrics.csv"):
            assert (out / name).is_file()

    def test_convergence_rows_match_budget(self, tmp_path, capsys):
        out = tmp_path / "run"
        run("train", "--data", xor_csv_path(), "--population", 10,
            "--iterations", 17, "--seed", 1, "--out-dir", out)
        lines = (out / "convergence.csv").read_text().splitlines()
        assert lines[0] == "iteration,best_mse"
        assert len(lines) == 18

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            run("train", "--data", xor_csv_path(), "--population", 10,
                "--iterations", 12, "--seed", 7, "--out-dir", out)
        for name in ("model.txt", "convergence.csv", "metrics.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_bp_trainer(self, synth_csv, tmp_path, capsys):
        out = tmp_path / "bp"
        assert run("train", "--data", synth_csv, "--trainer", "bp",
                   "--epochs", 80, "--seed", 2, "--out-dir", out) == 0
        lines = (out / "convergence.csv").read_text().splitlines()
        assert len(lines) == 81

    def test_missing_data_errors(self, tmp_path, capsys):
        assert run("train", "--data", tmp_path / "nope.csv",
                   "--out-dir", tmp_path) == 1
        assert "error:" in capsys.readouterr().err


class TestConfigFile:
    def test_values_come_from_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# tiny run\npopulation = 10\niterations = 9\nseed = 5\n")
        out = tmp_path / "run"
        assert run("train", "--data", xor_csv_path(), "--config", cfg,
                   "--out-dir", out) == 0
        lines = (out / "convergence.csv").read_text().splitlines()
        assert len(lines) == 10

    def test_flag_overrides_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("iterations = 9\npopulation = 10\n")
        out = tmp_path / "run"
        run("train", "--data", xor_csv_path(), "--config", cfg,
            "--iterations", "4", "--out-dir", out)
        lines = (out / "convergence.csv").read_text().splitlines()
        assert len(lines) == 5

    def test_abbreviated_flag_is_refused_not_overridden(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("iterations = 7\n")
        out = tmp_path / "bench"
        with pytest.raises(SystemExit) as exit_info:
            run("benchmark", "--iter", "2", "--config", cfg, "--repeats", 1,
                "--out-dir", out)
        assert exit_info.value.code == 2
        assert "--iter" in capsys.readouterr().err
        assert not out.exists()
        assert run("benchmark", "--iterations", "2", "--config", cfg,
                   "--repeats", 1, "--out-dir", out) == 0
        assert len((out / "curves.csv").read_text().splitlines()) == 3

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("swarm_size = 10\n")
        out = tmp_path / "never"
        assert run("train", "--data", xor_csv_path(), "--config", cfg,
                   "--out-dir", out) == 1
        assert "unknown configuration key" in capsys.readouterr().err
        assert not out.exists()  # invalid configuration writes nothing

    def test_two_value_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bounds = -5 5\npopulation = 8\niterations = 6\n")
        out = tmp_path / "run"
        assert run("train", "--data", xor_csv_path(), "--config", cfg,
                   "--out-dir", out) == 0


class TestEvaluate:
    def test_self_consistency(self, synth_csv, tmp_path, capsys):
        out = tmp_path / "run"
        run("train", "--data", synth_csv, "--population", 15, "--iterations", 25,
            "--seed", 6, "--out-dir", out)
        train_stdout = capsys.readouterr().out
        rate = float(train_stdout.split("classification_rate=")[1].split()[0])
        assert run("evaluate", "--model", out / "model.txt",
                   "--data", synth_csv) == 0
        eval_stdout = capsys.readouterr().out
        accuracy = float(eval_stdout.split("accuracy")[1].split("raw")[1].split(")")[0])
        assert accuracy == pytest.approx(rate, abs=5e-7)

    def test_width_mismatch_fails(self, synth_csv, tmp_path, capsys):
        model = tmp_path / "model.txt"
        model.write_text("2 3 1\n" + " ".join(["0.0"] * 13) + "\n")
        assert run("evaluate", "--model", model, "--data", synth_csv) == 1
        assert "features" in capsys.readouterr().err

    def test_reference_fixture_prints_fold_one_metrics(self, tmp_path, capsys):
        """A model/dataset pair realizing tp=37 fp=0 fn=2 tn=18 prints the
        reference metric row 0.94 / 1.00 / 1.00 / 0.90 / 0.96."""
        # Steep sigmoid unit: prediction is simply feature > 0.5.
        model = tmp_path / "step.txt"
        model.write_text("1 1 1\n1000.0 -500.0 1000.0 -500.0\n")
        rows = (["0.9,1"] * 37) + (["0.1,1"] * 2) + (["0.1,0"] * 18)
        data = tmp_path / "fixture.csv"
        data.write_text("x,label\n" + "\n".join(rows) + "\n")
        assert run("evaluate", "--model", model, "--data", data) == 0
        out = capsys.readouterr().out
        assert "tp=37" in out and "fp=0" in out
        assert "fn=2" in out and "tn=18" in out
        for name, shown in (("sensitivity", "0.94"), ("specificity", "1.00"),
                            ("ppv", "1.00"), ("npv", "0.90"), ("accuracy", "0.96")):
            line = next(l for l in out.splitlines() if l.strip().startswith(name))
            assert shown in line


class TestCrossval:
    def test_reference_fold_sizes(self, tmp_path, capsys):
        data = tmp_path / "big.csv"
        run("generate", "--samples", 287, "--features", 4, "--separation", 6,
            "--seed", 2, "--out", data)
        out = tmp_path / "cv"
        assert run("crossval", "--data", data, "--k", 5, "--population", 6,
                   "--iterations", 4, "--seed", 3, "--out-dir", out) == 0
        with (out / "folds.csv").open() as handle:
            rows = list(csv.DictReader(handle))
        test_sizes = [int(r["samples"]) for r in rows
                      if r["role"] == "testing" and r["fold"] != "average"]
        assert test_sizes == [57, 57, 57, 58, 58]

    def test_averages_recompute(self, synth_csv, tmp_path, capsys):
        out = tmp_path / "cv"
        run("crossval", "--data", synth_csv, "--k", 3, "--population", 6,
            "--iterations", 5, "--seed", 4, "--out-dir", out)
        with (out / "folds.csv").open() as handle:
            rows = list(csv.DictReader(handle))
        fold_mses = [float(r["mse"]) for r in rows
                     if r["role"] == "testing" and r["fold"] != "average"]
        avg = [float(r["mse"]) for r in rows
               if r["role"] == "testing" and r["fold"] == "average"]
        assert avg[0] == pytest.approx(np.mean(fold_mses), abs=1e-12)

    def test_k2_structure(self, tmp_path, capsys):
        data = tmp_path / "four.csv"
        data.write_text("a,label\n0.1,1\n0.2,0\n0.8,1\n0.9,0\n")
        out = tmp_path / "cv"
        assert run("crossval", "--data", data, "--k", 2, "--population", 5,
                   "--iterations", 3, "--seed", 1, "--out-dir", out) == 0
        for name in ("folds.csv", "class_success.csv", "fold_metrics.csv"):
            assert (out / name).is_file()

    def test_bad_k(self, synth_csv, tmp_path, capsys):
        assert run("crossval", "--data", synth_csv, "--k", 1,
                   "--out-dir", tmp_path) == 1


class TestBenchmark:
    def test_statistics_ordering(self, tmp_path, capsys):
        out = tmp_path / "bench"
        assert run("benchmark", "--function", "sphere", "--dimension", 3,
                   "--population", 8, "--iterations", 40, "--repeats", 4,
                   "--seed", 1, "--out-dir", out) == 0
        header, row = (out / "statistics.csv").read_text().splitlines()
        avg, std, best, worst = (float(v) for v in row.split(","))
        assert best <= avg <= worst

    def test_curves_file_shape(self, tmp_path, capsys):
        out = tmp_path / "bench"
        run("benchmark", "--function", "rastrigin", "--dimension", 2,
            "--population", 6, "--iterations", 10, "--repeats", 2,
            "--seed", 2, "--out-dir", out)
        lines = (out / "curves.csv").read_text().splitlines()
        assert lines[0] == "run,iteration,best_value"
        assert len(lines) == 1 + 2 * 10

    def test_unknown_function(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            run("benchmark", "--function", "ackley", "--out-dir", tmp_path)

    def test_default_budget_solves_sphere(self, tmp_path, capsys):
        """The stock per-run budget (30 scouts x 500 iterations) drives the
        10-D sphere far below 1e-3; three repeats keep the check quick."""
        out = tmp_path / "bench"
        assert run("benchmark", "--repeats", 3, "--seed", 0, "--out-dir", out) == 0
        _, row = (out / "statistics.csv").read_text().splitlines()
        worst = float(row.split(",")[3])
        assert worst < 1e-3

    def test_model_file_loads(self, tmp_path, capsys):
        out = tmp_path / "run"
        run("train", "--data", xor_csv_path(), "--population", 8,
            "--iterations", 5, "--seed", 3, "--out-dir", out)
        params = load_params(out / "model.txt")
        assert params.topology.inputs == 2
        assert params.topology.hidden == 5
