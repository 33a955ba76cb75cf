"""Command-line behaviour: files, formats, determinism, configuration."""

import csv
import shlex
from pathlib import Path

import numpy as np
import pytest

from fdo_mlp.cli import build_parser, main
from fdo_mlp.data import (LabeledDataset, load_csv, min_max_normalize, select_features,
                          xor_csv_path)
from fdo_mlp.evaluation import score
from fdo_mlp.mlp import MlpTopology, params_from_text, params_to_text
from fdo_mlp.training import TrainingConfig, train_fdo_mlp

README = Path(__file__).resolve().parent.parent / "README.md"


def run(*argv):
    return main([str(a) for a in argv])


def read_params(path):
    """The parameters on the first two lines of a model file."""
    return params_from_text(path.read_text(encoding="utf-8"), source=str(path))


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

    @pytest.mark.parametrize("source", ["flag", "key"])
    def test_negative_seed_rejected(self, tmp_path, capsys, source):
        """Refused with the message the other commands give, not numpy's
        generator error, which names neither the option nor its value."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = -1\n")
        given = ["--seed", -1] if source == "flag" else ["--config", cfg]
        out = tmp_path / "data.csv"
        assert run("generate", *given, "--out", out) == 1
        assert capsys.readouterr().err == "error: seed must be non-negative\n"
        assert not out.exists()


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

    def test_diverging_bp_run_prints_only_the_error(self, synth_csv, tmp_path, capsys):
        """No numpy overflow warning comes before the error line."""
        out = tmp_path / "run"
        assert run("train", "--data", synth_csv, "--trainer", "bp",
                   "--output-activation", "linear", "--learning-rate", 1e300,
                   "--epochs", 3, "--out-dir", out) == 1
        assert capsys.readouterr().err == "error: training diverged at epoch 1\n"
        assert not out.exists()

    def test_default_budget_is_40_scouts_by_75_iterations(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run("train", "--data", xor_csv_path(), "--seed", 3, "--out-dir", out) == 0
        assert len((out / "convergence.csv").read_text().splitlines()) == 76

    def test_fdo_run_is_the_library_run_seeded_from_config(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run("train", "--data", xor_csv_path(), "--population", 9,
                   "--iterations", 11, "--seed", 5, "--out-dir", out) == 0
        config = TrainingConfig.for_topology(MlpTopology(2, 5, 1), population=9,
                                             max_iterations=11, seed=5)
        model = train_fdo_mlp(min_max_normalize(load_csv(xor_csv_path(), "label")), config)
        assert (out / "model.txt").read_text().startswith(params_to_text(model.params))

    def test_byte_order_mark_stays_out_of_model_columns(self, tmp_path):
        data = tmp_path / "bom.csv"
        data.write_bytes(b"\xef\xbb\xbf" + xor_csv_path().read_bytes())
        out = tmp_path / "run"
        assert run("train", "--data", data, "--iterations", 2, "--out-dir", out) == 0
        assert "keep-columns = x1,x2\n" in (out / "model.txt").read_text(encoding="utf-8")

    def test_repeated_keep_column_rejected(self, synth_csv, tmp_path, capsys):
        out = tmp_path / "run"
        assert run("train", "--data", synth_csv, "--keep-columns", "f01,f01",
                   "--out-dir", out) == 1
        assert "column 'f01' is kept more than once" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("source", ["flag", "key"])
    def test_empty_keep_columns_rejected(self, synth_csv, tmp_path, capsys, source):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("keep-columns =\n")
        given = ["--keep-columns", ""] if source == "flag" else ["--config", cfg]
        out = tmp_path / "run"
        assert run("train", "--data", synth_csv, *given, "--out-dir", out) == 1
        assert "keep must name at least one column" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "crossval"])
    def test_kept_column_the_csv_lacks_names_the_csv(self, synth_csv, tmp_path, capsys,
                                                     command):
        out = tmp_path / "run"
        assert run(command, "--data", synth_csv, "--keep-columns", "f01,x3",
                   "--out-dir", out) == 1
        assert capsys.readouterr().err == f"error: {synth_csv}: unknown column 'x3'\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "crossval"])
    def test_threshold_outside_a_sigmoid_range_rejected(self, tmp_path, capsys, command):
        folds = ["--k", 2] if command == "crossval" else []
        argv = [command, "--data", xor_csv_path(), *folds, "--threshold", 7,
                "--population", 4, "--iterations", 2]
        assert run(*argv, "--out-dir", tmp_path / "never") == 1
        assert "threshold 7.0 is outside [0, 1]" in capsys.readouterr().err
        assert not (tmp_path / "never").exists()
        assert run(*argv, "--output-activation", "linear",
                   "--out-dir", tmp_path / "linear") == 0

    def test_column_name_with_a_comma_rejected(self, tmp_path, capsys):
        data = tmp_path / "comma.csv"
        data.write_text('"a,b",c,label\n0,0,0\n0,1,1\n1,0,1\n1,1,0\n')
        assert run("train", "--data", data, "--out-dir", tmp_path / "never") == 1
        assert "cannot record a column name with a comma" in capsys.readouterr().err
        assert not (tmp_path / "never").exists()

    @pytest.mark.parametrize("header, name", [
        ("x1,,label", ""), ('x1,"a\nb",label', "a\nb"), ('x1,"a\rb",label', "a\rb"),
        ("x1,a\u2028b,label", "a\u2028b")],
        ids=["empty", "newline", "carriage-return", "line-separator"])
    def test_column_name_model_txt_cannot_record_rejected(self, tmp_path, capsys,
                                                          header, name):
        """A name evaluate would read back as another column list or line."""
        data = tmp_path / "names.csv"
        data.write_text(header + "\n0,0,0\n0,1,1\n1,0,1\n1,1,0\n", encoding="utf-8")
        assert run("train", "--data", data, "--out-dir", tmp_path / "never") == 1
        assert capsys.readouterr().err.startswith(
            f"error: {data}: column {name!r}: model.txt cannot record")
        assert not (tmp_path / "never").exists()

    def test_equal_bounds_named_equal(self, tmp_path, capsys):
        assert run("train", "--data", xor_csv_path(), "--bounds", 5, 5,
                   "--out-dir", tmp_path / "run") == 1
        assert "weight_bounds are equal" in capsys.readouterr().err

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

    def test_required_data_from_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"data = {xor_csv_path()}\npopulation = 5\niterations = 3\n")
        out = tmp_path / "run"
        assert run("train", "--config", cfg, "--out-dir", out) == 0
        assert len((out / "convergence.csv").read_text().splitlines()) == 4

    def test_required_model_from_file(self, tmp_path, capsys):
        out = tmp_path / "run"
        run("train", "--data", xor_csv_path(), "--population", 5,
            "--iterations", 3, "--out-dir", out)
        cfg = tmp_path / "eval.cfg"
        cfg.write_text(f"model = {out / 'model.txt'}\ndata = {xor_csv_path()}\n")
        assert run("evaluate", "--config", cfg) == 0
        assert "accuracy" in capsys.readouterr().out

    @pytest.mark.parametrize("command, flag", [("train", "--data"),
                                               ("evaluate", "--model")])
    @pytest.mark.parametrize("with_config", [False, True])
    def test_required_value_given_nowhere_is_a_usage_error(
            self, tmp_path, capsys, command, flag, with_config):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("label-column = label\n")
        argv = [command, "--out-dir", tmp_path / "never"]
        if command == "evaluate":
            argv = [command, "--data", xor_csv_path()]
        if with_config:
            argv += ["--config", cfg]
        with pytest.raises(SystemExit) as exit_info:
            run(*argv)
        assert exit_info.value.code == 2
        assert f"the following arguments are required: {flag}" in capsys.readouterr().err
        assert not (tmp_path / "never").exists()

    def test_non_finite_value_names_the_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("threshold = nan\n")
        out = tmp_path / "never"
        assert run("train", "--data", xor_csv_path(), "--config", cfg,
                   "--out-dir", out) == 1
        assert "configuration key 'threshold': cannot parse 'nan'" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_value_names_file_and_line(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# run\npopulation = 5\nthreshold = nan\n")
        out = tmp_path / "never"
        assert run("train", "--data", xor_csv_path(), "--config", cfg,
                   "--out-dir", out) == 1
        assert (f"{cfg}: line 3: configuration key 'threshold': cannot parse 'nan'"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_unknown_key_names_file_and_line(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 3\n\nswarm-size = 10\n")
        assert run("train", "--data", xor_csv_path(), "--config", cfg,
                   "--out-dir", tmp_path / "never") == 1
        assert (f"{cfg}: line 3: unknown configuration key 'swarm-size'"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("first, second", [
        ("iterations = 3", "iterations = 4"),
        ("keep-columns = x1", "keep_columns = x2"),
    ])
    def test_repeated_key_names_file_and_both_lines(self, tmp_path, capsys,
                                                    first, second):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{first}\npopulation = 5\n{second}\n")
        out = tmp_path / "never"
        assert run("train", "--data", xor_csv_path(), "--config", cfg,
                   "--out-dir", out) == 1
        key, repeated = (line.partition(" =")[0] for line in (second, first))
        assert (f"{cfg}: line 3: configuration key '{key}' repeats '{repeated}' "
                "from line 1" in capsys.readouterr().err)
        assert not out.exists()

    def test_flag_with_equals_overrides_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("population = 6\niterations = 9\n")
        out = tmp_path / "run"
        assert run("train", "--data", xor_csv_path(), "--config", cfg,
                   "--iterations=4", "--out-dir", out) == 0
        assert len((out / "convergence.csv").read_text().splitlines()) == 5

    def test_bad_value_is_rejected_even_where_a_flag_overrides_it(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("iterations = many\n")
        assert run("train", "--data", xor_csv_path(), "--config", cfg,
                   "--iterations", "4", "--out-dir", tmp_path / "never") == 1
        assert "line 1: configuration key 'iterations': cannot parse 'many'" in (
            capsys.readouterr().err)

    def test_byte_order_mark_is_not_part_of_the_first_key(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("\ufeffiterations = 4\npopulation = 6\n", encoding="utf-8")
        out = tmp_path / "run"
        assert run("train", "--data", xor_csv_path(), "--config", cfg, "--out-dir", out) == 0
        assert len((out / "convergence.csv").read_text().splitlines()) == 5

    def test_non_utf8_file_names_the_file(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"iterations = 2\n\xff\n")
        out = tmp_path / "never"
        assert run("benchmark", "--config", cfg, "--out-dir", out) == 1
        assert f"error: {cfg}: not UTF-8 text: " in capsys.readouterr().err
        assert not out.exists()


class TestNonFiniteFloats:
    """Every float flag rejects nan and infinities before the command runs,
    with argparse's usage error naming the flag. evaluate takes its threshold
    from model.txt, so there a --threshold of any value is an unrecognized
    argument."""

    @pytest.mark.parametrize("token", ["nan", "inf"])
    @pytest.mark.parametrize("command, flag", [
        ("generate", "--separation"), ("generate", "--balance"),
        ("train", "--weight-factor"), ("train", "--bounds"),
        ("train", "--threshold"), ("train", "--learning-rate"),
        ("crossval", "--threshold"), ("evaluate", "--threshold"),
        ("benchmark", "--weight-factor")])
    def test_flag_rejected(self, tmp_path, capsys, command, flag, token):
        out = tmp_path / "never"
        argv = {"generate": ["--out", out / "data.csv"],
                "train": ["--data", xor_csv_path()],
                "crossval": ["--data", xor_csv_path()],
                "evaluate": ["--model", out / "model.txt", "--data", xor_csv_path()],
                "benchmark": []}[command]
        values = ["-1", token] if flag == "--bounds" else [token]
        out_dir = [] if command == "evaluate" else ["--out-dir", out]
        with pytest.raises(SystemExit) as exit_info:
            run(command, *argv, flag, *values, *out_dir)
        assert exit_info.value.code == 2
        expected = (f"unrecognized arguments: {flag} {token}" if command == "evaluate"
                    else f"argument {flag}")
        assert expected in capsys.readouterr().err
        assert not out.exists()


class TestReadme:
    def test_every_command_line_parses(self):
        """A flag removed from the parser cannot stay in the README."""
        lines = [line.strip() for line in README.read_text(encoding="utf-8").splitlines()
                 if line.strip().startswith("fdo-mlp ")]
        assert len(lines) >= 6
        parser = build_parser()
        for line in lines:
            try:
                parser.parse_args(shlex.split(line, comments=True)[1:])
            except SystemExit:
                pytest.fail(f"README line does not parse: {line}")


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

    @pytest.mark.parametrize("token", ["nan", "inf", "abc"])
    def test_model_value_that_is_not_finite_fails(self, synth_csv, tmp_path, capsys, token):
        model = tmp_path / "model.txt"
        model.write_text(f"3 1 1\n0.5 0.5 {token} 0.5 0.5 0.5\n")
        assert run("evaluate", "--model", model, "--data", synth_csv) == 1
        assert f"model.txt: line 2, value 3: cannot parse '{token}'" in capsys.readouterr().err

    def test_non_utf8_model_names_the_file(self, synth_csv, tmp_path, capsys):
        model = tmp_path / "bad.txt"
        model.write_bytes(b"1 1 1\n0.5 0.5 0.5 \xff\n")
        assert run("evaluate", "--model", model, "--data", synth_csv) == 1
        assert f"error: {model}: not UTF-8 text: " in capsys.readouterr().err

    def test_reference_fixture_prints_fold_one_metrics(self, tmp_path, capsys):
        """A model/dataset pair realizing tp=37 fp=0 fn=2 tn=18 prints the
        reference metric row 0.94 / 1.00 / 1.00 / 0.90 / 0.96."""
        # Steep sigmoid unit on unscaled x: prediction is simply x > 0.5.
        model = tmp_path / "step.txt"
        model.write_text("1 1 1\n1000.0 -500.0 1000.0 -500.0\nkeep-columns = x\n"
                         "mins = 0.0\nmaxs = 1.0\noutput-activation = sigmoid\n"
                         "threshold = 0.5\n")
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


def _raw_metrics(stdout):
    """Each metric's six-decimal raw value as ``evaluate`` prints it."""
    return {line.split()[0]: line.split("(raw ")[1].rstrip(")")
            for line in stdout.splitlines() if "(raw " in line}


class TestEvaluateReplaysTraining:
    """``evaluate`` takes the columns, scaling, activation and threshold from
    ``model.txt``, so it scores rows as the trained model scored them."""

    @pytest.fixture()
    def wide_csv(self, tmp_path):
        path = tmp_path / "wide.csv"
        assert run("generate", "--samples", 120, "--features", 4, "--separation", 3,
                   "--seed", 5, "--out", path) == 0
        return path

    @pytest.mark.parametrize("flags, columns, threshold, sigmoid_output", [
        (["--population", 12, "--iterations", 20], ["f01", "f02", "f03", "f04"], 0.5, True),
        (["--trainer", "bp", "--epochs", 150, "--output-activation", "linear",
          "--threshold", 0.6], ["f03", "f01"], 0.6, False)],
        ids=["fdo-sigmoid", "bp-linear"])
    def test_training_csv_reproduces_train_metrics(self, wide_csv, tmp_path, capsys, flags,
                                                   columns, threshold, sigmoid_output):
        out = tmp_path / "run"
        assert run("train", "--data", wide_csv, *flags, "--keep-columns", ",".join(columns),
                   "--seed", 4, "--out-dir", out) == 0
        assert run("evaluate", "--model", out / "model.txt", "--data", wide_csv) == 0
        printed = capsys.readouterr().out
        names, values = (out / "metrics.csv").read_text().splitlines()
        expected = {name: f"{float(v):.6f}" for name, v in zip(names.split(","),
                                                              values.split(","))}
        assert _raw_metrics(printed) == expected
        data = select_features(load_csv(wide_csv, "label"), columns)
        _, _, cm, _ = score(read_params(out / "model.txt"), min_max_normalize(data),
                            threshold, sigmoid_output)
        assert f"tp={cm.tp}  fp={cm.fp}" in printed and f"fn={cm.fn}  tn={cm.tn}" in printed

    @pytest.mark.parametrize("label", [1, 0])
    def test_class_pure_rows_score_as_in_training(self, wide_csv, tmp_path, capsys, label):
        out = tmp_path / "run"
        assert run("train", "--data", wide_csv, "--population", 12, "--iterations", 20,
                   "--seed", 4, "--out-dir", out) == 0
        header, *rows = wide_csv.read_text().splitlines()
        picked = [i for i, row in enumerate(rows) if row.endswith(f",{label}")][:30]
        subset = tmp_path / "subset.csv"
        subset.write_text("\n".join([header] + [rows[i] for i in picked]) + "\n")
        capsys.readouterr()
        assert run("evaluate", "--model", out / "model.txt", "--data", subset) == 0
        trained = min_max_normalize(load_csv(wide_csv, "label")).subset(picked)
        _, rate, _, _ = score(read_params(out / "model.txt"), trained, 0.5, True)
        assert _raw_metrics(capsys.readouterr().out)["accuracy"] == f"{rate:.6f}"

    @pytest.mark.parametrize("removed", [
        "--keep-columns=x1", "--threshold=0.5", "--output-activation=linear",
        "--seed=1", "--out-dir=never"])
    def test_removed_flag_is_a_usage_error(self, tmp_path, capsys, removed):
        model = tmp_path / "model.txt"
        model.write_text("2 1 1\n0.5 0.5 0.5 0.5 0.5\n")
        with pytest.raises(SystemExit) as exit_info:
            run("evaluate", "--model", model, "--data", xor_csv_path(), removed)
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {removed}" in capsys.readouterr().err

    MODEL = ("2 1 1\n0.5 0.5 0.5 0.5 0.5\nkeep-columns = x2,x1\nmins = 0.0 0.0\n"
             "maxs = 1.0 1.0\noutput-activation = sigmoid\nthreshold = 0.5\n")

    @pytest.mark.parametrize("old, new, message", [
        ("= 0.5\n", "= 0.5\nspeed = 3\n", "line 8: unknown configuration key 'speed'"),
        ("= 0.5\n", "= 0.5\nthreshold = 0.4\n",
         "line 8: configuration key 'threshold' repeats 'threshold' from line 7"),
        ("maxs = 1.0 1.0\n", "", "no 'maxs' key after line 2"),
        ("mins = 0.0 0.0", "mins = 0.0", "line 4: configuration key 'mins': expected 2 values"),
        ("maxs = 1.0 1.0", "maxs = 1.0 1.0 1.0",
         "line 5: configuration key 'maxs': expected 2 values"),
        ("maxs = 1.0 1.0", "maxs = 1.0 inf", "line 5: configuration key 'maxs': cannot parse"),
        ("= 0.5", "= nan", "line 7: configuration key 'threshold': cannot parse 'nan'"),
        ("sigmoid", "tanh", "line 6: configuration key 'output-activation': "
                            "'tanh' is not one of sigmoid, linear"),
        ("= 0.5", "= 7", "line 7: threshold 7.0 is outside [0, 1]"),
        ("x2,x1", "", "line 3: 0 columns for a model of 2 inputs"),
        ("x2,x1", "x1", "line 3: 1 columns for a model of 2 inputs"),
        ("mins =", "mins", "line 4: expected 'key = value'"),
        (MODEL[MODEL.index("keep-columns"):], "", "no 'keep-columns' key after line 2"),
        ("mins = 0.0 0.0", "mins = 5.0 5.0",
         "line 5: maxs 1.0 of column 'x2' is below its mins 5.0"),
        ("mins = 0.0 0.0\nmaxs = 1.0 1.0", "mins = 0.0 -1e+308\nmaxs = 1.0 1e+308",
         "line 5: maxs 1e+308 of column 'x1' minus its mins -1e+308 overflows"),
        ("x2,x1", "x2,x2", "line 3: column 'x2' is kept more than once"),
    ], ids=["unknown-key", "repeated-key", "missing-key", "short-mins", "long-maxs",
            "infinite-max", "nan-threshold", "unknown-activation", "sigmoid-threshold",
            "empty-columns", "too-few-columns", "no-equals", "two-line-file",
            "reversed-range", "overflowing-range", "repeated-column"])
    def test_model_file_error_names_file_and_line(self, tmp_path, capsys, old, new, message):
        model = tmp_path / "model.txt"
        model.write_text(self.MODEL.replace(old, new))
        assert run("evaluate", "--model", model, "--data", xor_csv_path()) == 1
        assert f"{model}: {message}" in capsys.readouterr().err

    def test_equal_mins_and_maxs_scale_the_column_to_zero(self, tmp_path, capsys):
        """A constant training column writes maxs == mins; evaluate accepts
        it and scores that column as 0."""
        model = tmp_path / "model.txt"
        model.write_text(self.MODEL.replace("0.5 0.5 0.5 0.5 0.5", "4.0 -4.0 -2.0 4.0 -2.0")
                         .replace("mins = 0.0 0.0", "mins = 0.0 1.0"))
        assert run("evaluate", "--model", model, "--data", xor_csv_path()) == 0
        out = capsys.readouterr().out
        scaled = LabeledDataset(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [1.0, 0.0]]),
                                np.array([0, 1, 1, 0]), ("x2", "x1"))
        _, _, cm, _ = score(read_params(model), scaled, 0.5, True)
        assert (cm.tp, cm.fp, cm.fn, cm.tn) == (1, 1, 1, 1)
        assert f"tp={cm.tp}  fp={cm.fp}\n  fn={cm.fn}  tn={cm.tn}" in out

    def test_linear_output_keeps_any_threshold(self, tmp_path, capsys):
        model = tmp_path / "model.txt"
        model.write_text(self.MODEL.replace("sigmoid", "linear").replace("= 0.5", "= 7"))
        assert run("evaluate", "--model", model, "--data", xor_csv_path()) == 0
        assert "tp=0  fp=0" in capsys.readouterr().out

    def test_value_scaled_past_the_float_range_names_csv_line_and_column(
            self, tmp_path, capsys):
        """A valid but narrow recorded range that a CSV value overflows fails
        at the CSV's file line, counted past a quoted field that spans two
        lines, and no numpy warning comes before the error line."""
        model = tmp_path / "model.txt"
        model.write_text(self.MODEL.replace("maxs = 1.0 1.0", "maxs = 1e-300 1.0"))
        data = tmp_path / "far.csv"
        data.write_text('x1,x2,label\n"0.5\n",0.5,0\n0.5,1e10,1\n')
        assert run("evaluate", "--model", model, "--data", data) == 1
        assert capsys.readouterr().err == (
            f"error: {data}: line 4, column 'x2': 10000000000.0 leaves the model's "
            "range: scaling it by mins 0.0 and maxs 1e-300 overflows\n")

    def test_column_the_csv_lacks_is_named(self, tmp_path, capsys):
        model = tmp_path / "model.txt"
        model.write_text(self.MODEL.replace("x2,x1", "x2,x3"))
        assert run("evaluate", "--model", model, "--data", xor_csv_path()) == 1
        assert capsys.readouterr().err == f"error: {xor_csv_path()}: unknown column 'x3'\n"

    def test_subnormal_range_replays_on_the_training_csv(self, tmp_path, capsys):
        """A column holding only 0.0 and 5e-324 records that narrow range;
        evaluate scores its own CSV with train's metrics, and fails only on
        a value that the range scales past the float range."""
        data = tmp_path / "narrow.csv"
        data.write_text("x1,x2,label\n0.0,0.1,0\n5e-324,0.9,1\n5e-324,0.2,1\n"
                        "0.0,0.7,0\n5e-324,0.4,1\n0.0,0.3,0\n")
        out = tmp_path / "run"
        assert run("train", "--data", data, "--population", 8, "--iterations", 10,
                   "--seed", 2, "--out-dir", out) == 0
        assert "maxs = 5e-324 " in (out / "model.txt").read_text()
        capsys.readouterr()
        assert run("evaluate", "--model", out / "model.txt", "--data", data) == 0
        names, values = (out / "metrics.csv").read_text().splitlines()
        expected = {name: f"{float(v):.6f}" for name, v in zip(names.split(","),
                                                              values.split(",")) if v != "n/a"}
        assert _raw_metrics(capsys.readouterr().out) == expected
        far = tmp_path / "far.csv"
        far.write_text("x1,x2,label\n0.0,0.5,0\n1.0,0.5,1\n")
        assert run("evaluate", "--model", out / "model.txt", "--data", far) == 1
        assert capsys.readouterr().err.startswith(
            f"error: {far}: line 3, column 'x1': 1.0 leaves the model's range: ")


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

    def test_value_a_fold_scales_past_the_float_range_names_csv_line(self, tmp_path,
                                                                       capsys):
        """Column x1 holds 5e-324 and 0.0 in turn, then 1.0 on line 22: a
        fold that tests that row scales it by a training range 5e-324 wide."""
        data = tmp_path / "narrow.csv"
        rows = [f"{'5e-324' if i % 2 == 0 else '0.0'},{i / 20!r},{i % 2}" for i in range(20)]
        data.write_text("\n".join(["x1,x2,label", *rows, "1.0,0.5,1"]) + "\n")
        out = tmp_path / "cv"
        assert run("crossval", "--data", data, "--k", 3, "--iterations", 2,
                   "--population", 3, "--out-dir", out) == 1
        assert capsys.readouterr().err == (
            f"error: {data}: line 22, column 'x1': 1.0 scales past the float range "
            "under its fold's min-max scaling\n")
        assert not out.exists()

    def test_bad_k(self, synth_csv, tmp_path, capsys):
        assert run("crossval", "--data", synth_csv, "--k", 1,
                   "--out-dir", tmp_path) == 1

    def test_negative_epochs_rejected_before_any_fold_is_split(self, synth_csv, tmp_path,
                                                                capsys, monkeypatch):
        from fdo_mlp import evaluation

        def no_split(*args):
            raise AssertionError("folds were split")

        monkeypatch.setattr(evaluation, "kfold_splits", no_split)
        out = tmp_path / "cv"
        assert run("crossval", "--data", synth_csv, "--trainer", "bp", "--epochs", -1,
                   "--out-dir", out) == 1
        assert capsys.readouterr().err == "error: epochs must be non-negative\n"
        assert not out.exists()


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

    @pytest.mark.parametrize("repeats", [0, -3])
    def test_repeats_below_one_rejected(self, tmp_path, capsys, repeats):
        """Refused before any search, not as run_statistics' empty-input
        error once the loop has run no search."""
        out = tmp_path / "bench"
        assert run("benchmark", "--repeats", repeats, "--out-dir", out) == 1
        assert capsys.readouterr().err == "error: repeats must be at least 1\n"
        assert not out.exists()

    def test_repeats_below_one_in_config_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("repeats = 0\n")
        out = tmp_path / "bench"
        assert run("benchmark", "--config", cfg, "--out-dir", out) == 1
        assert capsys.readouterr().err == "error: repeats must be at least 1\n"
        assert not out.exists()

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
        params = read_params(out / "model.txt")
        assert params.topology.inputs == 2
        assert params.topology.hidden == 5
