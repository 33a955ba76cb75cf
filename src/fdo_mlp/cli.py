"""Command-line interface.

Five commands: ``generate`` (synthetic dataset), ``train`` (FDO or
backpropagation), ``evaluate`` (saved model against a dataset), ``crossval``
(k-fold cross-validation) and ``benchmark`` (optimizer on a classical test
function). Every command accepts ``--config FILE`` with one ``key = value``
per line (``#`` starts a comment); keys mirror the long flag names and
explicit flags win over the file. Unknown keys are rejected. Seeds default
to a fixed constant so runs are reproducible out of the box, and all file
output is written to a temporary file and renamed into place.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .benchmarks import benchmark_names, get_benchmark
from .data import (LabeledDataset, generate_synthetic, load_csv,
                   min_max_normalize, save_csv, select_features, write_text_atomic)
from .evaluation import (METRIC_NAMES, ClassSuccessReport, CrossValReport, bp_trainer,
                         cross_validate, format_metric, per_class_success, score)
from .fdo import DEFAULT_SEED, EvaluationError, FdoConfig, optimize, uniform_bounds
from .mlp import MlpTopology, hidden_size_rule, load_params, params_to_text
from .training import (TRAINING_PRESETS, TrainingConfig, run_statistics,
                       train_bp_mlp, train_fdo_mlp)


class CliError(Exception):
    """User-facing failure; the message is printed and the command exits 1."""


def _fmt(value) -> str:
    return "n/a" if value is None else repr(float(value))


# ----------------------------------------------------------------------
# Configuration files
# ----------------------------------------------------------------------

def _parse_config_file(path: str) -> dict[str, str]:
    entries: dict[str, str] = {}
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as err:
        raise CliError(f"cannot read config file {path}: {err}") from err
    for line_no, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise CliError(f"{path}: line {line_no}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        entries[key.strip()] = value.strip()
    return entries


def _convert_config_value(action: argparse.Action, key: str, raw: str):
    if isinstance(action, (argparse._StoreTrueAction, argparse._StoreFalseAction)):
        lowered = raw.lower()
        if lowered in ("1", "true", "yes", "on"):
            return isinstance(action, argparse._StoreTrueAction)
        if lowered in ("0", "false", "no", "off"):
            return not isinstance(action, argparse._StoreTrueAction)
        raise CliError(f"configuration key {key!r}: expected a boolean, got {raw!r}")
    convert = action.type if action.type is not None else str
    tokens = raw.split() if action.nargs == 2 else [raw]
    if action.nargs == 2 and len(tokens) != 2:
        raise CliError(f"configuration key {key!r}: expected two values, got {raw!r}")
    try:
        values = [convert(token) for token in tokens]
    except ValueError:
        raise CliError(f"configuration key {key!r}: cannot parse {raw!r}") from None
    for value in values:
        if action.choices is not None and value not in action.choices:
            raise CliError(
                f"configuration key {key!r}: {value!r} is not one of "
                f"{', '.join(map(str, action.choices))}")
    return values if action.nargs == 2 else values[0]


def _apply_config(args: argparse.Namespace, parser: argparse.ArgumentParser,
                  argv: list[str]) -> None:
    if getattr(args, "config", None) is None:
        return
    actions = {a.dest: a for a in parser._actions if a.option_strings}
    explicit = set()
    for action in actions.values():
        for opt in action.option_strings:
            if any(token == opt or token.startswith(opt + "=") for token in argv):
                explicit.add(action.dest)
    for key, raw in _parse_config_file(args.config).items():
        dest = key.replace("-", "_")
        if dest == "config" or dest not in actions:
            raise CliError(f"unknown configuration key {key!r}")
        if dest in explicit:
            continue
        setattr(args, dest, _convert_config_value(actions[dest], key, raw))


# ----------------------------------------------------------------------
# Shared argument groups
# ----------------------------------------------------------------------

def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key = value configuration file")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"random seed (default {DEFAULT_SEED})")
    parser.add_argument("--out-dir", default="out",
                        help="directory for output files (default: out)")


def _add_data_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--data", required=True, help="CSV dataset path")
    parser.add_argument("--label-column", default="label",
                        help="name of the binary label column (default: label)")
    parser.add_argument("--keep-columns",
                        help="comma-separated feature columns to keep (default: all)")


def _add_train_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trainer", choices=("fdo", "bp"), default="fdo")
    parser.add_argument("--preset", choices=tuple(TRAINING_PRESETS), default="short",
                        help="search budget: short = 40 scouts x 75 iterations, "
                             "long = 40 x 200")
    parser.add_argument("--population", type=int, help="scout count (overrides preset)")
    parser.add_argument("--iterations", type=int,
                        help="iteration budget (overrides preset)")
    parser.add_argument("--weight-factor", type=float, default=0.0)
    parser.add_argument("--bounds", type=float, nargs=2, default=[-10.0, 10.0],
                        metavar=("LOWER", "UPPER"),
                        help="search box for every weight (default: -10 10)")
    parser.add_argument("--hidden", type=int,
                        help="hidden units (default: 2 * features + 1)")
    parser.add_argument("--threshold", type=float, default=0.5,
                        help="decision threshold on the output unit")
    parser.add_argument("--output-activation", choices=("sigmoid", "linear"),
                        default="sigmoid",
                        help="output-unit activation for training and scoring")
    parser.add_argument("--learning-rate", type=float, default=0.5,
                        help="backpropagation step size")
    parser.add_argument("--epochs", type=int, default=5000,
                        help="backpropagation epochs")


def build_parser() -> argparse.ArgumentParser:
    # Abbreviated flags are refused: _apply_config only recognises a flag
    # given by its full name, so a prefix would lose to the config file.
    parser = argparse.ArgumentParser(
        prog="fdo-mlp", allow_abbrev=False,
        description="Train and evaluate MLP classifiers with the fitness "
                    "dependent optimizer.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", allow_abbrev=False,
                       help="write a synthetic two-cluster dataset")
    p.add_argument("--samples", type=int, default=287)
    p.add_argument("--features", type=int, default=18)
    p.add_argument("--separation", type=float, default=6.0,
                   help="distance between the class means")
    p.add_argument("--balance", type=float, default=183 / 287,
                   help="fraction of class-1 rows")
    p.add_argument("--out", help="output CSV path (default: OUT_DIR/dataset.csv)")
    _add_common(p)

    p = sub.add_parser("train", allow_abbrev=False,
                       help="train a classifier and write model, convergence "
                            "curve and metrics")
    _add_data_args(p)
    _add_train_args(p)
    _add_common(p)

    p = sub.add_parser("evaluate", allow_abbrev=False,
                       help="score a saved model against a dataset")
    p.add_argument("--model", required=True, help="model file written by train")
    _add_data_args(p)
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--output-activation", choices=("sigmoid", "linear"),
                   default="sigmoid",
                   help="must match the activation the model was trained with")
    _add_common(p)

    p = sub.add_parser("crossval", allow_abbrev=False, help="k-fold cross-validation")
    _add_data_args(p)
    p.add_argument("--k", type=int, default=5, help="fold count (default 5)")
    _add_train_args(p)
    _add_common(p)

    p = sub.add_parser("benchmark", allow_abbrev=False,
                       help="run the optimizer on a test function")
    p.add_argument("--function", choices=tuple(benchmark_names()), default="sphere")
    p.add_argument("--dimension", type=int, default=10)
    p.add_argument("--population", type=int, default=30)
    p.add_argument("--iterations", type=int, default=500)
    p.add_argument("--weight-factor", type=float, default=0.0)
    p.add_argument("--repeats", type=int, default=10,
                   help="independent runs with derived seeds")
    _add_common(p)

    return parser


# ----------------------------------------------------------------------
# Data and configuration assembly
# ----------------------------------------------------------------------

def _load_dataset(args: argparse.Namespace, normalize: bool) -> LabeledDataset:
    data = load_csv(args.data, args.label_column)
    if args.keep_columns:
        keep = [name.strip() for name in args.keep_columns.split(",") if name.strip()]
        data = select_features(data, keep)
    return min_max_normalize(data) if normalize else data


def _resolve_budget(args: argparse.Namespace) -> tuple[int, int]:
    population, iterations = TRAINING_PRESETS[args.preset]
    if args.population is not None:
        population = args.population
    if args.iterations is not None:
        iterations = args.iterations
    return population, iterations


def _training_config(args: argparse.Namespace, n_features: int) -> TrainingConfig:
    hidden = args.hidden if args.hidden is not None else hidden_size_rule(n_features)
    topology = MlpTopology(inputs=n_features, hidden=hidden, outputs=1)
    population, iterations = _resolve_budget(args)
    return TrainingConfig.for_topology(
        topology, population=population, max_iterations=iterations,
        weight_factor=args.weight_factor,
        weight_bounds=(args.bounds[0], args.bounds[1]),
        seed=args.seed, threshold=args.threshold,
        sigmoid_output=args.output_activation == "sigmoid")


def _metric_values(report) -> str:
    return ",".join(_fmt(getattr(report, name)) for name in METRIC_NAMES)


def _print_metrics(report) -> None:
    for name in METRIC_NAMES:
        value = getattr(report, name)
        raw = "" if value is None else f"  (raw {value:.6f})"
        print(f"  {name:<12} {format_metric(value)}{raw}")


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------

def cmd_generate(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(args.seed)
    data = generate_synthetic(args.samples, args.features, args.separation,
                              args.balance, rng)
    out = Path(args.out) if args.out else Path(args.out_dir) / "dataset.csv"
    save_csv(data, out, label_column="label")
    positives = int(np.sum(data.labels == 1))
    print(f"wrote {data.n_samples} samples x {data.n_features} features to {out} "
          f"({positives} positive / {data.n_samples - positives} negative)")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    data = _load_dataset(args, normalize=True)
    config = _training_config(args, data.n_features)
    if args.trainer == "fdo":
        model = train_fdo_mlp(data, config)
    else:
        model = train_bp_mlp(data, config.topology, args.learning_rate,
                             args.epochs, np.random.default_rng(args.seed),
                             sigmoid_output=config.sigmoid_output)
    _, rate, _, report = score(model.params, data, args.threshold,
                               config.sigmoid_output)

    out_dir = Path(args.out_dir)
    write_text_atomic(out_dir / "model.txt", params_to_text(model.params))
    curve_lines = ["iteration,best_mse"]
    curve_lines += [f"{i + 1},{v!r}" for i, v in enumerate(model.curve.values)]
    write_text_atomic(out_dir / "convergence.csv", "\n".join(curve_lines) + "\n")
    write_text_atomic(out_dir / "metrics.csv",
                      ",".join(METRIC_NAMES) + "\n" + _metric_values(report) + "\n")

    print(f"trainer={args.trainer}  train_mse={model.train_mse:.6f}  "
          f"classification_rate={rate:.4f}")
    print(f"model: {out_dir / 'model.txt'}")
    print(f"convergence: {out_dir / 'convergence.csv'}")
    print(f"metrics: {out_dir / 'metrics.csv'}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    params = load_params(args.model)
    data = _load_dataset(args, normalize=True)
    if data.n_features != params.topology.inputs:
        raise CliError(
            f"dataset has {data.n_features} features but the model expects "
            f"{params.topology.inputs}")
    _, _, cm, report = score(params, data, args.threshold,
                             args.output_activation == "sigmoid")
    print("confusion matrix (class 1 positive):")
    print(f"  tp={cm.tp}  fp={cm.fp}")
    print(f"  fn={cm.fn}  tn={cm.tn}")
    _print_metrics(report)
    return 0


def _crossval_csvs(report: CrossValReport, success: ClassSuccessReport) -> dict[str, str]:
    fold_lines = ["fold,role,samples,mse,classification_rate"]
    for f in report.folds:
        fold_lines.append(f"{f.fold},training,{f.train_size},{f.train_mse!r},{f.train_rate!r}")
        fold_lines.append(f"{f.fold},testing,{f.test_size},{f.test_mse!r},{f.test_rate!r}")
    fold_lines.append(f"average,training,,{report.avg_train_mse!r},{report.avg_train_rate!r}")
    fold_lines.append(f"average,testing,,{report.avg_test_mse!r},{report.avg_test_rate!r}")

    success_lines = ["fold,class,total,correct,success_rate"]
    for i, (positive, negative) in enumerate(success.per_fold, start=1):
        success_lines.append(f"{i},positive,{positive.total},{positive.correct},{_fmt(positive.rate)}")
        success_lines.append(f"{i},negative,{negative.total},{negative.correct},{_fmt(negative.rate)}")
    tp, tn = success.total_positive, success.total_negative
    success_lines.append(f"total,positive,{tp.total},{tp.correct},{_fmt(tp.rate)}")
    success_lines.append(f"total,negative,{tn.total},{tn.correct},{_fmt(tn.rate)}")

    metric_lines = ["fold," + ",".join(METRIC_NAMES)]
    metric_lines += [f"{f.fold},{_metric_values(f.metrics)}" for f in report.folds]
    metric_lines.append(f"average,{_metric_values(report.average_metrics())}")

    return {
        "folds.csv": "\n".join(fold_lines) + "\n",
        "class_success.csv": "\n".join(success_lines) + "\n",
        "fold_metrics.csv": "\n".join(metric_lines) + "\n",
    }


def cmd_crossval(args: argparse.Namespace) -> int:
    if args.k < 2:
        raise CliError("crossval needs k >= 2")
    data = _load_dataset(args, normalize=False)
    config = _training_config(args, data.n_features)
    train = None if args.trainer == "fdo" else bp_trainer(args.learning_rate, args.epochs)
    report = cross_validate(data, args.k, config, train=train)
    success = per_class_success([f.confusion for f in report.folds])

    out_dir = Path(args.out_dir)
    for name, text in _crossval_csvs(report, success).items():
        write_text_atomic(out_dir / name, text)

    print(f"{args.k}-fold cross-validation ({args.trainer} trainer)")
    print("fold  role      samples  mse         rate")
    for f in report.folds:
        print(f"{f.fold:>4}  training  {f.train_size:>7}  {f.train_mse:.7f}  {f.train_rate * 100:6.2f} %")
        print(f"{' ':>4}  testing   {f.test_size:>7}  {f.test_mse:.7f}  {f.test_rate * 100:6.2f} %")
    print(f" avg  training  {'':>7}  {report.avg_train_mse:.7f}  {report.avg_train_rate * 100:6.2f} %")
    print(f" avg  testing   {'':>7}  {report.avg_test_mse:.7f}  {report.avg_test_rate * 100:6.2f} %")
    print("average test metrics:")
    _print_metrics(report.average_metrics())
    print(f"reports written to {out_dir}")
    return 0


def cmd_benchmark(args: argparse.Namespace) -> int:
    bench = get_benchmark(args.function, args.dimension)
    bounds = uniform_bounds(bench.default_bounds[0], bench.default_bounds[1],
                            args.dimension)
    bests: list[float] = []
    curve_lines = ["run,iteration,best_value"]
    for run in range(args.repeats):
        config = FdoConfig(bounds=bounds, population=args.population,
                           max_iterations=args.iterations,
                           weight_factor=args.weight_factor,
                           seed=args.seed + run)
        result = optimize(bench.evaluate, config)
        bests.append(result.best_fitness)
        for i, value in enumerate(result.curve.values):
            curve_lines.append(f"{run + 1},{i + 1},{value!r}")
    stats = run_statistics(bests, higher_is_better=False)

    out_dir = Path(args.out_dir)
    stats_text = ("avg,std,best,worst\n"
                  f"{stats.avg!r},{stats.std!r},{stats.best!r},{stats.worst!r}\n")
    write_text_atomic(out_dir / "statistics.csv", stats_text)
    write_text_atomic(out_dir / "curves.csv", "\n".join(curve_lines) + "\n")

    print(f"{bench.name} d={args.dimension}: {args.repeats} runs, "
          f"{args.population} scouts x {args.iterations} iterations")
    print(f"  avg={stats.avg:.6g}  std={stats.std:.6g}  "
          f"best={stats.best:.6g}  worst={stats.worst:.6g}")
    print(f"reports written to {out_dir}")
    return 0


_COMMANDS = {
    "generate": cmd_generate,
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "crossval": cmd_crossval,
    "benchmark": cmd_benchmark,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    subparser = next(
        action for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)).choices[args.command]
    try:
        _apply_config(args, subparser, argv)
        return _COMMANDS[args.command](args)
    except (CliError, ValueError, OSError, EvaluationError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
