"""Command-line interface.

Five commands: ``generate`` (synthetic dataset), ``train`` (FDO or
backpropagation), ``evaluate`` (saved model against a dataset), ``crossval``
(k-fold cross-validation) and ``benchmark`` (optimizer on a classical test
function). Every command accepts ``--config FILE`` with one ``key = value``
per line (``#`` starts a comment); keys mirror the long flags that take a
value and explicit flags win over the file. Unknown and repeated keys are
rejected with the file and line, and a required value (``data``, ``model``)
may come from either place. Seeds default to a fixed constant so runs are
reproducible out of the box, and all file output is written to a temporary
file and renamed into place.

After its parameters, ``model.txt`` records in the config format the columns,
scaling, output activation and threshold that ``evaluate`` replays; a model
file without them is rejected, naming the file.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from .benchmarks import benchmark_names, get_benchmark
from .data import (LabeledDataset, NormalizationState, ScaleOverflowError, csv_data_line,
                   generate_synthetic, load_csv, min_max_normalize, normalize_with,
                   parse_key_values, read_text, save_csv, select_features,
                   write_text_atomic)
from .evaluation import (METRIC_NAMES, ConfusionMatrix, CrossValReport, Trainer,
                         bp_trainer, cross_validate, format_metric, metrics, score)
from .fdo import DEFAULT_SEED, EvaluationError, FdoConfig, optimize, uniform_bounds
from .mlp import MlpTopology, hidden_size_rule, params_from_text, params_to_text
from .training import TrainingConfig, check_threshold, run_statistics, train_fdo_mlp


class CliError(Exception):
    """User-facing failure; the message is printed and the command exits 1."""


def _fmt(value) -> str:
    return "n/a" if value is None else repr(float(value))


def finite_float(text: str) -> float:
    """Type of every float flag. It raises ValueError, not argparse's own
    error type, so a config file value fails with its key named too."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


# ----------------------------------------------------------------------
# Configuration files
# ----------------------------------------------------------------------

def _convert_config_value(action: argparse.Action, where: str, raw: str):
    convert = action.type if action.type is not None else str
    tokens = raw.split() if action.nargs else [raw]
    if action.nargs and len(tokens) != action.nargs:
        raise CliError(f"{where}: expected {action.nargs} values, got {raw!r}")
    try:
        values = [convert(token) for token in tokens]
    except ValueError:
        raise CliError(f"{where}: cannot parse {raw!r}") from None
    for value in values:
        if action.choices is not None and value not in action.choices:
            raise CliError(
                f"{where}: {value!r} is not one of "
                f"{', '.join(map(str, action.choices))}")
    return values if action.nargs else values[0]


def _convert_entries(entries: dict, source: str, actions: dict) -> dict:
    """:func:`parse_key_values` entries converted by their destination's action."""
    values = {}
    for dest, (line_no, key, raw) in entries.items():
        where = f"{source}: line {line_no}"
        if dest not in actions:
            raise CliError(f"{where}: unknown configuration key {key!r}")
        values[dest] = _convert_config_value(
            actions[dest], f"{where}: configuration key {key!r}", raw)
    return values


def _config_defaults(path: str, parser: argparse.ArgumentParser) -> dict:
    """The config file's values, converted as their flags would be, keyed by
    destination: defaults for ``parser``, so explicit flags win. The keys
    are the options that take a value, other than ``--config``."""
    try:
        lines = read_text(path).splitlines()
    except OSError as err:
        raise CliError(f"cannot read config file {path}: {err}") from err
    actions = {a.dest: a for a in parser._actions
               if a.nargs != 0 and a.dest != "config"}
    return _convert_entries(parse_key_values(lines, path), path, actions)


def _check_required(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    """argparse cannot require --data or --model, which the config file may
    give; one that neither gives is a usage error (exit 2) after the merge."""
    given = vars(args)
    missing = [f"--{dest}" for dest in ("data", "model")
               if dest in given and given[dest] is None]
    if missing:
        parser.error(f"the following arguments are required: {', '.join(missing)}")


# ----------------------------------------------------------------------
# Shared argument groups
# ----------------------------------------------------------------------

def _add_run_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"random seed (default {DEFAULT_SEED})")
    parser.add_argument("--out-dir", default="out",
                        help="directory for output files (default: out)")


def _add_data_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--data", help="CSV dataset path (required)")
    parser.add_argument("--label-column", default="label",
                        help="name of the binary label column (default: label)")


def _add_train_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--keep-columns", type=_column_names,
                        help="comma-separated feature columns to keep (default: all)")
    parser.add_argument("--trainer", choices=("fdo", "bp"), default="fdo")
    parser.add_argument("--population", type=int, default=40,
                        help="scout count (default 40)")
    parser.add_argument("--iterations", type=int, default=75,
                        help="iteration budget (default 75)")
    parser.add_argument("--weight-factor", type=finite_float, default=0.0)
    parser.add_argument("--bounds", type=finite_float, nargs=2, default=[-10.0, 10.0],
                        metavar=("LOWER", "UPPER"),
                        help="search box for every weight (default: -10 10); no bound may "
                             "pass 2**127 / (max(features, hidden) + 1), the reach of the "
                             "float32 objective")
    parser.add_argument("--hidden", type=int,
                        help="hidden units (default: 2 * features + 1)")
    parser.add_argument("--threshold", type=finite_float, default=0.5,
                        help="decision threshold on the output unit (default 0.5)")
    parser.add_argument("--output-activation", choices=("sigmoid", "linear"),
                        default="sigmoid",
                        help="output-unit activation (default: sigmoid)")
    parser.add_argument("--learning-rate", type=finite_float, default=0.5,
                        help="backpropagation step size")
    parser.add_argument("--epochs", type=int, default=5000,
                        help="backpropagation epochs")


def build_parser() -> argparse.ArgumentParser:
    # Abbreviated flags are refused: a flag is spelled like its config key,
    # and a flag added later cannot change what a prefix means.
    parser = argparse.ArgumentParser(
        prog="fdo-mlp", allow_abbrev=False,
        description="Train and evaluate MLP classifiers with the fitness "
                    "dependent optimizer.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", allow_abbrev=False,
                       help="write a synthetic two-cluster dataset")
    p.add_argument("--samples", type=int, default=287)
    p.add_argument("--features", type=int, default=18)
    p.add_argument("--separation", type=finite_float, default=6.0,
                   help="distance between the class means")
    p.add_argument("--balance", type=finite_float, default=183 / 287,
                   help="fraction of class-1 rows")
    p.add_argument("--out", help="output CSV path (default: OUT_DIR/dataset.csv)")
    _add_run_args(p)

    p = sub.add_parser("train", allow_abbrev=False,
                       help="train a classifier and write model, convergence "
                            "curve and metrics")
    _add_data_args(p)
    _add_train_args(p)
    _add_run_args(p)

    p = sub.add_parser("evaluate", allow_abbrev=False,
                       help="score a saved model against a dataset as trained")
    p.add_argument("--model", help="model file written by train (required)")
    _add_data_args(p)

    p = sub.add_parser("crossval", allow_abbrev=False, help="k-fold cross-validation")
    _add_data_args(p)
    p.add_argument("--k", type=int, default=5, help="fold count (default 5)")
    _add_train_args(p)
    _add_run_args(p)

    p = sub.add_parser("benchmark", allow_abbrev=False,
                       help="run the optimizer on a test function")
    p.add_argument("--function", choices=tuple(benchmark_names()), default="sphere")
    p.add_argument("--dimension", type=int, default=10)
    p.add_argument("--population", type=int, default=30)
    p.add_argument("--iterations", type=int, default=500)
    p.add_argument("--weight-factor", type=finite_float, default=0.0)
    p.add_argument("--repeats", type=int, default=10,
                   help="independent runs with derived seeds")
    _add_run_args(p)

    for p in sub.choices.values():
        p.add_argument("--config", help="key = value configuration file")
    return parser


# ----------------------------------------------------------------------
# Data and configuration assembly
# ----------------------------------------------------------------------

def _column_names(text: str) -> list[str]:
    return [name.strip() for name in text.split(",") if name.strip()]


def _load_dataset(path: str, label_column: str, keep: list[str] | None) -> LabeledDataset:
    """A CSV's dataset, narrowed to the ``keep`` columns when given; each
    :func:`select_features` error names the file."""
    data = load_csv(path, label_column)
    if keep is None:
        return data
    try:
        return select_features(data, keep)
    except ValueError as err:
        raise CliError(f"{path}: {err}") from None


def _check_ranges(path: str, line: int, names, mins, maxs) -> None:
    """Reject min-max ranges that scaling cannot replay: reversed ones, and
    widths that overflow. ``maxs == mins``, which a constant training column
    writes, scales to 0 and stays; a narrow range fails only on a CSV value
    that scaling carries past the float range."""
    for name, lo, hi in zip(names, mins, maxs):
        width = hi - lo
        if width < 0.0:
            problem = f"is below its mins {lo!r}"
        elif not math.isfinite(width):
            problem = f"minus its mins {lo!r} overflows"
        else:
            continue
        raise CliError(f"{path}: line {line}: maxs {hi!r} of column {name!r} {problem}")


def _read_model(path: str):
    """Params, columns, normalization, sigmoid output, threshold of a model file."""
    text = read_text(path)
    params = params_from_text(text, source=path)
    entries = parse_key_values(text.splitlines()[2:], path, first_line=3)
    inputs = params.topology.inputs
    train = argparse.ArgumentParser()
    _add_train_args(train)
    actions = {a.dest: a for a in train._actions
               if a.dest in ("keep_columns", "output_activation", "threshold")}
    for dest in ("mins", "maxs"):
        actions[dest] = argparse.Action([], dest, nargs=inputs, type=finite_float)
    values = _convert_entries(entries, path, actions)
    missing = [dest.replace("_", "-") for dest in actions if dest not in values]
    if missing:
        raise CliError(f"{path}: no {missing[0]!r} key after line 2")
    names = values["keep_columns"]
    columns_line = entries["keep_columns"][0]
    if len(names) != inputs:
        raise CliError(f"{path}: line {columns_line}: {len(names)} columns for a model "
                       f"of {inputs} inputs")
    for i, name in enumerate(names):
        if name in names[:i]:
            raise CliError(f"{path}: line {columns_line}: column {name!r} is kept "
                           "more than once")
    sigmoid_output = values["output_activation"] == "sigmoid"
    try:
        check_threshold(values["threshold"], sigmoid_output)
    except ValueError as err:
        raise CliError(f"{path}: line {entries['threshold'][0]}: {err}") from None
    _check_ranges(path, entries["maxs"][0], names, values["mins"], values["maxs"])
    state = NormalizationState(np.array(values["mins"]), np.array(values["maxs"]))
    return params, names, state, sigmoid_output, values["threshold"]


def _training_config(args: argparse.Namespace, n_features: int) -> TrainingConfig:
    hidden = args.hidden if args.hidden is not None else hidden_size_rule(n_features)
    topology = MlpTopology(inputs=n_features, hidden=hidden, outputs=1)
    return TrainingConfig.for_topology(
        topology, population=args.population, max_iterations=args.iterations,
        weight_factor=args.weight_factor,
        weight_bounds=(args.bounds[0], args.bounds[1]),
        seed=args.seed, threshold=args.threshold,
        sigmoid_output=args.output_activation == "sigmoid")


def _trainer(args: argparse.Namespace) -> Trainer | None:
    """Backprop for ``--trainer bp``; None for FDO, cross_validate's default."""
    return bp_trainer(args.learning_rate, args.epochs) if args.trainer == "bp" else None


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
    if args.seed < 0:
        raise CliError("seed must be non-negative")
    rng = np.random.default_rng(args.seed)
    data = generate_synthetic(args.samples, args.features, args.separation,
                              args.balance, rng)
    out = Path(args.out) if args.out else Path(args.out_dir) / "dataset.csv"
    save_csv(data, out)
    positives = int(np.sum(data.labels == 1))
    print(f"wrote {data.n_samples} samples x {data.n_features} features to {out} "
          f"({positives} positive / {data.n_samples - positives} negative)")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    data = min_max_normalize(_load_dataset(args.data, args.label_column, args.keep_columns))
    for name in data.column_names:
        # splitlines leaves exactly [name] unless name is empty or breaks a line
        if "," in name or name.splitlines() != [name]:
            raise CliError(f"{args.data}: column {name!r}: model.txt cannot record a column "
                           "name with a comma or a line break, or an empty one")
    config = _training_config(args, data.n_features)
    # for FDO this is the stream optimize draws from config.seed
    train = _trainer(args) or train_fdo_mlp
    model = train(data, config, np.random.default_rng(args.seed))
    _, rate, _, report = score(model.params, data, args.threshold,
                               config.sigmoid_output)

    state = data.normalization
    settings = (f"keep-columns = {','.join(data.column_names)}\n"
                f"mins = {' '.join(map(repr, state.mins.tolist()))}\n"
                f"maxs = {' '.join(map(repr, state.maxs.tolist()))}\n"
                f"output-activation = {args.output_activation}\n"
                f"threshold = {args.threshold!r}\n")
    out_dir = Path(args.out_dir)
    write_text_atomic(out_dir / "model.txt", params_to_text(model.params) + settings)
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
    params, names, state, sigmoid_output, threshold = _read_model(args.model)
    data = normalize_with(_load_dataset(args.data, args.label_column, names), state)
    _, _, cm, report = score(params, data, threshold, sigmoid_output)
    print("confusion matrix (class 1 positive):")
    print(f"  tp={cm.tp}  fp={cm.fp}")
    print(f"  fn={cm.fn}  tn={cm.tn}")
    _print_metrics(report)
    return 0


def _crossval_csvs(report: CrossValReport) -> dict[str, str]:
    fold_lines = ["fold,role,samples,mse,classification_rate"]
    for f in report.folds:
        fold_lines.append(f"{f.fold},training,{f.train_size},{f.train_mse!r},{f.train_rate!r}")
        fold_lines.append(f"{f.fold},testing,{f.test_size},{f.test_mse!r},{f.test_rate!r}")
    fold_lines.append(f"average,training,,{report.avg_train_mse!r},{report.avg_train_rate!r}")
    fold_lines.append(f"average,testing,,{report.avg_test_mse!r},{report.avg_test_rate!r}")

    # Per class: its rows, those classified correctly, and their share, which
    # is the fold's sensitivity or specificity; the totals pool the counts.
    pooled = ConfusionMatrix(*(sum(getattr(f.confusion, name) for f in report.folds)
                               for name in ("tp", "fp", "fn", "tn")))
    success_lines = ["fold,class,total,correct,success_rate"]
    for fold, cm, rates in ([(f.fold, f.confusion, f.metrics) for f in report.folds]
                            + [("total", pooled, metrics(pooled))]):
        success_lines.append(f"{fold},positive,{cm.tp + cm.fn},{cm.tp},{_fmt(rates.sensitivity)}")
        success_lines.append(f"{fold},negative,{cm.tn + cm.fp},{cm.tn},{_fmt(rates.specificity)}")

    metric_lines = ["fold," + ",".join(METRIC_NAMES)]
    metric_lines += [f"{f.fold},{_metric_values(f.metrics)}" for f in report.folds]
    metric_lines.append(f"average,{_metric_values(report.average_metrics())}")

    return {
        "folds.csv": "\n".join(fold_lines) + "\n",
        "class_success.csv": "\n".join(success_lines) + "\n",
        "fold_metrics.csv": "\n".join(metric_lines) + "\n",
    }


def cmd_crossval(args: argparse.Namespace) -> int:
    data = _load_dataset(args.data, args.label_column, args.keep_columns)
    config = _training_config(args, data.n_features)
    report = cross_validate(data, args.k, config, train=_trainer(args))

    out_dir = Path(args.out_dir)
    for name, text in _crossval_csvs(report).items():
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
    if args.repeats < 1:
        raise CliError("repeats must be at least 1")
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

# How each command that scales the --data CSV words a value that its min-max
# scaling carries past the float range.
_OVERFLOW_PHRASES = {
    "train": "scales past the float range under min-max scaling",
    "crossval": "scales past the float range under its fold's min-max scaling",
    "evaluate": "leaves the model's range: scaling it by the model's mins and maxs "
                "overflows",
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    subparser = next(
        action for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)).choices[args.command]
    try:
        if args.config is not None:
            subparser.set_defaults(**_config_defaults(args.config, subparser))
            args = parser.parse_args(argv)
        _check_required(args, subparser)
        try:
            return _COMMANDS[args.command](args)
        except ScaleOverflowError as err:
            line = csv_data_line(args.data, err.row)
            raise CliError(f"{args.data}: line {line}, column {err.column!r}: "
                           f"{err.value!r} {_OVERFLOW_PHRASES[args.command]}") from None
    except (CliError, ValueError, OSError, EvaluationError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
