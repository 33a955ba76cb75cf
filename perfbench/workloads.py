"""The benchmark's workloads: CLI arguments, captured results and checks.

Each workload is one ``fdo-mlp`` command. Its inputs come from the
benchmark seed only: the crossval workloads read a CSV the ``generate``
command writes, and every command gets a ``--seed`` derived from the
benchmark seed. Seed 0 reproduces acceptance criteria 7 (data seed 7,
search seed 11) and 4 (sphere seeds 0-9).
"""

from __future__ import annotations

import hashlib
import math
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

FOLD_TEST_SIZES = [57, 57, 57, 58, 58]
MIN_TEST_ACCURACY = 0.90
MAX_SPHERE_BEST = 1e-3
SPHERE_REPEATS, SPHERE_ITERATIONS = 10, 500


@dataclass
class Capture:
    """Results the optimizer and the backprop trainer hand back to the CLI.

    The CLI does not write them, so the benchmark records them at the same
    attributes the tracer uses. This adds one Python call per search, not
    per evaluation, and reads no clock.
    """

    searches: list = field(default_factory=list)   # OptimizationResult, FdoConfig
    bp_models: list = field(default_factory=list)  # TrainedModel

    def replacements(self, modules: dict):
        def optimize(fn):
            def wrapped(objective, config, rng=None):
                result = fn(objective, config, rng)
                self.searches.append((result, config))
                return result
            return wrapped

        def train_bp_mlp(fn):
            def wrapped(*args, **kwargs):
                model = fn(*args, **kwargs)
                self.bp_models.append(model)
                return model
            return wrapped

        return [(modules["cli"], "optimize", optimize),
                (modules["training"], "optimize", optimize),
                (modules["training"], "train_bp_mlp", train_bp_mlp)]

    def curves(self) -> list[tuple[float, ...]]:
        return ([r.curve.values for r, _ in self.searches]
                + [m.curve.values for m in self.bp_models])

    @property
    def evaluations(self) -> int:
        """Objective evaluations: the optimizer's count, or for backprop one
        training-loss evaluation per epoch plus the initial one."""
        return (sum(r.evaluations for r, _ in self.searches)
                + sum(len(m.curve) + 1 for m in self.bp_models))

    @property
    def epochs(self) -> int:
        """Convergence-curve rows: optimizer iterations or backprop epochs."""
        return sum(len(curve) for curve in self.curves())

    @property
    def bp_epochs(self) -> int:
        return sum(len(m.curve) for m in self.bp_models)

    def search_counts(self) -> tuple[int, int, int]:
        """(evaluations, evaluations without retries, first proposals)."""
        evaluations = sum(r.evaluations for r, _ in self.searches)
        base = sum(c.population * (r.iterations_run + 1) for r, c in self.searches)
        slots = sum(c.population * r.iterations_run for r, c in self.searches)
        return evaluations, base, slots


def _non_increasing(values) -> bool:
    return all(b <= a for a, b in zip(values, values[1:]))


def _read_csv(path: Path) -> list[list[str]]:
    return [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()]


def _number(cell: str) -> float | None:
    """Parse a metric cell; ``n/a`` (undefined metric) reads as None."""
    return None if cell == "n/a" else float(cell)


def _crossval_results(out_dir: Path) -> dict[str, float]:
    rows = _read_csv(out_dir / "folds.csv")
    average = next(r for r in rows if r[:2] == ["average", "testing"])
    return {"test_accuracy": float(average[4]), "test_mse": float(average[3])}


def _check_crossval(out_dir: Path, capture: Capture, min_accuracy: float | None) -> list[str]:
    problems = []
    folds = _read_csv(out_dir / "folds.csv")
    sizes = [int(r[2]) for r in folds[1:] if r[1] == "testing" and r[0] != "average"]
    if sizes != FOLD_TEST_SIZES:
        problems.append(f"fold test sizes {sizes}, expected {FOLD_TEST_SIZES}")
    cells = [c for r in folds[1:] for c in r[3:]]
    cells += [c for r in _read_csv(out_dir / "fold_metrics.csv")[1:] for c in r[1:]]
    values = [_number(c) for c in cells]
    if any(v is not None and not math.isfinite(v) for v in values):
        problems.append("non-finite value in folds.csv or fold_metrics.csv")
    accuracy = _crossval_results(out_dir)["test_accuracy"]
    if min_accuracy is not None and not accuracy >= min_accuracy:
        problems.append(f"test accuracy {accuracy!r} below {min_accuracy}")
    curves = capture.curves()
    if len(curves) != len(FOLD_TEST_SIZES):
        problems.append(f"{len(curves)} training curves, expected {len(FOLD_TEST_SIZES)}")
    if not all(_non_increasing(c) for c in curves):
        problems.append("a training curve increases")
    return problems


def _sphere_runs(out_dir: Path) -> dict[str, list[float]]:
    """curves.csv as run -> best value after each iteration."""
    runs: dict[str, list[float]] = {}
    for run, _, value in _read_csv(out_dir / "curves.csv")[1:]:
        runs.setdefault(run, []).append(float(value))
    return runs


def _sphere_results(out_dir: Path) -> dict[str, float]:
    finals = [values[-1] for values in _sphere_runs(out_dir).values()]
    return {"best_value": statistics.median(finals)}


def _check_sphere(out_dir: Path, capture: Capture) -> list[str]:
    problems = []
    runs = _sphere_runs(out_dir)
    if len(runs) != SPHERE_REPEATS or any(len(v) != SPHERE_ITERATIONS for v in runs.values()):
        problems.append("curves.csv does not hold 10 runs of 500 iterations")
    if not all(_non_increasing(v) for v in runs.values()):
        problems.append("a curve in curves.csv increases")
    finals = [v[-1] for v in runs.values()]
    stats = _read_csv(out_dir / "statistics.csv")[1]
    if finals and (float(stats[2]) != min(finals) or float(stats[3]) != max(finals)):
        problems.append("statistics.csv best/worst disagree with curves.csv")
    best = statistics.median(finals) if finals else math.inf
    if not best < MAX_SPHERE_BEST:
        problems.append(f"median best value {best!r} not below {MAX_SPHERE_BEST}")
    if [r.best_fitness for r, _ in capture.searches] != finals:
        problems.append("curves.csv final values differ from the optimizer's results")
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    command: Callable[[int, Path, Path], list[str]]
    dataset: Callable[[int, Path], list[str]] | None
    check: Callable[[Path, Capture], list[str]]
    results: Callable[[Path], dict[str, float]]
    digest_files: tuple[str, ...]

    def digest(self, out_dir: Path) -> dict[str, str]:
        """sha256 of each deterministic output file."""
        return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
                for name in self.digest_files}


def _generate(seed: int, data: Path) -> list[str]:
    return ["generate", "--samples", "287", "--features", "18",
            "--separation", "6", "--balance", repr(183 / 287),
            "--seed", str(7 + seed), "--out", str(data)]


def _crossval(trainer_args: list[str]) -> Callable[[int, Path, Path], list[str]]:
    def command(seed: int, data: Path, out_dir: Path) -> list[str]:
        return (["crossval", "--data", str(data), "--k", "5"] + trainer_args
                + ["--seed", str(11 + seed), "--out-dir", str(out_dir)])
    return command


def _sphere(seed: int, data: Path, out_dir: Path) -> list[str]:
    return ["benchmark", "--function", "sphere", "--dimension", "10",
            "--population", "30", "--iterations", str(SPHERE_ITERATIONS),
            "--repeats", str(SPHERE_REPEATS), "--seed", str(SPHERE_REPEATS * seed),
            "--out-dir", str(out_dir)]


_CROSSVAL_FILES = ("folds.csv", "fold_metrics.csv")

WORKLOADS = {
    "crossval-fdo": Workload(
        "crossval-fdo",
        _crossval(["--trainer", "fdo", "--population", "40", "--iterations", "75"]),
        _generate,
        lambda out, capture: _check_crossval(out, capture, MIN_TEST_ACCURACY),
        _crossval_results, _CROSSVAL_FILES),
    "crossval-bp": Workload(
        "crossval-bp",
        _crossval(["--trainer", "bp", "--output-activation", "linear",
                   "--learning-rate", "0.5", "--epochs", "5000"]),
        _generate,
        lambda out, capture: _check_crossval(out, capture, None),
        _crossval_results, _CROSSVAL_FILES),
    "sphere-fdo": Workload(
        "sphere-fdo", _sphere, None, _check_sphere, _sphere_results,
        ("curves.csv", "statistics.csv")),
}
