"""Binary classification evaluation and k-fold cross-validation.

Class 1 ("passed") is the positive class throughout. Metrics with a zero
denominator are reported as undefined (``None``) rather than silently
flattering a degenerate classifier; the display helpers render them as
"n/a". Reported 2-decimal values are truncated, not rounded, matching the
reporting convention used elsewhere in this package's tables.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace
from functools import partial
from typing import Callable

import numpy as np

from . import training
from .data import LabeledDataset, ScaleOverflowError, min_max_normalize, normalize_with
from .mlp import MlpParams, forward_batch, output_labels
from .training import (TrainedModel, TrainingConfig, check_bp_settings, output_mse,
                       train_fdo_mlp)
from .training import mse_fitness  # noqa: F401  unused, but perfbench/tracing.py patches it


@dataclass(frozen=True)
class ConfusionMatrix:
    """Counts with class 1 positive: tp, fp, fn, tn."""

    tp: int
    fp: int
    fn: int
    tn: int

    def __post_init__(self):
        if min(self.tp, self.fp, self.fn, self.tn) < 0:
            raise ValueError("confusion matrix counts must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


@dataclass(frozen=True)
class MetricsReport:
    """The five ratio metrics plus an optional ranking AUC.

    Each field is ``None`` when its denominator is zero (or, for AUC, when
    only one class is present).
    """

    sensitivity: float | None
    specificity: float | None
    ppv: float | None
    npv: float | None
    accuracy: float | None
    auc: float | None = None


#: The report's fields in order: the columns of every metrics file and table.
METRIC_NAMES = tuple(field.name for field in fields(MetricsReport))


def confusion_matrix(predicted, actual) -> ConfusionMatrix:
    """Tally predictions against true labels; both must be 0/1 sequences."""
    predicted = np.asarray(predicted, dtype=int)
    actual = np.asarray(actual, dtype=int)
    if predicted.shape != actual.shape or predicted.ndim != 1:
        raise ValueError("predicted and actual must be 1-D sequences of equal length")
    for name, arr in (("predicted", predicted), ("actual", actual)):
        if arr.size and not np.isin(arr, (0, 1)).all():
            raise ValueError(f"{name} labels must be binary (0 or 1)")
    return ConfusionMatrix(
        tp=int(np.sum((predicted == 1) & (actual == 1))),
        fp=int(np.sum((predicted == 1) & (actual == 0))),
        fn=int(np.sum((predicted == 0) & (actual == 1))),
        tn=int(np.sum((predicted == 0) & (actual == 0))),
    )


def _ratio(numerator: int, denominator: int) -> float | None:
    return None if denominator == 0 else numerator / denominator


def metrics(cm: ConfusionMatrix) -> MetricsReport:
    """Sensitivity, specificity, PPV, NPV and accuracy from one matrix."""
    if cm.total == 0:
        raise ValueError("confusion matrix is empty")
    return MetricsReport(
        sensitivity=_ratio(cm.tp, cm.tp + cm.fn),
        specificity=_ratio(cm.tn, cm.tn + cm.fp),
        ppv=_ratio(cm.tp, cm.tp + cm.fp),
        npv=_ratio(cm.tn, cm.tn + cm.fn),
        accuracy=_ratio(cm.tp + cm.tn, cm.total),
    )


def auc(scores, actual) -> float | None:
    """Probability a random positive outscores a random negative, ties as 1/2.

    Computed from average ranks (the rank-sum statistic). Returns ``None``
    when only one class is present.
    """
    scores = np.asarray(scores, dtype=float)
    actual = np.asarray(actual, dtype=int)
    if scores.shape != actual.shape or scores.ndim != 1:
        raise ValueError("scores and actual must be 1-D sequences of equal length")
    n_pos = int(np.sum(actual == 1))
    n_neg = int(np.sum(actual == 0))
    if n_pos == 0 or n_neg == 0:
        return None
    # a group of c tied scores ending at sorted position j shares rank j - (c-1)/2
    _, group, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[group]
    rank_sum = float(ranks[actual == 1].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def truncate_metric(value: float | None) -> float | None:
    """Truncate toward zero at two decimals (0.9487 -> 0.94)."""
    if value is None:
        return None
    return math.floor(value * 100 + 1e-9) / 100


def format_metric(value: float | None) -> str:
    """Truncated two-decimal rendering, with "n/a" for undefined values."""
    if value is None:
        return "n/a"
    return f"{truncate_metric(value):.2f}"


@dataclass(frozen=True, eq=False)
class FoldAssignment:
    """Partition of ``n`` samples into ``k`` folds via per-sample indices."""

    k: int
    membership: np.ndarray

    def fold_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.membership == fold)

    def fold_sizes(self) -> list[int]:
        return [int(np.sum(self.membership == fold)) for fold in range(self.k)]


def kfold_splits(sample_count: int, k: int,
                 rng: np.random.Generator | None = None) -> FoldAssignment:
    """Split ``sample_count`` samples into k folds of near-equal size.

    The first ``k - (n mod k)`` folds get floor(n/k) samples and the
    remaining folds one more, so any larger folds come last. Assignment is
    sequential without an rng and shuffled with one.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if k > sample_count:
        raise ValueError(f"cannot split {sample_count} samples into {k} folds")
    base, remainder = divmod(sample_count, k)
    sizes = [base] * (k - remainder) + [base + 1] * remainder
    order = np.arange(sample_count) if rng is None else rng.permutation(sample_count)
    membership = np.empty(sample_count, dtype=int)
    start = 0
    for fold, size in enumerate(sizes):
        membership[order[start:start + size]] = fold
        start += size
    return FoldAssignment(k=k, membership=membership)


def score(params: MlpParams, data: LabeledDataset, threshold: float,
          sigmoid_output: bool) -> tuple[float, float, ConfusionMatrix, MetricsReport]:
    """MSE, classification rate, confusion matrix and metrics with AUC, all
    from one forward pass; AUC ranks the single or else the class-1 output."""
    outputs = forward_batch(params, data.features, sigmoid_output)
    predictions = output_labels(outputs, threshold)
    cm = confusion_matrix(predictions, data.labels)
    scores = outputs[:, 0] if outputs.shape[1] == 1 else outputs[:, 1]
    report = replace(metrics(cm), auc=auc(scores, data.labels))
    return (output_mse(outputs, data.labels),
            float(np.mean(predictions == data.labels)), cm, report)


def classification_rate(model_params, data: LabeledDataset, threshold: float = 0.5,
                        sigmoid_output: bool = False) -> float:
    """Fraction of samples whose predicted class matches the label."""
    predictions = output_labels(forward_batch(model_params, data.features, sigmoid_output),
                                threshold)
    return float(np.mean(predictions == data.labels))


@dataclass(frozen=True)
class FoldReport:
    fold: int
    train_size: int
    test_size: int
    train_mse: float
    train_rate: float
    test_mse: float
    test_rate: float
    confusion: ConfusionMatrix
    metrics: MetricsReport


@dataclass(frozen=True)
class CrossValReport:
    folds: tuple[FoldReport, ...]

    @property
    def avg_train_mse(self) -> float:
        return float(np.mean([f.train_mse for f in self.folds]))

    @property
    def avg_train_rate(self) -> float:
        return float(np.mean([f.train_rate for f in self.folds]))

    @property
    def avg_test_mse(self) -> float:
        return float(np.mean([f.test_mse for f in self.folds]))

    @property
    def avg_test_rate(self) -> float:
        return float(np.mean([f.test_rate for f in self.folds]))

    def average_metrics(self) -> MetricsReport:
        """Fieldwise mean over folds, skipping undefined entries."""
        def mean_of(name: str) -> float | None:
            defined = [getattr(f.metrics, name) for f in self.folds
                       if getattr(f.metrics, name) is not None]
            return float(np.mean(defined)) if defined else None

        return MetricsReport(*(mean_of(name) for name in METRIC_NAMES))


Trainer = Callable[[LabeledDataset, TrainingConfig, np.random.Generator], TrainedModel]


def bp_trainer(learning_rate: float, epochs: int) -> Trainer:
    """Adapt the backpropagation baseline to the cross-validation interface.

    The settings are checked here, before any fold is split or trained, and
    the trainer is a :func:`functools.partial` of a module-level function,
    so it can be pickled."""
    check_bp_settings(learning_rate, epochs)
    return partial(_train_bp, learning_rate, epochs)


def _train_bp(learning_rate: float, epochs: int, train_data: LabeledDataset,
              config: TrainingConfig, rng: np.random.Generator) -> TrainedModel:
    # Looked up on the training module at call time, so a function patched
    # in at training.train_bp_mlp (as perfbench does to record models) is
    # the one used.
    return training.train_bp_mlp(train_data, config.topology, learning_rate, epochs,
                                 rng, sigmoid_output=config.sigmoid_output)


def cross_validate(data: LabeledDataset, k: int, config: TrainingConfig,
                   train: Trainer | None = None) -> CrossValReport:
    """Rotate through k folds, training on k-1 and testing on the held-out one.

    One generator seeded from ``config.fdo.seed`` shuffles fold membership
    and then spawns one stream per fold, from which that fold trains, so
    folds are independent. Normalization is fitted on each fold's training
    rows and replayed onto its test rows; a value that this scaling carries
    past the float range raises :class:`ScaleOverflowError` with its row in
    ``data``. Every split is built before any fold trains, so a training
    split containing a single class aborts at once, with the fold named.

    FDO folds (``train`` left at None) train on a pool of up to two threads,
    one per usable CPU (a pool of one thread on one CPU), while the calling
    thread waits; a caller's ``train`` runs in the calling thread alone. The
    folds are scored in fold order, and a fold's model depends only on its
    own stream, so the report is the same bit for bit for any thread count.
    ``k`` below 2 is rejected before any work.
    """
    if k < 2:
        raise ValueError(f"cross-validation needs k >= 2 folds, got k = {k}")
    workers = _fold_threads(train)
    rng = np.random.default_rng(config.fdo.seed)
    assignment = kfold_splits(data.n_samples, k, rng)
    fold_rngs = rng.spawn(k)
    splits: list[tuple[LabeledDataset, LabeledDataset]] = []
    for fold in range(k):
        train_rows = np.flatnonzero(assignment.membership != fold)
        if len(set(data.labels[train_rows].tolist())) < 2:
            raise ValueError(f"fold {fold + 1}: training split contains a single class")
        rows = train_rows  # the rows being scaled, to name an overflow's row in data
        try:
            train_data = min_max_normalize(data.subset(rows))
            rows = assignment.fold_indices(fold)
            splits.append((train_data, normalize_with(data.subset(rows),
                                                      train_data.normalization)))
        except ScaleOverflowError as err:
            raise ScaleOverflowError(rows[err.row].item(), err.column, err.value) from None
    models = _train_folds(train, [train_data for train_data, _ in splits], config,
                          fold_rngs, workers)
    reports: list[FoldReport] = []
    for fold, ((train_data, test_data), model) in enumerate(zip(splits, models)):
        train_rate = classification_rate(model.params, train_data,
                                         config.threshold, config.sigmoid_output)
        test_mse, test_rate, cm, report = score(model.params, test_data,
                                                config.threshold, config.sigmoid_output)
        reports.append(FoldReport(
            fold=fold + 1, train_size=train_data.n_samples, test_size=test_data.n_samples,
            train_mse=model.train_mse, train_rate=train_rate,
            test_mse=test_mse, test_rate=test_rate,
            confusion=cm, metrics=report,
        ))
    return CrossValReport(folds=tuple(reports))


# The most threads FDO folds train on: one pair of folds, the only count
# measured to win (on 2 CPUs). Each further thread would add another fold's
# work arrays at an unmeasured gain.
_FOLD_THREADS = 2


def _fold_threads(train: Trainer | None) -> int:
    """Threads for cross_validate's folds: a pool of up to ``_FOLD_THREADS``,
    one per usable CPU, for FDO, and the calling thread alone for a caller's
    trainer.

    Two FDO folds share one interpreter lock, which each numpy call
    releases and takes back; with one forward pass per objective call, a
    pair of folds still trains in little more than the time of one, so on 2
    CPUs they win. On one CPU FDO folds still train on a pool, of one
    thread, which spares them most of the page faults that the calling
    thread's allocator history costs. Backprop, the trainer the CLI passes,
    stays in the calling thread: its epoch is a few short numpy calls on
    arrays allocated once per run, too short to overlap across the lock's
    handoffs, and neither two threads nor a pool of one has measured
    faster. The figures are in the README. The fold count is no bound
    here: a run that trains any fold trains at least 2.
    """
    if train is not None:
        return 1
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return max(1, min(_FOLD_THREADS, cpus))


def _train_folds(train: Trainer | None, datasets: list[LabeledDataset],
                 config: TrainingConfig, rngs: list[np.random.Generator],
                 workers: int) -> list[TrainedModel]:
    """Each fold's model: a caller's ``train`` runs in the calling thread,
    and FDO (``train`` None) on a pool of ``workers`` threads, even one,
    while the calling thread waits on the folds in order. The pool starts
    folds in order and skips those started after a failure, so the first
    failure read is the one a sequential run meets first. An interrupted
    wait starts no queued fold."""
    if train is not None:
        return [train(data, config, rng) for data, rng in zip(datasets, rngs)]
    train = train_fdo_mlp
    failed = threading.Event()

    def run(data: LabeledDataset, rng: np.random.Generator) -> TrainedModel | None:
        if failed.is_set():
            return None
        try:
            return train(data, config, rng)
        except BaseException:
            failed.set()
            raise

    pool = ThreadPoolExecutor(workers, thread_name_prefix="fold-worker")
    try:
        futures = [pool.submit(run, data, rng) for data, rng in zip(datasets, rngs)]
        return [future.result() for future in futures]
    finally:
        pool.shutdown(cancel_futures=True)
