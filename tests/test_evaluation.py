"""Confusion matrices, the five ratio metrics, AUC, folds, cross-validation."""

import concurrent.futures
import os
import pickle
import sys
import threading

import numpy as np
import pytest

from fdo_mlp import evaluation
from fdo_mlp.cli import _crossval_csvs
from fdo_mlp.data import (LabeledDataset, ScaleOverflowError, generate_synthetic,
                          min_max_normalize)
from fdo_mlp.evaluation import (ConfusionMatrix, CrossValReport, FoldReport, auc,
                                bp_trainer, confusion_matrix, cross_validate,
                                format_metric, kfold_splits, metrics, truncate_metric,
                                _fold_threads)
from fdo_mlp.fdo import ConvergenceCurve
from fdo_mlp.mlp import MlpTopology, decode, encode
from fdo_mlp.training import TrainedModel, TrainingConfig


def labels_for(cm):
    """Expand a confusion matrix back into (predicted, actual) sequences."""
    predicted = [1] * cm.tp + [0] * cm.fn + [1] * cm.fp + [0] * cm.tn
    actual = [1] * (cm.tp + cm.fn) + [0] * (cm.fp + cm.tn)
    return predicted, actual


class TestConfusionMatrix:
    def test_counts_with_class_one_positive(self):
        predicted, actual = labels_for(ConfusionMatrix(tp=37, fp=0, fn=2, tn=18))
        cm = confusion_matrix(predicted, actual)
        assert (cm.tp, cm.fp, cm.fn, cm.tn) == (37, 0, 2, 18)
        assert cm.total == 57

    def test_all_positive_correct(self):
        cm = confusion_matrix([1] * 5, [1] * 5)
        assert (cm.tp, cm.fp, cm.fn, cm.tn) == (5, 0, 0, 0)

    def test_inverted_predictions(self):
        cm = confusion_matrix([0, 0, 1, 1], [1, 1, 0, 0])
        assert cm.tp == 0 and cm.tn == 0
        assert cm.fp == 2 and cm.fn == 2

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            confusion_matrix([1, 0], [1])

    def test_non_binary_label(self):
        with pytest.raises(ValueError):
            confusion_matrix([1, 2], [1, 0])

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="confusion matrix counts must be non-negative"):
            ConfusionMatrix(tp=1, fp=0, fn=-1, tn=2)


class TestMetrics:
    def test_first_fold_counts(self):
        """tp=37 fp=0 fn=2 tn=18 reproduces the reference fold exactly."""
        report = metrics(ConfusionMatrix(tp=37, fp=0, fn=2, tn=18))
        assert report.sensitivity == pytest.approx(37 / 39)
        assert report.specificity == 1.0
        assert report.ppv == 1.0
        assert report.npv == pytest.approx(18 / 20)
        assert report.accuracy == pytest.approx(55 / 57)
        truncated = [truncate_metric(v) for v in
                     (report.sensitivity, report.specificity, report.ppv,
                      report.npv, report.accuracy)]
        assert truncated == [0.94, 1.00, 1.00, 0.90, 0.96]

    def test_perfect_classifier(self):
        report = metrics(ConfusionMatrix(5, 0, 0, 5))
        assert (report.sensitivity, report.specificity, report.ppv,
                report.npv, report.accuracy) == (1.0, 1.0, 1.0, 1.0, 1.0)

    def test_degenerate_denominators(self):
        report = metrics(ConfusionMatrix(tp=0, fp=0, fn=5, tn=5))
        assert report.sensitivity == 0.0
        assert report.npv == 0.5
        assert report.ppv is None

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError):
            metrics(ConfusionMatrix(0, 0, 0, 0))

    def test_accuracy_identity_fuzz(self):
        """accuracy == (sens*P + spec*N) / (P + N) whenever all are defined."""
        rng = np.random.default_rng(23)
        for _ in range(200):
            cm = ConfusionMatrix(*(int(v) for v in rng.integers(1, 40, 4)))
            report = metrics(cm)
            p = cm.tp + cm.fn
            n = cm.tn + cm.fp
            expected = (report.sensitivity * p + report.specificity * n) / (p + n)
            assert report.accuracy == pytest.approx(expected, abs=1e-12)
            for value in (report.sensitivity, report.specificity, report.ppv,
                          report.npv, report.accuracy):
                assert 0.0 <= value <= 1.0


class TestTruncateMetric:
    def test_truncates_not_rounds(self):
        assert truncate_metric(37 / 39) == 0.94
        assert truncate_metric(0.9649) == 0.96

    def test_exact_values_survive(self):
        assert truncate_metric(1.0) == 1.0
        assert truncate_metric(0.9) == 0.9
        assert truncate_metric(0.29) == 0.29

    def test_none_passthrough(self):
        assert truncate_metric(None) is None

    def test_undefined_renders_na(self):
        assert format_metric(None) == "n/a"
        assert format_metric(37 / 39) == "0.94"
        assert format_metric(1.0) == "1.00"


class TestAuc:
    def brute_force(self, scores, actual):
        scores = np.asarray(scores, float)
        actual = np.asarray(actual, int)
        pos = scores[actual == 1]
        neg = scores[actual == 0]
        total = 0.0
        for p in pos:
            for n in neg:
                total += 1.0 if p > n else (0.5 if p == n else 0.0)
        return total / (pos.size * neg.size)

    def test_perfect_separation(self):
        assert auc([1.0, 1.0, 0.0, 0.0], [1, 1, 0, 0]) == 1.0

    def test_all_ties(self):
        assert auc([0.3, 0.3, 0.3, 0.3], [1, 0, 1, 0]) == 0.5

    def test_single_class_undefined(self):
        assert auc([0.2, 0.4], [1, 1]) is None

    @pytest.mark.parametrize("scores, actual", [([0.2, 0.4, 0.6], [1, 0]),
                                                ([[0.2, 0.4]], [[1, 0]])])
    def test_shape_mismatch_rejected(self, scores, actual):
        with pytest.raises(ValueError, match="scores and actual must be 1-D sequences "
                                             "of equal length"):
            auc(scores, actual)

    def test_matches_brute_force_fuzz(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            n = int(rng.integers(2, 50))
            actual = rng.integers(0, 2, n)
            if actual.min() == actual.max():
                actual[0] = 1 - actual[0]
            # coarse grid forces plenty of ties
            scores = np.round(rng.uniform(0, 1, n), 1)
            assert auc(scores, actual) == pytest.approx(
                self.brute_force(scores, actual), abs=1e-12)


class TestKfoldSplits:
    def test_reference_sizes(self):
        assert kfold_splits(287, 5).fold_sizes() == [57, 57, 57, 58, 58]

    def test_even_split(self):
        assert kfold_splits(10, 5).fold_sizes() == [2, 2, 2, 2, 2]

    def test_remainder_goes_last(self):
        assert kfold_splits(7, 3).fold_sizes() == [2, 2, 3]

    def test_no_fold_rejected(self):
        with pytest.raises(ValueError, match="k must be at least 1"):
            kfold_splits(3, 0)

    def test_too_many_folds(self):
        with pytest.raises(ValueError):
            kfold_splits(3, 4)

    def test_sequential_without_rng(self):
        assignment = kfold_splits(6, 3)
        np.testing.assert_array_equal(assignment.membership, [0, 0, 1, 1, 2, 2])

    def test_partition_properties_fuzz(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            n = int(rng.integers(2, 200))
            k = int(rng.integers(1, n + 1))
            shuffler = np.random.default_rng(int(rng.integers(0, 1000))) \
                if rng.random() < 0.5 else None
            assignment = kfold_splits(n, k, shuffler)
            sizes = assignment.fold_sizes()
            assert sum(sizes) == n
            assert max(sizes) - min(sizes) <= 1
            base, remainder = divmod(n, k)
            assert sizes == [base] * (k - remainder) + [base + 1] * remainder
            union = np.concatenate([assignment.fold_indices(f) for f in range(k)])
            assert sorted(union.tolist()) == list(range(n))


def tiny_config(inputs, seed=0, population=8, iterations=8):
    return TrainingConfig.for_topology(MlpTopology(inputs, 3, 1),
                                       population=population,
                                       max_iterations=iterations, seed=seed)


class TestCrossValidate:
    def test_leave_one_out_structure(self):
        rng = np.random.default_rng(33)
        data = LabeledDataset(rng.uniform(0, 1, (6, 2)),
                              np.array([0, 1, 0, 1, 0, 1]), ("a", "b"))
        report = cross_validate(data, 6, tiny_config(2))
        assert len(report.folds) == 6
        assert all(f.test_size == 1 for f in report.folds)
        assert sum(f.test_size for f in report.folds) == 6

    def test_fold_confusions_cover_dataset(self):
        data = generate_synthetic(40, 3, 4.0, 0.5, np.random.default_rng(1))
        report = cross_validate(data, 4, tiny_config(3, seed=5))
        assert sum(f.confusion.total for f in report.folds) == 40
        assert [f.test_size for f in report.folds] == [10, 10, 10, 10]

    def test_single_class_training_fold_rejected(self):
        data = LabeledDataset(np.array([[0.1], [0.4], [0.6], [0.9]]),
                              np.array([1, 0, 0, 0]), ("x",))
        with pytest.raises(ValueError, match="fold"):
            cross_validate(data, 2, tiny_config(1))

    @pytest.mark.parametrize("k", [1, 0, -2])
    def test_fewer_than_two_folds_rejected_before_training(self, k):
        data = generate_synthetic(30, 2, 4.0, 0.5, np.random.default_rng(1))
        config = tiny_config(2)
        train = FakeTrainer(config)
        with pytest.raises(ValueError,
                           match=rf"^cross-validation needs k >= 2 folds, got k = {k}$"):
            cross_validate(data, k, config, train=train)
        assert train.calls == []

    @pytest.mark.parametrize("low, high", [(0.0, 5e-324), (-1e308, 1.0)])
    def test_scaling_overflow_names_the_row_in_the_dataset(self, low, high):
        """Row 19 holds 1e308 among values between ``low`` and ``high``: a
        test split scaled by a training range that narrow, or a training
        split whose span overflows, fails at row 19, not at its index in
        the split."""
        column = np.resize([low, high], 21)
        column[19] = 1e308
        data = LabeledDataset(np.column_stack([column, np.linspace(0, 1, 21)]),
                              np.resize([0, 1], 21), ("x1", "x2"))
        config = tiny_config(2)
        train = FakeTrainer(config)
        with pytest.raises(ScaleOverflowError) as err:
            cross_validate(data, 3, config, train=train)
        assert (err.value.row, err.value.column, err.value.value) == (19, "x1", 1e308)
        assert train.calls == []

    def test_averages_match_fold_means(self):
        data = generate_synthetic(30, 2, 5.0, 0.5, np.random.default_rng(2))
        report = cross_validate(data, 3, tiny_config(2, seed=7))
        assert report.avg_test_rate == pytest.approx(
            np.mean([f.test_rate for f in report.folds]), abs=1e-12)
        assert report.avg_train_mse == pytest.approx(
            np.mean([f.train_mse for f in report.folds]), abs=1e-12)

    def test_scoring_takes_two_forward_passes_per_fold(self, monkeypatch):
        from fdo_mlp import mlp
        from fdo_mlp.fdo import ConvergenceCurve
        from fdo_mlp.training import TrainedModel
        data = generate_synthetic(30, 2, 4.0, 0.5, np.random.default_rng(1))
        config = TrainingConfig.for_topology(MlpTopology(2, 3, 1), population=4,
                                             max_iterations=2, seed=2)
        params = mlp.decode(np.linspace(-1.0, 1.0, 13), config.topology)

        def train(train_data, cfg, rng):
            return TrainedModel(params, 0.25, ConvergenceCurve((0.25,)))

        calls = []
        real = mlp._forward_pass
        monkeypatch.setattr(mlp, "_forward_pass",
                            lambda *args: calls.append(1) or real(*args))
        cross_validate(data, 3, config, train=train)
        assert len(calls) == 2 * 3  # train rate and test score, per fold

    def test_bp_trainer_calls_the_function_at_its_module_attribute(self, monkeypatch):
        """A replacement for training.train_bp_mlp installed after the
        trainer is built is the one cross-validation trains with."""
        from fdo_mlp import training
        trainer = bp_trainer(0.5, 3)
        calls = []
        real = training.train_bp_mlp
        monkeypatch.setattr(training, "train_bp_mlp",
                            lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs))
        data = generate_synthetic(30, 2, 4.0, 0.5, np.random.default_rng(1))
        cross_validate(data, 3, tiny_config(2), train=trainer)
        assert len(calls) == 3

    def test_bp_trainer_survives_pickling_with_the_same_bits(self):
        trainer = bp_trainer(0.5, 40)
        copy = pickle.loads(pickle.dumps(trainer))
        data = min_max_normalize(generate_synthetic(30, 2, 4.0, 0.5,
                                                    np.random.default_rng(1)))
        a = trainer(data, tiny_config(2), np.random.default_rng(5))
        b = copy(data, tiny_config(2), np.random.default_rng(5))
        assert encode(a.params).tobytes() == encode(b.params).tobytes()
        assert repr(a.train_mse) == repr(b.train_mse)
        assert a.curve.values == b.curve.values
        assert _fold_threads(copy) == 1

    @pytest.mark.parametrize("learning_rate, epochs, name", [
        (-0.1, 5, "learning_rate"), (float("nan"), 5, "learning_rate"), (0.5, -1, "epochs")])
    def test_bp_trainer_rejects_bad_settings_when_built(self, learning_rate, epochs,
                                                         name):
        with pytest.raises(ValueError, match=f"^{name} must be non-negative$"):
            bp_trainer(learning_rate, epochs)

    def test_deterministic(self):
        data = generate_synthetic(30, 2, 5.0, 0.5, np.random.default_rng(3))
        a = cross_validate(data, 3, tiny_config(2, seed=9))
        b = cross_validate(data, 3, tiny_config(2, seed=9))
        assert [f.test_mse for f in a.folds] == [f.test_mse for f in b.folds]
        assert [f.train_mse for f in a.folds] == [f.train_mse for f in b.folds]


def fold_of(rng):
    """The 1-based fold whose stream ``rng`` is: cross_validate spawns fold
    i's generator as child i of its seed."""
    return rng.bit_generator.seed_seq.spawn_key[-1] + 1


class FakeTrainer:
    """Returns one fixed network at once, recording each fold it trains and
    the thread it ran on, and raising on the folds in ``failing``."""

    def __init__(self, config, failing=()):
        self.params = decode(np.linspace(-1.0, 1.0, config.fdo.dimension), config.topology)
        self.failing = failing
        self.calls = []

    def __call__(self, train_data, cfg, rng):
        fold = fold_of(rng)
        self.calls.append((fold, threading.current_thread()))
        if fold in self.failing:
            raise RuntimeError(f"fold {fold} failed")
        return TrainedModel(self.params, 0.25, ConvergenceCurve((0.25,)))


@pytest.fixture()
def cpus(monkeypatch):
    """Sets the CPUs that ``os`` reports: ``affinity`` through
    sched_getaffinity, which None removes, and ``count`` through cpu_count."""
    def set_cpus(affinity, count=None):
        if affinity is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(affinity)),
                                raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: count)
    return set_cpus


class TestCrossValidateThreads:
    """FDO folds trained on two threads give the report of one thread."""

    @pytest.fixture()
    def fdo_fake(self, monkeypatch):
        """Installs a FakeTrainer as the FDO trainer cross_validate defaults to."""
        def install(config, failing=()):
            train = FakeTrainer(config, failing)
            monkeypatch.setattr(evaluation, "train_fdo_mlp", train)
            return train
        return install

    @pytest.mark.parametrize("k", [3, 5])
    def test_two_threads_give_the_sequential_reports_bit_for_bit(self, k, cpus):
        """With a short switch interval the fold threads interleave often;
        state shared between folds would show as a changed bit."""
        data = generate_synthetic(60, 3, 3.0, 0.5, np.random.default_rng(4))
        config = tiny_config(3, seed=13, population=10, iterations=25)
        cpus(1)
        one = cross_validate(data, k, config)
        cpus(2)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            two = cross_validate(data, k, config)
        finally:
            sys.setswitchinterval(interval)
        assert len(two.folds) == k
        assert repr(two.folds) == repr(one.folds)  # repr spells out every float

    def test_two_pool_threads_train_each_fold_once(self, cpus, fdo_fake):
        data = generate_synthetic(30, 2, 4.0, 0.5, np.random.default_rng(1))
        config = tiny_config(2)
        cpus(2)
        train = fdo_fake(config)
        cross_validate(data, 5, config)
        assert sorted(fold for fold, _ in train.calls) == [1, 2, 3, 4, 5]
        threads = {thread for _, thread in train.calls}
        assert 1 <= len(threads) <= 2
        assert all(thread.name.startswith("fold-worker") for thread in threads)

    def test_one_cpu_trains_fdo_folds_on_one_fold_worker(self, cpus, fdo_fake):
        """On one CPU the folds train in order on one pool thread, not in
        the calling thread, and the pool is gone when the call returns."""
        data = generate_synthetic(30, 2, 4.0, 0.5, np.random.default_rng(1))
        config = tiny_config(2)
        cpus(1)
        train = fdo_fake(config)
        before = threading.active_count()
        cross_validate(data, 3, config)
        assert threading.active_count() == before
        assert [fold for fold, _ in train.calls] == [1, 2, 3]
        threads = {thread for _, thread in train.calls}
        assert len(threads) == 1
        (thread,) = threads
        assert thread is not threading.current_thread()
        assert thread.name.startswith("fold-worker")

    def test_a_callers_trainer_runs_in_the_calling_thread(self, cpus):
        data = generate_synthetic(30, 2, 4.0, 0.5, np.random.default_rng(1))
        config = tiny_config(2)
        cpus(2)
        train = FakeTrainer(config)
        cross_validate(data, 3, config, train=train)
        assert train.calls == [(fold, threading.current_thread()) for fold in (1, 2, 3)]

    def test_lowest_failing_fold_is_raised(self, cpus, fdo_fake):
        """Folds 3 and 4 fail; fold 3's error is the one a sequential run
        raises. Fold 4 may be skipped, depending on which thread is first,
        but fold 5 starts only after fold 3 or 4 has failed, so it never
        trains."""
        data = generate_synthetic(30, 2, 4.0, 0.5, np.random.default_rng(1))
        config = tiny_config(2)
        cpus(2)
        train = fdo_fake(config, failing=(3, 4))
        with pytest.raises(RuntimeError, match="^fold 3 failed$"):
            cross_validate(data, 5, config)
        trained = sorted(fold for fold, _ in train.calls)
        assert trained in ([1, 2, 3], [1, 2, 3, 4])

    def test_no_thread_outlives_the_call(self, cpus, fdo_fake):
        data = generate_synthetic(30, 2, 4.0, 0.5, np.random.default_rng(1))
        config = tiny_config(2)
        cpus(2)
        before = threading.active_count()
        cross_validate(data, 3, config)
        assert threading.active_count() == before
        fdo_fake(config, failing=(1, 2))
        with pytest.raises(RuntimeError):
            cross_validate(data, 3, config)
        assert threading.active_count() == before

    def test_interrupt_in_the_calling_thread_is_raised_after_the_join(self, cpus,
                                                                      monkeypatch):
        data = generate_synthetic(30, 2, 4.0, 0.5, np.random.default_rng(1))
        config = tiny_config(2)
        cpus(2)
        train = FakeTrainer(config)

        def interrupted_on_fold_1(train_data, cfg, rng):
            if fold_of(rng) == 1:
                raise KeyboardInterrupt
            return train(train_data, cfg, rng)

        monkeypatch.setattr(evaluation, "train_fdo_mlp", interrupted_on_fold_1)
        before = threading.active_count()
        with pytest.raises(KeyboardInterrupt):
            cross_validate(data, 5, config)
        assert threading.active_count() == before

    def test_interrupt_stops_the_other_share_from_starting_a_fold(self, cpus,
                                                                 monkeypatch):
        """Fold 1 is interrupted on one pool thread while fold 2, on the
        other, is held until the calling thread joins the pool. The thread
        that ran fold 1 takes the next queued fold before the calling thread
        can cancel it, so only the seen interrupt keeps folds 3 to 5 from
        training."""
        data = generate_synthetic(30, 2, 4.0, 0.5, np.random.default_rng(1))
        config = tiny_config(2)
        cpus(2)
        train = FakeTrainer(config)
        fold_2_started, joining = threading.Event(), threading.Event()
        real_join = threading.Thread.join

        def join(thread, timeout=None):
            joining.set()
            return real_join(thread, timeout)

        def trainer(train_data, cfg, rng):
            fold = fold_of(rng)
            if fold == 1:
                assert fold_2_started.wait(10)
                raise KeyboardInterrupt
            if fold == 2:
                fold_2_started.set()
                assert joining.wait(10)
            return train(train_data, cfg, rng)

        monkeypatch.setattr(threading.Thread, "join", join)
        monkeypatch.setattr(evaluation, "train_fdo_mlp", trainer)
        before = threading.active_count()
        with pytest.raises(KeyboardInterrupt):
            cross_validate(data, 5, config)
        assert threading.active_count() == before
        assert [fold for fold, _ in train.calls] == [2]

    def test_interrupted_wait_starts_no_queued_fold(self, cpus, monkeypatch):
        """Ctrl-C reaches the calling thread, which waits on the folds, while
        folds 1 and 2 train; they finish once the pool is joined, and folds
        3 to 5, still queued, never start."""
        data = generate_synthetic(30, 2, 4.0, 0.5, np.random.default_rng(1))
        config = tiny_config(2)
        cpus(2)
        train = FakeTrainer(config)
        started = {1: threading.Event(), 2: threading.Event()}
        released = threading.Event()
        real_join = threading.Thread.join

        def join(thread, timeout=None):
            released.set()
            return real_join(thread, timeout)

        def result(future, timeout=None):
            assert started[1].wait(10) and started[2].wait(10)
            raise KeyboardInterrupt

        def trainer(train_data, cfg, rng):
            fold = fold_of(rng)
            if fold in started:
                started[fold].set()
                assert released.wait(10)
            return train(train_data, cfg, rng)

        monkeypatch.setattr(threading.Thread, "join", join)
        monkeypatch.setattr(concurrent.futures.Future, "result", result)
        monkeypatch.setattr(evaluation, "train_fdo_mlp", trainer)
        before = threading.active_count()
        with pytest.raises(KeyboardInterrupt):
            cross_validate(data, 5, config)
        assert threading.active_count() == before
        assert sorted(fold for fold, _ in train.calls) == [1, 2]
        assert len({thread for _, thread in train.calls}) == 2

    @pytest.mark.parametrize("threads", [1, 2])
    def test_single_class_fold_fails_before_any_training(self, threads, cpus, fdo_fake):
        """Fold 3 holds the only positive row, so its training split is all
        negative: the error names fold 3 and no fold has trained."""
        n, k, seed = 20, 4, 6
        membership = kfold_splits(n, k, np.random.default_rng(seed)).membership
        labels = np.zeros(n, dtype=int)
        labels[np.flatnonzero(membership == 2)[0]] = 1
        data = LabeledDataset(np.random.default_rng(0).uniform(0, 1, (n, 2)), labels,
                              ("a", "b"))
        config = tiny_config(2, seed=seed)
        cpus(threads)
        train = fdo_fake(config)
        with pytest.raises(ValueError,
                           match="^fold 3: training split contains a single class$"):
            cross_validate(data, k, config)
        assert train.calls == []


class TestFoldThreads:
    """The thread count is computed with the CPU queries patched; no test
    starts a pool of that size."""

    @pytest.mark.parametrize("affinity, count, expected", [
        (4096, 4096, 2), (3, 4096, 2), (1, 4096, 1), (4096, 1, 2),
        (None, 4096, 2), (None, 1, 1), (None, None, 1), (0, 0, 1)])
    def test_fdo_takes_a_thread_per_usable_cpu_up_to_two(self, cpus, affinity, count,
                                                          expected):
        cpus(affinity, count)
        before = threading.active_count()
        assert _fold_threads(None) == expected
        assert threading.active_count() == before

    @pytest.mark.parametrize("affinity, count", [(4096, 4096), (None, 4096), (None, None)])
    def test_backprop_stays_in_the_calling_thread(self, cpus, affinity, count):
        cpus(affinity, count)
        assert _fold_threads(bp_trainer(0.5, 10)) == 1


def class_success_rows(cms):
    """``class_success.csv`` as the CLI writes it for folds with these
    confusion matrices: {(fold, class): (total, correct, success_rate)}."""
    folds = tuple(FoldReport(fold, 0, cm.total, 0.0, 0.0, 0.0, 0.0, cm, metrics(cm))
                  for fold, cm in enumerate(cms, start=1))
    lines = _crossval_csvs(CrossValReport(folds))["class_success.csv"].splitlines()
    assert lines[0] == "fold,class,total,correct,success_rate"
    rows = {}
    for line in lines[1:]:
        fold, name, total, correct, rate = line.split(",")
        rows[fold, name] = (int(total), int(correct), rate)
    assert len(rows) == 2 * len(cms) + 2
    return rows


class TestPerClassSuccess:
    def test_reference_fold(self):
        """37/37 positives and 18/20 negatives correct: 100% and 90%."""
        rows = class_success_rows([ConfusionMatrix(tp=37, fp=2, fn=0, tn=18)])
        assert rows["1", "positive"] == (37, 37, "1.0")
        total, correct, rate = rows["1", "negative"]
        assert (total, correct) == (20, 18)
        assert float(rate) == pytest.approx(0.9)

    def test_all_correct(self):
        rows = class_success_rows([ConfusionMatrix(4, 0, 0, 6)])
        assert rows["1", "positive"] == (4, 4, "1.0")
        assert rows["1", "negative"] == (6, 6, "1.0")

    def test_fold_without_positives_reads_na(self):
        rows = class_success_rows([ConfusionMatrix(0, 3, 0, 5), ConfusionMatrix(2, 1, 2, 4)])
        assert rows["1", "positive"] == (0, 0, "n/a")
        assert rows["1", "negative"] == (8, 5, "0.625")
        assert rows["total", "positive"] == (4, 2, "0.5")
        assert rows["total", "negative"] == (13, 9, repr(9 / 13))

    def test_totals_cross_check_fuzz(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            cms = [ConfusionMatrix(*(int(v) for v in rng.integers(0, 30, 4)))
                   for _ in range(5)]
            rows = class_success_rows(cms)
            positives = sum(cm.tp + cm.fn for cm in cms)
            negatives = sum(cm.tn + cm.fp for cm in cms)
            assert rows["total", "positive"][:2] == (positives, sum(cm.tp for cm in cms))
            assert rows["total", "negative"][:2] == (negatives, sum(cm.tn for cm in cms))
            assert float(rows["total", "positive"][2]) == pytest.approx(
                sum(cm.tp for cm in cms) / positives)
            assert float(rows["total", "negative"][2]) == pytest.approx(
                sum(cm.tn for cm in cms) / negatives)
