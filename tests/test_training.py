"""Trainer tests: the MSE objective, both trainers, and run statistics."""

import numpy as np
import pytest

from fdo_mlp.data import LabeledDataset
from fdo_mlp.fdo import EvaluationError
from fdo_mlp.mlp import MlpTopology, decode, encode, forward_batch, vector_dimension
from fdo_mlp.training import (TrainingConfig, make_objective, mse_fitness,
                              mse_gradient, run_statistics, train_bp_mlp,
                              train_fdo_mlp)

XOR = LabeledDataset(
    features=np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]),
    labels=np.array([0, 1, 1, 0]),
    column_names=("x1", "x2"),
)


def random_dataset(rng, samples, features):
    labels = rng.integers(0, 2, samples)
    labels[0], labels[1] = 0, 1  # both classes present
    return LabeledDataset(rng.uniform(0, 1, (samples, features)), labels,
                          tuple(f"c{i}" for i in range(features)))


def random_params(rng, topology, scale=1.0):
    return decode(rng.uniform(-scale, scale, vector_dimension(topology)), topology)


def loop_mse(params, data, sigmoid_output=False):
    """Independent per-sample, per-output recomputation of the objective."""
    from fdo_mlp.mlp import forward
    total = 0.0
    for row, label in zip(data.features, data.labels):
        out = forward(params, row, sigmoid_output=sigmoid_output)
        targets = [float(label)] if out.size == 1 else [
            1.0 if k == label else 0.0 for k in range(out.size)]
        for k in range(out.size):
            total += (out[k] - targets[k]) ** 2
    return total / data.n_samples


class TestTrainingConfig:
    def test_dimension_mismatch_rejected(self):
        from fdo_mlp.fdo import FdoConfig, uniform_bounds
        fdo = FdoConfig(bounds=uniform_bounds(-10, 10, 5))
        with pytest.raises(ValueError, match="dimensions"):
            TrainingConfig(fdo=fdo, topology=MlpTopology(2, 3, 1))

    def test_reversed_weight_bounds_rejected(self):
        with pytest.raises(ValueError, match="reversed"):
            TrainingConfig.for_topology(MlpTopology(2, 3, 1), weight_bounds=(5.0, -5.0))

    def test_equal_weight_bounds_rejected_as_equal(self):
        with pytest.raises(ValueError, match="equal"):
            TrainingConfig.for_topology(MlpTopology(2, 3, 1), weight_bounds=(5.0, 5.0))

    def test_factory_dimensions_consistent(self):
        config = TrainingConfig.for_topology(MlpTopology(3, 7, 1))
        assert config.fdo.dimension == vector_dimension(config.topology)


class TestMseFitness:
    def test_perfect_fit_is_zero(self):
        # Constant output 1 via the output bias matches all-ones labels.
        data = LabeledDataset(np.array([[0.2], [0.8]]), np.array([1, 1]), ("x",))
        params = decode(np.array([0.0, 0.0, 0.0, 1.0]), MlpTopology(1, 1, 1))
        assert mse_fitness(params, data) == 0.0

    def test_swapped_outputs(self):
        # Outputs [1, 0] against targets [0, 1]: MSE = (1 + 1) / 2 = 1.
        data = LabeledDataset(np.array([[0.0], [1.0]]), np.array([0, 1]), ("x",))
        # hidden: sigmoid(0) = 0.5 and sigmoid(-60) ~ 0; output doubles it.
        params = decode(np.array([-60.0, 0.0, 2.0, 0.0]), MlpTopology(1, 1, 1))
        outputs = forward_batch(params, data.features)[:, 0]
        np.testing.assert_allclose(outputs, [1.0, 0.0], atol=1e-12)
        assert mse_fitness(params, data) == pytest.approx(1.0, abs=1e-12)

    def test_matches_loop_oracle_fuzz(self):
        rng = np.random.default_rng(14)
        for _ in range(25):
            topology = MlpTopology(int(rng.integers(1, 5)), int(rng.integers(1, 6)),
                                   int(rng.integers(1, 3)))
            data = random_dataset(rng, int(rng.integers(2, 9)), topology.inputs)
            params = random_params(rng, topology, scale=2.0)
            for flag in (False, True):
                assert mse_fitness(params, data, flag) == pytest.approx(
                    loop_mse(params, data, flag), abs=1e-12)

    def test_empty_dataset_rejected(self):
        params = decode(np.zeros(4), MlpTopology(1, 1, 1))
        empty = LabeledDataset(np.empty((0, 1)), np.empty(0, dtype=int), ("x",))
        with pytest.raises(ValueError):
            mse_fitness(params, empty)

    def test_width_mismatch_rejected(self):
        params = decode(np.zeros(4), MlpTopology(1, 1, 1))
        data = LabeledDataset(np.zeros((2, 3)), np.array([0, 1]), ("a", "b", "c"))
        with pytest.raises(ValueError):
            mse_fitness(params, data)


def chunk_size(topology, samples):
    """Scouts per forward pass of the objective, by its byte budget."""
    from fdo_mlp.training import _CHUNK_BYTES
    return max(1, _CHUNK_BYTES // (8 * samples * topology.hidden))


class TestMakeObjective:
    def test_composition_identity_fuzz(self):
        """Also: a (k, d) matrix gives each row's value, bit for bit, for k
        around the chunk size c of the topology and sample count."""
        rng = np.random.default_rng(15)
        for topology, samples in ((MlpTopology(2, 3, 1), 6), (MlpTopology(2, 5, 1), 4),
                                  (MlpTopology(3, 4, 2), 9), (MlpTopology(18, 37, 1), 230)):
            data = random_dataset(rng, samples, topology.inputs)
            c = chunk_size(topology, samples)
            for flag, scale in ((False, 1.0), (True, 1.0), (False, 10.0), (True, 10.0)):
                objective = make_objective(topology, data, sigmoid_output=flag)
                for _ in range(20):
                    params = random_params(rng, topology, scale)
                    assert objective(encode(params)) == mse_fitness(params, data, flag)
                if scale == 1.0:
                    continue
                for k in sorted({1, 2, max(c - 1, 1), c, c + 1, 40}):
                    rows = rng.uniform(-scale, scale, (k, vector_dimension(topology)))
                    values = objective(rows)
                    assert values.shape == (k,)
                    assert values.tolist() == [
                        mse_fitness(decode(row, topology), data, flag) for row in rows]

    def test_one_forward_pass_and_no_target_rebuild_per_call(self, monkeypatch):
        """One pass of the forward body per chunk of rows, and the targets
        are never rebuilt."""
        from fdo_mlp import training
        rng = np.random.default_rng(17)
        objectives = [(make_objective(topology, random_dataset(rng, samples, topology.inputs)),
                       vector_dimension(topology), chunk_size(topology, samples))
                      for topology, samples in ((MlpTopology(3, 4, 2), 7),
                                                (MlpTopology(18, 37, 1), 230))]
        calls = []
        real_forward, real_targets = training._forward_pass, training._target_matrix
        monkeypatch.setattr(training, "_forward_pass",
                            lambda *args: calls.append("forward") or real_forward(*args))
        monkeypatch.setattr(training, "_target_matrix",
                            lambda *args: calls.append("targets") or real_targets(*args))
        for objective, d, c in objectives:
            for size, passes in ((d, 1), ((1, d), 1), ((c, d), 1), ((c + 1, d), 2),
                                 ((3 * c, d), 3)):
                calls.clear()
                objective(rng.normal(size=size))
                assert calls == ["forward"] * passes

    def test_result_does_not_alias_work_arrays(self):
        rng = np.random.default_rng(18)
        for topology, samples in ((MlpTopology(2, 5, 1), 4), (MlpTopology(18, 37, 1), 230)):
            objective = make_objective(topology, random_dataset(rng, samples, topology.inputs))
            d = vector_dimension(topology)
            first_rows, second_rows = rng.normal(size=(2, 40, d))
            first = objective(first_rows)
            kept = first.copy()
            second = objective(second_rows)
            np.testing.assert_array_equal(first, kept)
            assert not np.shares_memory(first, second)
            assert not np.array_equal(first, second)

    def test_deterministic(self):
        rng = np.random.default_rng(16)
        topology = MlpTopology(2, 3, 1)
        data = random_dataset(rng, 5, 2)
        objective = make_objective(topology, data)
        v = rng.normal(size=vector_dimension(topology))
        assert objective(v) == objective(v)

    def test_zero_vector_raw_objective(self):
        # All-zero parameters give raw output 0 for both samples, so the
        # squared errors against targets {0, 1} average to 0.5.
        data = LabeledDataset(np.array([[0.0], [1.0]]), np.array([0, 1]), ("x",))
        objective = make_objective(MlpTopology(1, 1, 1), data, sigmoid_output=False)
        assert objective(np.zeros(4)) == pytest.approx(0.5)


class TestTrainFdoMlp:
    def test_zero_iterations_is_best_of_init(self):
        config = TrainingConfig.for_topology(MlpTopology(2, 3, 1), population=15,
                                             max_iterations=0, seed=3)
        model = train_fdo_mlp(XOR, config)
        assert model.curve.values == ()
        assert model.train_mse == pytest.approx(
            mse_fitness(model.params, XOR, config.sigmoid_output), abs=1e-12)

    def test_budget_never_hurts(self):
        base = TrainingConfig.for_topology(MlpTopology(2, 3, 1), population=15,
                                           max_iterations=0, seed=3)
        more = TrainingConfig.for_topology(MlpTopology(2, 3, 1), population=15,
                                           max_iterations=25, seed=3)
        assert train_fdo_mlp(XOR, more).train_mse <= train_fdo_mlp(XOR, base).train_mse

    def test_curve_non_increasing(self):
        config = TrainingConfig.for_topology(MlpTopology(2, 5, 1), population=10,
                                             max_iterations=40, seed=5)
        model = train_fdo_mlp(XOR, config)
        assert model.curve.is_non_increasing()

    def test_determinism(self):
        config = TrainingConfig.for_topology(MlpTopology(2, 5, 1), population=10,
                                             max_iterations=30, seed=8)
        a = train_fdo_mlp(XOR, config)
        b = train_fdo_mlp(XOR, config)
        np.testing.assert_array_equal(encode(a.params), encode(b.params))
        assert a.train_mse == b.train_mse
        assert a.curve.values == b.curve.values

    def test_reported_mse_matches_recomputation(self):
        config = TrainingConfig.for_topology(MlpTopology(2, 5, 1), population=12,
                                             max_iterations=50, seed=1)
        model = train_fdo_mlp(XOR, config)
        assert model.train_mse == pytest.approx(
            mse_fitness(model.params, XOR, config.sigmoid_output), abs=1e-12)

    def test_learns_xor(self):
        from fdo_mlp.evaluation import classification_rate
        config = TrainingConfig.for_topology(MlpTopology(2, 5, 1), population=40,
                                             max_iterations=200, seed=0)
        model = train_fdo_mlp(XOR, config)
        assert classification_rate(model.params, XOR,
                                   sigmoid_output=config.sigmoid_output) == 1.0


class TestTrainBpMlp:
    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            topology = MlpTopology(int(rng.integers(1, 4)), int(rng.integers(1, 5)),
                                   int(rng.integers(1, 3)))
            data = random_dataset(rng, 6, topology.inputs)
            for flag in (False, True):
                params = random_params(rng, topology)
                grad = encode(mse_gradient(params, data, flag))
                flat = encode(params)
                h = 1e-5
                fd = np.empty_like(flat)
                for i in range(flat.size):
                    plus, minus = flat.copy(), flat.copy()
                    plus[i] += h
                    minus[i] -= h
                    fd[i] = (mse_fitness(decode(plus, topology), data, flag)
                             - mse_fitness(decode(minus, topology), data, flag)) / (2 * h)
                scale = max(np.max(np.abs(fd)), 1e-12)
                assert np.max(np.abs(grad - fd)) / scale < 1e-4

    def test_zero_learning_rate_keeps_params(self):
        init = train_bp_mlp(XOR, MlpTopology(2, 3, 1), 0.5, 0,
                            np.random.default_rng(9))
        frozen = train_bp_mlp(XOR, MlpTopology(2, 3, 1), 0.0, 25,
                              np.random.default_rng(9))
        np.testing.assert_array_equal(encode(init.params), encode(frozen.params))

    def test_curve_non_increasing(self):
        model = train_bp_mlp(XOR, MlpTopology(2, 5, 1), 0.5, 300,
                             np.random.default_rng(2))
        assert len(model.curve) == 300
        assert model.curve.is_non_increasing()

    def test_determinism(self):
        a = train_bp_mlp(XOR, MlpTopology(2, 4, 1), 0.3, 100, np.random.default_rng(6))
        b = train_bp_mlp(XOR, MlpTopology(2, 4, 1), 0.3, 100, np.random.default_rng(6))
        np.testing.assert_array_equal(encode(a.params), encode(b.params))
        assert a.curve.values == b.curve.values

    def test_reported_mse_matches_recomputation(self):
        model = train_bp_mlp(XOR, MlpTopology(2, 4, 1), 0.5, 200,
                             np.random.default_rng(4))
        assert model.train_mse == pytest.approx(
            mse_fitness(model.params, XOR), abs=1e-12)

    def test_one_forward_pass_per_epoch(self, monkeypatch):
        from fdo_mlp import mlp, training
        calls = []
        real = mlp._forward_pass
        monkeypatch.setattr(training, "_forward_pass",
                            lambda *args: calls.append(1) or real(*args))
        train_bp_mlp(XOR, MlpTopology(2, 3, 1), 0.5, 12, np.random.default_rng(3))
        assert len(calls) == 12 + 1  # every epoch plus the initial weights

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_divergence_names_epoch(self):
        rng = np.random.default_rng(1)
        data = random_dataset(rng, 8, 3)
        with pytest.raises(EvaluationError, match="epoch"):
            train_bp_mlp(data, MlpTopology(3, 4, 1), 1e12, 50,
                         np.random.default_rng(1))

    def test_learns_xor_majority(self):
        """Plain gradient descent solves XOR from most starts."""
        from fdo_mlp.evaluation import classification_rate
        wins = 0
        for seed in range(10):
            model = train_bp_mlp(XOR, MlpTopology(2, 5, 1), 0.5, 5000,
                                 np.random.default_rng(seed))
            wins += classification_rate(model.params, XOR) == 1.0
        assert wins > 5


class TestRunStatistics:
    def test_single_value(self):
        stats = run_statistics([0.5])
        assert stats.avg == 0.5 and stats.std == 0.0
        assert stats.best == 0.5 and stats.worst == 0.5

    def test_five_run_accuracies(self):
        stats = run_statistics([1.0, 0.91228, 0.98245, 1.0, 0.96815])
        assert stats.best == 1.0
        assert stats.worst == 0.91228

    def test_loss_direction(self):
        stats = run_statistics([0.1, 0.3, 0.2], higher_is_better=False)
        assert stats.best == 0.1 and stats.worst == 0.3

    def test_matches_two_pass_oracle_fuzz(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            values = rng.normal(size=int(rng.integers(1, 40)))
            stats = run_statistics(values)
            mean = sum(values) / len(values)
            var = sum((v - mean) ** 2 for v in values) / len(values)
            assert stats.avg == pytest.approx(mean, abs=1e-12)
            assert stats.std == pytest.approx(var ** 0.5, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            run_statistics([])
