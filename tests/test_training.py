"""Trainer tests: the MSE objective, both trainers, and run statistics."""

import math
import tracemalloc

import numpy as np
import pytest

from fdo_mlp.data import LabeledDataset, generate_synthetic, min_max_normalize
from fdo_mlp.fdo import EvaluationError
from fdo_mlp.mlp import (MlpParams, MlpTopology, _forward_pass, _negated_inputs, decode,
                         encode, forward, forward_batch, sigmoid, vector_dimension)
from fdo_mlp.training import (TrainingConfig, _backprop_pass, _flat_params, _mse,
                              _target_matrix, make_objective, mse_fitness, mse_gradient,
                              output_mse, run_statistics, train_bp_mlp, train_fdo_mlp)
from test_mlp import layered_params

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

    @pytest.mark.parametrize("bounds", [(math.nan, 1.0), (-1.0, math.nan),
                                        (-math.inf, 1.0), (-1.0, math.inf),
                                        (math.inf, 1.0), (-1.0, -math.inf),
                                        (math.inf, math.inf)])
    def test_non_finite_weight_bounds_named(self, bounds):
        with pytest.raises(ValueError, match="weight_bounds must be finite"):
            TrainingConfig.for_topology(MlpTopology(2, 3, 1), weight_bounds=bounds)

    @pytest.mark.parametrize("threshold", [-0.1, 1.5, 7.0])
    def test_threshold_outside_a_sigmoid_range_rejected(self, threshold):
        with pytest.raises(ValueError, match=rf"threshold {threshold!r} is outside \[0, 1\]"):
            TrainingConfig.for_topology(MlpTopology(2, 3, 1), threshold=threshold)
        config = TrainingConfig.for_topology(MlpTopology(2, 3, 1), threshold=threshold,
                                             sigmoid_output=False)
        assert config.threshold == threshold

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

    def test_label_without_an_output_unit_rejected(self):
        with pytest.raises(ValueError, match="label 2 out of range for 2 output units"):
            output_mse(np.zeros((3, 2)), np.array([0, 2, 1]))


class TestMse:
    SPECIALS = (0.0, -0.0, 5e-324, -5e-324, 2.2e-308, math.nan, math.inf, -math.inf,
                1e200, -1e155)

    @pytest.mark.parametrize("shape", [(7, 3), (9, 1), (4, 7, 3), (5, 6, 1)])
    def test_bitwise_equal_to_mean_of_sums(self, shape):
        """Signed zeros, subnormals, NaN, infinities and squares that
        overflow, bit for bit against the numpy expression it replaces."""
        rng = np.random.default_rng(sum(shape))
        for _ in range(60):
            residuals = rng.normal(size=shape) * 10.0 ** rng.integers(-170, 170, shape)
            special = rng.random(shape) < 0.25
            residuals[special] = rng.choice(self.SPECIALS, int(special.sum()))
            with np.errstate(over="ignore", invalid="ignore"):
                expected = np.mean(np.sum(residuals ** 2, axis=-1), axis=-1)
                got = _mse(residuals)
            assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()
            assert type(got) is (float if len(shape) == 2 else np.ndarray)

    def test_special_rows(self):
        for value in self.SPECIALS:
            residuals = np.full((3, 2), value)
            with np.errstate(over="ignore"):
                expected = np.mean(np.sum(residuals ** 2, axis=-1), axis=-1)
                got = _mse(residuals)
            assert np.asarray(got).tobytes() == np.asarray(expected).tobytes(), value


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

    @pytest.mark.parametrize("hidden", [1, 2, 3, 4, 9, 17, 36, 37, 64])
    def test_bits_match_mse_fitness_across_widths(self, hidden):
        """At widths where the joined hidden product rounds otherwise than
        x @ W + b_h, the objective's stacked pass still gives mse_fitness of
        each decoded row bit for bit, and of params built from copies of
        their blocks: both take the one forward body."""
        rng = np.random.default_rng(60 + hidden)
        for _ in range(3):
            topology = MlpTopology(int(rng.integers(1, 21)), hidden, int(rng.integers(1, 4)))
            data = random_dataset(rng, int(rng.integers(2, 60)), topology.inputs)
            rows = rng.uniform(-5, 5, (int(rng.integers(1, 12)), vector_dimension(topology)))
            for flag in (False, True):
                values = make_objective(topology, data, flag)(rows).tolist()
                decoded = [decode(row, topology) for row in rows]
                copied = [MlpParams(p.hidden_block.copy(), p.output_block.copy())
                          for p in decoded]
                assert values == [mse_fitness(p, data, flag) for p in decoded]
                assert values == [mse_fitness(p, data, flag) for p in copied]

    def test_one_forward_pass_and_no_target_rebuild_per_call(self, monkeypatch):
        """One decode of all the rows and one pass of the forward body per
        call, whatever the number of chunks, and the targets are never
        rebuilt."""
        from fdo_mlp import training
        rng = np.random.default_rng(17)
        objectives = [(make_objective(topology, random_dataset(rng, samples, topology.inputs)),
                       vector_dimension(topology), chunk_size(topology, samples))
                      for topology, samples in ((MlpTopology(3, 4, 2), 7),
                                                (MlpTopology(18, 37, 1), 230))]
        calls = []
        for name in ("decode", "_forward_pass", "_target_matrix"):
            real = getattr(training, name)
            monkeypatch.setattr(training, name, lambda *args, name=name, real=real:
                                calls.append(name) or real(*args))
        for objective, d, c in objectives:
            for size in (d, (1, d), (c, d), (c + 1, d), (3 * c, d)):
                calls.clear()
                objective(rng.normal(size=size))
                assert calls == ["decode", "_forward_pass"]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_sigmoids_warn_nowhere(self):
        """Weights of +-1000 push exp past 709.78 in the hidden and the
        output sigmoid. The objective over several chunks, forward,
        forward_batch, mse_gradient, a backprop run and sigmoid alone each
        give finite values, 0 where exp overflows, and no overflow warning:
        each holds the errstate the forward pass leaves to its callers."""
        rng = np.random.default_rng(19)
        topology, samples = MlpTopology(18, 37, 1), 230
        data = random_dataset(rng, samples, topology.inputs)
        rows = rng.choice([-1000.0, 1000.0], (2 * chunk_size(topology, samples) + 1,
                                              vector_dimension(topology)))
        rows[::2, -(topology.hidden + 1):] = -1000.0  # the output layer's [V; b_o]
        for flag in (False, True):
            values = make_objective(topology, data, flag)(rows)
            assert np.isfinite(values).all()
            assert values.tolist() == [mse_fitness(decode(row, topology), data, flag)
                                       for row in rows]
        params = decode(rows[0], topology)
        with np.errstate(over="ignore"):
            s = data.features @ params.input_hidden_weights + params.hidden_biases
            hidden = 1 / (1 + np.exp(-s))
            s_out = hidden @ params.hidden_output_weights + params.output_biases
        assert (s < -709.79).any() and (s_out < -709.79).any()
        out = forward_batch(params, data.features, sigmoid_output=True)
        assert np.isfinite(out).all()
        assert (out[s_out < -709.79] == 0.0).all()
        rowwise = np.array([forward(params, row, sigmoid_output=True)
                            for row in data.features])
        assert np.isfinite(rowwise).all()
        assert (rowwise[s_out < -709.79] == 0.0).all()
        with np.errstate(over="ignore"):
            layer = _forward_pass(params, _negated_inputs(data.features), False)[0]
        assert (layer[s < -709.79] == 0.0).all()
        for flag in (False, True):
            assert np.isfinite(encode(mse_gradient(params, data, flag))).all()
        init = (params.input_hidden_weights, params.hidden_biases,
                params.hidden_output_weights, params.output_biases)
        model = train_bp_mlp(data, topology, 1e-9, 3, ReplayGenerator(init),
                             sigmoid_output=True)
        assert np.isfinite(model.curve.values).all()
        assert (sigmoid(s) == hidden).all()
        assert sigmoid(-1000.0) == 0.0

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

    def test_no_generator_draws_from_the_config_seed(self):
        """Without rng the search draws from default_rng(config.fdo.seed)."""
        data = min_max_normalize(generate_synthetic(40, 3, 4.0, 0.5,
                                                    np.random.default_rng(2)))
        config = TrainingConfig.for_topology(MlpTopology(3, 4, 1), population=9,
                                             max_iterations=20, seed=13)
        a = train_fdo_mlp(data, config)
        b = train_fdo_mlp(data, config, np.random.default_rng(config.fdo.seed))
        assert encode(a.params).tobytes() == encode(b.params).tobytes()
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


def param_arrays(params):
    return (params.input_hidden_weights, params.hidden_biases,
            params.hidden_output_weights, params.output_biases)


def allocating_loss_and_gradient(params, x, targets, sigmoid_output):
    """Reference: the loss-and-gradient expression of the backprop epoch,
    with fresh arrays for every step. The W and b_h gradient rows are, with
    one output unit, ((x₁ᵀ ⊙ d_outᵀ) @ h(1 - h)) ⊙ Vᵀ for x₁ = [x | 1], and
    with more, x₁ᵀ @ (h(1 - h) ⊙ (d_out @ Vᵀ)), each product taken with x₁ᵀ
    in C order, as in the pass, since BLAS rounds it differently from the
    transposed view of x₁ at some shapes; TestJoinedGradient holds the rows
    to the textbook x.T @ d_hidden within rounding."""
    hidden, out = _forward_pass(params, _negated_inputs(x), sigmoid_output)
    residuals = out - targets
    loss = float(np.mean(np.sum(residuals ** 2, axis=-1), axis=-1))
    d_out = (2.0 / x.shape[0]) * residuals
    if sigmoid_output:
        d_out = d_out * out * (1.0 - out)
    slope = hidden * (1.0 - hidden)
    weights_out = params.hidden_output_weights
    joined_t = np.ascontiguousarray(np.hstack([x, np.ones((x.shape[0], 1))]).T)
    if weights_out.shape[1] == 1:
        joined = ((joined_t * d_out.T) @ slope) * weights_out.T
    else:
        joined = joined_t @ (slope * (d_out @ weights_out.T))
    return loss, (joined[:-1], joined[-1], hidden.T @ d_out, d_out.sum(axis=0))


def allocating_train_bp(data, init, learning_rate, epochs, sigmoid_output):
    """Reference: the backprop trainer before it kept its parameters in one
    flat vector, updating each of the four arrays from fresh gradient arrays
    and keeping the best arrays themselves. Returns its best params, their
    MSE and the curve's values."""
    weights = tuple(np.array(w, dtype=float) for w in init)
    targets = _target_matrix(data.labels, weights[3].shape[0])
    best = weights
    best_loss, grads = allocating_loss_and_gradient(layered_params(*weights), data.features,
                                                    targets, sigmoid_output)
    values = []
    for _ in range(epochs):
        weights = tuple(w - learning_rate * g for w, g in zip(weights, grads))
        loss, grads = allocating_loss_and_gradient(layered_params(*weights), data.features,
                                                   targets, sigmoid_output)
        if loss < best_loss:
            best, best_loss = weights, loss
        values.append(best_loss)
    return layered_params(*best), best_loss, values


class ReplayGenerator:
    """Stands in for the generator train_bp_mlp draws its initial weights
    from, handing out the given arrays in the order it asks for them."""

    def __init__(self, arrays):
        self.arrays = list(arrays)

    def uniform(self, low, high, size):
        array = self.arrays.pop(0)
        assert array.shape == np.empty(size).shape
        return array.copy()


def stale_pass(params, x, targets, sigmoid_output):
    """The pass built for a copy of ``params`` and a fresh gradient, and the
    gradient. The pass has run once on NaN params, so its arrays and the
    gradient hold values it must never read, before the copy took the
    values of ``params``, as a backprop run updates its params in place."""
    topology = params.topology
    flat = np.concatenate([params.hidden_block, params.output_block], axis=None)
    live = _flat_params(np.full_like(flat, math.nan), topology)
    grads = _flat_params(np.empty_like(flat), topology)
    run = _backprop_pass(live, x, targets, sigmoid_output, grads)
    run()
    assert np.isnan(encode(grads)).all()
    live.hidden_block[...] = params.hidden_block
    live.output_block[...] = params.output_block
    return run, grads


def constant_hidden_params(inputs, output_bias):
    """Zero input weights and hidden biases, so every hidden unit reads 0.5
    on every row; output weights with negative entries whose products with
    0.5 and their sum are exact, so the raw output is exactly 0 for
    ``output_bias`` 0.625."""
    return layered_params(np.zeros((inputs, 3)), np.zeros(3),
                          np.array([[-1.5], [0.5], [-0.25]]), np.array([output_bias]))


class TestLossAndGradient:
    def assert_matches_reference(self, params, x, targets, flag):
        """Loss and gradients, bit for bit."""
        run, grads = stale_pass(params, x, targets, flag)
        loss = run()
        ref_loss, ref_grads = allocating_loss_and_gradient(params, x, targets, flag)
        assert repr(loss) == repr(ref_loss)
        for got, expected in zip(param_arrays(grads), ref_grads):
            assert got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()
        return grads

    def test_bits_match_allocating_reference_fuzz(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            topology = MlpTopology(int(rng.integers(1, 6)), int(rng.integers(1, 9)),
                                   int(rng.integers(1, 3)))
            data = random_dataset(rng, int(rng.integers(2, 12)), topology.inputs)
            targets = _target_matrix(data.labels, topology.outputs)
            for flag in (False, True):
                params = random_params(rng, topology, scale=float(rng.choice([0.5, 3.0])))
                self.assert_matches_reference(params, data.features, targets, flag)

    @pytest.mark.parametrize("labels, flag, output_bias", [
        ([0, 0, 0, 0, 0], False, 0.625),  # every residual +0
        ([0, 1, 0, 1, 1], False, 0.625),  # label-0 rows +0
        ([0, 1, 0, 1, 1], True, 100.0),   # output 1.0: every d_out +0
    ])
    def test_zero_d_out_against_negative_weights(self, labels, flag, output_bias):
        """Where every d_out is exactly zero, the product of the d_out-scaled
        [x | 1]ᵀ with h(1 - h) is +0 and its scaling by V leaves -0 in the
        W and b_h columns of a negative weight, +0 in the others."""
        x = np.random.default_rng(24).uniform(0, 1, (5, 2))
        targets = _target_matrix(np.array(labels), 1)
        params = constant_hidden_params(2, output_bias)
        grads = self.assert_matches_reference(params, x, targets, flag)
        if not grads.output_biases.any():
            assert not grads.hidden_block.any()
            negative = np.broadcast_to(params.hidden_output_weights.T < 0, (3, 3))
            assert (np.signbit(grads.hidden_block) == negative).all()

    @pytest.mark.parametrize("outputs", [1, 2])
    @pytest.mark.parametrize("flag", [False, True])
    def test_given_grads_allocates_less_than_a_hidden_layer(self, outputs, flag):
        """The second call of a pass built at 230 rows and 18-37-o allocates
        less than one (rows, hidden) float array, 68,080 bytes, at its peak:
        no outer product d_out ⊗ V or hidden-layer delta is built outside
        the arrays the pass was built with. What it does allocate is numpy's
        iteration buffer for the broadcast multiplies, about 36 KB for the
        d_out-scaled [x | 1]ᵀ with one output unit."""
        rng = np.random.default_rng(27)
        data = random_dataset(rng, 230, 18)
        topology = MlpTopology(18, 37, outputs)
        params = random_params(rng, topology)
        grads = _flat_params(np.empty(vector_dimension(topology)), topology)
        targets = _target_matrix(data.labels, outputs)
        run = _backprop_pass(params, data.features, targets, flag, grads)
        run()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 230 * 37 * 8

    def test_mse_gradient_wraps_the_pass(self):
        rng = np.random.default_rng(25)
        topology = MlpTopology(3, 4, 2)
        data = random_dataset(rng, 7, 3)
        params = random_params(rng, topology)
        targets = _target_matrix(data.labels, 2)
        for flag in (False, True):
            grad = mse_gradient(params, data, flag)
            expected = allocating_loss_and_gradient(params, data.features, targets, flag)[1]
            assert encode(grad).tobytes() == encode(layered_params(*expected)).tobytes()

    def test_mse_gradient_rejects_what_mse_fitness_rejects(self):
        params = decode(np.zeros(4), MlpTopology(1, 1, 1))
        empty = LabeledDataset(np.empty((0, 1)), np.empty(0, dtype=int), ("x",))
        wide = LabeledDataset(np.zeros((2, 3)), np.array([0, 1]), ("a", "b", "c"))
        with pytest.raises(ValueError, match="empty"):
            mse_gradient(params, empty)
        with pytest.raises(ValueError, match="3 features but the network expects 1"):
            mse_gradient(params, wide)


class TestJoinedGradient:
    @pytest.mark.parametrize("hidden", [9, 37])
    def test_rows_match_textbook_within_rounding(self, hidden):
        """The gradient's W and b_h rows, computed without the hidden-layer
        delta, lie within rounding of the textbook x.T @ d_hidden and column
        sums np.add.reduce(d_hidden, axis=0), d_hidden = (d_out @ V.T) * h *
        (1 - h): each side is within rows * eps * sum |terms| of the exact
        sum."""
        rng = np.random.default_rng(70 + hidden)
        data = random_dataset(rng, 230, 18)
        x = data.features
        eps = np.finfo(float).eps
        for outputs in (1, 2):
            targets = _target_matrix(data.labels, outputs)
            for flag in (False, True):
                params = random_params(rng, MlpTopology(18, hidden, outputs), scale=3.0)
                grads = mse_gradient(params, data, flag)
                hidden_out, out = _forward_pass(params, _negated_inputs(x), flag)
                d_out = (2.0 / x.shape[0]) * (out - targets)
                if flag:
                    d_out = d_out * out * (1.0 - out)
                d_hidden = ((d_out @ params.hidden_output_weights.T)
                            * hidden_out * (1.0 - hidden_out))
                for got, textbook, terms in (
                        (grads.input_hidden_weights, x.T @ d_hidden,
                         np.abs(x).T @ np.abs(d_hidden)),
                        (grads.hidden_biases, np.add.reduce(d_hidden, axis=0),
                         np.add.reduce(np.abs(d_hidden), axis=0))):
                    assert (np.abs(got - textbook) <= 2 * x.shape[0] * eps * terms).all()


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

    def test_no_generator_draws_from_the_default_seed(self):
        """Without rng the weights start from default_rng(42)."""
        a = train_bp_mlp(XOR, MlpTopology(2, 4, 1), 0.5, 60, None)
        b = train_bp_mlp(XOR, MlpTopology(2, 4, 1), 0.5, 60, np.random.default_rng(42))
        assert encode(a.params).tobytes() == encode(b.params).tobytes()
        assert a.train_mse == b.train_mse
        assert a.curve.values == b.curve.values

    def test_reported_mse_matches_recomputation(self):
        model = train_bp_mlp(XOR, MlpTopology(2, 4, 1), 0.5, 200,
                             np.random.default_rng(4))
        assert model.train_mse == pytest.approx(
            mse_fitness(model.params, XOR), abs=1e-12)

    @pytest.mark.parametrize("flag, learning_rate", [(False, 0.9), (True, 100.0)])
    def test_best_params_are_owned_and_rescore_exactly(self, monkeypatch, flag,
                                                       learning_rate):
        """A run whose loss rises after its best epoch returns that epoch's
        params: they rescore to train_mse exactly, share no memory with the
        arrays the run updates, and a second run leaves them unchanged."""
        from fdo_mlp import training
        data = min_max_normalize(generate_synthetic(60, 4, 6.0, 0.6,
                                                    np.random.default_rng(7)))
        topology = MlpTopology(4, 9, 1)
        live, losses = [], []
        real = training._forward_pass

        def recording(params, *args):
            live.append(params)
            hidden, out = real(params, *args)
            losses.append(training.output_mse(out, data.labels))
            return hidden, out

        monkeypatch.setattr(training, "_forward_pass", recording)
        model = train_bp_mlp(data, topology, learning_rate, 250,
                             np.random.default_rng(3), sigmoid_output=flag)
        best_epoch = losses.index(model.train_mse)
        assert 0 < best_epoch < 250
        assert max(losses[best_epoch + 1:]) > model.train_mse
        assert model.train_mse == mse_fitness(model.params, data, flag)
        kept = encode(model.params)
        returned = (model.params.input_hidden_weights, model.params.hidden_biases,
                    model.params.hidden_output_weights, model.params.output_biases)
        updated = (live[-1].input_hidden_weights, live[-1].hidden_biases,
                   live[-1].hidden_output_weights, live[-1].output_biases)
        assert not any(np.shares_memory(a, b) for a in returned for b in updated)
        again = train_bp_mlp(data, topology, learning_rate, 250,
                             np.random.default_rng(3), sigmoid_output=flag)
        assert encode(model.params).tobytes() == kept.tobytes()
        assert encode(again.params).tobytes() == kept.tobytes()

    def test_one_forward_pass_per_epoch(self, monkeypatch):
        from fdo_mlp import mlp, training
        calls = []
        real = mlp._forward_pass
        monkeypatch.setattr(training, "_forward_pass",
                            lambda *args: calls.append(1) or real(*args))
        train_bp_mlp(XOR, MlpTopology(2, 3, 1), 0.5, 12, np.random.default_rng(3))
        assert len(calls) == 12 + 1  # every epoch plus the initial weights

    def test_divergence_names_epoch(self):
        rng = np.random.default_rng(1)
        data = random_dataset(rng, 8, 3)
        with pytest.raises(EvaluationError, match="epoch"):
            train_bp_mlp(data, MlpTopology(3, 4, 1), 1e12, 50,
                         np.random.default_rng(1))

    def test_overflow_raises_divergence_not_a_warning(self):
        """A step so large that the loss overflows at epoch 1 raises the
        documented error, not numpy's overflow warning, under the suite's
        warnings-as-errors filter."""
        data = min_max_normalize(generate_synthetic(40, 3, 6.0, 0.5,
                                                    np.random.default_rng(1)))
        with pytest.raises(EvaluationError, match="^training diverged at epoch 1$"):
            train_bp_mlp(data, MlpTopology(3, 7, 1), 1e300, 3, np.random.default_rng(0))

    def test_learns_xor_majority(self):
        """Plain gradient descent solves XOR from most starts."""
        from fdo_mlp.evaluation import classification_rate
        wins = 0
        for seed in range(10):
            model = train_bp_mlp(XOR, MlpTopology(2, 5, 1), 0.5, 5000,
                                 np.random.default_rng(seed))
            wins += classification_rate(model.params, XOR) == 1.0
        assert wins > 5


class TestTrainBpMlpMatchesAllocatingReference:
    """train_bp_mlp, which updates one flat parameter vector and computes its
    gradient in place, gives the allocating per-array trainer's params,
    train_mse and curve bit for bit."""

    def assert_same_run(self, data, topology, init, learning_rate, epochs, flag):
        model = train_bp_mlp(data, topology, learning_rate, epochs,
                             ReplayGenerator(init), sigmoid_output=flag)
        params, loss, values = allocating_train_bp(data, init, learning_rate, epochs, flag)
        assert encode(model.params).tobytes() == encode(params).tobytes()
        assert repr(model.train_mse) == repr(loss)
        assert np.array(model.curve.values).tobytes() == np.array(values).tobytes()
        return model

    @pytest.mark.parametrize("outputs", [1, 2])
    @pytest.mark.parametrize("flag", [False, True])
    def test_random_starts(self, outputs, flag):
        rng = np.random.default_rng(31 + outputs)
        data = min_max_normalize(generate_synthetic(40, 3, 3.0, 0.5, rng))
        topology = MlpTopology(3, 6, outputs)
        init = (rng.uniform(-0.5, 0.5, (3, 6)), rng.uniform(-0.5, 0.5, 6),
                rng.uniform(-0.5, 0.5, (6, outputs)), rng.uniform(-0.5, 0.5, outputs))
        model = self.assert_same_run(data, topology, init, 0.7, 250, flag)
        assert model.curve.values[-1] < model.curve.values[0]

    @pytest.mark.parametrize("labels, flag, output_bias", [
        ([0, 1, 0, 1, 1], False, 0.625),  # label-0 rows start with d_out +0
        ([0, 1, 0, 1, 1], True, 100.0),   # output 1.0: every d_out starts +0
    ])
    def test_zero_d_out_against_negative_weights(self, labels, flag, output_bias):
        x = np.random.default_rng(24).uniform(0, 1, (5, 2))
        data = LabeledDataset(x, np.array(labels), ("a", "b"))
        start = constant_hidden_params(2, output_bias)
        init = (start.input_hidden_weights, start.hidden_biases,
                start.hidden_output_weights, start.output_biases)
        self.assert_same_run(data, MlpTopology(2, 3, 1), init, 0.5, 200, flag)

    def test_mse_gradient_returns_owned_arrays(self):
        rng = np.random.default_rng(26)
        params = random_params(rng, MlpTopology(3, 4, 2))
        data = random_dataset(rng, 7, 3)
        first, second = mse_gradient(params, data), mse_gradient(params, data)
        arrays = [getattr(grad, name) for grad in (first, second)
                  for name in ("input_hidden_weights", "hidden_biases",
                               "hidden_output_weights", "output_biases")]
        assert not any(np.shares_memory(a, b)
                       for i, a in enumerate(arrays) for b in arrays[i + 1:])


def nan_feature_dataset():
    features = XOR.features.copy()
    features[2, 1] = np.nan
    return LabeledDataset(features, XOR.labels, XOR.column_names)


@pytest.mark.parametrize("train", [
    lambda: train_fdo_mlp(nan_feature_dataset(), TrainingConfig.for_topology(
        MlpTopology(2, 3, 1), population=5, max_iterations=2)),
    lambda: train_bp_mlp(nan_feature_dataset(), MlpTopology(2, 3, 1), 0.5, 5),
    lambda: train_bp_mlp(nan_feature_dataset(), MlpTopology(2, 3, 1), 0.5, 0),
], ids=["fdo", "bp", "bp-zero-epochs"])
def test_nan_feature_is_rejected_before_training(train):
    """Neither the search's non-finite objective value, backprop's divergence
    at epoch 1 nor a zero-epoch run's nan train_mse: the dataset names the
    feature."""
    with pytest.raises(ValueError, match="row 2, column 'x2': feature nan is not finite"):
        train()


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
