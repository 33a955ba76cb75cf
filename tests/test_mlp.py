"""Network arithmetic, the flat-vector codec, and the forward pass."""

import dataclasses
import math

import numpy as np
import pytest

from fdo_mlp.data import LabeledDataset, write_text_atomic
from fdo_mlp.evaluation import classification_rate, score
from fdo_mlp.mlp import (MlpParams, MlpTopology, _forward_pass, _negated_inputs, decode,
                         encode, forward, forward_batch, hidden_size_rule,
                         output_labels, params_from_text, params_to_text, sigmoid,
                         vector_dimension)
from fdo_mlp.training import mse_fitness, mse_gradient, output_mse


def read_params(path):
    """The parameters on the first two lines of a model file."""
    return params_from_text(path.read_text(encoding="utf-8"), source=str(path))


def layered_params(weights, biases, weights_out, biases_out):
    """One network's params from its four arrays W, b_h, V and b_o."""
    return MlpParams(np.vstack([weights, biases]), np.vstack([weights_out, biases_out]))


def random_params(rng, topology, scale=1.0):
    n, m, o = topology.inputs, topology.hidden, topology.outputs
    return layered_params(rng.uniform(-scale, scale, (n, m)),
                          rng.uniform(-scale, scale, m),
                          rng.uniform(-scale, scale, (m, o)),
                          rng.uniform(-scale, scale, o))


def reference_forward(params, x, sigmoid_output=False):
    """Straight-line reimplementation used as the oracle for `forward`."""
    n, m = params.input_hidden_weights.shape
    o = params.hidden_output_weights.shape[1]
    hidden = []
    for j in range(m):
        s = params.hidden_biases[j]
        for i in range(n):
            s += params.input_hidden_weights[i, j] * x[i]
        hidden.append(1.0 / (1.0 + math.exp(-s)))
    out = []
    for k in range(o):
        total = params.output_biases[k]
        for j in range(m):
            total += params.hidden_output_weights[j, k] * hidden[j]
        if sigmoid_output:
            total = 1.0 / (1.0 + math.exp(-total))
        out.append(total)
    return np.array(out)


class TestTopologyArithmetic:
    def test_connection_counts(self):
        assert vector_dimension(MlpTopology(18, 37, 1)) == 741
        assert vector_dimension(MlpTopology(1, 1, 1)) == 4
        assert vector_dimension(MlpTopology(2, 5, 3)) == 33

    def test_hidden_size_rule(self):
        assert hidden_size_rule(18) == 37
        assert hidden_size_rule(1) == 3
        assert hidden_size_rule(2) == 5

    def test_rule_consistency_fuzz(self):
        for n in range(1, 30):
            for o in (1, 2, 5):
                got = vector_dimension(MlpTopology(n, 2 * n + 1, o))
                assert got == (n + 1) * (2 * n + 1) + (2 * n + 2) * o

    def test_invalid_topology(self):
        with pytest.raises(ValueError):
            MlpTopology(0, 1, 1)


class TestCodec:
    def test_minimal_layout(self):
        params = decode(np.array([1.0, 2.0, 3.0, 4.0]), MlpTopology(1, 1, 1))
        assert params.input_hidden_weights[0, 0] == 1.0
        assert params.hidden_biases[0] == 2.0
        assert params.hidden_output_weights[0, 0] == 3.0
        assert params.output_biases[0] == 4.0

    def test_wrong_length_reports_sizes(self):
        with pytest.raises(ValueError, match="length 3, expected 4"):
            decode(np.zeros(3), MlpTopology(1, 1, 1))
        with pytest.raises(ValueError, match="length 3, expected 4"):
            decode(np.zeros((2, 3)), MlpTopology(1, 1, 1))
        with pytest.raises(ValueError, match=r"shape \(2, 2, 4\)"):
            decode(np.zeros((2, 2, 4)), MlpTopology(1, 1, 1))

    def test_roundtrip_fuzz(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            topology = MlpTopology(int(rng.integers(1, 8)), int(rng.integers(1, 8)),
                                   int(rng.integers(1, 4)))
            flat = rng.normal(size=vector_dimension(topology))
            np.testing.assert_array_equal(encode(decode(flat, topology)), flat)
        # a (c, d) stack decodes to the stacked params of its rows
        stack = rng.normal(size=(3, vector_dimension(topology)))
        stacked = decode(stack, topology)
        assert stacked.topology == topology
        for i, row in enumerate(stack):
            np.testing.assert_array_equal(
                encode(MlpParams(stacked.hidden_block[i], stacked.output_block[i])), row)

    def test_encode_rejects_a_stack(self):
        """A stack has no one flat vector: encoding it, or writing it as a
        model file, is refused with its shape."""
        topology = MlpTopology(3, 2, 2)
        stacked = decode(np.zeros((2, vector_dimension(topology))), topology)
        for write in (encode, params_to_text):
            with pytest.raises(ValueError, match=r"a stack: hidden block of shape \(2, 4, 2\)"):
                write(stacked)

    def test_roundtrip_from_params(self):
        rng = np.random.default_rng(12)
        topology = MlpTopology(3, 5, 2)
        params = random_params(rng, topology)
        again = decode(encode(params), topology)
        np.testing.assert_array_equal(again.input_hidden_weights,
                                      params.input_hidden_weights)
        np.testing.assert_array_equal(again.output_biases, params.output_biases)

    def test_params_do_not_share_the_flat_vector(self):
        rng = np.random.default_rng(14)
        for topology in (MlpTopology(3, 5, 2), MlpTopology(18, 37, 1),
                         MlpTopology(1, 1, 1)):
            flat = rng.normal(size=vector_dimension(topology))
            params = decode(flat, topology)
            arrays = (params.input_hidden_weights, params.hidden_biases,
                      params.hidden_output_weights, params.output_biases)
            before = [a.copy() for a in arrays]
            flat[:] = np.nan
            for array, kept in zip(arrays, before):
                np.testing.assert_array_equal(array, kept)

    def test_weight_matrices_are_c_contiguous(self):
        rng = np.random.default_rng(15)
        for topology in (MlpTopology(18, 37, 1), MlpTopology(3, 5, 2)):
            params = decode(rng.normal(size=vector_dimension(topology)), topology)
            assert params.input_hidden_weights.flags.c_contiguous
            assert params.hidden_output_weights.flags.c_contiguous

    def test_hidden_block_is_held_not_copied(self):
        """Decoded params, single or stacked, are their two blocks: the four
        arrays view them, none shares memory with the flat vector, and
        nothing can be rebound."""
        rng = np.random.default_rng(16)
        topology = MlpTopology(4, 6, 2)
        for flat in (rng.normal(size=vector_dimension(topology)),
                     rng.normal(size=(3, vector_dimension(topology)))):
            params = decode(flat, topology)
            stack = flat.shape[:-1]
            assert params.hidden_block.shape == (*stack, 5, 6)
            assert params.output_block.shape == (*stack, 7, 2)
            views = ((params.hidden_block, params.input_hidden_weights, params.hidden_biases),
                     (params.output_block, params.hidden_output_weights,
                      params.output_biases))
            for block, weights, biases in views:
                assert not np.shares_memory(block, flat)
                assert np.shares_memory(block, weights) and np.shares_memory(block, biases)
                np.testing.assert_array_equal(block[..., :-1, :], weights)
                np.testing.assert_array_equal(block[..., -1, :], biases)
            for name in ("hidden_block", "hidden_biases"):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(params, name, np.zeros(6))

    @pytest.mark.parametrize("hidden_shape, output_shape", [
        ((2, 4, 3), (3, 4, 1)),  # stacks of 2 and of 3
        ((4, 3), (2, 4, 1)),     # one network, one stack
        ((4, 3), (3, 1)),        # an output block of m rows, not m + 1
        ((1, 3), (4, 1)),        # a hidden block of one row: n = 0
    ])
    def test_inconsistent_blocks_are_rejected(self, hidden_shape, output_shape):
        with pytest.raises(ValueError, match="parameter shapes are inconsistent"):
            MlpParams(np.zeros(hidden_shape), np.zeros(output_shape))

    def test_zero_params_encode(self):
        params = decode(np.zeros(4), MlpTopology(1, 1, 1))
        np.testing.assert_array_equal(encode(params), np.zeros(4))

    def test_encode_length(self):
        rng = np.random.default_rng(13)
        topology = MlpTopology(4, 9, 2)
        assert encode(random_params(rng, topology)).size == vector_dimension(topology)


class TestSigmoid:
    def test_center(self):
        assert sigmoid(0.0) == 0.5

    def test_reference_value(self):
        assert sigmoid(2.0) == pytest.approx(0.8807970779778823, abs=1e-12)

    def test_symmetry_fuzz(self):
        rng = np.random.default_rng(4)
        for s in rng.uniform(-30, 30, 500):
            assert sigmoid(s) + sigmoid(-s) == pytest.approx(1.0, abs=1e-12)

    def test_open_interval(self):
        rng = np.random.default_rng(5)
        values = sigmoid(rng.uniform(-36, 36, 2000))
        assert (values > 0.0).all() and (values < 1.0).all()

    def test_large_inputs_do_not_overflow(self):
        assert sigmoid(-800.0) == 0.0
        assert sigmoid(800.0) == 1.0

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                        reason="long double is no wider than double here")
    def test_arrays_match_long_double_reference(self):
        """Within 3e-16 relative of 1 / (1 + exp(-s)) in long double."""
        rng = np.random.default_rng(21)
        for shape, scale in (((287, 37), 30.0), ((230, 1), 5.0), ((7, 230, 37), 30.0),
                             ((230, 37), 700.0)):
            s = rng.uniform(-scale, scale, shape)
            exact = 1 / (1 + np.exp(-s.astype(np.longdouble)))
            error = np.abs((sigmoid(s) - exact) / exact)
            assert float(error.max()) <= 3e-16

    def test_edge_values(self):
        """exp(-s) overflows below s = -709.78 and the result is 0, without a
        warning; -745 would round to 5e-324."""
        edges = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 800.0, -800.0, -745.0])
        expected = np.array([0.5, 0.5, 1.0, 0.0, np.nan, 1.0, 0.0, 0.0])
        np.testing.assert_array_equal(sigmoid(edges), expected)

    def test_out_gives_allocating_bits(self):
        """With ``out``, the same bits are written there and ``s`` is scratch."""
        rng = np.random.default_rng(22)
        edges = np.array([0.0, -0.0, 1e-300, -1e-300, 745.0, -745.0, 800.0, -800.0,
                          np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e-16, -1e-16])
        for s in (edges, rng.uniform(-30.0, 30.0, (3, 230, 37))):
            out = np.empty_like(s)
            result = sigmoid(s.copy(), out)
            assert np.shares_memory(result, out)
            assert out.tobytes() == sigmoid(s).tobytes()


class TestForward:
    def test_all_zero_params(self):
        topology = MlpTopology(3, 4, 2)
        params = decode(np.zeros(vector_dimension(topology)), topology)
        out = forward(params, [0.3, 0.7, 0.1])
        np.testing.assert_allclose(out, [0.0, 0.0])
        hidden = sigmoid(np.zeros(4))
        np.testing.assert_allclose(hidden, 0.5)

    def test_half_times_two(self):
        params = decode(np.array([0.0, 0.0, 2.0, 0.0]), MlpTopology(1, 1, 1))
        np.testing.assert_allclose(forward(params, [123.0]), [1.0])

    def test_matches_reference_fuzz(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            topology = MlpTopology(int(rng.integers(1, 6)), int(rng.integers(1, 7)),
                                   int(rng.integers(1, 3)))
            params = random_params(rng, topology, scale=3.0)
            x = rng.uniform(-2, 2, topology.inputs)
            for flag in (False, True):
                np.testing.assert_allclose(
                    forward(params, x, sigmoid_output=flag),
                    reference_forward(params, x, sigmoid_output=flag),
                    atol=1e-12)

    @pytest.mark.parametrize("hidden", [1, 2, 3, 4, 5, 8, 9, 16, 17, 36, 37, 38, 64])
    def test_hidden_layer_matches_textbook_fuzz(self, hidden):
        """The joined product -[x | 1] @ [W; b_h] gives the activations of
        sigmoid(x @ W + b_h) within the rounding of the two dot products: at
        most (n + 1) eps (|x| @ |W| + |b_h|) apart before the sigmoid, whose
        slope is at most 1/4, plus 4 ulp of the result. Stacked params,
        decoded ones and ones built from four arrays alike."""
        rng = np.random.default_rng(40 + hidden)
        eps = np.finfo(float).eps
        for _ in range(4):
            n = int(rng.integers(1, 21))
            topology = MlpTopology(n, hidden, int(rng.integers(1, 4)))
            x = rng.uniform(0, 1, (int(rng.integers(1, 40)), n))
            stack = rng.uniform(-10, 10, (3, vector_dimension(topology)))
            for params in (decode(stack, topology), decode(stack[0], topology),
                           random_params(rng, topology, scale=3.0)):
                weights, biases = params.input_hidden_weights, params.hidden_biases[..., None, :]
                layer = _forward_pass(params, _negated_inputs(x), False)[0]
                textbook = sigmoid(x @ weights + biases)
                bound = (0.25 * (n + 1) * eps * (np.abs(x) @ np.abs(weights) + np.abs(biases))
                         + 4 * np.spacing(textbook))
                assert layer.shape == textbook.shape
                assert (np.abs(layer - textbook) <= bound).all()

    @pytest.mark.parametrize("topology, samples, c", [(MlpTopology(18, 37, 1), 230, 7),
                                                      (MlpTopology(4, 9, 3), 31, 3)])
    def test_chunked_stack_matches_whole_stack(self, topology, samples, c):
        """A stack of k run c at a time in a c-slice ``work`` gives the
        outputs of one whole-stack pass, bit for bit, and each network's
        MSE is mse_fitness of its decoded row. The whole-stack pass returns
        every slice's activations; the chunked one the last chunk's."""
        rng = np.random.default_rng(samples)
        x = rng.uniform(0, 1, (samples, topology.inputs))
        labels = rng.integers(0, 2, samples)
        data = LabeledDataset(x, labels, tuple(f"c{i}" for i in range(topology.inputs)))
        inputs = _negated_inputs(x)
        work = np.empty((c, samples, topology.hidden))
        for k in (1, c - 1, c, c + 1, 3 * c + 1):
            rows = rng.uniform(-10, 10, (k, vector_dimension(topology)))
            for flag in (False, True):
                hidden, out = _forward_pass(decode(rows, topology), inputs, flag, work[:k])
                whole_hidden, whole = _forward_pass(decode(rows, topology), inputs, flag)
                assert out.shape == whole.shape == (k, samples, topology.outputs)
                assert out.tobytes() == whole.tobytes()
                assert whole_hidden.shape == (k, samples, topology.hidden)
                assert hidden.tobytes() == whole_hidden[k - len(hidden):].tobytes()
                assert [output_mse(o, labels) for o in out] == \
                    [mse_fitness(decode(row, topology), data, flag) for row in rows]

    def test_batch_matches_single(self):
        rng = np.random.default_rng(9)
        topology = MlpTopology(4, 6, 2)
        params = random_params(rng, topology)
        xs = rng.uniform(0, 1, (10, 4))
        batch = forward_batch(params, xs)
        for row, x in zip(batch, xs):
            np.testing.assert_allclose(row, forward(params, x), atol=1e-12)

    def test_shape_mismatch(self):
        params = decode(np.zeros(4), MlpTopology(1, 1, 1))
        with pytest.raises(ValueError):
            forward(params, [1.0, 2.0])

    @pytest.mark.parametrize("rows", [2, 3])
    def test_one_network_entry_points_reject_a_stack(self, rows):
        """Stacked params are refused by every entry point that runs one
        network, with the stack's shape, also when its length equals n."""
        topology = MlpTopology(3, 4, 1)
        params = decode(np.zeros((rows, vector_dimension(topology))), topology)
        data = LabeledDataset(np.zeros((2, 3)), np.array([0, 1]), ("a", "b", "c"))
        calls = (lambda: forward(params, np.zeros(3)),
                 lambda: forward_batch(params, data.features),
                 lambda: mse_fitness(params, data), lambda: mse_gradient(params, data),
                 lambda: score(params, data, 0.5, False),
                 lambda: classification_rate(params, data))
        for call in calls:
            with pytest.raises(ValueError, match=rf"one network, got a stack: hidden "
                                                 rf"block of shape \({rows}, 4, 4\)"):
                call()


class TestPredict:
    def test_threshold(self):
        labels = output_labels(np.array([[0.7], [0.5], [0.49]]), 0.5)
        np.testing.assert_array_equal(labels, [1, 1, 0])

    def test_argmax(self):
        labels = output_labels(np.array([[0.2, 0.9], [0.9, 0.9]]))
        np.testing.assert_array_equal(labels, [1, 0])  # a tie goes to the lowest index

    def test_batch(self):
        params = decode(np.array([0.0, 0.0, 2.0, -0.5]), MlpTopology(1, 1, 1))
        # output is 2 * sigmoid(0) - 0.5 = 0.5 for any input
        labels = output_labels(forward_batch(params, np.array([[0.0], [1.0]])), 0.5)
        np.testing.assert_array_equal(labels, [1, 1])


class TestSerialization:
    def test_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(10)
        params = random_params(rng, MlpTopology(3, 7, 1), scale=9.0)
        path = tmp_path / "model.txt"
        write_text_atomic(path, params_to_text(params))
        again = read_params(path)
        np.testing.assert_array_equal(encode(again), encode(params))

    def test_malformed_topology_line(self):
        with pytest.raises(ValueError, match="topology line"):
            params_from_text("a b c\n1.0 2.0\n")

    def test_empty_layer_names_file_and_line(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text("0 1 1\n1.0 2.0\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"model\.txt: malformed topology line '0 1 1'"):
            read_params(path)

    def test_truncated_file(self):
        with pytest.raises(ValueError):
            params_from_text("1 1 1\n")

    @pytest.mark.parametrize("token", ["nan", "-inf", "inf", "abc"])
    def test_bad_value_names_file_line_and_position(self, tmp_path, token):
        path = tmp_path / "model.txt"
        path.write_text(f"1 1 1\n0.5 -1.0 {token} 2.0\n", encoding="utf-8")
        with pytest.raises(ValueError,
                           match=rf"model\.txt: line 2, value 3: cannot parse '{token}'"):
            read_params(path)

    @pytest.mark.parametrize("count", [0, 3, 5])
    def test_wrong_value_count_names_file_and_line(self, tmp_path, count):
        path = tmp_path / "model.txt"
        path.write_text("1 1 1\n" + " ".join(["0.5"] * count) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=rf"model\.txt: line 2 has {count} values, "
                                             r"expected 4 for topology \(1, 1, 1\)"):
            read_params(path)
