"""Network arithmetic, the flat-vector codec, and the forward pass."""

import math

import numpy as np
import pytest

from fdo_mlp.data import write_text_atomic
from fdo_mlp.mlp import (MlpParams, MlpTopology, decode, encode, forward,
                         forward_batch, hidden_size_rule, output_labels,
                         params_from_text, params_to_text, sigmoid,
                         vector_dimension)


def read_params(path):
    """The parameters on the first two lines of a model file."""
    return params_from_text(path.read_text(encoding="utf-8"), source=str(path))


def random_params(rng, topology, scale=1.0):
    n, m, o = topology.inputs, topology.hidden, topology.outputs
    return MlpParams(rng.uniform(-scale, scale, (n, m)),
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
                encode(MlpParams(stacked.input_hidden_weights[i], stacked.hidden_biases[i],
                                 stacked.hidden_output_weights[i],
                                 stacked.output_biases[i])), row)

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

    def test_arrays_match_two_branch_reference_bitwise(self):
        """The one-exp form equals masked 1/(1+exp(-s)) and exp(s)/(1+exp(s))."""
        def reference(s):
            out = np.empty_like(s)
            positive = s >= 0.0
            out[positive] = 1.0 / (1.0 + np.exp(-s[positive]))
            e = np.exp(s[~positive])
            out[~positive] = e / (1.0 + e)
            return out

        rng = np.random.default_rng(21)
        for shape, scale in (((287, 37), 30.0), ((230, 1), 5.0), ((7,), 800.0),
                             ((230, 37), 800.0), ((7, 230, 37), 30.0)):
            s = rng.uniform(-scale, scale, shape)
            np.testing.assert_array_equal(sigmoid(s), reference(s))
        edges = np.array([0.0, -0.0, 1e-300, -1e-300, 745.0, -745.0, 800.0, -800.0,
                          np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e-16, -1e-16])
        np.testing.assert_array_equal(sigmoid(edges), reference(edges))
        # with work arrays: the same bits, written to out, s used as scratch
        for s in (edges, rng.uniform(-30.0, 30.0, (3, 230, 37))):
            out, mask = np.empty_like(s), np.empty(s.shape, dtype=bool)
            expected = reference(s)
            result = sigmoid(s.copy(), out, mask)
            assert np.shares_memory(result, out)
            np.testing.assert_array_equal(out, expected)


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
