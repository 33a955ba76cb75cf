"""Single-hidden-layer perceptron: forward pass and flat-vector codec.

The network computes ``O = V^T sigmoid(W^T x + b_h) + b_o`` with sigmoid
hidden units and a linear output layer (an optional sigmoid on the output is
available for experimentation). All parameters live in one flat vector so a
black-box optimizer can search over them directly. The canonical layout
interleaves each hidden unit's incoming weights with its bias, then each
output unit's incoming weights with its bias:

    [w_1..w_n b | ... m blocks ... | v_1..v_m b | ... o blocks ...]

which makes the total length (n+1)*m + (m+1)*o.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import write_text_atomic


@dataclass(frozen=True)
class MlpTopology:
    """Layer sizes: ``inputs`` features, ``hidden`` units, ``outputs`` units."""

    inputs: int
    hidden: int
    outputs: int

    def __post_init__(self):
        for name in ("inputs", "hidden", "outputs"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")


@dataclass(eq=False)
class MlpParams:
    """Structured view of one parameter vector.

    Shapes: input_hidden_weights (n, m), hidden_biases (m,),
    hidden_output_weights (m, o), output_biases (o,).
    """

    input_hidden_weights: np.ndarray
    hidden_biases: np.ndarray
    hidden_output_weights: np.ndarray
    output_biases: np.ndarray

    def __post_init__(self):
        n, m = self.input_hidden_weights.shape
        m2, o = self.hidden_output_weights.shape
        if m2 != m or self.hidden_biases.shape != (m,) or self.output_biases.shape != (o,):
            raise ValueError("parameter shapes are inconsistent")

    @property
    def topology(self) -> MlpTopology:
        n, m = self.input_hidden_weights.shape
        return MlpTopology(n, m, self.hidden_output_weights.shape[1])


def vector_dimension(topology: MlpTopology) -> int:
    """Length of the flat parameter vector: (n+1)*m + (m+1)*o."""
    n, m, o = topology.inputs, topology.hidden, topology.outputs
    return (n + 1) * m + (m + 1) * o


def hidden_size_rule(feature_count: int) -> int:
    """Stock hidden-layer size for a given feature count: 2*N + 1."""
    if feature_count < 1:
        raise ValueError("feature_count must be at least 1")
    return 2 * feature_count + 1


def decode(flat: np.ndarray, topology: MlpTopology) -> MlpParams:
    """Unpack a flat vector into structured weights and biases.

    The result owns C-ordered copies: each layer's block is copied once,
    transposed to (fan-in + 1, units), and split into its weight rows and
    its bias row. Later writes to ``flat`` do not reach the result, and both
    matrix products read contiguous weights.
    """
    flat = np.asarray(flat, dtype=float)
    expected = vector_dimension(topology)
    if flat.shape != (expected,):
        raise ValueError(
            f"flat vector has length {flat.size}, expected {expected} "
            f"for topology ({topology.inputs}, {topology.hidden}, {topology.outputs})")
    n, m, o = topology.inputs, topology.hidden, topology.outputs
    hidden_block = flat[:(n + 1) * m].reshape(m, n + 1).T.copy()
    output_block = flat[(n + 1) * m:].reshape(o, m + 1).T.copy()
    return MlpParams(
        input_hidden_weights=hidden_block[:n],
        hidden_biases=hidden_block[n],
        hidden_output_weights=output_block[:m],
        output_biases=output_block[m],
    )


def encode(params: MlpParams) -> np.ndarray:
    """Pack structured parameters back into the canonical flat vector."""
    hidden_block = np.hstack([params.input_hidden_weights.T,
                              params.hidden_biases[:, None]])
    output_block = np.hstack([params.hidden_output_weights.T,
                              params.output_biases[:, None]])
    return np.concatenate([hidden_block.ravel(), output_block.ravel()])


def sigmoid(s):
    """Logistic function 1 / (1 + exp(-s)), elementwise; scalars give scalars.

    One e = exp(-|s|) serves both signs, so exp never overflows. The
    numerator max(e, s >= 0) is 1 for s >= 0 (there e <= 1) and e below
    (there the mask is 0 and e >= 0); NaN stays NaN. Each element is
    therefore the same division as in the two-branch form 1 / (1 + e) for
    s >= 0 and e / (1 + e) otherwise, and gives the same bits, without a
    second division or a select.
    """
    s = np.asarray(s, dtype=float)
    e = np.exp(-np.abs(s))
    return (np.maximum(e, s >= 0.0) / (1.0 + e))[()]


def _forward_pass(params: MlpParams, x: np.ndarray,
                  sigmoid_output: bool) -> tuple[np.ndarray, np.ndarray]:
    """Hidden activations and network outputs: the one forward body."""
    hidden = sigmoid(x @ params.input_hidden_weights + params.hidden_biases)
    out = hidden @ params.hidden_output_weights + params.output_biases
    return hidden, (sigmoid(out) if sigmoid_output else out)


def forward(params: MlpParams, inputs, sigmoid_output: bool = False) -> np.ndarray:
    """Network output for one input vector of length ``inputs``."""
    x = np.asarray(inputs, dtype=float)
    n = params.input_hidden_weights.shape[0]
    if x.shape != (n,):
        raise ValueError(f"input has shape {x.shape}, expected ({n},)")
    return _forward_pass(params, x, sigmoid_output)[1]


def forward_batch(params: MlpParams, inputs: np.ndarray,
                  sigmoid_output: bool = False) -> np.ndarray:
    """Network outputs for a (samples, inputs) matrix, one row per sample."""
    x = np.asarray(inputs, dtype=float)
    n = params.input_hidden_weights.shape[0]
    if x.ndim != 2 or x.shape[1] != n:
        raise ValueError(f"input matrix has shape {x.shape}, expected (*, {n})")
    return _forward_pass(params, x, sigmoid_output)[1]


def output_labels(outputs: np.ndarray, threshold: float = 0.5) -> np.ndarray:
    """Class label for each row of a (samples, outputs) matrix.

    A single output unit thresholds at ``threshold`` (boundary counts as
    class 1); several output units pick the argmax, ties going to the
    lowest index.
    """
    if outputs.shape[1] == 1:
        return (outputs[:, 0] >= threshold).astype(int)
    return np.argmax(outputs, axis=1)


def predict_class(output, threshold: float = 0.5) -> int:
    """Class label for one output vector, by :func:`output_labels`' rule."""
    output = np.asarray(output, dtype=float)
    if output.size == 0:
        raise ValueError("output vector is empty")
    return int(output_labels(output.reshape(1, -1), threshold)[0])


def predict_batch(params: MlpParams, inputs: np.ndarray, threshold: float = 0.5,
                  sigmoid_output: bool = False) -> np.ndarray:
    """Predicted class labels for each row of a feature matrix."""
    return output_labels(forward_batch(params, inputs, sigmoid_output), threshold)


def params_to_text(params: MlpParams) -> str:
    """Two-line serialization: "n m o" then the flat vector.

    Values are written with full repr precision so a reload is bit-exact.
    """
    t = params.topology
    flat = encode(params)
    return (f"{t.inputs} {t.hidden} {t.outputs}\n"
            + " ".join(repr(float(v)) for v in flat) + "\n")


def params_from_text(text: str, source: str = "<text>") -> MlpParams:
    lines = text.splitlines()
    if len(lines) < 2:
        raise ValueError(f"{source}: expected a topology line and a vector line")
    try:
        n, m, o = (int(tok) for tok in lines[0].split())
    except ValueError as err:
        raise ValueError(f"{source}: malformed topology line {lines[0]!r}") from err
    topology = MlpTopology(n, m, o)
    flat = np.array([float(tok) for tok in lines[1].split()], dtype=float)
    return decode(flat, topology)


def save_params(params: MlpParams, path) -> None:
    """Write :func:`params_to_text` output to a file, atomically."""
    write_text_atomic(path, params_to_text(params))


def load_params(path) -> MlpParams:
    """Read parameters written by :func:`save_params`."""
    return params_from_text(Path(path).read_text(encoding="utf-8"), source=str(path))
