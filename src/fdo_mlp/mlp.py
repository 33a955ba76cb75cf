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

import math
from dataclasses import dataclass

import numpy as np


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
    hidden_output_weights (m, o), output_biases (o,). Params decoded from a
    ``(c, d)`` stack of vectors carry a leading axis of length c on each.
    """

    input_hidden_weights: np.ndarray
    hidden_biases: np.ndarray
    hidden_output_weights: np.ndarray
    output_biases: np.ndarray

    def __post_init__(self):
        *stack, n, m = self.input_hidden_weights.shape
        *stack_out, m2, o = self.hidden_output_weights.shape
        if (stack_out != stack or m2 != m or self.hidden_biases.shape != (*stack, m)
                or self.output_biases.shape != (*stack, o)):
            raise ValueError("parameter shapes are inconsistent")

    @property
    def topology(self) -> MlpTopology:
        n, m = self.input_hidden_weights.shape[-2:]
        return MlpTopology(n, m, self.hidden_output_weights.shape[-1])


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
    """Unpack a flat vector into structured weights and biases; a ``(c, d)``
    stack of vectors gives params with a leading axis of length c.

    The result owns C-ordered copies: each layer's block is copied once,
    transposed to (fan-in + 1, units), and split into its weight rows and
    its bias row. Later writes to ``flat`` do not reach the result, and both
    matrix products read contiguous weights (per slice, for a stack).
    """
    flat = np.asarray(flat, dtype=float)
    expected = vector_dimension(topology)
    if flat.ndim not in (1, 2):
        raise ValueError(f"flat vectors have shape {flat.shape}, expected "
                         f"({expected},) or (k, {expected})")
    if flat.shape[-1] != expected:
        raise ValueError(
            f"flat vector has length {flat.shape[-1]}, expected {expected} "
            f"for topology ({topology.inputs}, {topology.hidden}, {topology.outputs})")
    n, m, o = topology.inputs, topology.hidden, topology.outputs
    stack = flat.shape[:-1]
    hidden_block = np.swapaxes(
        flat[..., :(n + 1) * m].reshape(*stack, m, n + 1), -1, -2).copy()
    output_block = np.swapaxes(
        flat[..., (n + 1) * m:].reshape(*stack, o, m + 1), -1, -2).copy()
    return MlpParams(
        input_hidden_weights=hidden_block[..., :n, :],
        hidden_biases=hidden_block[..., n, :],
        hidden_output_weights=output_block[..., :m, :],
        output_biases=output_block[..., m, :],
    )


def encode(params: MlpParams) -> np.ndarray:
    """Pack structured parameters back into the canonical flat vector."""
    hidden_block = np.hstack([params.input_hidden_weights.T,
                              params.hidden_biases[:, None]])
    output_block = np.hstack([params.hidden_output_weights.T,
                              params.output_biases[:, None]])
    return np.concatenate([hidden_block.ravel(), output_block.ravel()])


def sigmoid(s, out=None, mask=None):
    """Logistic function 1 / (1 + exp(-s)), elementwise; scalars give scalars.

    One e = exp(-|s|) serves both signs, so exp never overflows. The
    numerator max(e, s >= 0) is 1 for s >= 0 (there e <= 1) and e below
    (there the mask is 0 and e >= 0); NaN stays NaN. Each element is
    therefore the same division as in the two-branch form 1 / (1 + e) for
    s >= 0 and e / (1 + e) otherwise, and gives the same bits, without a
    second division or a select.

    Given ``out`` (float) and ``mask`` (bool) arrays shaped like an array
    ``s``, the result is written to ``out`` and nothing is allocated: ``s``
    then holds e and 1 + e in turn, so its values are lost.
    """
    s = np.asarray(s, dtype=float)
    positive = np.greater_equal(s, 0.0, out=mask)
    scratch = None if out is None else s
    e = np.exp(np.negative(np.abs(s, out=scratch), out=scratch), out=scratch)
    numerator = np.maximum(e, positive, out=out)
    return np.divide(numerator, np.add(e, 1.0, out=scratch), out=out)[()]


def _forward_pass(params: MlpParams, x: np.ndarray, sigmoid_output: bool,
                  work: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Hidden activations and network outputs: the one forward body.

    Stacked params (a leading axis of length c) give ``(c, samples, units)``
    arrays, one matrix product per slice. ``work`` holds a pre-activation,
    an activation and a bool mask array shaped like the hidden layer; the
    layer is then computed in them instead of in fresh arrays, and the
    returned activations are a view of the second one.
    """
    biases, output_biases = params.hidden_biases, params.output_biases
    if params.input_hidden_weights.ndim == 3:
        biases, output_biases = biases[:, None], output_biases[:, None]
    pre, hidden, mask = (None, None, None) if work is None else work
    s = np.matmul(x, params.input_hidden_weights, out=pre)
    s += biases
    hidden = sigmoid(s, hidden, mask)
    out = hidden @ params.hidden_output_weights
    out += output_biases
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


def params_to_text(params: MlpParams) -> str:
    """Two-line serialization: "n m o" then the flat vector.

    Values are written with full repr precision so a reload is bit-exact.
    """
    t = params.topology
    flat = encode(params)
    return (f"{t.inputs} {t.hidden} {t.outputs}\n"
            + " ".join(repr(float(v)) for v in flat) + "\n")


def params_from_text(text: str, source: str = "<text>") -> MlpParams:
    """Parse :func:`params_to_text` output. A vector of the wrong length is
    rejected naming ``source`` and line 2, a value that is not a finite
    number naming also its 1-based position."""
    lines = text.splitlines()
    if len(lines) < 2:
        raise ValueError(f"{source}: expected a topology line and a vector line")
    try:
        n, m, o = (int(tok) for tok in lines[0].split())
        topology = MlpTopology(n, m, o)
    except ValueError as err:
        raise ValueError(f"{source}: malformed topology line {lines[0]!r}: {err}") from err
    tokens = lines[1].split()
    if len(tokens) != vector_dimension(topology):
        raise ValueError(f"{source}: line 2 has {len(tokens)} values, expected "
                         f"{vector_dimension(topology)} for topology ({n}, {m}, {o})")
    values = []
    for position, token in enumerate(tokens, start=1):
        try:
            value = float(token)
            if not math.isfinite(value):
                raise ValueError
        except ValueError:
            raise ValueError(f"{source}: line 2, value {position}: cannot parse "
                             f"{token!r} as a finite number") from None
        values.append(value)
    return decode(np.array(values, dtype=float), topology)

