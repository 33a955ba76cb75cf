"""Single-hidden-layer perceptron: forward pass and flat-vector codec.

The network computes ``O = V^T sigmoid(W^T x + b_h) + b_o`` with sigmoid
hidden units and a linear output layer (an optional sigmoid on the output is
available for experimentation). The hidden layer is one matrix product,
t = -[x | 1] @ [W; b_h], and three passes, 1 / (1 + exp(t)). A stack of
networks runs through the hidden layer a few at a time, in one work array,
with the output bias and any output sigmoid applied once to the whole
stack's outputs. All parameters live in one flat vector so a black-box
optimizer can search over them directly. The canonical layout interleaves
each hidden unit's incoming weights with its bias, then each output unit's
incoming weights with its bias:

    [w_1..w_n b | ... m blocks ... | v_1..v_m b | ... o blocks ...]

which makes the total length (n+1)*m + (m+1)*o. Each layer's part is the
transpose of its block in :class:`MlpParams`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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


@dataclass(eq=False, frozen=True)
class MlpParams:
    """One network's weights and biases as its two layer blocks, each with
    the weight rows above the bias row: ``hidden_block`` [W; b_h] of shape
    (n + 1, m) and ``output_block`` [V; b_o] of shape (m + 1, o). Params
    decoded from a ``(c, d)`` stack of vectors carry a leading axis of
    length c on both.

    ``input_hidden_weights`` (n, m), ``hidden_biases`` (m,),
    ``hidden_output_weights`` (m, o) and ``output_biases`` (o,) are views of
    the blocks, made once here: a write through one reaches its block.
    """

    hidden_block: np.ndarray
    output_block: np.ndarray
    input_hidden_weights: np.ndarray = field(init=False, repr=False)
    hidden_biases: np.ndarray = field(init=False, repr=False)
    hidden_output_weights: np.ndarray = field(init=False, repr=False)
    output_biases: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        *stack, n1, m = self.hidden_block.shape
        *stack_out, m1, o = self.output_block.shape
        if stack_out != stack or m1 != m + 1 or min(n1 - 1, m, o) < 1:
            raise ValueError("parameter shapes are inconsistent: blocks of shape "
                             f"{self.hidden_block.shape} and {self.output_block.shape}")
        for name, view in (("input_hidden_weights", self.hidden_block[..., :-1, :]),
                           ("hidden_biases", self.hidden_block[..., -1, :]),
                           ("hidden_output_weights", self.output_block[..., :-1, :]),
                           ("output_biases", self.output_block[..., -1, :])):
            object.__setattr__(self, name, view)

    @property
    def topology(self) -> MlpTopology:
        n1, m = self.hidden_block.shape[-2:]
        return MlpTopology(n1 - 1, m, self.output_block.shape[-1])


def _one_network(params: MlpParams) -> MlpTopology:
    """The topology of ``params``, which must not be a stack: the one check
    of every entry point that takes a single network."""
    if params.hidden_block.ndim != 2:
        raise ValueError("expected the params of one network, got a stack: "
                         f"hidden block of shape {params.hidden_block.shape}")
    return params.topology


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

    Each layer's part of ``flat`` is copied once, transposed, into a
    C-ordered (fan-in + 1, units) block, so later writes to ``flat`` do not
    reach the result and both matrix products read contiguous weights (per
    slice, for a stack).
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
    return MlpParams(hidden_block, output_block)


def encode(params: MlpParams) -> np.ndarray:
    """Pack one network's parameters back into the canonical flat vector."""
    _one_network(params)
    return np.concatenate([params.hidden_block.T, params.output_block.T], axis=None)


def _logistic_of_negated(t, out=None):
    """1 / (1 + exp(t)), the logistic function of s = -t, in three passes.
    Below s = -709.78 exp(t) overflows and the result is 0; the exact value
    there is under 2.3e-308. The caller silences that overflow's warning
    with ``np.errstate(over="ignore")``. NaN stays NaN. Given ``out``, which
    may be ``t`` itself, nothing is allocated and ``t`` is spent: it holds
    exp(t) and then 1 + exp(t)."""
    scratch = None if out is None else t
    e = np.exp(t, out=scratch)
    return np.divide(1.0, np.add(e, 1.0, out=scratch), out=out)


def sigmoid(s, out=None):
    """Logistic function 1 / (1 + exp(-s)), elementwise, with the edge values
    of :func:`_logistic_of_negated` and no overflow warning; scalars give
    scalars. Given an ``out`` array shaped like an array ``s``, the result
    is written to ``out`` and nothing is allocated: ``s`` then holds -s,
    exp(-s) and 1 + exp(-s) in turn, so its values are lost.
    """
    s = np.asarray(s, dtype=float)
    with np.errstate(over="ignore"):
        return _logistic_of_negated(np.negative(s, out=None if out is None else s), out)[()]


def _negated_inputs(x: np.ndarray) -> np.ndarray:
    """-[x | 1]: one input vector, or a row of inputs each, negated and with
    a -1 appended, the left operand of the hidden layer's product."""
    return np.concatenate([-x, np.full((*x.shape[:-1], 1), -1.0)], -1)


def _forward_pass(params: MlpParams, inputs: np.ndarray, sigmoid_output: bool,
                  work: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Hidden activations and network outputs: the one forward body.

    ``inputs`` is :func:`_negated_inputs` of the features. The hidden layer
    is t = -[x | 1] @ ``params.hidden_block``, with the bits of -(x @ W + b_h)
    wherever BLAS rounds the joined product like the split one, then
    1 / (1 + exp(t)) in place. Stacked params (a leading axis of length k)
    give ``(k, samples, units)`` arrays, one product per slice.

    ``work`` holds t and is returned as the activations. For one network it
    is shaped like the hidden layer. For a stack of k it has c <= k slices,
    and the hidden layer runs c networks at a time, each chunk's output
    product written into one ``(k, samples, outputs)`` array; the
    activations returned are then the last chunk's. Without ``work`` the
    whole stack is one chunk. The output bias is added, and an output
    sigmoid run in place, once over the stack, all under one errstate.
    """
    hidden_block, weights_out = params.hidden_block, params.hidden_output_weights
    output_biases = params.output_biases
    if hidden_block.ndim == 3:
        output_biases = output_biases[:, None]
    with np.errstate(over="ignore"):
        if work is None or hidden_block.ndim == 2:
            t = np.matmul(inputs, hidden_block, out=work)
            hidden = _logistic_of_negated(t, t)
            out = hidden @ weights_out
        else:
            k, c = len(hidden_block), len(work)
            out = np.empty((k, inputs.shape[0], weights_out.shape[-1]))
            for start in range(0, k, c):
                chunk = slice(start, start + c)
                hidden = work[:min(c, k - start)]
                np.matmul(inputs, hidden_block[chunk], out=hidden)
                _logistic_of_negated(hidden, hidden)
                np.matmul(hidden, weights_out[chunk], out=out[chunk])
        out += output_biases
        return hidden, (sigmoid(out, out) if sigmoid_output else out)


def forward(params: MlpParams, inputs, sigmoid_output: bool = False) -> np.ndarray:
    """Network output for one input vector of length ``inputs``."""
    x = np.asarray(inputs, dtype=float)
    n = _one_network(params).inputs
    if x.shape != (n,):
        raise ValueError(f"input has shape {x.shape}, expected ({n},)")
    return _forward_pass(params, _negated_inputs(x), sigmoid_output)[1]


def forward_batch(params: MlpParams, inputs: np.ndarray,
                  sigmoid_output: bool = False) -> np.ndarray:
    """Network outputs for a (samples, inputs) matrix, one row per sample."""
    x = np.asarray(inputs, dtype=float)
    n = _one_network(params).inputs
    if x.ndim != 2 or x.shape[1] != n:
        raise ValueError(f"input matrix has shape {x.shape}, expected (*, {n})")
    return _forward_pass(params, _negated_inputs(x), sigmoid_output)[1]


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

