"""Training MLP weights: FDO search over the flat parameter vector, plus a
plain full-batch backpropagation baseline on the same mean squared error.

The fitness of a parameter vector is the MSE of the network over a training
set: squared errors are summed across output units and averaged over
samples. FDO's objective evaluates its networks in float32, since the search
only ranks candidates by it; everything else, backprop included, computes in
float64. Both trainers return the best parameters seen during the run, so a
trained model's curve is non-increasing, and its recorded MSE is the float64
:func:`mse_fitness` of the returned parameters: it always matches a
recomputation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .data import LabeledDataset
from .fdo import (DEFAULT_SEED, ConvergenceCurve, EvaluationError, FdoConfig,
                  optimize, uniform_bounds)
from .mlp import (MlpParams, MlpTopology, _forward_pass, _negated_inputs, _one_network,
                  decode, forward_batch, vector_dimension)
from .mlp import sigmoid  # noqa: F401  unused, but perfbench/tracing.py patches it

#: Bytes of float32 hidden-layer matrix one objective call evaluates at a
#: time. A chunk holds as many scouts as fit, at least one: c = 15 for the
#: 230-row, 37-unit network of the 5-fold pipeline, all 40 scouts at once on
#: XOR.
_CHUNK_BYTES = 512 * 1024


def weight_limit(topology: MlpTopology) -> float:
    """The largest weight magnitude the float32 objective evaluates:
    2**127 / F, where F = max(inputs, hidden) + 1 is the most terms one
    unit's sum adds (its fan-in and its bias). The objective's one contract:
    with weights within it and features in [-1, 1] (min-max scaling gives
    [0, 1]), every sum the forward pass makes stays within 2**127, half of
    float32's largest value, so no output overflows and no sum turns to NaN.
    :class:`TrainingConfig` checks the box, :func:`make_objective` the features."""
    return 2.0 ** 127 / (max(topology.inputs, topology.hidden) + 1)


@dataclass(frozen=True)
class TrainingConfig:
    """Couples an optimizer configuration to a network topology.

    The optimizer's search space must have exactly one dimension per network
    parameter; :meth:`for_topology` builds a consistent pair from a uniform
    weight box ``lower < upper``, within :func:`weight_limit`'s contract.

    ``sigmoid_output`` defaults to on: squashing the output unit bounds the
    MSE objective to [0, 1], which the black-box search needs to make
    progress at realistic budgets. Raw linear outputs start the search at
    MSE values in the hundreds for wide weight boxes and leave it stranded
    there. Set it to False to optimize the raw-output objective.
    """

    fdo: FdoConfig
    topology: MlpTopology
    threshold: float = 0.5
    sigmoid_output: bool = True

    def __post_init__(self):
        if self.fdo.dimension != vector_dimension(self.topology):
            raise ValueError(
                f"optimizer searches {self.fdo.dimension} dimensions but the "
                f"topology needs {vector_dimension(self.topology)}")
        limit = weight_limit(self.topology)
        bound = max(max(-lo, hi) for lo, hi in self.fdo.bounds)
        if bound > limit:
            fan_in = max(self.topology.inputs, self.topology.hidden)
            raise ValueError(
                f"weight bound {bound!r} is past {limit!r}, the largest the float32 "
                f"objective evaluates: 2**127 / (fan-in {fan_in} + 1)")
        check_threshold(self.threshold, self.sigmoid_output)

    @classmethod
    def for_topology(cls, topology: MlpTopology, *, population: int = 40,
                     max_iterations: int = 75, weight_factor: float = 0.0,
                     weight_bounds: tuple[float, float] = (-10.0, 10.0),
                     seed: int = DEFAULT_SEED, threshold: float = 0.5,
                     sigmoid_output: bool = True) -> "TrainingConfig":
        lo, hi = weight_bounds
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"weight_bounds must be finite: ({lo}, {hi})")
        if lo == hi:
            raise ValueError(f"weight_bounds are equal: ({lo}, {hi}) leaves no box to search")
        if not lo < hi:
            raise ValueError(f"weight_bounds are reversed: ({lo}, {hi})")
        fdo = FdoConfig(bounds=uniform_bounds(lo, hi, vector_dimension(topology)),
                        population=population, max_iterations=max_iterations,
                        weight_factor=weight_factor, seed=seed)
        return cls(fdo=fdo, topology=topology, threshold=threshold,
                   sigmoid_output=sigmoid_output)


def check_threshold(threshold: float, sigmoid_output: bool) -> None:
    """Reject a threshold outside [0, 1] on a sigmoid output: all rows would get one class."""
    if sigmoid_output and not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold {threshold!r} is outside [0, 1], "
                         "the range of a sigmoid output")


@dataclass(eq=False)
class TrainedModel:
    params: MlpParams
    train_mse: float
    curve: ConvergenceCurve


def _target_matrix(labels: np.ndarray, outputs: int) -> np.ndarray:
    """0/1 targets: one column for a single output unit, one-hot otherwise."""
    if outputs == 1:
        return labels.astype(float).reshape(-1, 1)
    if labels.size and labels.max() >= outputs:
        raise ValueError(f"label {labels.max()} out of range for {outputs} output units")
    targets = np.zeros((labels.size, outputs))
    targets[np.arange(labels.size), labels] = 1.0
    return targets


def _mse(residuals: np.ndarray, squares: np.ndarray | None = None):
    """Mean over rows of the summed squares of a (samples, outputs) residual
    matrix, as a float, or one value per slice of a (c, samples, outputs)
    stack: the one MSE expression every caller shares. The squares are
    written to ``squares``, an array shaped like ``residuals``, if given.

    The reductions and the division by the row count are what
    ``np.mean(np.sum(residuals ** 2, axis=-1), axis=-1)`` runs, with the
    same bits and without its Python-level overhead. With one output unit
    the sum over outputs is each square itself, so it is skipped: the
    squares' one column is laid out as that sum would be."""
    squares = np.square(residuals, out=squares)
    totals = np.add.reduce(squares[..., 0] if squares.shape[-1] == 1
                           else np.add.reduce(squares, axis=-1), axis=-1)
    rows = residuals.shape[-2]
    return float(totals) / rows if totals.ndim == 0 else totals / rows


def output_mse(outputs: np.ndarray, labels: np.ndarray) -> float:
    """MSE of a (samples, outputs) matrix against 0/1 labels, one-hot if o > 1."""
    return _mse(outputs - _target_matrix(labels, outputs.shape[1]))


def _check_dataset(topology: MlpTopology, data: LabeledDataset) -> None:
    if data.n_samples == 0:
        raise ValueError("dataset is empty")
    if data.n_features != topology.inputs:
        raise ValueError(
            f"dataset has {data.n_features} features but the network expects "
            f"{topology.inputs}")


def mse_fitness(params: MlpParams, data: LabeledDataset,
                sigmoid_output: bool = False) -> float:
    """Mean over samples of the summed squared output errors."""
    _check_dataset(params.topology, data)
    return output_mse(forward_batch(params, data.features, sigmoid_output), data.labels)


def make_objective(topology: MlpTopology, data: LabeledDataset,
                   sigmoid_output: bool = False) -> Callable[[np.ndarray], np.ndarray]:
    """Pure objective mapping flat parameter vectors to their training MSE:
    a ``(k, d)`` matrix gives ``k`` values, one ``(d,)`` vector a float.

    FDO only ranks candidates by these values, so the networks are
    evaluated in float32 where that pays: both products and the hidden
    layer, almost all of the work, at about half the time of float64. The
    outputs are float64: the output product is written into a float64
    array, where the output bias, any output sigmoid and the residuals run.
    There a nearly saturated output keeps its distance from its target,
    which float32 rounds to 0 once a sigmoid passes 1 - 6e-8, and which is
    often all that tells two saturated networks apart. With float32 outputs
    the searches of acceptance criterion 7 accept other moves from the
    first iteration on, and its average test rate falls from 0.969 to 0.934.

    The dataset is checked, with the feature half of :func:`weight_limit`'s
    contract, and set up here once: its negated inputs in float32, its
    targets and the float32 work array of ``_CHUNK_BYTES``. A call casts its
    rows to float32 and makes one :func:`decode` of them into float32 stacked
    weights, one forward pass over the stack, a work array's worth of rows at
    a time in the hidden layer, and one MSE over the residuals. Within the
    contract each value is finite and equals, bit for bit, that pass over its
    row alone. Over 1,000 weight vectors on a 230-row fold of criterion 7's
    data it lay within a relative 3e-7 of :func:`mse_fitness` in the default
    box of +-10, 1.3e-5 at +-1e3 with a sigmoid output and 1e-4 at +-1e6 with
    a linear one. Calls share the work array: one objective, one thread.
    """
    _check_dataset(topology, data)
    outside = np.argwhere(np.abs(data.features) > 1.0)
    if outside.size:
        row, column = outside[0]
        raise ValueError(f"row {row}, column {data.column_names[column]!r}: feature "
                         f"{float(data.features[row, column])!r} is outside [-1, 1], which "
                         "weight_limit assumes; min-max scaling gives [0, 1]")
    inputs = _negated_inputs(data.features).astype(np.float32)
    targets = _target_matrix(data.labels, topology.outputs)
    chunk = max(1, _CHUNK_BYTES // (inputs.itemsize * data.n_samples * topology.hidden))
    layer = np.empty((chunk, data.n_samples, topology.hidden), np.float32)

    def objective(flat: np.ndarray) -> np.ndarray:
        flat = np.asarray(flat, dtype=np.float32)
        rows = np.atleast_2d(flat)
        outputs = np.empty((len(rows), *targets.shape))
        with np.errstate(over="ignore"):
            _forward_pass(decode(rows, topology), inputs, sigmoid_output,
                          layer[:len(rows)], outputs)
        outputs -= targets
        values = _mse(outputs)
        return values if flat.ndim == 2 else float(values[0])

    return objective


def train_fdo_mlp(train_data: LabeledDataset, config: TrainingConfig,
                  rng: np.random.Generator | None = None) -> TrainedModel:
    """Search the weight box with FDO and return the best network found.
    The curve holds the search's own objective values, whose hidden layers
    ran in float32; ``train_mse`` is :func:`mse_fitness` of the returned
    params, all in float64."""
    objective = make_objective(config.topology, train_data, config.sigmoid_output)
    result = optimize(objective, config.fdo, rng)
    params = decode(result.best_position, config.topology)
    return TrainedModel(params=params,
                        train_mse=mse_fitness(params, train_data, config.sigmoid_output),
                        curve=result.curve)


def _flat_params(flat: np.ndarray, topology: MlpTopology) -> MlpParams:
    """Params whose two blocks view ``flat``: [W; b_h] in its first
    (n + 1) * m values, [V; b_o] in the rest. Backprop keeps its parameters,
    their gradient and its best parameters in this layout."""
    n, m, o = topology.inputs, topology.hidden, topology.outputs
    i = (n + 1) * m
    return MlpParams(flat[:i].reshape(n + 1, m), flat[i:].reshape(m + 1, o))


def _backprop_pass(params: MlpParams, x: np.ndarray, targets: np.ndarray,
                   sigmoid_output: bool, grads: MlpParams) -> Callable[[], float]:
    """One loss-and-gradient pass of ``params`` over the features ``x``
    against a prebuilt :func:`_target_matrix`, as a callable built once.

    Every array a pass computes in is allocated here: -[x | 1] and a
    C-ordered copy of [x | 1]ᵀ, an array of [x | 1]ᵀ's shape for its columns
    scaled by d_out, two (rows, hidden) arrays, for the activations and
    their slope, and three (rows, outputs) arrays, for the outputs, the
    residuals (then d_out) and their squares. Each call reads ``params`` as
    they are then, so a caller that updates them in place calls the same
    pass again, returns :func:`mse_fitness` of them and writes its gradient
    into ``grads``, allocating only numpy's iteration buffers. The forward
    pass runs without an errstate of its own: the caller silences exp's
    overflow.

    The W and b_h rows are [x | 1]ᵀ @ ((d_out @ Vᵀ) ⊙ h(1 - h)). With one
    output unit, d_out @ Vᵀ is the outer product of two vectors, whose row
    and column scalings commute with the matrix product: the rows are
    ((x₁ᵀ ⊙ d_outᵀ) @ h(1 - h)) ⊙ Vᵀ, with x₁ = [x | 1], and no (rows,
    hidden) array but the slope h(1 - h) is made; where every d_out is
    zero, the rows read -0 in the columns of a negative weight. With more
    output units d_out @ Vᵀ is written over the activations, once the V
    gradient has read them, and the slope is scaled by it before the one
    product.
    """
    inputs = _negated_inputs(x)
    inputs_t = np.negative(inputs.T, order="C")
    scaled = np.empty_like(inputs_t)
    hidden, slope = (np.empty((x.shape[0], params.topology.hidden)) for _ in range(2))
    out, d_out, squares = (np.empty_like(targets) for _ in range(3))
    hidden_t, d_out_t = hidden.T, d_out.T
    scale = 2.0 / x.shape[0]
    weights_out_t = params.hidden_output_weights.T
    grad_v, grad_b_o = grads.hidden_output_weights, grads.output_biases
    grad_block = grads.hidden_block

    def run() -> float:
        _forward_pass(params, inputs, sigmoid_output, hidden, out)
        np.subtract(out, targets, out=d_out)
        loss = _mse(d_out, squares)
        np.multiply(d_out, scale, out=d_out)
        if sigmoid_output:
            np.multiply(d_out, out, out=d_out)
            np.multiply(d_out, np.subtract(1.0, out, out=squares), out=d_out)
        np.dot(hidden_t, d_out, out=grad_v)
        np.add.reduce(d_out, axis=0, out=grad_b_o)
        np.multiply(np.subtract(1.0, hidden, out=slope), hidden, out=slope)
        if len(weights_out_t) == 1:
            np.multiply(inputs_t, d_out_t, out=scaled)
            np.dot(scaled, slope, out=grad_block)
            np.multiply(grad_block, weights_out_t, out=grad_block)
        else:
            np.multiply(slope, np.dot(d_out, weights_out_t, out=hidden), out=slope)
            np.dot(inputs_t, slope, out=grad_block)
        return loss

    return run


@np.errstate(over="ignore")
def mse_gradient(params: MlpParams, data: LabeledDataset,
                 sigmoid_output: bool = False) -> MlpParams:
    """Analytic gradient of :func:`mse_fitness`, arranged like the params:
    the gradient half of the pass backprop trains with, built for one call.
    An overflow of exp, or of a gradient that large, gives no warning."""
    topology = _one_network(params)
    _check_dataset(topology, data)
    grads = _flat_params(np.empty(vector_dimension(topology)), topology)
    targets = _target_matrix(data.labels, topology.outputs)
    _backprop_pass(params, data.features, targets, sigmoid_output, grads)()
    return grads


def check_bp_settings(learning_rate: float, epochs: int) -> None:
    """Reject a negative or NaN learning rate and a negative epoch count."""
    if not learning_rate >= 0.0:
        raise ValueError("learning_rate must be non-negative")
    if epochs < 0:
        raise ValueError("epochs must be non-negative")


@np.errstate(over="ignore", invalid="ignore")
def train_bp_mlp(train_data: LabeledDataset, topology: MlpTopology,
                 learning_rate: float, epochs: int,
                 rng: np.random.Generator | None = None,
                 sigmoid_output: bool = False) -> TrainedModel:
    """Full-batch gradient descent on the MSE with a fixed learning rate.

    Weights and biases start uniform in [-0.5, 0.5], drawn from ``rng`` or
    else from ``DEFAULT_SEED``. The best parameters over all epochs
    (including the initial ones) are returned, and the curve tracks the best
    MSE seen after each epoch. A non-finite loss aborts the run with the
    offending epoch in the message, without numpy's overflow warnings.

    The run keeps its parameters, their gradient and the best parameters in
    three flat vectors allocated once, each seen as params through
    :func:`_flat_params`. An epoch's update is two calls over the whole
    vector (``grad *= lr; theta -= grad``, the bits of ``w - lr * g``), and
    the parameters are copied into the best vector only when the loss
    strictly improves. The returned params view a copy of the best vector.
    Every epoch runs the one :func:`_backprop_pass` built for the run, whose
    arrays are allocated once, under this function's errstate.
    """
    check_bp_settings(learning_rate, epochs)
    _check_dataset(topology, train_data)
    gen = np.random.default_rng(DEFAULT_SEED) if rng is None else rng
    theta = np.empty(vector_dimension(topology))
    grad = np.empty_like(theta)
    params, grads = _flat_params(theta, topology), _flat_params(grad, topology)
    for view in (params.input_hidden_weights, params.hidden_biases,
                 params.hidden_output_weights, params.output_biases):
        view[...] = gen.uniform(-0.5, 0.5, view.shape)
    best = theta.copy()
    targets = _target_matrix(train_data.labels, topology.outputs)
    epoch_pass = _backprop_pass(params, train_data.features, targets, sigmoid_output, grads)
    best_loss = epoch_pass()
    values: list[float] = []
    for epoch in range(1, epochs + 1):
        grad *= learning_rate  # theta - grad * lr has the bits of theta - lr * grad
        theta -= grad
        # the gradient for the next epoch comes from the pass that scores these params
        loss = epoch_pass()
        if not math.isfinite(loss):
            raise EvaluationError(f"training diverged at epoch {epoch}")
        if loss < best_loss:
            best_loss = loss
            np.copyto(best, theta)
        values.append(best_loss)
    return TrainedModel(params=_flat_params(best.copy(), topology), train_mse=best_loss,
                        curve=ConvergenceCurve(tuple(values)))


@dataclass(frozen=True)
class RunStatistics:
    avg: float
    std: float
    best: float
    worst: float


def run_statistics(values, higher_is_better: bool = True) -> RunStatistics:
    """Mean, population standard deviation, best and worst of repeated runs.

    ``higher_is_better`` selects which extreme counts as best (accuracy-like
    metrics) versus worst (loss-like metrics).
    """
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("need at least one run")
    high, low = float(values.max()), float(values.min())
    best, worst = (high, low) if higher_is_better else (low, high)
    return RunStatistics(avg=float(values.mean()), std=float(values.std()),
                         best=best, worst=worst)
