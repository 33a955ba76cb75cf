"""Training MLP weights: FDO search over the flat parameter vector, plus a
plain full-batch backpropagation baseline on the same mean squared error.

The fitness of a parameter vector is the MSE of the network over a training
set: squared errors are summed across output units and averaged over
samples. Both trainers return the best parameters seen during the run, so a
trained model's curve is non-increasing and its recorded MSE always matches
a recomputation on the returned parameters.
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

#: Bytes of hidden-layer matrix one objective call evaluates at a time. A
#: chunk holds as many scouts as fit, at least one: c = 7 for the 230-row,
#: 37-unit network of the 5-fold pipeline, all 40 scouts at once on XOR.
_CHUNK_BYTES = 512 * 1024

@dataclass(frozen=True)
class TrainingConfig:
    """Couples an optimizer configuration to a network topology.

    The optimizer's search space must have exactly one dimension per network
    parameter; :meth:`for_topology` builds a consistent pair from a uniform
    weight box ``lower < upper``.

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


def _mse(residuals: np.ndarray):
    """Mean over rows of the summed squares of a (samples, outputs) residual
    matrix, as a float, or one value per slice of a (c, samples, outputs)
    stack: the one MSE expression every caller shares.

    The two reductions and the division by the row count are what
    ``np.mean(np.sum(residuals ** 2, axis=-1), axis=-1)`` runs, with the
    same bits and without its Python-level overhead."""
    totals = np.add.reduce(np.add.reduce(np.square(residuals), axis=-1), axis=-1)
    values = totals / residuals.shape[-2]
    return float(values) if values.ndim == 0 else values


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

    The dataset is checked, its targets and negated inputs built and the
    hidden layer's work array allocated here, once. A call takes the rows in
    chunks of ``_CHUNK_BYTES`` worth of hidden layer: one :func:`decode` into
    stacked weights and one forward pass over the stack per chunk. Each value
    equals :func:`mse_fitness` of its decoded row bit for bit. Calls share the
    work array, so one objective must not run in two threads at once.
    """
    _check_dataset(topology, data)
    inputs = _negated_inputs(data.features)
    targets = _target_matrix(data.labels, topology.outputs)
    chunk = max(1, _CHUNK_BYTES // (8 * data.n_samples * topology.hidden))
    layer = np.empty((chunk, data.n_samples, topology.hidden))

    def objective(flat: np.ndarray) -> np.ndarray:
        flat = np.asarray(flat, dtype=float)
        rows = np.atleast_2d(flat)
        values = np.empty(len(rows))
        for start in range(0, len(rows), chunk):
            block = rows[start:start + chunk]
            c = len(block)
            outputs = _forward_pass(decode(block, topology), inputs, sigmoid_output,
                                    layer[:c])[1]
            values[start:start + c] = _mse(outputs - targets)
        return values if flat.ndim == 2 else float(values[0])

    return objective


def train_fdo_mlp(train_data: LabeledDataset, config: TrainingConfig,
                  rng: np.random.Generator | None = None) -> TrainedModel:
    """Search the weight box with FDO and return the best network found."""
    objective = make_objective(config.topology, train_data, config.sigmoid_output)
    result = optimize(objective, config.fdo, rng)
    params = decode(result.best_position, config.topology)
    return TrainedModel(params=params, train_mse=result.best_fitness, curve=result.curve)


def _flat_params(flat: np.ndarray, topology: MlpTopology) -> MlpParams:
    """Params whose two blocks view ``flat``: [W; b_h] in its first
    (n + 1) * m values, [V; b_o] in the rest. Backprop keeps its parameters,
    their gradient and its best parameters in this layout."""
    n, m, o = topology.inputs, topology.hidden, topology.outputs
    i = (n + 1) * m
    return MlpParams(flat[:i].reshape(n + 1, m), flat[i:].reshape(m + 1, o))


def _backprop_work(x: np.ndarray, hidden: int) -> tuple[np.ndarray, ...]:
    """What one :func:`_loss_and_gradient` pass over the features ``x``
    computes with: -[x | 1] and [x | 1]ᵀ, built here once, then three
    (rows, hidden) arrays for the activations, a spare and ``d_hidden``."""
    inputs = _negated_inputs(x)
    return (inputs, np.negative(inputs).T,
            *(np.empty((x.shape[0], hidden)) for _ in range(3)))


def _loss_and_gradient(params: MlpParams, x: np.ndarray, targets: np.ndarray,
                       sigmoid_output: bool, work: tuple[np.ndarray, ...],
                       grads: MlpParams | None = None) -> tuple[float, MlpParams]:
    """:func:`mse_fitness` and its gradient from one forward pass over the
    features ``x`` against a prebuilt :func:`_target_matrix`.

    The gradient comes as params: ``grads``, written in place, or else fresh
    ones. Every hidden-layer-sized value is computed in ``work``, from
    :func:`_backprop_work` on ``x``, so a call given ``grads`` allocates only
    arrays of the size of the output layer. The W and b_h rows are one
    product, [x | 1]ᵀ @ d_hidden, into the hidden block of ``grads``.

    With one output unit, ``d_out @ V.T`` is an elementwise outer product.
    Where a zero of ``d_out`` meets a negative weight, the product is -0 and
    BLAS's k = 1 matrix product +0; adding 0.0 turns the one into the other
    and leaves every other value's bits alone. With more output units the
    product is a sum, whose fused rounding a separate multiply and add would
    not repeat, so it stays a matrix product.
    """
    inputs, inputs_t, hidden, spare, d_hidden = work
    hidden, out = _forward_pass(params, inputs, sigmoid_output, hidden)
    residuals = out - targets
    loss = _mse(residuals)
    d_out = (2.0 / x.shape[0]) * residuals
    if sigmoid_output:
        d_out *= out
        d_out *= 1.0 - out
    weights_out = params.hidden_output_weights
    if weights_out.shape[1] == 1:
        np.multiply(d_out, weights_out.T, out=d_hidden)
        d_hidden += 0.0
    else:
        np.matmul(d_out, weights_out.T, out=d_hidden)
    d_hidden *= hidden
    d_hidden *= np.subtract(1.0, hidden, out=spare)
    if grads is None:
        grads = _flat_params(np.empty(vector_dimension(params.topology)), params.topology)
    np.matmul(inputs_t, d_hidden, out=grads.hidden_block)
    np.matmul(hidden.T, d_out, out=grads.hidden_output_weights)
    np.add.reduce(d_out, axis=0, out=grads.output_biases)
    return loss, grads


def mse_gradient(params: MlpParams, data: LabeledDataset,
                 sigmoid_output: bool = False) -> MlpParams:
    """Analytic gradient of :func:`mse_fitness`, arranged like the params;
    the gradient half of the loss-and-gradient pass backprop trains with."""
    topology = _one_network(params)
    _check_dataset(topology, data)
    targets = _target_matrix(data.labels, topology.outputs)
    work = _backprop_work(data.features, topology.hidden)
    return _loss_and_gradient(params, data.features, targets, sigmoid_output, work)[1]


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
    strictly improves. The returned params view a copy of the best vector;
    the hidden layer is computed in work arrays allocated once per run.
    """
    if learning_rate < 0.0:
        raise ValueError("learning_rate must be non-negative")
    if epochs < 0:
        raise ValueError("epochs must be non-negative")
    _check_dataset(topology, train_data)
    gen = np.random.default_rng(DEFAULT_SEED) if rng is None else rng
    theta = np.empty(vector_dimension(topology))
    grad = np.empty_like(theta)
    params, grads = _flat_params(theta, topology), _flat_params(grad, topology)
    for view in (params.input_hidden_weights, params.hidden_biases,
                 params.hidden_output_weights, params.output_biases):
        view[...] = gen.uniform(-0.5, 0.5, view.shape)
    best = theta.copy()
    x = train_data.features
    targets = _target_matrix(train_data.labels, topology.outputs)
    work = _backprop_work(x, topology.hidden)
    best_loss = _loss_and_gradient(params, x, targets, sigmoid_output, work, grads)[0]
    values: list[float] = []
    for epoch in range(1, epochs + 1):
        grad *= learning_rate  # theta - grad * lr has the bits of theta - lr * grad
        theta -= grad
        # the gradient for the next epoch comes from the pass that scores these params
        loss = _loss_and_gradient(params, x, targets, sigmoid_output, work, grads)[0]
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
