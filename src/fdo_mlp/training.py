"""Training MLP weights: FDO search over the flat parameter vector, plus a
plain full-batch backpropagation baseline on the same mean squared error.

The fitness of a parameter vector is the MSE of the network over a training
set: squared errors are summed across output units and averaged over
samples. Both trainers return the best parameters seen during the run, so a
trained model's curve is non-increasing and its recorded MSE always matches
a recomputation on the returned parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .data import LabeledDataset
from .fdo import (DEFAULT_SEED, ConvergenceCurve, EvaluationError, FdoConfig,
                  optimize, uniform_bounds)
from .mlp import (MlpParams, MlpTopology, _forward_pass, decode, forward_batch,
                  vector_dimension)
from .mlp import sigmoid  # noqa: F401  unused, but perfbench/tracing.py patches it

#: Stock search budgets (scouts, iterations). "short" is the default.
TRAINING_PRESETS: dict[str, tuple[int, int]] = {
    "short": (40, 75),
    "long": (40, 200),
}


@dataclass(frozen=True)
class TrainingConfig:
    """Couples an optimizer configuration to a network topology.

    The optimizer's search space must have exactly one dimension per network
    parameter; :meth:`for_topology` builds a consistent pair from a uniform
    weight box.

    ``sigmoid_output`` defaults to on: squashing the output unit bounds the
    MSE objective to [0, 1], which the black-box search needs to make
    progress at realistic budgets. Raw linear outputs start the search at
    MSE values in the hundreds for wide weight boxes and leave it stranded
    there. Set it to False to optimize the raw-output objective.
    """

    fdo: FdoConfig
    topology: MlpTopology
    weight_bounds: tuple[float, float] = (-10.0, 10.0)
    threshold: float = 0.5
    sigmoid_output: bool = True

    def __post_init__(self):
        lo, hi = self.weight_bounds
        if not lo < hi:
            raise ValueError(f"weight_bounds are reversed: ({lo}, {hi})")
        if self.fdo.dimension != vector_dimension(self.topology):
            raise ValueError(
                f"optimizer searches {self.fdo.dimension} dimensions but the "
                f"topology needs {vector_dimension(self.topology)}")

    @classmethod
    def for_topology(cls, topology: MlpTopology, *, population: int = 40,
                     max_iterations: int = 75, weight_factor: float = 0.0,
                     weight_bounds: tuple[float, float] = (-10.0, 10.0),
                     seed: int = DEFAULT_SEED, threshold: float = 0.5,
                     sigmoid_output: bool = True) -> "TrainingConfig":
        bounds = uniform_bounds(weight_bounds[0], weight_bounds[1],
                                vector_dimension(topology))
        fdo = FdoConfig(bounds=bounds, population=population,
                        max_iterations=max_iterations,
                        weight_factor=weight_factor, seed=seed)
        return cls(fdo=fdo, topology=topology, weight_bounds=weight_bounds,
                   threshold=threshold, sigmoid_output=sigmoid_output)


@dataclass(frozen=True)
class BpConfig:
    """Snapshot of the backpropagation baseline's settings."""

    topology: MlpTopology
    learning_rate: float
    epochs: int
    threshold: float = 0.5
    sigmoid_output: bool = False


@dataclass(eq=False)
class TrainedModel:
    params: MlpParams
    train_mse: float
    curve: ConvergenceCurve
    config: TrainingConfig | BpConfig


def _as_generator(rng) -> np.random.Generator:
    if rng is None:
        return np.random.default_rng(DEFAULT_SEED)
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def _target_matrix(labels: np.ndarray, outputs: int) -> np.ndarray:
    """0/1 targets: one column for a single output unit, one-hot otherwise."""
    if outputs == 1:
        return labels.astype(float).reshape(-1, 1)
    if labels.size and labels.max() >= outputs:
        raise ValueError(f"label {labels.max()} out of range for {outputs} output units")
    targets = np.zeros((labels.size, outputs))
    targets[np.arange(labels.size), labels] = 1.0
    return targets


def _mse(residuals: np.ndarray) -> float:
    """Mean over rows of the summed squares of a (samples, outputs) residual
    matrix: the one MSE expression every caller shares."""
    return float(np.mean(np.sum(residuals ** 2, axis=1)))


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
                   sigmoid_output: bool = False) -> Callable[[np.ndarray], float]:
    """Pure objective mapping a flat parameter vector to its training MSE.

    The dataset is checked and its targets built here, once; each call is
    :func:`mse_fitness` of the decoded vector without repeating either.
    """
    _check_dataset(topology, data)
    features = data.features
    targets = _target_matrix(data.labels, topology.outputs)

    def objective(flat: np.ndarray) -> float:
        outputs = forward_batch(decode(flat, topology), features, sigmoid_output)
        return _mse(outputs - targets)

    return objective


def train_fdo_mlp(train_data: LabeledDataset, config: TrainingConfig,
                  rng: np.random.Generator | int | None = None) -> TrainedModel:
    """Search the weight box with FDO and return the best network found."""
    objective = make_objective(config.topology, train_data, config.sigmoid_output)
    result = optimize(objective, config.fdo, _as_generator(rng) if rng is not None else None)
    params = decode(result.best_position, config.topology)
    return TrainedModel(params=params, train_mse=result.best_fitness,
                        curve=result.curve, config=config)


def _loss_and_gradient(params: MlpParams, x: np.ndarray, targets: np.ndarray,
                       sigmoid_output: bool) -> tuple[float, MlpParams]:
    """:func:`mse_fitness` and its gradient from one forward pass over the
    features ``x`` against a prebuilt :func:`_target_matrix`."""
    hidden, out = _forward_pass(params, x, sigmoid_output)
    residuals = out - targets
    loss = _mse(residuals)
    d_out = (2.0 / x.shape[0]) * residuals
    if sigmoid_output:
        d_out = d_out * out * (1.0 - out)
    grad_v = hidden.T @ d_out
    grad_bo = d_out.sum(axis=0)
    d_hidden = (d_out @ params.hidden_output_weights.T) * hidden * (1.0 - hidden)
    grad_w = x.T @ d_hidden
    grad_bh = d_hidden.sum(axis=0)
    return loss, MlpParams(grad_w, grad_bh, grad_v, grad_bo)


def mse_gradient(params: MlpParams, data: LabeledDataset,
                 sigmoid_output: bool = False) -> MlpParams:
    """Analytic gradient of :func:`mse_fitness`, arranged like the params;
    the gradient half of the loss-and-gradient pass backprop trains with."""
    targets = _target_matrix(data.labels, params.hidden_output_weights.shape[1])
    return _loss_and_gradient(params, data.features, targets, sigmoid_output)[1]


def train_bp_mlp(train_data: LabeledDataset, topology: MlpTopology,
                 learning_rate: float, epochs: int,
                 rng: np.random.Generator | int | None = None,
                 sigmoid_output: bool = False) -> TrainedModel:
    """Full-batch gradient descent on the MSE with a fixed learning rate.

    Weights and biases start uniform in [-0.5, 0.5]. The best parameters
    over all epochs (including the initial ones) are returned, and the curve
    tracks the best MSE seen after each epoch. A non-finite loss aborts the
    run with the offending epoch in the message.
    """
    if learning_rate < 0.0:
        raise ValueError("learning_rate must be non-negative")
    if epochs < 0:
        raise ValueError("epochs must be non-negative")
    _check_dataset(topology, train_data)
    gen = _as_generator(rng)
    n, m, o = topology.inputs, topology.hidden, topology.outputs
    params = MlpParams(gen.uniform(-0.5, 0.5, (n, m)), gen.uniform(-0.5, 0.5, m),
                       gen.uniform(-0.5, 0.5, (m, o)), gen.uniform(-0.5, 0.5, o))
    x = train_data.features
    targets = _target_matrix(train_data.labels, o)
    best_params = params
    best_loss, grads = _loss_and_gradient(params, x, targets, sigmoid_output)
    values: list[float] = []
    for epoch in range(1, epochs + 1):
        params = MlpParams(
            params.input_hidden_weights - learning_rate * grads.input_hidden_weights,
            params.hidden_biases - learning_rate * grads.hidden_biases,
            params.hidden_output_weights - learning_rate * grads.hidden_output_weights,
            params.output_biases - learning_rate * grads.output_biases,
        )
        # the gradient for the next epoch comes from the pass that scores these params
        loss, grads = _loss_and_gradient(params, x, targets, sigmoid_output)
        if not np.isfinite(loss):
            raise EvaluationError(f"training diverged at epoch {epoch}")
        if loss < best_loss:
            best_loss = loss
            best_params = params
        values.append(best_loss)
    snapshot = BpConfig(topology=topology, learning_rate=learning_rate,
                        epochs=epochs, sigmoid_output=sigmoid_output)
    return TrainedModel(params=best_params, train_mse=best_loss,
                        curve=ConvergenceCurve(tuple(values)), config=snapshot)


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
