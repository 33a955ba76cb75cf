"""Fitness Dependent Optimizer with an MLP training pipeline.

The package splits into a general-purpose optimizer (:mod:`fdo_mlp.fdo`),
classical test objectives (:mod:`fdo_mlp.benchmarks`), a single-hidden-layer
perceptron with a flat parameter codec (:mod:`fdo_mlp.mlp`), trainers that
couple the two (:mod:`fdo_mlp.training`), classification evaluation and
cross-validation (:mod:`fdo_mlp.evaluation`), dataset utilities
(:mod:`fdo_mlp.data`) and a command-line front end (:mod:`fdo_mlp.cli`).
"""

from .data import generate_synthetic
from .evaluation import cross_validate
from .fdo import FdoConfig, optimize, uniform_bounds
from .mlp import MlpTopology, hidden_size_rule
from .training import TrainingConfig, train_fdo_mlp
