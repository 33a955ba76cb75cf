"""Fitness Dependent Optimizer with an MLP training pipeline.

The package splits into a general-purpose optimizer (:mod:`fdo_mlp.fdo`),
classical test objectives (:mod:`fdo_mlp.benchmarks`), a single-hidden-layer
perceptron with a flat parameter codec (:mod:`fdo_mlp.mlp`), trainers that
couple the two (:mod:`fdo_mlp.training`), classification evaluation and
cross-validation (:mod:`fdo_mlp.evaluation`), dataset utilities
(:mod:`fdo_mlp.data`) and a command-line front end (:mod:`fdo_mlp.cli`).
"""

from .benchmarks import get_benchmark, rastrigin, rosenbrock, sphere
from .data import (LabeledDataset, generate_synthetic, holdout_split, load_csv,
                   min_max_normalize, normalize_with, save_csv, select_features)
from .evaluation import (ConfusionMatrix, auc, classification_rate, confusion_matrix,
                         cross_validate, kfold_splits, metrics, per_class_success)
from .fdo import (ConvergenceCurve, EvaluationError, FdoConfig, Swarm, clamp_to_bounds,
                  compute_pace, fitness_weight, initialize_swarm, optimize, step,
                  uniform_bounds)
from .mlp import (MlpParams, MlpTopology, decode, encode, forward, forward_batch,
                  hidden_size_rule, load_params, predict_class, save_params,
                  sigmoid, vector_dimension)
from .training import (TRAINING_PRESETS, TrainedModel, TrainingConfig, make_objective,
                       mse_fitness, mse_gradient, run_statistics, train_bp_mlp,
                       train_fdo_mlp)

__version__ = "0.1.0"
