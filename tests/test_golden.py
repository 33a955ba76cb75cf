"""Golden trajectories: exact values pinned so refactors prove bit-identity.

Each test replays a seeded run and compares its curve (as the sha256 of the
``repr`` of every value, one per line) and its best value (as ``repr``)
with figures recorded before the forward and scoring paths were merged.
A failure means a change altered seeded arithmetic, not that training got
worse.

Pinned on numpy 2.4.6 with scipy-openblas 0.3.31 (x86-64). Another numpy or
BLAS may round the matrix products differently and move the last bits; on
such a platform re-derive the figures from an unchanged checkout first.
"""

import contextlib
import hashlib
import io

import numpy as np

from fdo_mlp.benchmarks import get_benchmark
from fdo_mlp.cli import main
from fdo_mlp.data import generate_synthetic, min_max_normalize
from fdo_mlp.evaluation import kfold_splits
from fdo_mlp.fdo import FdoConfig, optimize, uniform_bounds
from fdo_mlp.mlp import MlpTopology, hidden_size_rule
from fdo_mlp.training import TrainingConfig, train_bp_mlp, train_fdo_mlp

TOPOLOGY = MlpTopology(18, hidden_size_rule(18), 1)


def _digest(values) -> str:
    text = "\n".join(repr(float(v)) for v in values)
    return hashlib.sha256(text.encode()).hexdigest()


def _criterion_7_fold_one():
    """Fold 1's normalized training rows and random stream, exactly as
    ``cross_validate`` derives them for the acceptance criterion 7 run."""
    data = generate_synthetic(287, 18, 6.0, 183 / 287, np.random.default_rng(7))
    rng = np.random.default_rng(11)
    assignment = kfold_splits(data.n_samples, 5, rng)
    fold_rng = rng.spawn(5)[0]
    train = data.subset(np.flatnonzero(assignment.membership != 0))
    return min_max_normalize(train), fold_rng


def test_fdo_fold_one_search():
    train, rng = _criterion_7_fold_one()
    config = TrainingConfig.for_topology(TOPOLOGY, population=40,
                                         max_iterations=75, seed=11)
    model = train_fdo_mlp(train, config, rng)
    assert repr(model.train_mse) == "0.008407583112692088"
    assert len(model.curve) == 75
    assert _digest(model.curve.values) == (
        "3cefc52544f92ab41ca593cbe887eff982a9e997fd3ad1e5f2f10a1e32ba5934")


def test_backprop_fold_one_500_epochs():
    train, rng = _criterion_7_fold_one()
    model = train_bp_mlp(train, TOPOLOGY, 0.5, 500, rng)
    assert repr(model.train_mse) == "0.0585699328827292"
    assert len(model.curve) == 500
    assert _digest(model.curve.values) == (
        "642ca35a62207687d4ae676c6a880e77e5976f541192a9ecd279aa3fc85dbd14")


def test_sphere_seed_zero():
    config = FdoConfig(bounds=uniform_bounds(-100, 100, 10), population=30,
                       max_iterations=500, seed=0)
    result = optimize(get_benchmark("sphere", 10).evaluate, config)
    assert repr(result.best_fitness) == "8.697452883515544e-63"
    assert result.evaluations == 27707
    assert _digest(result.curve.values) == (
        "3700038fa8293b458dfbbb12c384e3ad5d2d09c5ebb3df66fd8cf0f4f7ea5fd3")


def test_crossval_report_bytes(tmp_path):
    """Criterion 10's small sigmoid-output cross-validation: fold MSEs and
    rates, confusion-derived metrics and AUC, byte for byte."""
    data = tmp_path / "synth.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["generate", "--samples", "40", "--features", "3",
                     "--separation", "5", "--balance", "0.5", "--seed", "9",
                     "--out", str(data)]) == 0
        assert main(["crossval", "--data", str(data), "--k", "3",
                     "--population", "6", "--iterations", "5", "--seed", "9",
                     "--out-dir", str(tmp_path / "cv")]) == 0
    expected = {
        "folds.csv": "2f2ed9de2967fe7e19e6383a498015fc493c4a2aa56034dcce6868f2907bffd7",
        "fold_metrics.csv":
            "f2c74dbd83cb2de3e4bcad62464a4ec19b5d9743c904e3b0f72788fb1b7123fa",
    }
    for name, digest in expected.items():
        assert hashlib.sha256((tmp_path / "cv" / name).read_bytes()).hexdigest() == digest, name
