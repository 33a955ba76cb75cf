"""Golden trajectories: exact values pinned so refactors prove bit-identity.

Each test replays a seeded run and compares its curve (as the sha256 of the
``repr`` of every value, one per line) and its best value (as ``repr``)
with figures recorded before the forward and scoring paths were merged.
The optimizer runs after those (weight factors, a single scout, zero
fitness, the XOR search) also pin the evaluation count and the best
position, and were recorded before the swarm was held as arrays. The
backprop runs' best-params digests and the sigmoid-output backprop run were
recorded before the backprop epoch reused its arrays. The FDO search,
backprop, cross-validation and XOR figures were re-recorded when the
sigmoid became 1 / (1 + exp(-s)), which rounds s < 0 differently. The
three backprop runs were re-recorded again when the W and b_h gradient
became ((x₁ᵀ ⊙ d_outᵀ) @ h(1 - h)) ⊙ Vᵀ, which rounds differently from
[x | 1]ᵀ @ d_hidden; the sigmoid-output run kept its train_mse. The FDO
search, cross-validation and XOR figures were re-recorded when the training
objective came to evaluate its hidden layer in float32, with the fold-one
search's train_mse now the float64 MSE of its best params; that search kept
its evaluation and row counts.
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
from fdo_mlp.data import LabeledDataset, generate_synthetic, min_max_normalize
from fdo_mlp.evaluation import kfold_splits
from fdo_mlp.fdo import FdoConfig, optimize, uniform_bounds
from fdo_mlp.mlp import MlpTopology, hidden_size_rule
from fdo_mlp.training import TrainingConfig, make_objective, train_bp_mlp, train_fdo_mlp

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
    assert repr(model.train_mse) == "0.008407780731171207"
    assert len(model.curve) == 75
    assert _digest(model.curve.values) == (
        "8402587b31f797fcb24f097b87aac1f25b379a2adab93a2a7162505b94486f4c")


def test_backprop_fold_one_500_epochs():
    train, rng = _criterion_7_fold_one()
    model = train_bp_mlp(train, TOPOLOGY, 0.5, 500, rng)
    assert repr(model.train_mse) == "0.058569931763609424"
    assert len(model.curve) == 500
    assert _digest(model.curve.values) == (
        "5bf7ba3fbf62fed83325d50ac18bedde6896c11e9d32a700dab27f630866d25e")


def test_sphere_seed_zero():
    config = FdoConfig(bounds=uniform_bounds(-100, 100, 10), population=30,
                       max_iterations=500, seed=0)
    result = optimize(get_benchmark("sphere", 10).evaluate, config)
    assert repr(result.best_fitness) == "8.697452883515544e-63"
    assert result.evaluations == 27707
    assert _digest(result.curve.values) == (
        "3700038fa8293b458dfbbb12c384e3ad5d2d09c5ebb3df66fd8cf0f4f7ea5fd3")


def _row_counting(objective):
    """``objective`` and a one-item list that sums the rows passed to it."""
    rows = [0]

    def counted(x):
        rows[0] += len(x)
        return objective(x)

    return counted, rows


def test_sphere_seed_zero_objective_rows():
    """The run of test_sphere_seed_zero passes the objective 20,022 of its
    27,707 evaluations; the rest are retries already known to fail."""
    objective, rows = _row_counting(get_benchmark("sphere", 10).evaluate)
    config = FdoConfig(bounds=uniform_bounds(-100, 100, 10), population=30,
                       max_iterations=500, seed=0)
    result = optimize(objective, config)
    assert repr(result.best_fitness) == "8.697452883515544e-63"
    assert (rows[0], result.evaluations) == (20022, 27707)


def test_fdo_fold_one_search_objective_rows():
    """The search of test_fdo_fold_one_search passes the objective 3,459 of
    its 5,618 evaluations."""
    train, rng = _criterion_7_fold_one()
    config = TrainingConfig.for_topology(TOPOLOGY, population=40,
                                         max_iterations=75, seed=11)
    objective, rows = _row_counting(
        make_objective(config.topology, train, config.sigmoid_output))
    result = optimize(objective, config.fdo, rng)
    assert repr(result.best_fitness) == "0.00840777685517553"
    assert (rows[0], result.evaluations) == (3459, 5618)


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
        "folds.csv": "19f34e34d603d83eccc8f9a4c042abeffd9f2af5d834d08580f229fe085a9fac",
        "fold_metrics.csv":
            "f2c74dbd83cb2de3e4bcad62464a4ec19b5d9743c904e3b0f72788fb1b7123fa",
    }
    for name, digest in expected.items():
        assert hashlib.sha256((tmp_path / "cv" / name).read_bytes()).hexdigest() == digest, name


def test_crossval_class_success_bytes(tmp_path):
    """The same run's per-class counts and rates, recorded while they were
    still built by their own per-class types rather than the fold metrics."""
    data = tmp_path / "synth.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["generate", "--samples", "40", "--features", "3",
                     "--separation", "5", "--balance", "0.5", "--seed", "9",
                     "--out", str(data)]) == 0
        assert main(["crossval", "--data", str(data), "--k", "3",
                     "--population", "6", "--iterations", "5", "--seed", "9",
                     "--out-dir", str(tmp_path / "cv")]) == 0
    assert hashlib.sha256((tmp_path / "cv" / "class_success.csv").read_bytes()).hexdigest() == (
        "4062686ec0d0d8608ceb6d44ad76c8b1e1d099dc382058d7d4cd1854838c8caa")


def _search(objective, lower, upper, dimension, **settings):
    config = FdoConfig(bounds=uniform_bounds(lower, upper, dimension), **settings)
    return optimize(objective, config)


def _assert_run(result, best, evaluations, curve, position):
    assert repr(result.best_fitness) == best
    assert result.evaluations == evaluations
    assert _digest(result.curve.values) == curve
    assert _digest(result.best_position) == position


def test_rosenbrock_weight_factor_0_3():
    result = _search(get_benchmark("rosenbrock", 4).evaluate, -5, 10, 4,
                     population=20, max_iterations=300, weight_factor=0.3, seed=3)
    _assert_run(result, "0.0100366974956316", 11353,
                "87d077c7be4d896f1e03ab19ff944c886904aa34f39dc68d5f186519db4ef217",
                "ed51a2ce3024ffc89240f683306cceb98ab9d5ebbd481761c87a86df31f4b525")


def test_rastrigin_weight_factor_0_7():
    """Also reaches a fitness of exactly 0, after which every fw is 0 or NaN."""
    result = _search(get_benchmark("rastrigin", 10).evaluate, -5.12, 5.12, 10,
                     population=30, max_iterations=200, weight_factor=0.7, seed=5)
    _assert_run(result, "0.0", 10602,
                "c4321ccf1b51251d8b84a4ed80280585e8d139e7ee244ab9424767f7cc186a08",
                "d9d1957d2f9dd4c4555a355903ddb481446500f572edd786752c78064799e8b0")


def test_single_scout():
    result = _search(get_benchmark("sphere", 3).evaluate, -10, 10, 3,
                     population=1, max_iterations=200, seed=8)
    _assert_run(result, "4.6583360924903554e-55", 298,
                "9322ceae0eac403e24802ed6c03414859cb86b33e9edd3d282b77c52314b0005",
                "a5d7119497a7e6d25714b4079e4d2012cfc7d742f1ec5fc9b0cfa1e436bec4be")


def test_zero_fitness_degenerate_box():
    """Every scout sits at the origin with fitness 0: each proposal and
    each retry is rejected, so every iteration costs two evaluations a scout."""
    result = _search(get_benchmark("sphere", 3).evaluate, 0, 0, 3,
                     population=4, max_iterations=10, seed=2)
    _assert_run(result, "0.0", 84,
                "e3a3fab17b9cabd0a4d6aa9d10895e5f5731b4209040d10624bd8a87a71ea7b0",
                "e398335055001d06d009004dc7e9a23df184e5f808730bd5bb430d5c49219373")


def test_xor_search_seed_zero():
    """Criterion 6's first seed: 2-5-1 network, 40 scouts x 200 iterations."""
    xor = LabeledDataset(features=np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]),
                         labels=np.array([0, 1, 1, 0]), column_names=("x1", "x2"))
    config = TrainingConfig.for_topology(MlpTopology(2, 5, 1), population=40,
                                         max_iterations=200,
                                         weight_bounds=(-10.0, 10.0), seed=0)
    result = optimize(make_objective(config.topology, xor, config.sigmoid_output),
                      config.fdo)
    _assert_run(result, "0.00021226240290927935", 14343,
                "10bc4c601c23e1db3ed5e106841c8876d482768cb006e9e31ae0ea432fbb5348",
                "e1829fec74dfbf5f1c8dfe3ec04a71a5d57b88db9d7be934b6254bf37c650347")


def _params_digest(params) -> str:
    """sha256 of the four parameter arrays' bytes, in field order."""
    arrays = (params.input_hidden_weights, params.hidden_biases,
              params.hidden_output_weights, params.output_biases)
    return hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()


def test_backprop_fold_one_500_epochs_best_params():
    """The linear run above stops improving at epoch 480, so its best
    params are those of an earlier epoch, not the last update."""
    train, rng = _criterion_7_fold_one()
    model = train_bp_mlp(train, TOPOLOGY, 0.5, 500, rng)
    assert _params_digest(model.params) == (
        "428ee6553aae4009ebc1c398567dea0f2ed92868709787cdcdd20892d24e45da")


def test_backprop_fold_one_500_epochs_sigmoid_output():
    """The d_out * out * (1 - out) branch of the gradient."""
    train, rng = _criterion_7_fold_one()
    model = train_bp_mlp(train, TOPOLOGY, 0.5, 500, rng, sigmoid_output=True)
    assert repr(model.train_mse) == "0.011403162237117358"
    assert len(model.curve) == 500
    assert _digest(model.curve.values) == (
        "b1a5230313827b3df84712976f5527d178554d5c27e3279f171ee3b21f964a95")
    assert _params_digest(model.params) == (
        "359e4516731c0925a2b167d91acaa52247e4c8eacfbfdb48fa37154d238b0b87")
