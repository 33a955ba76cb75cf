"""Span tracing for the benchmark's traced run, and its reduction to layers.

The package is not modified. Instead the benchmark replaces public
functions at the module attribute each caller looks them up through (for
example ``training`` imports ``forward_batch`` by name, so the name is
replaced in ``training`` as well as in ``mlp``). Every replacement records
one span per call: name, start, end and the index of the enclosing span.
Spans stay in memory until the run ends; then they are written out and
reduced to per-layer totals and self times (a span's duration minus the
durations of its direct children).
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

#: Which end-to-end metric, on which workload, each layer is expected to move.
LAYER_MOVES = {
    "cli": "wall_ref on every workload, by its own small share (argument and "
           "config handling, output writes, printing)",
    "data": "setup_s, and wall_ref on crossval-fdo and crossval-bp (load and "
            "per-fold normalization); nothing on sphere-fdo",
    "evaluation": "wall_ref on crossval-fdo and crossval-bp (fold scoring); "
                  "nothing on sphere-fdo",
    "training": "wall_ref and evals_per_ref on crossval-fdo (objective); "
                "wall_ref, evals_per_ref and epochs_per_ref on crossval-bp "
                "(gradient pass); nothing on sphere-fdo",
    "mlp": "wall_ref on crossval-fdo and crossval-bp (decode, forward pass, "
           "sigmoid); no change on sphere-fdo",
    "fdo": "wall_ref, evals_per_ref and epochs_per_ref on sphere-fdo; little "
           "on crossval-fdo; nothing on crossval-bp",
    "benchmarks": "wall_ref and evals_per_ref on sphere-fdo only",
}

#: Spans whose time is a training loop; sigmoid_share is measured inside them.
_LOOP_SPANS = ("training.objective", "training.train_bp_mlp")
_TRAINER_SPANS = ("training.train_fdo_mlp", "training.train_bp_mlp")


class Tracer:
    """Records spans from wrapped functions into an in-memory list."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.shapes: dict[str, Counter] = defaultdict(Counter)
        self._stack: list[int] = []

    def wrap(self, name, fn, shape=None):
        """Return ``fn`` recording a span per call.

        ``shape``, when given, maps the call's arguments to a hashable key;
        calls are counted per key so work can later be derived from shapes.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        shapes = self.shapes[name]

        def traced(*args, **kwargs):
            if shape is not None:
                shapes[shape(*args, **kwargs)] += 1
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)

        return traced

    def write(self, path: Path) -> None:
        lines = ["name,start,end,parent"]
        lines += [f"{n},{s!r},{e!r},{p}" for n, s, e, p in self.spans]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@contextmanager
def patched(replacements):
    """Replace module attributes for the duration of the block.

    ``replacements`` holds ``(module, attribute, make)`` triples; ``make``
    receives the current value and returns its replacement. Originals are
    restored in reverse order on exit.
    """
    saved = []
    try:
        for module, attribute, make in replacements:
            original = getattr(module, attribute)
            saved.append((module, attribute, original))
            setattr(module, attribute, make(original))
        yield
    finally:
        for module, attribute, original in reversed(saved):
            setattr(module, attribute, original)


def _forward_shape(params, inputs, sigmoid_output=False):
    n, m = params.input_hidden_weights.shape
    return (inputs.shape[0], n, m, params.hidden_output_weights.shape[1],
            bool(sigmoid_output))


def forward_cost(rows: int, n: int, m: int, o: int,
                 sigmoid_output: bool) -> tuple[int, int]:
    """Computed (not measured) flops and bytes of one forward_batch call.

    Flops: 2 per multiply-add in both affine maps, 1 per bias add, and 4 per
    sigmoid element (compare, exp, add, divide). Bytes: float64 traffic if
    every array is touched the least number of times: inputs and parameters
    read once, the hidden matrix written by the affine map, read and
    written by the sigmoid and read by the output map, the output written
    once (and read and written again by an output sigmoid).
    """
    out_sig = 1 if sigmoid_output else 0
    flops = (2 * rows * n * m + rows * m + 4 * rows * m
             + 2 * rows * m * o + rows * o + 4 * rows * o * out_sig)
    floats = (rows * n + (n + 1) * m + (m + 1) * o + 4 * rows * m
              + rows * o * (1 + 2 * out_sig))
    return flops, 8 * floats


def trace_replacements(tracer: Tracer, modules: dict):
    """Every wrapper the traced run installs, as ``patched`` triples."""
    cli, evaluation = modules["cli"], modules["evaluation"]
    training, mlp = modules["training"], modules["mlp"]
    plain = [
        (cli, "load_csv", "data.load_csv"),
        (cli, "min_max_normalize", "data.normalize"),
        (evaluation, "min_max_normalize", "data.normalize"),
        (evaluation, "normalize_with", "data.normalize"),
        (cli, "cross_validate", "evaluation.cross_validate"),
        (evaluation, "train_fdo_mlp", "training.train_fdo_mlp"),
        (training, "train_bp_mlp", "training.train_bp_mlp"),
        (cli, "optimize", "fdo.optimize"),
        (training, "optimize", "fdo.optimize"),
        (training, "mse_fitness", "training.mse_fitness"),
        (evaluation, "mse_fitness", "training.mse_fitness"),
        (training, "mse_gradient", "training.mse_gradient"),
        (training, "decode", "mlp.decode"),
        (mlp, "decode", "mlp.decode"),
        (training, "sigmoid", "mlp.sigmoid"),
        (mlp, "sigmoid", "mlp.sigmoid"),
    ]
    triples = [(module, attribute, lambda fn, name=name: tracer.wrap(name, fn))
               for module, attribute, name in plain]
    for module in (training, mlp, evaluation):
        triples.append((module, "forward_batch",
                        lambda fn: tracer.wrap("mlp.forward_batch", fn,
                                               shape=_forward_shape)))

    def make_objective(fn):
        def wrapped(*args, **kwargs):
            return tracer.wrap("training.objective", fn(*args, **kwargs))
        return wrapped

    def get_benchmark(fn):
        def wrapped(name, dimension):
            bench = fn(name, dimension)
            return replace(bench, evaluate=tracer.wrap(f"benchmarks.{bench.name}",
                                                       bench.evaluate))
        return wrapped

    triples.append((training, "make_objective", make_objective))
    triples.append((cli, "get_benchmark", get_benchmark))
    return triples


def layer_metrics(tracer: Tracer, evaluations: int, base_evaluations: int,
                  retry_slots: int, epochs: int) -> dict[str, float]:
    """Reduce one traced CLI invocation's spans to the per-layer metrics.

    ``evaluations`` is the optimizer's own count, ``base_evaluations`` the
    count without retries (population times iterations plus one),
    ``retry_slots`` the number of first proposals (population times
    iterations) and ``epochs`` the backprop epochs run.
    """
    spans = tracer.spans
    count: Counter = Counter()
    total: defaultdict = defaultdict(float)
    children = [0.0] * len(spans)
    trainer_children = [0.0] * len(spans)
    loop_of = [-1] * len(spans)
    for i, (name, start, end, parent) in enumerate(spans):
        duration = end - start
        count[name] += 1
        total[name] += duration
        if parent >= 0:
            children[parent] += duration
            if name in _TRAINER_SPANS:
                trainer_children[parent] += duration
            loop_of[i] = loop_of[parent]
        if name in _LOOP_SPANS and loop_of[i] < 0:
            loop_of[i] = i
    self_time: defaultdict = defaultdict(float)
    for i, (name, start, end, _) in enumerate(spans):
        self_time[name] += end - start - children[i]
    score = sum((end - start - trainer_children[i]
                 for i, (name, start, end, _) in enumerate(spans)
                 if name == "evaluation.cross_validate"), 0.0)
    loop_time = sum(end - start for i, (_, start, end, _) in enumerate(spans)
                    if loop_of[i] == i)
    loop_sigmoid = sum(end - start for i, (name, start, end, _) in enumerate(spans)
                       if name == "mlp.sigmoid" and loop_of[i] >= 0)

    def per_call_us(name: str, seconds: float | None = None) -> float:
        seconds = total[name] if seconds is None else seconds
        return seconds / count[name] * 1e6 if count[name] else 0.0

    shapes = tracer.shapes["mlp.forward_batch"]
    all_flops = sum(calls * forward_cost(*key)[0] for key, calls in shapes.items())
    flops, nbytes = forward_cost(*shapes.most_common(1)[0][0]) if shapes else (0, 0)
    forward_time = total["mlp.forward_batch"]
    fdo_self = self_time["fdo.optimize"]
    return {
        "fdo.self_s": fdo_self,
        "fdo.self_us_per_eval": fdo_self / evaluations * 1e6 if evaluations else 0.0,
        "fdo.evaluations": evaluations,
        "fdo.retry_share": ((evaluations - base_evaluations) / retry_slots
                            if retry_slots else 0.0),
        "benchmarks.sphere_us": per_call_us("benchmarks.sphere"),
        "training.objective_us": per_call_us("training.objective"),
        "training.mse_fitness_self_us": per_call_us(
            "training.mse_fitness", self_time["training.mse_fitness"]),
        "training.mse_gradient_us": per_call_us("training.mse_gradient"),
        "training.bp_epoch_us": (total["training.train_bp_mlp"] / epochs * 1e6
                                 if count["training.train_bp_mlp"] and epochs else 0.0),
        "mlp.decode_us": per_call_us("mlp.decode"),
        "mlp.forward_batch_us": per_call_us("mlp.forward_batch"),
        "mlp.sigmoid_us": per_call_us("mlp.sigmoid"),
        "mlp.sigmoid_share": loop_sigmoid / loop_time if loop_time else 0.0,
        "mlp.forward_flops": flops,
        "mlp.forward_bytes": nbytes,
        "mlp.forward_gflops": all_flops / forward_time / 1e9 if forward_time else 0.0,
        "evaluation.score_s": score,
        "data.load_csv_s": total["data.load_csv"],
        "data.normalize_s": total["data.normalize"],
        "cli.self_s": self_time["cli.main"],
    }
