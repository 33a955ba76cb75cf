"""Benchmark of the fdo-mlp command line, one workload per run.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload crossval-fdo --seed 0 --seconds 40 --trace 0

The package is imported from ``src/`` of the checkout, never from an
installed copy; without ``src/fdo_mlp`` the run exits with code 2 before
measuring anything. ``--trace 0`` times ``fdo_mlp.cli.main`` in-process,
untraced, as often as fits in ``--seconds`` and reports medians of the
end-to-end metrics; their timings are in units of a fixed reference kernel
timed between invocations (``reference.py`` says why). ``--trace 1``
alternates an untraced and a traced invocation and reports the per-layer
metrics of the traced ones. Every invocation's output files are read back
and checked. The last line of
standard output is one JSON object; the lines before it give the same
metrics by name and unit, the workload's results, digests of its
deterministic output files and the machine the figures come from.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path

from reference import NOMINAL_CHUNK_S, reference_chunks
from tracing import LAYER_MOVES, Tracer, layer_metrics, patched, trace_replacements
from workloads import WORKLOADS, Capture, Workload

#: Seed kept out of tuning; confirm a claimed gain on it as well.
HELD_OUT_SEED = 1009
#: One BLAS thread: the matrices are small and one thread keeps timings steady
#: on a shared machine. It never exceeds the core count.
BLAS_THREADS = 1
_BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: Seconds of reference chunks before each untraced invocation and after the last.
REFERENCE_SECONDS = 1.0
#: Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 9
_SETUP_TIMEOUT_S = 120

_SETUP_CODE = ("import sys\n"
               "from fdo_mlp.cli import main\n"
               "sys.exit(main(sys.argv[1:]) if len(sys.argv) > 1 else 0)\n")

END_TO_END_UNITS = {
    "wall_ref": "ref",
    "evals_per_ref": "1/ref",
    "epochs_per_ref": "1/ref",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "fdo.self_s": "s",
    "fdo.self_us_per_eval": "us",
    "fdo.evaluations": "count",
    "fdo.retry_share": "fraction",
    "benchmarks.sphere_us": "us",
    "training.objective_us": "us",
    "training.mse_fitness_self_us": "us",
    "training.mse_gradient_us": "us",
    "training.bp_epoch_us": "us",
    "mlp.decode_us": "us",
    "mlp.forward_batch_us": "us",
    "mlp.sigmoid_us": "us",
    "mlp.sigmoid_share": "fraction",
    "mlp.forward_flops": "flop",
    "mlp.forward_bytes": "B",
    "mlp.forward_gflops": "GFLOP/s",
    "evaluation.score_s": "s",
    "data.load_csv_s": "s",
    "data.normalize_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}
RAW_UNITS = {"wall_s": "s", "evals_per_s": "1/s", "epochs_per_s": "1/s", "setup_s": "s",
             "ref_s": "s"}
RESULT_UNITS = {"test_accuracy": "fraction", "test_mse": "mse",
                "best_value": "objective", "failed_share": "fraction"}


@dataclass
class Invocation:
    """One CLI run, reduced to what the report needs; the captured results
    are dropped so that they do not grow the process between runs."""

    wall: float
    evaluations: int
    epochs: int
    problems: list[str]
    digest: dict[str, str]
    layers: dict[str, float] | None


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed (default 0, the acceptance runs; "
                             f"held-out seed: {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="measurement window in seconds (default 40)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting per-layer metrics")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _time_setup(argv: list[str], env: dict[str, str], cwd: Path) -> float:
    """Wall time of a fresh interpreter importing the package and, for the
    crossval workloads, generating and writing the dataset."""
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", _SETUP_CODE, *argv], env=env,
                          cwd=cwd, capture_output=True, text=True,
                          timeout=_SETUP_TIMEOUT_S)
    elapsed = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"set-up failed with code {done.returncode}: "
                           f"{done.stderr.strip()}")
    return elapsed


def _invoke(workload: Workload, argv: list[str], out_dir: Path, modules: dict,
            tracer: Tracer | None = None) -> Invocation:
    """Run the CLI once in-process and check what it wrote."""
    capture = Capture()
    replacements = capture.replacements(modules)
    main = modules["cli"].main
    if tracer is not None:
        replacements += trace_replacements(tracer, modules)
        main = tracer.wrap("cli.main", main)
    problems: list[str] = []
    start = time.perf_counter()
    try:
        with patched(replacements), redirect_stdout(io.StringIO()):
            code = main(argv)
    except Exception:  # a crash is one failed invocation, not the end of the run
        traceback.print_exc()
        code = None
    wall = time.perf_counter() - start
    digest: dict[str, str] = {}
    if code != 0:
        problems.append(f"command exited with {code}")
    else:
        try:
            problems += workload.check(out_dir, capture)
            digest = workload.digest(out_dir)
        except (OSError, ValueError, IndexError, StopIteration) as err:
            problems.append(f"unreadable output: {err!r}")
    layers = None
    if tracer is not None:
        layers = layer_metrics(tracer, *capture.search_counts(), capture.bp_epochs)
    return Invocation(wall, capture.evaluations, capture.epochs, problems, digest,
                      layers)


def _environment(numpy) -> dict[str, str]:
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.partition(":")[2].strip()
                break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    nproc = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count())
    return {"nproc": str(nproc), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "blas": blas,
            "blas_threads": str(BLAS_THREADS)}


def _print_metric(kind: str, name: str, value, unit: str) -> None:
    print(f"{kind:<7} {name:<30} {value!r} {unit}")


def main(argv=None) -> int:
    args = _parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    if not (src / "fdo_mlp" / "__init__.py").is_file():
        print(f"error: no fdo_mlp package under {src}", file=sys.stderr)
        return 2
    for variable in _BLAS_VARIABLES:
        os.environ[variable] = str(BLAS_THREADS)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    sys.path.insert(0, str(src))

    workload = WORKLOADS[args.workload]
    work_dir = root / "perfbench" / "out" / workload.name
    shutil.rmtree(work_dir, ignore_errors=True)
    out_dir = work_dir / "cli"
    out_dir.mkdir(parents=True)
    data = work_dir / "data.csv"
    setup_argv = workload.dataset(args.seed, data) if workload.dataset else []
    setup_times = [_time_setup(setup_argv, env, root) for _ in range(SETUP_REPEATS)]

    import numpy

    import fdo_mlp
    from fdo_mlp import cli, evaluation, mlp, training
    if Path(fdo_mlp.__file__).resolve().parent != src / "fdo_mlp":
        print(f"error: imported fdo_mlp from {fdo_mlp.__file__}, not {src}",
              file=sys.stderr)
        return 2
    modules = {"cli": cli, "evaluation": evaluation, "mlp": mlp, "training": training}
    argv = workload.command(args.seed, data, out_dir)

    plain: list[Invocation] = []
    traced: list[Invocation] = []
    tracer = None
    refs: list[float] = []
    start = time.perf_counter()
    while True:
        if not args.trace:
            refs += reference_chunks(numpy, REFERENCE_SECONDS)
        plain.append(_invoke(workload, argv, out_dir, modules))
        if args.trace:
            tracer = Tracer()
            traced.append(_invoke(workload, argv, out_dir, modules, tracer))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(plain) > args.seconds:
            break
    if tracer is not None:
        tracer.write(work_dir / "spans.csv")

    runs = plain + traced
    digests = [run.digest for run in runs if run.digest]
    for run in runs:
        if run.digest and run.digest != digests[0]:
            run.problems.append("output differs from the first invocation's")
    failed = sum(1 for run in runs if run.problems)
    walls = [run.wall for run in plain]
    raw: dict[str, float] = {}
    if args.trace:
        layers = {name: statistics.median(run.layers[name] for run in traced)
                  for name in PER_LAYER_UNITS if name != "trace.overhead_s"}
        layers["trace.overhead_s"] = (statistics.median(run.wall for run in traced)
                                      - statistics.median(walls))
        metrics = {name: (layers[name], unit) for name, unit in PER_LAYER_UNITS.items()}
    else:
        refs += reference_chunks(numpy, REFERENCE_SECONDS)
        raw = {
            "wall_s": statistics.median(walls),
            "evals_per_s": statistics.median(r.evaluations / r.wall for r in plain),
            "epochs_per_s": statistics.median(r.epochs / r.wall for r in plain),
            "setup_s": statistics.median(setup_times),
            "ref_s": statistics.mean(refs),
        }
        values = {
            "wall_ref": raw["wall_s"] / raw["ref_s"],
            "evals_per_ref": raw["evals_per_s"] * raw["ref_s"],
            "epochs_per_ref": raw["epochs_per_s"] * raw["ref_s"],
            "setup_s": raw["setup_s"] * NOMINAL_CHUNK_S / raw["ref_s"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}

    print(f"workload {workload.name}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  (held-out seed {HELD_OUT_SEED})")
    print("env     " + "  ".join(f"{k}={v}" for k, v in _environment(numpy).items()))
    if setup_argv:
        print("input   fdo-mlp " + " ".join(setup_argv))
    print("command fdo-mlp " + " ".join(argv))
    print("setup   " + " ".join(f"{t:.4f}" for t in setup_times))
    for kind, group in (("untraced", plain), ("traced", traced)):
        for i, run in enumerate(group, start=1):
            status = "; ".join(run.problems) or "ok"
            print(f"run     {kind} {i}  wall_s {run.wall:.4f}  "
                  f"evaluations {run.evaluations}  check {status}")
    for name, value in (digests[0] if digests else {}).items():
        print(f"digest  {name} {value}")
    results = workload.results(out_dir) if failed == 0 else {}
    results["failed_share"] = failed / len(runs)
    for name, value in results.items():
        _print_metric("result", name, value, RESULT_UNITS[name])
    for name, value in raw.items():
        _print_metric("raw", name, value, RAW_UNITS[name])
    for name, (value, unit) in metrics.items():
        _print_metric("metric", name, value, unit)
    if args.trace:
        for layer, moves in LAYER_MOVES.items():
            print(f"layer   {layer}: moves {moves}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
