"""A fixed reference kernel that measures how fast the machine is right now.

On a shared machine the same work runs 20-40 % slower for seconds to minutes
at a time, when other tenants load the same cores and caches, and the level
of that load drifts over an hour. Raw wall times of one command then differ
more between two runs than the changes the benchmark has to detect. The
benchmark therefore times this kernel in short chunks between CLI
invocations, spread over the whole measurement window, and reports the
gated timings as multiples of the mean chunk time (the unit ``ref``), or,
for the set-up time, in seconds scaled to ``NOMINAL_CHUNK_S``.

The kernel mixes what the package spends its time on: a small matrix
product, a branch-wise sigmoid over a 230x37 matrix, and a Python loop of
small numpy calls like the optimizer's per-scout step. It does not import
the package, so no change to the program moves it. Changing it changes the
unit of every normalized metric: measure the parent again after doing so.
"""

from __future__ import annotations

import time

#: Kernel repetitions per chunk.
CHUNK_ITERATIONS = 60
#: Chunk time on the quiet 2-core Xeon VM the benchmark was built on. setup_s
#: must stay in seconds, so it is scaled to a machine this fast.
NOMINAL_CHUNK_S = 0.02


def reference_chunks(np, seconds: float) -> list[float]:
    """Run reference chunks for ``seconds`` and return each chunk's wall time."""
    rng = np.random.default_rng(0)
    x = rng.uniform(0.0, 1.0, (230, 18))
    w = rng.uniform(-10.0, 10.0, (18, 37))
    b = rng.uniform(-10.0, 10.0, 37)
    scouts = rng.uniform(-100.0, 100.0, (5, 10))
    times = []
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        start = time.perf_counter()
        for _ in range(CHUNK_ITERATIONS):
            s = x @ w + b
            out = np.empty_like(s)
            positive = s >= 0.0
            out[positive] = 1.0 / (1.0 + np.exp(-s[positive]))
            e = np.exp(s[~positive])
            out[~positive] = e / (1.0 + e)
            for scout in scouts:
                step = np.clip(scout + scout * rng.uniform(-1.0, 1.0, 10), -100.0, 100.0)
                float(np.sum(step * step))
        times.append(time.perf_counter() - start)
    return times
