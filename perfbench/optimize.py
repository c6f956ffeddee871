"""The plan half of ``optimize-serve-prefix128``: PGD time-to-solution on
Prefix(128).

The optimizer runs in a child process of its own (this file, run as a
script), so its peak RSS and CPU seconds are its own and set-up time is
measured from spawn.  The child imports the library, builds the workload
and its Gram matrix, prints ``READY`` and waits; on ``GO`` it runs
``optimize_strategy(prefix(128), 1.0, OptimizerConfig(seed=0))`` -- the
default configuration with a fixed initialization seed -- ``REPEATS``
times, saves the strategy to a strategy store (after the clocks stop), and
prints one JSON line with the result and its checks.  The serve half of
the workload (:mod:`perfbench.ingest`) deploys that stored strategy.

The child inherits the load generator's pinning to one CPU
(``procs.PLACEMENT``), so its BLAS runs one thread.  On a 2-vCPU virtual
machine that made this optimization twice as fast as with two BLAS threads
(7.5-8.4 s against 12.6-15.8 s over three runs each), and it keeps the
iteration count, which the thread count's summation order moves, the same
on every host.

The initialization seed is fixed rather than taken from ``--seed``: the
early stop makes the iteration count depend on the starting point (314 to
473 iterations over seeds 0-4), a spread wider than any bound a timing
gate could use, while one fixed start measures the code and not the draw.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

_HERE = Path(__file__).resolve().parent
for entry in (str(_HERE.parent / "src"), str(_HERE.parent)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from perfbench.procs import ROOT, BenchError, child_env, proc_usage  # noqa: E402

DOMAIN = 128
EPSILON = 1.0
OPTIMIZER_SEED = 0
SETUPS = 3

#: Optimizations timed in an untraced run; ``strategy_s`` is their median.
#: Host speed drifted by 10-20% between runs: over five runs the
#: interquartile spread of one optimization was 0.15 of its median, of the
#: median of three 0.06-0.09; two keep a run inside the benchmark's time
#: budget.  The traced run optimizes once.
REPEATS = 2

#: Relative agreement required between the fast and reference engines.
REFERENCE_RTOL = 1e-9


def _child() -> int:
    """Entry point of the optimizer process."""
    trace_dir = os.environ.get("PERFBENCH_TRACE_DIR")
    recorder = None
    if trace_dir:
        from perfbench import spans

        recorder = spans.install(Path(trace_dir))
    import numpy as np

    from repro.analysis.bounds import strategy_objective_lower_bound
    from repro.linalg.checks import is_column_stochastic, is_ldp_matrix
    from repro.optimization.kernels import ReferenceEngine
    from repro.optimization.pgd import OptimizerConfig, optimize_strategy
    from repro.workloads import prefix

    workload = prefix(DOMAIN)
    gram = workload.gram()
    lower_bound = strategy_objective_lower_bound(workload, EPSILON)
    print("READY", flush=True)
    command = sys.stdin.readline().split()
    if command[:1] != ["GO"]:
        return 0
    config = OptimizerConfig(seed=OPTIMIZER_SEED)
    timings, objectives = [], []
    for _ in range(int(command[1])):
        started = time.perf_counter()
        if recorder is None:
            result = optimize_strategy(workload, EPSILON, config)
        else:
            from perfbench.spans import wrap_call

            result = wrap_call(
                recorder, "pgd", optimize_strategy, workload, EPSILON, config
            )
        timings.append(time.perf_counter() - started)
        objectives.append(result.objective)
    usage = proc_usage(os.getpid())
    matrix = result.strategy.probabilities
    reference = ReferenceEngine(gram, matrix.shape[0]).value(matrix)
    store = os.environ.get("PERFBENCH_STORE")
    if store:
        from repro.store import StrategyStore, key_for

        StrategyStore(store).put(
            key_for(workload, EPSILON, config), result, workload, config
        )
    print(
        json.dumps(
            {
                "optimize_samples_s": timings,
                "objective": result.objective,
                "deterministic": len(set(objectives)) == 1,
                "reference_objective": float(reference),
                "lower_bound": lower_bound,
                "ldp_ok": bool(
                    is_column_stochastic(matrix) and is_ldp_matrix(matrix, EPSILON)
                ),
                "finite": bool(np.isfinite(result.objective)),
                "num_outputs": int(matrix.shape[0]),
                "rank": int(np.linalg.matrix_rank(gram)),
                "telemetry": result.telemetry,
                "cpu_s": usage["cpu_s"],
                "peak_rss_mb": usage["peak_rss_mb"],
            }
        ),
        flush=True,
    )
    return 0


def _spawn(trace_dir: Path | None, store: Path | None = None):
    extra = {"PERFBENCH_TRACE_DIR": str(trace_dir)} if trace_dir else {}
    if store is not None:
        extra["PERFBENCH_STORE"] = str(store)
    return subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--child"],
        cwd=ROOT,
        env=child_env(extra),
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    )


def _wait_ready(process, spawned: float) -> float:
    line = process.stdout.readline()
    if line.strip() != "READY":
        process.kill()
        process.wait()
        raise BenchError(f"optimizer child failed to start: {line!r}")
    return time.perf_counter() - spawned


def gflop(gradient_calls: int, value_candidates: int, m: int, n: int, r: int) -> float:
    """Flops computed from the fast-path complexity table in
    ``docs/optimizer.md`` (not measured): per evaluation ``mn²`` (syrk
    core) + ``n³/3`` (Cholesky) + ``n²r`` (value); a gradient adds
    ``2n²r + n²r``."""
    value = m * n * n + n**3 / 3 + n * n * r
    gradient = value + 3 * n * n * r
    return (gradient_calls * gradient + value_candidates * value) / 1e9


def run(trace_dir: Path | None, store: Path) -> dict:
    """The workload's optimizations, the strategy saved to ``store``;
    returns measurements and check results."""
    setups = []

    def extra_setup() -> None:
        spawned = time.perf_counter()
        process = _spawn(None)
        setups.append(_wait_ready(process, spawned))
        process.stdin.write("EXIT\n")
        process.stdin.close()
        process.wait(60)

    # One extra set-up before the optimization and the rest after it, so
    # the set-ups sample more than one period of the host's speed drift.
    extra_setup()
    spawned = time.perf_counter()
    process = _spawn(trace_dir, store)
    try:
        setups.append(_wait_ready(process, spawned))
        process.stdin.write(f"GO {1 if trace_dir else REPEATS}\n")
        process.stdin.flush()
        line = process.stdout.readline()
        process.stdin.close()
        if process.wait(120) != 0 or not line:
            raise BenchError("optimizer child failed")
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
    for _ in range(SETUPS - 2):
        extra_setup()
    result = json.loads(line)
    objective = result["objective"]
    mismatch = abs(objective - result["reference_objective"]) / abs(
        result["reference_objective"]
    )
    checks = {
        "ldp": result["ldp_ok"],
        "reference_engine": mismatch <= REFERENCE_RTOL,
        "above_lower_bound": objective >= result["lower_bound"],
        "finite": result["finite"],
        "deterministic": result["deterministic"],
    }
    telemetry = result["telemetry"]
    return {
        "optimizer_seed": OPTIMIZER_SEED,
        "setup_s": statistics.median(setups),
        "setup_samples_s": setups,
        "optimize_s": statistics.median(result["optimize_samples_s"]),
        "optimize_samples_s": result["optimize_samples_s"],
        "objective_ratio": objective / result["lower_bound"],
        "reference_rel_diff": mismatch,
        "checks": checks,
        "iterations": telemetry["iterations"],
        "line_search_attempts": telemetry["line_search_attempts"],
        "num_outputs": result["num_outputs"],
        "rank": result["rank"],
        "processes": {
            "optimizer": {
                "cpu_s": result["cpu_s"],
                "peak_rss_mb": result["peak_rss_mb"],
            }
        },
    }


if __name__ == "__main__" and sys.argv[1:] == ["--child"]:
    sys.exit(_child())
