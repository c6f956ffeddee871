"""Profile one strategy optimization and print the top cumulative costs.

cProfile wrapper for the optimizer hot path: runs ``optimize_strategy``
for a named configuration and prints the top-N functions by cumulative
time, so a regression in the kernels (projection solver, workspace
factorization, line-search batching) shows up as a shifted profile rather
than a mystery slowdown.

Run::

    PYTHONPATH=src python scripts/profile_optimizer.py --domain 128 \
        --iterations 100 --engine fast --top 20

Compare the engines directly::

    PYTHONPATH=src python scripts/profile_optimizer.py --engine reference

It prints the BLAS library and thread count it ran with (the optimizer's
iteration count moves with the thread count's summation order, so compare
profiles only at equal settings), and after the function table a per-layer
summary under the row names of the repository benchmark's traced ledger
(``projection``, ``kernels.value_batch``, ``kernels.value_and_gradient``,
plus the driver's remainder), so a hand profile maps onto perfbench rows.
For numbers comparable with the benchmark's, pin it the same way::

    OPENBLAS_NUM_THREADS=1 taskset -c 1 env PYTHONPATH=src \
        python scripts/profile_optimizer.py --workload prefix --domain 128 \
        --iterations 500
"""

from __future__ import annotations

import argparse
import cProfile
import ctypes
import io
import json
import os
import pstats
import sys
import time
from pathlib import Path

import numpy as np

from repro.optimization import OptimizerConfig, optimize_strategy
from repro.optimization.kernels import FastEngine, ReferenceEngine
from repro.workloads import histogram, prefix


WORKLOADS = {"histogram": histogram, "prefix": prefix}

#: Rows of the repository benchmark's traced ledger and the engine methods
#: each one times (``perfbench/spans.py`` wraps the same methods).
LAYERS = {
    "projection": ("project", "project_batch"),
    "kernels.value_batch": ("value_batch",),
    "kernels.value_and_gradient": ("value_and_gradient",),
}

#: Thread-count getters exported by the OpenBLAS builds numpy ships with.
_BLAS_THREAD_GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def blas_report() -> str:
    """The BLAS numpy was built against, its thread count and the CPUs this
    process may run on ("unknown" where the platform does not say)."""
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    name = f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()
    threads = "unknown"
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            libraries = sorted(
                {line.split()[-1] for line in maps if "blas" in line.lower()}
            )
    except OSError:
        libraries = []
    for path in libraries:
        library = ctypes.CDLL(path)
        getter = next(
            (
                getattr(library, symbol)
                for symbol in _BLAS_THREAD_GETTERS
                if hasattr(library, symbol)
            ),
            None,
        )
        if getter is not None:
            getter.argtypes, getter.restype = [], ctypes.c_int
            threads = str(getter())
            break
    cpus = (
        len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else "?"
    )
    return f"BLAS: {name}, {threads} thread(s); {cpus} CPU(s) available"


def layer_summary(
    stats: pstats.Stats, engine: type, iterations: int
) -> list[tuple[str, int, float]]:
    """``(row, calls, cumulative seconds)`` per ledger layer, plus the
    driver: ``optimize_strategy``'s time outside those layers.

    A call made from another method of the same layer (the reference
    engine's ``project_batch`` loops over ``project``) is not counted
    twice."""

    def key(function) -> tuple[str, int, str]:
        code = function.__code__
        return code.co_filename, code.co_firstlineno, code.co_name

    rows = []
    for row, methods in LAYERS.items():
        keys = {key(getattr(engine, method)) for method in methods}
        calls, seconds = 0, 0.0
        for function in keys:
            if function not in stats.stats:
                continue
            _, count, _, cumulative, callers = stats.stats[function]
            calls += count
            seconds += cumulative
            for caller, (_, nested, _, nested_seconds) in callers.items():
                if caller in keys:
                    calls -= nested
                    seconds -= nested_seconds
        rows.append((row, calls, seconds))
    total = stats.stats[key(optimize_strategy)][3]
    rows.append(("driver", iterations, total - sum(s for _, _, s in rows)))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--domain", type=int, default=128)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default="histogram")
    parser.add_argument("--iterations", type=int, default=100)
    parser.add_argument("--epsilon", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--engine", choices=("fast", "reference"), default="fast")
    parser.add_argument(
        "--num-outputs",
        type=int,
        default=None,
        help="strategy rows m (default: the paper's 4n)",
    )
    parser.add_argument("--top", type=int, default=15, help="functions to print")
    parser.add_argument(
        "--sort",
        choices=("cumulative", "tottime", "ncalls"),
        default="cumulative",
    )
    parser.add_argument(
        "--output", default=None, help="also dump pstats data to this path"
    )
    parser.add_argument(
        "--telemetry-output",
        default=None,
        help="write the run's optimizer telemetry (objective trajectory, "
        "line-search attempts, projection passes) as JSON to this path "
        "(default: <output>.telemetry.json when --output is given)",
    )
    arguments = parser.parse_args(argv)

    workload = WORKLOADS[arguments.workload](arguments.domain)
    config = OptimizerConfig(
        num_iterations=arguments.iterations,
        seed=arguments.seed,
        num_outputs=arguments.num_outputs,
        engine=arguments.engine,
        track_history=True,
    )
    print(
        f"profiling optimize_strategy: {arguments.workload}({arguments.domain}), "
        f"m = {arguments.num_outputs or 4 * arguments.domain}, "
        f"{arguments.iterations} iterations, engine = {arguments.engine}"
    )
    print(blas_report())

    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.enable()
    result = optimize_strategy(workload, arguments.epsilon, config)
    profiler.disable()
    elapsed = time.perf_counter() - start

    print(
        f"ran {result.iterations_run} iterations in {elapsed:.3f}s "
        f"({result.iterations_run / elapsed:.2f} it/s), "
        f"objective {result.objective:.6f}"
    )
    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    stats.sort_stats(arguments.sort).print_stats(arguments.top)
    print(stream.getvalue())
    engine = FastEngine if arguments.engine == "fast" else ReferenceEngine
    print(f"per layer (ledger rows; pgd.iterations = {result.iterations_run}):")
    print(f"  {'layer':28s} {'calls':>6s} {'seconds':>8s} {'ms/call':>8s}")
    for row, calls, seconds in layer_summary(
        stats, engine, result.iterations_run
    ):
        per_call = 1e3 * seconds / calls if calls else float("nan")
        print(f"  {row:28s} {calls:6d} {seconds:8.3f} {per_call:8.3f}")
    if arguments.output:
        stats.dump_stats(arguments.output)
        print(f"wrote pstats data to {arguments.output}")
    telemetry_path = arguments.telemetry_output
    if telemetry_path is None and arguments.output:
        telemetry_path = f"{arguments.output}.telemetry.json"
    if telemetry_path:
        document = {
            "workload": arguments.workload,
            "domain": arguments.domain,
            "epsilon": arguments.epsilon,
            "seed": arguments.seed,
            "engine": arguments.engine,
            "elapsed_seconds": elapsed,
            "objective": result.objective,
            "iterations_run": result.iterations_run,
            "step_size": result.step_size,
            "objective_trajectory": result.history,
            **result.telemetry,
        }
        Path(telemetry_path).write_text(
            json.dumps(document, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"wrote optimizer telemetry to {telemetry_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
