"""The repository benchmark: one command, three workloads, one JSON result.

    python3 perfbench/run.py --rates <fixed open-loop rates> \\
        --workload <name> --seed <n> --seconds <s> --trace <0|1>

``BENCHMARK.json`` at the repository root holds the exact command, the
fixed open-loop rates and the metric list.  Every workload runs the
system's two halves: it obtains a campaign strategy (PGD, or the
closed-form construction ``repro serve`` performs) and then serves it to a
load generator.  With ``--trace 0`` the last line of standard output
carries every end-to-end metric of ``BENCHMARK.json``; with ``--trace 1``
it carries the per-layer ledger,
taken from a run with timing wrappers installed in every process under
test (see ``perfbench/launch.py``), next to an untraced run of the same
inputs that gives the tracing overhead.  The line before it is a JSON
record of the environment, sample counts, per-process CPU and peak RSS,
and checks.

The run exits non-zero when any correctness check fails.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

_HERE = Path(__file__).resolve().parent
ROOT = _HERE.parent
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

WORKLOADS = (
    "optimize-serve-prefix128",
    "ingest-binary-cluster",
    "ingest-binary-edge",
)


def _parse_rates(text: str) -> dict:
    from perfbench.ingest import Rates

    rates = {}
    for item in text.split(","):
        name, _, value = item.partition("=")
        rates[name.strip()] = Rates.parse(value)
    return rates


def _blas() -> dict:
    import numpy as np

    info = np.__config__.CONFIG["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps") as handle:
        libraries = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    for library in libraries:
        try:
            handle = ctypes.CDLL(library)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            function = getattr(handle, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                threads = function()
                break
    return {
        "name": info.get("name"),
        "version": info.get("version"),
        "threads": threads,
    }


def _source_id() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def environment(seed: int, workdir: Path) -> dict:
    import numpy as np

    from perfbench.procs import wal_filesystem

    return {
        "nproc": os.cpu_count(),
        "blas": _blas(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "wal_filesystem": wal_filesystem(workdir),
        "seed": seed,
        **_source_id(),
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end(run: dict, plan: dict | None) -> dict:
    """The bounded figures every workload reports, from raw client-side
    samples.  ``plan`` is the optimizer run of a workload that optimizes
    its strategy before serving it; without one the strategy is the
    closed-form one ``repro serve`` builds when it creates the campaign.

    The open-loop ack and query medians and every tail percentile are
    per-layer figures (``loadgen.ingest_p50_ms``, ``loadgen.query_p50_ms``,
    ``tail.*``).  On a shared 2-vCPU virtual machine an ack waits for the
    WAL's fsync, and over ten runs the ack median moved by 0.6 of itself
    (interquartile share) with the virtual disk.  A query at n=512 or 1024
    is 25-200 ms of computation sharing one CPU with the other tiers, and
    its median's ten-run spread reached 0.27 and 0.63; tails moved 40-200%.
    ``serve_cpu_ms_per_s`` is the cost of the same fixed open-loop load: CPU
    milliseconds the processes under test spend per second of it, which
    waiting on the disk does not count.
    """
    from perfbench import stats

    loop = run["open_loop"]
    rss = sum(row["peak_rss_mb"] for row in run["usage_end"].values())
    values = {
        "setup_s": run["setup_s"],
        "peak_rss_mb": rss,
        "strategy_s": run["resolve_s"],
        "objective_ratio": run["objective_ratio"],
        "serve_cpu_ms_per_s": loop["cpu_s"] / loop["wall_s"] * 1e3,
        "scrape_p50_ms": stats.percentile(loop["scrape_latency_s"], 50) * 1e3,
    }
    if plan is not None:
        values["setup_s"] += plan["setup_s"]
        values["peak_rss_mb"] += plan["processes"]["optimizer"]["peak_rss_mb"]
        values["strategy_s"] = plan["optimize_s"]
        values["objective_ratio"] = plan["objective_ratio"]
    return values


# -- per-layer figures --------------------------------------------------------------


def _row(ledger: dict, name: str) -> dict:
    """One layer's span totals (zeros where the run never entered it)."""
    return ledger.get(name, {"calls": 0, "busy_s": 0.0, "size": 0, "self_s": 0.0})


def optimize_layers(run: dict, ledger: dict, untraced: dict) -> dict:
    from perfbench.optimize import DOMAIN, gflop

    def row(name):
        return _row(ledger, name)

    vg, batch = row("kernels.value_and_gradient"), row("kernels.value_batch")
    return {
        "pgd.iterations": run["iterations"],
        "pgd.line_search_attempts": run["line_search_attempts"],
        "pgd.accept_ratio": run["iterations"] / max(run["line_search_attempts"], 1),
        "pgd.self_s": row("pgd")["self_s"],
        "kernels.value_and_gradient.calls": vg["calls"],
        "kernels.value_and_gradient.busy_s": vg["busy_s"],
        "kernels.value_batch.calls": batch["calls"],
        "kernels.value_batch.busy_s": batch["busy_s"],
        "kernels.gflop": gflop(
            vg["calls"], batch["size"], run["num_outputs"], DOMAIN, run["rank"]
        ),
        "projection.calls": row("projection")["calls"],
        "projection.busy_s": row("projection")["busy_s"],
        "trace.overhead_frac": run["optimize_s"] / untraced["optimize_s"] - 1.0,
    }


def closed_throughput(run: dict) -> float:
    """Median over the closed-loop rounds of reports per second."""
    import statistics

    return statistics.median(count / seconds for count, seconds in run["closed_rounds"])


def _delta(end: dict, start: dict, *path) -> float:
    def dig(document):
        for key in path:
            if not isinstance(document, dict) or key not in document:
                return 0
            document = document[key]
        return document or 0

    return dig(end) - dig(start)


def _cpu(usage_end: dict, usage_start: dict, tier: str, workers: bool = False) -> float:
    """CPU seconds a tier (or its cluster workers) spent between the two
    ``/proc`` readings."""
    total = 0.0
    for label, row in usage_end.items():
        is_worker = ".worker" in label
        if label.split(".")[0] == tier and is_worker == workers:
            total += row["cpu_s"] - usage_start.get(label, {"cpu_s": 0.0})["cpu_s"]
    return total


def ingest_layers(run: dict, ledger: dict, untraced: dict) -> dict:
    from perfbench import stats

    def row(name):
        return _row(ledger, name)

    start, end = run["counters_start"], run["counters_end"]
    usage_start, usage_end = run["usage_start"], run["usage_end"]
    appends = _delta(end, start, "root", "wal", "appends")
    fsyncs = _delta(end, start, "root", "wal", "fsync_batches")
    tiers = ("root", "edge")
    rejected = sum(_delta(end, start, t, "ingest", "rejected_batches") for t in tiers)
    dropped = sum(_delta(end, start, t, "ingest", "reports_dropped") for t in tiers)
    loop = run["open_loop"]
    return {
        "loadgen.reports_per_s": closed_throughput(run),
        "loadgen.ingest_p50_ms": stats.percentile(loop["ingest_latency_s"], 50) * 1e3,
        "loadgen.query_p50_ms": stats.percentile(loop["query_latency_s"], 50) * 1e3,
        "estimate_rmse": run["estimate_rmse"],
        "estimate_z_rms": run["estimate_z_rms"],
        **{
            f"tail.{kind}_p{p}_ms": summary[f"p{p}_ms"]
            for kind, summary in _latencies(run).items()
            for p in (90, 99)
            if f"p{p}_ms" in summary
        },
        "server.requests": _delta(end, start, "root", "requests_served"),
        "server.cpu_s": _cpu(usage_end, usage_start, "root"),
        "server.self_s": row("server.request")["self_s"],
        "ingest.fold_body.calls": row("ingest.fold_body")["calls"],
        "ingest.fold_body.busy_s": row("ingest.fold_body")["busy_s"],
        "ingest.validate.busy_s": row("ingest.validate")["busy_s"],
        "ingest.submit.wait_s": row("ingest.submit")["self_s"],
        "ingest.rejected": rejected,
        "ingest.dropped": dropped,
        "framing.decode.busy_s": row("framing.decode")["busy_s"],
        "framing.decode.bytes": row("framing.decode")["size"],
        "wal.append.calls": row("wal.append")["calls"],
        "wal.append.wait_s": row("wal.append")["busy_s"],
        "wal.fsync_batches": fsyncs,
        "wal.records_per_fsync": appends / fsyncs if fsyncs else 0.0,
        "wal.bytes_written": _delta(end, start, "root", "wal", "bytes_written"),
        "checkpoint.save.calls": row("checkpoint.save")["calls"],
        "checkpoint.save.busy_s": row("checkpoint.save")["busy_s"],
        "checkpoint.save.bytes": _delta(
            end, start, "root", "telemetry", "repro_checkpoint_bytes_written_total"
        ),
        "wal.truncate.busy_s": row("wal.truncate")["busy_s"],
        "engine.add_reports.calls": row("engine.add_reports")["calls"],
        "engine.add_reports.busy_s": row("engine.add_reports")["busy_s"],
        "engine.add_reports.reports": row("engine.add_reports")["size"],
        "engine.merge.calls": row("engine.merge")["calls"],
        "engine.merge.busy_s": row("engine.merge")["busy_s"],
        "engine.to_bytes.calls": row("engine.to_bytes")["calls"],
        "engine.to_bytes.busy_s": row("engine.to_bytes")["busy_s"],
        "engine.to_bytes.bytes": row("engine.to_bytes")["size"],
        "engine.from_bytes.busy_s": row("engine.from_bytes")["busy_s"],
        "campaigns.query.calls": row("campaigns.query")["calls"],
        "campaigns.query.busy_s": row("campaigns.query")["busy_s"],
        "cluster.submit.calls": row("cluster.submit")["calls"],
        "cluster.submit.wait_s": row("cluster.submit")["busy_s"],
        "cluster.snapshots.busy_s": row("cluster.snapshots")["busy_s"],
        "cluster.worker_cpu_s": _cpu(usage_end, usage_start, "root", workers=True),
        "edge.forward.calls": row("edge.forward")["calls"],
        "edge.forward.busy_s": row("edge.forward")["busy_s"],
        "edge.forward_retries": _delta(
            end, start, "edge", "telemetry", "repro_edge_forward_retries_total"
        ),
        "edge.reports_lost": _delta(end, start, "edge", "forwards", "reports_lost"),
        "edge.cpu_s": _cpu(usage_end, usage_start, "edge"),
        "campaigns.apply_partial.calls": row("campaigns.apply_partial")["calls"],
        "campaigns.apply_partial.busy_s": row("campaigns.apply_partial")["busy_s"],
        "loadgen.requests": run["loadgen_requests"],
        "loadgen.lag_p99_ms": stats.percentile(loop["lag_s"], 99) * 1e3,
        "trace.overhead_frac": (
            closed_throughput(untraced) / closed_throughput(run) - 1.0
        ),
    }


# -- driver -------------------------------------------------------------------------


def _run_once(
    workload: str,
    seed: int,
    seconds: float,
    rates: dict,
    workdir: Path,
    trace_dir: Path | None,
) -> tuple[dict | None, dict]:
    """One run of a workload: (optimizer run or None, serving run).  The
    optimizer runs its optimizations to completion; ``seconds`` paces only
    the serving phase."""
    from perfbench import ingest, optimize

    workdir.mkdir(parents=True)
    plan, store = None, None
    if ingest.SPECS[workload].mechanism == "store":
        store = workdir / "store"
        plan = optimize.run(_subdir(trace_dir, "optimizer"), store)
    run = ingest.run(
        workload, seed, seconds, rates[workload], workdir / "serve",
        _subdir(trace_dir, "serve"), store,
    )
    return plan, run


def _subdir(trace_dir: Path | None, name: str) -> Path | None:
    if trace_dir is None:
        return None
    path = trace_dir / name
    path.mkdir(parents=True, exist_ok=True)
    return path


def _ledger(trace_dir: Path, window) -> dict:
    """Per-layer span totals; with a ``window`` only spans inside the
    measured phases count (``perf_counter`` is one system-wide clock)."""
    from perfbench import spans

    loaded = spans.load_spans(trace_dir)
    if window is not None:
        begin, end = window
        loaded = [span for span in loaded if span[4] >= begin and span[5] <= end]
    return spans.ledger(loaded)


def _declared() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def _traced_layers(traced, untraced, trace_dir: Path) -> tuple[dict, dict]:
    """Per-layer figures of a traced run and the span ledger behind them."""
    plan, run = traced
    ledger = _ledger(trace_dir / "serve", run["window"])
    layers = ingest_layers(run, ledger, untraced[1])
    if plan is not None:
        optimizer_ledger = _ledger(trace_dir / "optimizer", None)
        optimizer = optimize_layers(plan, optimizer_ledger, untraced[0])
        # The worse of the two perturbations the wrappers caused.
        optimizer["trace.overhead_frac"] = max(
            optimizer["trace.overhead_frac"], layers["trace.overhead_frac"]
        )
        layers.update(optimizer)
        ledger = {**ledger, **optimizer_ledger}
    return layers, ledger


def measure(
    workload: str, seed: int, seconds: float, trace: bool, rates: dict, workdir: Path
) -> tuple[dict, dict]:
    """Run the workload; returns (result line, detail record)."""
    from perfbench import stats

    declared = _declared()
    record = {"workload": workload, "environment": environment(seed, workdir)}
    untraced = _run_once(workload, seed, seconds, rates, workdir / "untraced", None)
    values = end_to_end(untraced[1], untraced[0])
    plan, run = untraced
    if trace:
        trace_dir = workdir / "spans"
        traced = _run_once(
            workload, seed, seconds, rates, workdir / "traced", trace_dir
        )
        layers, record["ledger"] = _traced_layers(traced, untraced, trace_dir)
        record["untraced"] = values
        plan, run = traced
    checks = dict(run["checks"])
    attempted, failed = run["attempted"], run["failed"]
    if plan is not None:
        checks.update({f"optimizer.{k}": ok for k, ok in plan["checks"].items()})
        attempted += 1 + len(plan["checks"])
        failed += sum(not ok for ok in plan["checks"].values())
    record["checks"] = checks
    record["failed_ops_frac"] = stats.failed_fraction(failed, attempted)
    bulky = ("open_loop", "window", "counters_start", "counters_end")
    record["run"] = {k: v for k, v in run.items() if k not in bulky}
    resolves = record["run"].pop("resolve_samples_s")
    if resolves:
        record["run"]["resolve_quartiles_s"] = stats.quartiles(resolves)
    record["run"]["resolves"] = len(resolves)
    record["optimizer"] = plan
    record["latency"] = _latencies(run)
    record["closed_round_quartiles_per_s"] = stats.quartiles(
        count / seconds for count, seconds in run["closed_rounds"]
    )
    if trace:
        layers["failed_ops_frac"] = record["failed_ops_frac"]
        for name, summary in record["latency"].items():
            layers[f"loadgen.{name}_samples"] = summary["samples"]
        # Layers a workload does not exercise read 0: nothing ran there.
        metrics = {
            row["name"]: _metric(layers.get(row["name"], 0.0), row["unit"])
            for row in declared["per_layer"]
        }
    else:
        metrics = {
            row["name"]: _metric(values[row["name"]], row["unit"])
            for row in declared["end_to_end"]
        }
    line = {
        "correct": all(checks.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return line, record


def _latencies(run: dict) -> dict:
    from perfbench import stats

    loop = run["open_loop"]
    return {
        kind: stats.latency_summary(loop[f"{kind}_latency_s"])
        for kind in ("ingest", "query", "scrape")
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="repository benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--rates",
        required=True,
        help="fixed open-loop rates, comma separated: "
        "<workload>=<writes>/<queries>/<scrapes> per second",
    )
    arguments = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    from perfbench.procs import PLACEMENT, BenchError, pin

    if arguments.workload in PLACEMENT:
        pin(0, PLACEMENT[arguments.workload]["loadgen"])  # before numpy loads
    rates = _parse_rates(arguments.rates)

    base = ROOT / ".perfbench"
    workdir = base / f"{arguments.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    try:
        line, record = measure(
            arguments.workload,
            arguments.seed,
            arguments.seconds,
            bool(arguments.trace),
            rates,
            workdir,
        )
    except BenchError as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass
    record["wall_s"] = time.perf_counter() - started
    print(json.dumps(record, default=str))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
