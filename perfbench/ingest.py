"""The serving phase of every workload: ``repro serve`` (and ``repro
edge``) with the write-ahead log and its fsync on, driven over real
sockets.  The campaign's strategy is the closed-form one the server builds,
or (``mechanism == "store"``) the one the optimizer phase saved.

Every report is randomized before any clock starts: the benchmark builds a
ring of request bodies from ``--seed`` and cycles through it, so the
program only ever receives generated inputs.  A run has these phases:

1. warm-up, closed loop on 2 connections, not timed;
2. ``ROUNDS`` rounds, each a closed-loop window then an open-loop window:

   * closed loop on 2 writer connections, timed from the first send to the
     completion of a sync query that proves every acked report was folded;
   * open loop: one writer at a fixed request rate, timed from when each
     request was due, and one reader polling ``/v1/query`` and
     ``/v1/metrics`` at fixed low rates;

3. a final sync query, checked against a serial fold of the same reports.

The rounds interleave because CPU speed on a shared 2-vCPU virtual machine
drifted by up to 40% over periods of 5-15 seconds: one long closed window
lands in one period, short windows spread over the run sample several.

The load generator is this process: at most 2 threads (the main thread
plus one) and at most 2 open connections at any time.
"""

from __future__ import annotations

import itertools
import json
import math
import shutil
import statistics
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from perfbench import stats
from perfbench.procs import (
    PLACEMENT,
    BenchError,
    Connection,
    Tier,
    build_request,
    pin,
    usage_of,
)

CAMPAIGN = "bench"
EPSILON = 1.0
SETUPS = 3
JSON_BATCH = 100
BURST_CAP = 4096
ZIPF = 1.3
CHECKPOINT_INTERVAL_S = 2.0
EDGE_FORWARD_INTERVAL_S = 0.25

#: Shares of ``--seconds`` spent in warm-up, the closed-loop windows and
#: the open-loop windows (the sync queries come on top).
WARMUP_SHARE, CLOSED_SHARE, OPEN_SHARE = 0.1, 0.45, 0.45
ROUNDS = 5

#: Bounds on the RMS z-score of the final estimates against the truth; a
#: calibrated estimator gives 1 (chi-square with n degrees of freedom puts
#: values outside these bounds out of reach of chance for n >= 64).
Z_RMS_BOUNDS = (0.5, 2.0)


@dataclass(frozen=True)
class Spec:
    workload: str  # the campaign's paper workload
    domain: int
    mechanism: str  # "Hadamard", or "store": the strategy the optimizer saved
    transport: str  # "json" or "binary"
    values: str  # "uniform" or "zipf"
    workers: int  # 0 = single-process root
    edge: bool
    ring: int  # request bodies pre-built per run


SPECS = {
    "optimize-serve-prefix128": Spec(
        "Prefix", 128, "store", "json", "uniform", 0, False, 3000
    ),
    "ingest-binary-cluster": Spec(
        "Histogram", 1024, "Hadamard", "binary", "zipf", 1, False, 1200
    ),
    "ingest-binary-edge": Spec(
        "Histogram", 512, "Hadamard", "binary", "zipf", 0, True, 1200
    ),
}

#: Closed-form strategy resolutions are timed in bursts of at least
#: ``RESOLVE_SECONDS`` spread over the run, after one untimed warm-up:
#: before the set-ups, after each round, after the run and after the last
#: set-up, always outside the measured windows, so that they sample more
#: than one period of the host's speed drift.
RESOLVE_SECONDS = 0.15


@dataclass(frozen=True)
class Rates:
    """Fixed open-loop rates (per second) of one workload."""

    writes: float
    queries: float
    scrapes: float

    @classmethod
    def parse(cls, text: str) -> "Rates":
        writes, queries, scrapes = (float(v) for v in text.split("/"))
        return cls(writes, queries, scrapes)


# -- inputs -----------------------------------------------------------------


class Inputs:
    """The pre-randomized request ring and what the server must answer."""

    def __init__(self, spec: Spec, seed: int, session):
        from repro.service.framing import FRAME_CONTENT_TYPE, encode_reports

        rng = np.random.default_rng(seed)
        self.strategy = session.strategy
        self.queries = session.workload.matrix
        if spec.transport == "json":
            sizes = [JSON_BATCH] * spec.ring
        else:
            sizes = [min(int(rng.zipf(ZIPF)) * 64, BURST_CAP) for _ in range(spec.ring)]
        total = sum(sizes)
        if spec.values == "uniform":
            values = rng.integers(0, spec.domain, size=total)
        else:
            weights = 1.0 / np.arange(1, spec.domain + 1, dtype=np.float64) ** ZIPF
            values = rng.choice(spec.domain, size=total, p=weights / weights.sum())
        reports = self.strategy.sample_responses(values, rng)
        bounds = np.cumsum([0, *sizes])
        self.values = values
        self.reports = reports
        self.bounds = bounds
        self.sizes = sizes
        self.bodies: list[bytes] = []
        for begin, end in zip(bounds[:-1], bounds[1:]):
            chunk = reports[begin:end]
            if spec.transport == "json":
                body = json.dumps(
                    {"campaign": CAMPAIGN, "reports": chunk.tolist()},
                    separators=(",", ":"),
                ).encode()
            else:
                body = encode_reports(CAMPAIGN, chunk)
            self.bodies.append(body)
        self.content_type = (
            "application/json" if spec.transport == "json" else FRAME_CONTENT_TYPE
        )
        self.requests = [
            build_request("POST", "/v1/reports", body, self.content_type)
            for body in self.bodies
        ]

    def request(self, index: int, trace: str = "") -> bytes:
        position = index % len(self.bodies)
        if not trace:
            return self.requests[position]
        return build_request(
            "POST", "/v1/reports", self.bodies[position], self.content_type, trace
        )

    def reports_in(self, index: int) -> int:
        return self.sizes[index % len(self.sizes)]

    def fold(self, sent: list[int]):
        """Serial single-accumulator fold of the requests in ``sent``
        order, and the true workload answers of the values behind them."""
        from repro.protocol import ShardAccumulator

        accumulator = ShardAccumulator(self.strategy.num_outputs, 0)
        truth = np.zeros(self.strategy.domain_size, dtype=np.int64)
        ring = len(self.bodies)
        for index in sent:
            begin, end = self.bounds[index % ring], self.bounds[index % ring + 1]
            accumulator.add_reports(self.reports[begin:end])
            truth += np.bincount(self.values[begin:end], minlength=truth.shape[0])
        return accumulator, self.queries @ truth

    def independent_reports(self, sent: list[int]) -> float:
        """The report count that carries the final answer's noise.

        The ring repeats: a body sent ``c`` times repeats one randomization
        ``c`` times, so the error variance grows with ``sum(c² · size)``
        rather than with the report count.
        """
        ring = len(self.bodies)
        sends = np.bincount(np.asarray(sent) % ring, minlength=ring)
        return float(np.sum(sends.astype(float) ** 2 * np.asarray(self.sizes)))


# -- the system under test ----------------------------------------------------


class System:
    """Root (plus cluster worker, plus edge) for one ingest workload."""

    def __init__(
        self,
        spec: Spec,
        cpus: dict,
        workdir: Path,
        trace_dir: Path | None,
        store: Path | None,
    ):
        self.spec = spec
        self.tiers: dict[str, Tier] = {}
        checkpoint = workdir / "checkpoint"
        root_args = [
            "serve", "--port", "0",
            "--workers", str(spec.workers),
            "--transport", "both" if spec.edge else spec.transport,
            "--checkpoint-dir", str(checkpoint),
            "--wal-dir", str(workdir / "wal"),
            "--checkpoint-interval", str(CHECKPOINT_INTERVAL_S),
            "--campaign", CAMPAIGN,
            "--workload", spec.workload,
            "--domain", str(spec.domain),
            "--epsilon", str(EPSILON),
            "--mechanism", spec.mechanism,
        ]
        if store is not None:
            root_args += ["--store", str(store)]
        root = Tier(root_args, trace_dir, cpus["root"])
        self.tiers["root"] = root
        try:
            self._start(spec, cpus, root, trace_dir)
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - root.spawned_at

    def _start(self, spec: Spec, cpus: dict, root: Tier, trace_dir: Path | None):
        root.wait_ready()
        if spec.workers:
            for pid in root.pids()[1:]:
                pin(pid, cpus["worker"])
        self.root_port = root.port
        self.ingress_port = root.port
        if spec.edge:
            edge = Tier(
                [
                    "edge", "--port", "0",
                    "--upstream-port", str(root.port),
                    "--edge-id", "bench-edge",
                    "--campaigns", CAMPAIGN,
                    "--forward-interval", str(EDGE_FORWARD_INTERVAL_S),
                ],
                trace_dir,
                cpus["edge"],
            )
            self.tiers["edge"] = edge
            edge.wait_ready()
            self.ingress_port = edge.port

    def stop(self) -> None:
        # Edge first: its graceful stop forwards the last partials upstream.
        for label in ("edge", "root"):
            if label in self.tiers:
                self.tiers[label].stop()

    def kill(self) -> None:
        for tier in self.tiers.values():
            tier.kill()


def _metrics(connection: Connection) -> dict:
    status, body = connection.get("/v1/metrics")
    if status != 200:
        raise BenchError(f"GET /v1/metrics answered {status}")
    return json.loads(body)


def _sync_query(connection: Connection) -> dict:
    status, body = connection.get(f"/v1/query?campaign={CAMPAIGN}&sync=1")
    if status != 200:
        raise BenchError(f"sync query answered {status}: {body[:200]!r}")
    return json.loads(body)


# -- the load generator ------------------------------------------------------


class Load:
    """Request bookkeeping shared by the phases of one run."""

    def __init__(self, inputs: Inputs, traced: bool):
        self.inputs = inputs
        self.traced = traced
        self.cursor = itertools.count()
        self.sent: list[int] = []  # indices acked 2xx, in completion order
        self.failed: list[tuple[int, int]] = []
        self.lock = threading.Lock()
        self.attempted = 0

    def post(self, connection: Connection, index: int) -> None:
        trace = f"{index + 1:016x}" if self.traced else ""
        status, _ = connection.send(self.inputs.request(index, trace))
        with self.lock:
            self.attempted += 1
            if 200 <= status < 300:
                self.sent.append(index)
            else:
                self.failed.append((index, status))

    def reports_acked(self) -> int:
        with self.lock:
            return sum(self.inputs.reports_in(i) for i in self.sent)


def _closed_loop(load: Load, connections: list[Connection], seconds: float) -> None:
    """Both connections send back to back until ``seconds`` have passed."""
    deadline = time.perf_counter() + seconds
    errors: list[Exception] = []

    def writer(connection: Connection) -> None:
        try:
            while time.perf_counter() < deadline:
                load.post(connection, next(load.cursor))
        except Exception as error:  # noqa: BLE001 - re-raised below
            errors.append(error)

    helper = threading.Thread(target=writer, args=(connections[1],))
    helper.start()
    writer(connections[0])
    helper.join()
    if errors:
        raise BenchError(f"closed-loop writer failed: {errors[0]!r}")


def _schedule(rate: float, offset: float, seconds: float, start: float) -> list[float]:
    """Due times of a fixed-rate stream inside one window.

    Windows are slices ``[offset, offset + seconds)`` of one open-loop
    clock, so a stream keeps its rate across rounds: a rate too low for one
    event per window still gets ``rate * total`` events in all.
    """
    first = math.ceil(offset * rate - 1e-9)
    last = math.ceil((offset + seconds) * rate - 1e-9)
    return [start + i / rate - offset for i in range(first, last)]


def _open_loop(
    load: Load,
    writer: Connection,
    reader: Connection,
    rates: Rates,
    seconds: float,
    offset: float,
) -> dict:
    """Writer at a fixed rate on the main thread, reader on a helper."""
    start = time.perf_counter() + 0.05
    write_due = _schedule(rates.writes, offset, seconds, start)
    reader_events = sorted(
        [(due, "query") for due in _schedule(rates.queries, offset, seconds, start)]
        + [(due, "scrape") for due in _schedule(rates.scrapes, offset, seconds, start)]
    )
    query_request = build_request("GET", f"/v1/query?campaign={CAMPAIGN}")
    scrape_request = build_request("GET", "/v1/metrics")
    reader_samples: dict[str, list[float]] = {"query": [], "scrape": []}
    reader_failed: list[int] = []
    errors: list[Exception] = []

    def read() -> None:
        try:
            for due, kind in reader_events:
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sent = time.perf_counter()
                request = query_request if kind == "query" else scrape_request
                status, _ = reader.send(request)
                reader_samples[kind].append(time.perf_counter() - sent)
                if status != 200:
                    reader_failed.append(status)
        except Exception as error:  # noqa: BLE001 - re-raised below
            errors.append(error)

    helper = threading.Thread(target=read)
    helper.start()
    send_times, latencies = [], []
    for due in write_due:
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        sent = time.perf_counter()
        load.post(writer, next(load.cursor))
        latencies.append(time.perf_counter() - due)
        send_times.append(sent)
    helper.join()
    if errors:
        raise BenchError(f"open-loop reader failed: {errors[0]!r}")
    lateness = stats.open_loop_lateness(write_due, send_times)
    return {
        "ingest_latency_s": latencies,
        "query_latency_s": reader_samples["query"],
        "scrape_latency_s": reader_samples["scrape"],
        "lag_s": lateness,
        "reader_attempted": len(reader_events),
        "reader_failed": len(reader_failed),
    }


def _wait_for_count(
    connection: Connection, expected: int, timeout: float = 30.0
) -> dict:
    """Sync-query the root until it has counted ``expected`` reports (an
    edge forwards on a timer, so its last partial may still be in flight)."""
    deadline = time.perf_counter() + timeout
    while True:
        answer = _sync_query(connection)
        if answer["num_reports"] >= expected or time.perf_counter() > deadline:
            return answer
        time.sleep(0.01)


# -- one run -----------------------------------------------------------------


def _counters(system: System) -> dict:
    """The exact counters each tier exposes on ``GET /v1/metrics``, read
    over one short-lived connection at a time."""
    out = {}
    for label in ("root", "edge"):
        if label in system.tiers:
            with Connection(system.tiers[label].port) as connection:
                out[label] = _metrics(connection)
    return out


def resolve(spec: Spec, store: Path | None, timings: list | None = None):
    """Resolve the campaign's strategy the way ``repro serve`` does when it
    creates the campaign; with ``timings``, as one timed burst (see
    ``RESOLVE_SECONDS``) appended to it.  Returns the last manager, which
    answers the reference query."""
    from repro.service.campaigns import CampaignManager
    from repro.store import StrategyStore

    deadline = time.perf_counter() + RESOLVE_SECONDS
    while True:
        started = time.perf_counter()
        manager = CampaignManager()
        manager.create(
            CAMPAIGN,
            workload=spec.workload,
            domain_size=spec.domain,
            epsilon=EPSILON,
            mechanism=spec.mechanism,
            store=None if store is None else StrategyStore(store),
        )
        if timings is None:
            return manager
        timings.append(time.perf_counter() - started)
        if time.perf_counter() >= deadline:
            return manager


def objective_ratio(session) -> float:
    """The served strategy's objective L(Q) over the Theorem 5.6 lower
    bound for the campaign's workload (exact; the seed does not enter)."""
    from repro.analysis.bounds import strategy_objective_lower_bound
    from repro.optimization.objective import objective_value

    workload = session.workload
    value = objective_value(session.strategy.probabilities, workload.gram())
    return value / strategy_objective_lower_bound(workload, EPSILON)


def run(workload: str, seed: int, seconds: float, rates: Rates, workdir: Path,
        trace_dir: Path | None, store: Path | None = None) -> dict:
    """One run of an ingest workload.  ``store`` holds the strategy of a
    ``mechanism == "store"`` campaign."""
    spec, cpus = SPECS[workload], PLACEMENT[workload]
    pin(0, cpus["loadgen"])
    reference_manager = resolve(spec, store)  # the warm-up
    resolve_samples: list[float] = []

    def time_resolve() -> None:
        # A stored strategy's time to solution is the optimizer's.
        if spec.mechanism != "store":
            resolve(spec, store, resolve_samples)

    time_resolve()
    inputs = Inputs(spec, seed, reference_manager.get(CAMPAIGN).session)

    # A fresh state directory per set-up: an existing checkpoint would be
    # recovered instead of bootstrapping the campaign.
    shutil.rmtree(workdir, ignore_errors=True)
    setups = []

    def extra_setup(attempt: int) -> None:
        scratch = workdir / f"setup-{attempt}"
        system = System(spec, cpus, scratch, None, store)
        setups.append(system.setup_s)
        system.kill()  # holds no reports; a graceful drain would only cost time
        shutil.rmtree(scratch, ignore_errors=True)

    # One extra set-up before the run and the rest after it: host speed
    # drifts over seconds, and set-ups far apart sample more than one period.
    extra_setup(0)
    system = System(spec, cpus, workdir / "run", trace_dir, store)
    setups.append(system.setup_s)
    load = Load(inputs, traced=trace_dir is not None)
    try:
        result = _drive(system, load, seconds, rates, time_resolve)
        result["counters_end"] = _counters(system)
    except BaseException:
        system.kill()
        raise
    final_reports = load.reports_acked()
    # The root must come to hold exactly the acked reports while every
    # tier is still running (an edge forwards its partials on a timer).
    try:
        with Connection(system.root_port) as connection:
            final = _wait_for_count(connection, final_reports)
    finally:
        system.stop()
    time_resolve()
    for attempt in range(1, SETUPS - 1):
        extra_setup(attempt)
    time_resolve()

    accumulator, truth = inputs.fold(load.sent)
    reference = reference_manager.query(CAMPAIGN, pending=[accumulator]).to_json()
    error = np.asarray(final["estimates"], dtype=float) - truth
    # The stated errors assume every report is independent; scale them to
    # the repeated ring (see Inputs.independent_reports).
    repeat = np.sqrt(inputs.independent_reports(load.sent) / final_reports)
    z_rms = float(
        np.sqrt(np.mean((error / (np.asarray(final["standard_errors"]) * repeat)) ** 2))
    )
    checks = {
        "count": final["num_reports"] == final_reports,
        "estimates_bit_identical": final["estimates"] == reference["estimates"],
        "closed_loop_sync_count": result.pop("closed_sync_ok"),
        "estimates_calibrated": Z_RMS_BOUNDS[0] <= z_rms <= Z_RMS_BOUNDS[1],
    }
    mismatches = sum(not ok for ok in checks.values())
    open_loop = result["open_loop"]
    attempted = load.attempted + open_loop["reader_attempted"] + 2 + len(checks)
    failed = len(load.failed) + open_loop["reader_failed"] + mismatches
    result.update(
        setup_s=statistics.median(setups),
        setup_samples_s=setups,
        resolve_s=statistics.median(resolve_samples) if resolve_samples else None,
        resolve_samples_s=resolve_samples,
        objective_ratio=objective_ratio(reference_manager.get(CAMPAIGN).session),
        checks=checks,
        attempted=attempted,
        failed=failed,
        failed_statuses=load.failed[:10],
        final_reports=final_reports,
        final_count=final["num_reports"],
        loadgen_requests=load.attempted + open_loop["reader_attempted"],
        # Per independent report: a noise scale that neither shrinks because
        # a faster run collected more reports nor grows with ring repeats.
        estimate_rmse=float(
            np.sqrt(np.mean(error**2) / inputs.independent_reports(load.sent))
        ),
        estimate_z_rms=z_rms,
    )
    return result


def _cpu_now(system: System) -> float:
    """CPU seconds (``/proc``) of every process under test so far."""
    return sum(row["cpu_s"] for row in usage_of(system.tiers).values())


def _drive(
    system: System, load: Load, seconds: float, rates: Rates, between_rounds
) -> dict:
    """Warm-up, then ``ROUNDS`` closed/open rounds, calling
    ``between_rounds`` after each (outside the measured windows); never more
    than 2 connections open at once."""
    writers = [Connection(system.ingress_port), Connection(system.ingress_port)]
    _closed_loop(load, writers, seconds * WARMUP_SHARE)
    for connection in writers:
        connection.close()
    counters_start = _counters(system)
    usage_start = usage_of(system.tiers)
    window_start = time.perf_counter()
    rounds, open_loops, sync_ok = [], [], True
    open_window = seconds * OPEN_SHARE / ROUNDS
    for index in range(ROUNDS):
        writers = [Connection(system.ingress_port), Connection(system.ingress_port)]
        try:
            before = load.reports_acked()
            started = time.perf_counter()
            _closed_loop(load, writers, seconds * CLOSED_SHARE / ROUNDS)
            expected = load.reports_acked()
            writers[1].close()
            with Connection(system.root_port) as control:
                answer = _wait_for_count(control, expected)
            rounds.append((expected - before, time.perf_counter() - started))
            sync_ok = sync_ok and answer["num_reports"] == expected
            with Connection(system.root_port) as reader:
                cpu_before, opened = _cpu_now(system), time.perf_counter()
                part = _open_loop(
                    load, writers[0], reader, rates, open_window, index * open_window
                )
                part["cpu_s"] = _cpu_now(system) - cpu_before
                part["wall_s"] = time.perf_counter() - opened
                open_loops.append(part)
        finally:
            for connection in writers:
                connection.close()
        between_rounds()
    window_end = time.perf_counter()
    open_loop = {
        key: sum((part[key] for part in open_loops), type(first)())
        for key, first in open_loops[0].items()
    }
    return {
        "closed_rounds": rounds,
        "closed_sync_ok": sync_ok,
        "open_loop": open_loop,
        "counters_start": counters_start,
        "usage_start": usage_start,
        "usage_end": usage_of(system.tiers),
        "window": (window_start, window_end),
    }
