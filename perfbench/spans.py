"""Timing wrappers for the traced run, and the per-layer ledger built from them.

:func:`install` patches the public functions and methods of each layer
*where they are looked up* (a module-global name for functions, the class
attribute for methods), so nothing under ``src/`` changes.  Every call
becomes one span: name, start, end, the enclosing span (through a context
variable, so asyncio tasks and ``to_thread`` calls keep their parent) and
the ``X-Repro-Trace`` id of the request that caused it.  Spans stay in
memory and are written to ``<trace dir>/spans-<pid>.json`` at exit.

:func:`ledger` turns the span files of one run into per-layer counts,
busy/wait seconds and self times.
"""

from __future__ import annotations

import atexit
import contextvars
import functools
import inspect
import itertools
import json
import os
import time
from pathlib import Path

#: (span id, trace id) of the innermost open span in this context; a request
#: span adds its name, which ``_observe_request`` needs to close it.
_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=None
)


class Recorder:
    """In-memory span store of one process."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)

    def next_id(self) -> int:
        return next(self._ids)

    def add(self, span_id, parent, name, start, end, trace, size) -> None:
        self.spans.append((span_id, parent, name, start, end, trace, size))

    def dump(self, directory: Path) -> None:
        path = directory / f"spans-{os.getpid()}.json"
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"pid": os.getpid(), "spans": self.spans}, handle)


def _size_of(value) -> int:
    try:
        return len(value)
    except TypeError:
        return 0


def _span_wrapper(
    recorder: Recorder, name: str, function, size_arg=None, size_result=False
):
    """Wrap ``function`` so each call records one span.

    ``size_arg`` names an argument whose ``len`` is recorded (bytes or
    reports); ``size_result`` records the ``len`` of the return value.
    A ``trace_id`` argument, where the function takes one, names the trace.
    """
    signature = inspect.signature(function)

    def bind(args, kwargs):
        try:
            bound = signature.bind(*args, **kwargs)
        except TypeError:
            return 0, ""
        size = _size_of(bound.arguments.get(size_arg)) if size_arg else 0
        trace = bound.arguments.get("trace_id") or ""
        return size, trace if isinstance(trace, str) else ""

    def open_span(args, kwargs):
        size, trace = bind(args, kwargs)
        current = _CURRENT.get()
        parent = current[0] if current else 0
        trace = trace or (current[1] if current else "")
        span_id = recorder.next_id()
        token = _CURRENT.set((span_id, trace))
        return span_id, parent, trace, size, token

    def close_span(state, start, result):
        span_id, parent, trace, size, token = state
        end = time.perf_counter()
        _CURRENT.reset(token)
        if size_result:
            size = _size_of(result)
        recorder.add(span_id, parent, name, start, end, trace, size)

    if inspect.iscoroutinefunction(function):

        @functools.wraps(function)
        async def async_wrapper(*args, **kwargs):
            state = open_span(args, kwargs)
            start = time.perf_counter()
            result = None
            try:
                result = await function(*args, **kwargs)
                return result
            finally:
                close_span(state, start, result)

        return async_wrapper

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        state = open_span(args, kwargs)
        start = time.perf_counter()
        result = None
        try:
            result = function(*args, **kwargs)
            return result
        finally:
            close_span(state, start, result)

    return wrapper


def _patch_function(recorder, module, attribute, name, **options) -> None:
    original = getattr(module, attribute)
    setattr(module, attribute, _span_wrapper(recorder, name, original, **options))


def _patch_method(recorder, cls, attribute, name, **options) -> None:
    raw = cls.__dict__[attribute]
    if isinstance(raw, staticmethod):
        wrapped = _span_wrapper(recorder, name, raw.__func__, **options)
        setattr(cls, attribute, staticmethod(wrapped))
    else:
        setattr(cls, attribute, _span_wrapper(recorder, name, raw, **options))


def _patch_request_spans(recorder: Recorder, tier_classes: dict) -> None:
    """One span per HTTP request: from dispatch start (the server's own
    ``started`` stamp) through the reply write and request telemetry.

    ``_dispatch`` opens the span id so that layer spans inside it name it
    as their parent; ``_observe_request``, which runs in the same task
    after the reply is written, closes it with the server's start stamp.
    """
    from repro.service.server import HttpTier

    for cls, name in tier_classes.items():
        original = cls.__dict__["_dispatch"]

        def make(original, name):
            @functools.wraps(original)
            async def dispatch(self, request):
                span_id = recorder.next_id()
                _CURRENT.set((span_id, request.trace, name))
                return await original(self, request)

            return dispatch

        cls._dispatch = make(original, name)

    observe = HttpTier.__dict__["_observe_request"]

    @functools.wraps(observe)
    def observe_request(self, request, malformed, status, started):
        try:
            return observe(self, request, malformed, status, started)
        finally:
            current = _CURRENT.get()
            if current is not None and len(current) == 3:
                span_id, trace, name = current
                recorder.add(span_id, 0, name, started, time.perf_counter(), trace, 0)
                _CURRENT.set(None)

    HttpTier._observe_request = observe_request


def install(trace_dir: Path) -> Recorder:
    """Patch every layer the ledger reports and dump spans at exit."""
    from repro.optimization import kernels
    from repro.protocol.engine import ShardAccumulator
    from repro.service import campaigns, checkpoint, client, cluster, edge, ingest
    from repro.service import server, wal

    recorder = Recorder()
    for module in (server, cluster, edge):
        _patch_function(recorder, module, "fold_json_body", "ingest.fold_body")
        _patch_function(recorder, module, "fold_frame_body", "ingest.fold_body")
    _patch_function(
        recorder, ingest, "decode_frames", "framing.decode", size_arg="buffer"
    )
    _patch_function(recorder, ingest, "validate_reports", "ingest.validate")
    _patch_function(recorder, ingest, "validate_histogram", "ingest.validate")
    for method in ("submit_reports", "submit_histogram"):
        _patch_method(recorder, ingest.IngestPipeline, method, "ingest.submit")
    _patch_method(recorder, wal.WriteAheadLog, "append", "wal.append")
    _patch_method(recorder, wal.WriteAheadLog, "truncate", "wal.truncate")
    _patch_method(
        recorder, checkpoint.CheckpointStore, "save_frozen", "checkpoint.save"
    )
    _patch_method(
        recorder,
        ShardAccumulator,
        "add_reports",
        "engine.add_reports",
        size_arg="reports",
    )
    _patch_method(recorder, ShardAccumulator, "merge", "engine.merge")
    _patch_method(
        recorder, ShardAccumulator, "to_bytes", "engine.to_bytes", size_result=True
    )
    _patch_method(recorder, ShardAccumulator, "from_bytes", "engine.from_bytes")
    _patch_method(recorder, campaigns.CampaignManager, "query", "campaigns.query")
    _patch_method(
        recorder, campaigns.CampaignManager, "apply_partial", "campaigns.apply_partial"
    )
    for method in ("submit_json", "submit_frames"):
        _patch_method(recorder, cluster.WorkerPool, method, "cluster.submit")
    _patch_method(recorder, cluster.WorkerPool, "snapshots", "cluster.snapshots")
    _patch_method(recorder, client.ServiceClient, "send_partial", "edge.forward")
    for method in ("value", "value_and_gradient"):
        _patch_method(recorder, kernels.FastEngine, method, f"kernels.{method}")
    _patch_method(
        recorder,
        kernels.FastEngine,
        "value_batch",
        "kernels.value_batch",
        size_arg="strategies",
    )
    _patch_method(recorder, kernels.FastEngine, "project", "projection")
    _patch_method(recorder, kernels.FastEngine, "project_batch", "projection")
    _patch_request_spans(
        recorder,
        {
            server.CollectionService: "server.request",
            edge.EdgeAggregator: "edge.request",
        },
    )
    atexit.register(recorder.dump, Path(trace_dir))
    return recorder


def wrap_call(recorder: Recorder, name: str, function, *args, **kwargs):
    """Run ``function`` inside one named span (for the optimizer driver)."""
    return _span_wrapper(recorder, name, function)(*args, **kwargs)


# -- reading a run's spans back ---------------------------------------------


def load_spans(trace_dir: Path) -> list[tuple]:
    """Every span of a run, tagged with the pid that recorded it."""
    spans = []
    for path in sorted(Path(trace_dir).glob("spans-*.json")):
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
        pid = document["pid"]
        spans.extend((pid, *span) for span in document["spans"])
    return spans


def ledger(spans: list[tuple]) -> dict:
    """Per span name: calls, summed duration, summed size, and self time
    (duration minus the part covered by direct children, clipped at 0)."""
    children: dict[tuple, list[tuple[float, float]]] = {}
    for pid, _span_id, parent, _name, start, end, _trace, _size in spans:
        if parent:
            children.setdefault((pid, parent), []).append((start, end))
    rows: dict[str, dict] = {}
    for pid, span_id, _parent, name, start, end, trace, size in spans:
        row = rows.setdefault(
            name, {"calls": 0, "busy_s": 0.0, "size": 0, "self_s": 0.0, "traced": 0}
        )
        duration = end - start
        covered = _union_length(children.get((pid, span_id), ()), start, end)
        row["calls"] += 1
        row["busy_s"] += duration
        row["size"] += size
        row["self_s"] += max(0.0, duration - covered)
        row["traced"] += bool(trace)
    return rows


def _union_length(intervals, start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total, cursor = 0.0, start
    for left, right in sorted(intervals):
        left, right = max(left, cursor), min(right, end)
        if right > left:
            total += right - left
            cursor = right
    return total
