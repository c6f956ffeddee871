"""Processes under test: spawn, readiness, ``/proc`` accounting, raw HTTP.

The benchmark talks to the service over plain sockets with pre-built
request bytes, so the load generator spends as little CPU as possible on
the two cores it shares with the server.
"""

from __future__ import annotations

import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
LAUNCHER = Path(__file__).resolve().parent / "launch.py"

_LISTENING = re.compile(r"listening on http://[\d.]+:(\d+)")
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


#: CPU of each process in the serving phases.  The load generator and
#: every tier, the cluster worker included, share one CPU, so a request,
#: query or scrape costs a local context switch instead of waking an idle
#: vCPU, whose wake-up latency moved reader medians by up to 25% between
#: runs.  Left to the scheduler, placement changed closed-loop throughput by
#: up to 30% between runs.  A pinned process sees one CPU, so its BLAS runs
#: one thread: the benchmark pins itself before numpy loads, so the
#: reference answers it computes take the same BLAS path as the server's.
PLACEMENT = {
    "optimize-serve-prefix128": {"loadgen": 0, "root": 0},
    "ingest-binary-cluster": {"loadgen": 0, "root": 0, "worker": 0},
    "ingest-binary-edge": {"loadgen": 1, "root": 1, "edge": 1},
}


class BenchError(RuntimeError):
    """The benchmark could not run or a correctness check failed."""


def child_env(extra: dict | None = None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env.update(extra or {})
    return env


class Tier:
    """One ``repro serve`` / ``repro edge`` process on an ephemeral port.

    With ``trace_dir`` set the process starts through the benchmark's
    launcher, which installs timing wrappers before the CLI runs.
    """

    def __init__(
        self, command: list[str], trace_dir: Path | None = None, cpu: int | None = None
    ):
        self.spawned_at = time.perf_counter()
        if trace_dir is None:
            argv = [sys.executable, "-m", "repro", *command]
            env = child_env()
        else:
            argv = [sys.executable, str(LAUNCHER), *command]
            env = child_env({"PERFBENCH_TRACE_DIR": str(trace_dir)})
        self.process = subprocess.Popen(
            argv,
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        if cpu is not None:
            # Still single-threaded (the interpreter is starting), so every
            # thread it creates later inherits this placement.
            pin(self.process.pid, cpu)
        self.lines: list[str] = []
        self.port: int | None = None
        self._bound = threading.Event()
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()
        self.children: set[int] = set()

    def _drain(self) -> None:
        for line in self.process.stdout:
            self.lines.append(line)
            match = _LISTENING.search(line)
            if match and self.port is None:
                self.port = int(match.group(1))
                self._bound.set()
        self._bound.set()

    def output(self) -> str:
        return "".join(self.lines[-40:])

    def wait_ready(self, min_campaigns: int = 1, timeout: float = 120.0) -> float:
        """Block until the tier answers healthz ``ok`` with its campaigns;
        returns the seconds since spawn."""
        deadline = time.monotonic() + timeout
        self._bound.wait(timeout)
        if self.port is None:
            self.kill()
            raise BenchError(f"tier never reported its port:\n{self.output()}")
        with Connection(self.port) as connection:
            while time.monotonic() < deadline:
                status, body = connection.get("/v1/healthz")
                if status == 200:
                    health = json.loads(body)
                    if (
                        health.get("status") == "ok"
                        and health.get("campaigns", 0) >= min_campaigns
                    ):
                        return time.perf_counter() - self.spawned_at
                if self.process.poll() is not None:
                    break
                time.sleep(0.005)
        self.kill()
        raise BenchError(f"tier on :{self.port} never became ready:\n{self.output()}")

    def pids(self) -> list[int]:
        """This process and its live descendants (cluster workers)."""
        found = [self.process.pid]
        frontier = [self.process.pid]
        while frontier:
            pid = frontier.pop()
            try:
                for task in os.listdir(f"/proc/{pid}/task"):
                    with open(f"/proc/{pid}/task/{task}/children") as handle:
                        kids = [int(v) for v in handle.read().split()]
                    found.extend(kids)
                    frontier.extend(kids)
            except OSError:
                continue
        self.children.update(found[1:])
        return found

    def stop(self, timeout: float = 60.0) -> int:
        """Graceful SIGTERM (drain + final checkpoint + atexit hooks)."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout)
            except subprocess.TimeoutExpired:
                self.kill()
        self._reap_children()
        self._reader.join(5)
        return self.process.returncode

    def kill(self) -> None:
        if self.process.poll() is None:
            self.pids()
            self.process.kill()
            self.process.wait(30)
        self._reap_children()

    def _reap_children(self, timeout: float = 30.0) -> None:
        """Wait until every worker this tier spawned has exited."""
        deadline = time.monotonic() + timeout
        for pid in self.children:
            while Path(f"/proc/{pid}").exists() and time.monotonic() < deadline:
                if _is_zombie(pid):
                    break
                time.sleep(0.02)
            if Path(f"/proc/{pid}").exists() and not _is_zombie(pid):
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass


def pin(pid: int, cpu: int) -> None:
    """Bind every thread of a process to one CPU (``pid`` 0: this process)."""
    pid = pid or os.getpid()
    cpus = {cpu % (os.cpu_count() or 1)}
    try:
        tasks = [int(task) for task in os.listdir(f"/proc/{pid}/task")]
    except OSError:
        return
    for task in tasks:
        try:
            os.sched_setaffinity(task, cpus)
        except OSError:
            pass


def _is_zombie(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] == "Z"
    except OSError:
        return True


def proc_usage(pid: int) -> dict | None:
    """CPU seconds (user + system) and peak RSS of one live process."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        with open(f"/proc/{pid}/status") as handle:
            status = handle.read()
    except OSError:
        return None
    cpu = (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS
    match = re.search(r"^VmHWM:\s+(\d+) kB", status, re.MULTILINE)
    peak_kb = int(match.group(1)) if match else 0
    return {"cpu_s": cpu, "peak_rss_mb": peak_kb / 1024}


def usage_of(tiers: dict) -> dict:
    """Per-process usage of every tier (read while they are still alive)."""
    usage = {}
    for label, tier in tiers.items():
        for index, pid in enumerate(tier.pids()):
            row = proc_usage(pid)
            if row is not None:
                usage[label if index == 0 else f"{label}.worker{index}"] = row
    return usage


def wal_filesystem(path: Path) -> str:
    """The filesystem type holding ``path`` (longest mount-point match)."""
    target = str(path.resolve())
    best, fstype = "", "unknown"
    try:
        with open("/proc/self/mounts") as handle:
            for line in handle:
                parts = line.split()
                mount = parts[1]
                inside = target == mount or target.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, fstype = mount, parts[2]
    except OSError:
        pass
    return fstype


def build_request(
    method: str, path: str, body: bytes = b"", content_type: str = "", trace: str = ""
) -> bytes:
    head = f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
    if content_type:
        head += f"Content-Type: {content_type}\r\n"
    if trace:
        head += f"X-Repro-Trace: {trace}\r\n"
    head += f"Content-Length: {len(body)}\r\n\r\n"
    return head.encode("ascii") + body


class Connection:
    """One keep-alive HTTP/1.1 connection that sends pre-built requests."""

    def __init__(self, port: int, host: str = "127.0.0.1", timeout: float = 120.0):
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")

    def send(self, request: bytes) -> tuple[int, bytes]:
        self.sock.sendall(request)
        status_line = self.reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split()[1])
        length = 0
        while True:
            line = self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            key, _, value = line.partition(b":")
            if key.strip().lower() == b"content-length":
                length = int(value)
        body = self.reader.read(length) if length else b""
        return status, body

    def get(self, path: str, trace: str = "") -> tuple[int, bytes]:
        return self.send(build_request("GET", path, trace=trace))

    def close(self) -> None:
        self.reader.close()
        self.sock.close()

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
