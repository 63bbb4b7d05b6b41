"""The serve-open workload: an open-loop client against ``repro serve start``.

Events come from a seeded diurnal day.  Every arrival that is admitted
gets a departure at ``time_s + solo_s``; a rejected arrival gets none.
:func:`event_sequence` builds that sequence by feeding an in-process
:class:`~repro.sched.scheduler.Scheduler` the same events the daemon will
see, which also fills the store the daemon then serves warm and records
the decisions each event must produce.  Admitted tenants all depart, so
the cluster is empty again at the end of the day and the day repeats on
the same daemon with the same decisions.

The client sends events in sequence order with one request in flight
(the daemon serializes admissions behind one lock anyway), so the
decision log is a pure function of the seed: in chunks at the fixed
rates ``low`` and ``high``, and in chunks sent back to back, which give
the highest rate the daemon sustains.  At a fixed rate, latency is
timed from when a request was *due*, so a stall also charges the
requests queued behind it; the send lag (how late a request left) shows
whether the client kept up.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import os
import signal
import socket
import subprocess
import sys
import time
from statistics import median
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from stats import tail

#: Latency limit on the tail percentile of a fixed-rate chunk.
LIMIT_MS = 100.0
#: Offered rates (requests/s) of the fixed-rate chunks.
LOW, HIGH = 100.0, 200.0
#: One cycle of a serve-open run: ``(rate, requests)`` per chunk, in
#: order; rate ``None`` sends back to back.  A fixed-rate chunk lasts a
#: second; with the host-speed samples around the chunks, a cycle takes
#: about three seconds.
CYCLE = ((LOW, 100), (HIGH, 200), (None, 500))
#: Requests per side of a traced run (at ``high``).
STEP_REQUESTS = 1000
#: Peak arrivals per trace hour of the seeded day.
DAY_RATE = 20.0
#: Send-lag growth (last tenth vs first tenth of a chunk) that counts as
#: a growing backlog.
LAG_GROWTH_MS = 10.0
REQUEST_TIMEOUT_S = 10.0
#: The client sleeps until this long before a request is due, then
#: spins: a sleep alone wakes up late by the kernel's timer slack.
SPIN_S = 0.001
#: Requests a traced run sends to each daemon before it measures.
WARMUP_REQUESTS = 200


def canonical(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(obj: Any) -> str:
    return hashlib.sha256(canonical(obj).encode()).hexdigest()[:16]


@dataclass
class Event:
    path: str
    body: dict[str, Any]
    #: Decision payloads this event appends to the daemon's log.
    decisions: list[dict[str, Any]]

    def request(self) -> bytes:
        payload = canonical(self.body).encode()
        head = (
            f"POST {self.path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(payload)}\r\n"
            "Connection: close\r\n\r\n"
        )
        return head.encode() + payload


def event_sequence(trace, scheduler) -> list[Event]:
    """Drive ``scheduler`` through one day and return the event list."""
    from repro.sched.cluster import Tenant

    events: list[Event] = []
    pending: list[tuple[float, int, str]] = []
    log = scheduler.decisions

    def depart(until: float) -> None:
        while pending and pending[0][0] <= until:
            t, _, tid = heapq.heappop(pending)
            mark = len(log)
            scheduler.departure(tid, time_s=t)
            events.append(
                Event(
                    "/departures",
                    {"tenant": tid, "time_s": t},
                    [d.payload() for d in log[mark:]],
                )
            )

    for seq, e in enumerate(trace.arrivals):
        depart(e.time_s)
        tenant = Tenant(
            tenant=e.tenant,
            workload=e.workload,
            threads=e.threads,
            solo_s=e.solo_s,
            arrival_s=e.time_s,
        )
        decision = scheduler.arrival(tenant, time_s=e.time_s)
        events.append(
            Event(
                "/arrivals",
                {
                    "tenant": e.tenant,
                    "workload": e.workload,
                    "threads": e.threads,
                    "solo_s": e.solo_s,
                    "time_s": e.time_s,
                },
                [decision.payload()],
            )
        )
        if decision.admitted:
            heapq.heappush(pending, (e.time_s + e.solo_s, seq, e.tenant))
    depart(float("inf"))
    if scheduler.cluster.used_slots:
        raise RuntimeError("serve day does not end with an empty cluster")
    return events


# -- one HTTP exchange --------------------------------------------------------


def exchange(port: int, raw: bytes, timeout: float = REQUEST_TIMEOUT_S) -> tuple[int, bytes]:
    """One request on a fresh connection; ``(status, raw body)``."""
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        sock.sendall(raw)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    data = b"".join(chunks)
    head, _, body = data.partition(b"\r\n\r\n")
    return int(head.split(b" ", 2)[1]), body


def get(port: int, path: str) -> tuple[int, Any]:
    raw = f"GET {path} HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n"
    status, body = exchange(port, raw.encode(), timeout=60.0)
    return status, json.loads(body) if body else None


# -- the daemon ---------------------------------------------------------------


def child_env() -> dict[str, str]:
    """The environment for a child process: the checkout's ``src`` first."""
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=f"src{os.pathsep}{path}" if path else "src")


@dataclass
class Daemon:
    proc: subprocess.Popen
    port: int
    ready_s: float
    snapshot: "Path | None" = None

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the daemon")

    def stop(self) -> None:
        """SIGTERM and wait; the daemon must exit 0 after ``serve: stopped``."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            out, _ = self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            raise RuntimeError("daemon did not stop within 30 s") from None
        if self.proc.returncode != 0 or "serve: stopped" not in out:
            raise RuntimeError(f"daemon exited {self.proc.returncode}: {out[-400:]!r}")


class Echo:
    """The stand-in daemon (``echod.py``): a host-speed reference for the
    serve path (see :mod:`hostspeed`), driven the way the chunk it
    brackets drives the daemon — back to back, or at a fixed rate."""

    #: Round trips one back-to-back sample times, and what they take on
    #: the nominal host.
    TRIPS = 100
    TRIPS_NOMINAL_S = 0.040
    #: Requests one fixed-rate sample sends, and their median latency on
    #: the nominal host.
    PACED = 50
    PACED_NOMINAL_MS = 0.8
    BODY = {"tenant": "u0000", "workload": "fotonik3d", "threads": 4,
            "solo_s": 812.25, "time_s": 3600.5}

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("echod.py"))],
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            self.port = int(self.proc.stdout.readline())
        except ValueError:
            self.stop()
            raise RuntimeError("echod failed to start") from None
        #: An arrival-shaped request.
        self.event = Event("/echo", self.BODY, [])

    def back_to_back_s(self) -> float:
        """Host seconds for :data:`TRIPS` back-to-back round trips."""
        raw = self.event.request()
        t0 = time.perf_counter()
        for _ in range(self.TRIPS):
            if exchange(self.port, raw)[0] != 200:
                raise RuntimeError("echod failed a request")
        return time.perf_counter() - t0

    def paced_ms(self, rate: float) -> float:
        """Median latency of :data:`PACED` requests sent at ``rate``."""
        step = run_step(self.port, [self.event], 0, self.PACED, rate)
        if step.failed:
            raise RuntimeError("echod failed a request")
        return median(step.latencies_ms)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()


def start_daemon(
    store: Path, roster, work: Path, *, traced: bool = False
) -> Daemon:
    """``repro serve start`` on a free port, timed until ``/healthz``."""
    args = [
        "serve", "start", "--store", str(store), "--port", "0",
        "--workloads", ",".join(roster), "--threads", "4",
    ]
    snapshot = None
    if traced:
        snapshot = work / f"daemon-trace-{time.monotonic_ns()}.json"
        cmd = [sys.executable, str(Path(__file__).with_name("traced_daemon.py")), str(snapshot)]
    else:
        cmd = [sys.executable, "-m", "repro.cli"]
    t0 = time.perf_counter()
    with open(work / "daemon.log", "a") as log:
        proc = subprocess.Popen(
            cmd + args,
            stdout=subprocess.PIPE,
            stderr=log,
            text=True,
            env=child_env(),
        )
    try:
        line = proc.stdout.readline()
        if "serve: listening on" not in line:
            raise RuntimeError(f"daemon failed to start: {line!r}")
        port = int(line.split()[3].rsplit(":", 1)[1])
        while True:
            try:
                if get(port, "/healthz")[0] == 200:
                    break
            except OSError:
                pass
            if time.perf_counter() - t0 > 60:
                raise RuntimeError("daemon never became healthy")
            time.sleep(0.005)
    except BaseException:
        proc.kill()
        proc.communicate()
        raise
    return Daemon(proc, port, time.perf_counter() - t0, snapshot)


# -- the open loop ------------------------------------------------------------


@dataclass
class Step:
    #: Offered requests/s; ``None`` for back to back.
    rate: "float | None"
    start: int
    latencies_ms: list[float] = field(default_factory=list)
    lags_ms: list[float] = field(default_factory=list)
    #: Arrival latencies only, and the daemon's own ``latency_s`` for them.
    admit_ms: list[float] = field(default_factory=list)
    daemon_ms: list[float] = field(default_factory=list)
    sent_first: float = 0.0
    sent_last: float = 0.0
    failed: int = 0
    responses: list[Any] = field(default_factory=list)

    @property
    def achieved_rate(self) -> float:
        n = len(self.latencies_ms)
        span = self.sent_last - self.sent_first
        return (n - 1) / span if n > 1 and span > 0 else 0.0

    def passes(self) -> bool:
        if self.failed:
            return False
        t = tail(self.latencies_ms)
        if t is None or t["value"] > LIMIT_MS:
            return False
        k = max(1, len(self.lags_ms) // 10)
        growth = median(self.lags_ms[-k:]) - median(self.lags_ms[:k])
        return growth <= LAG_GROWTH_MS


def run_step(port: int, events: "list[Event]", start: int, n: int, rate: "float | None") -> Step:
    """Send events ``start .. start+n`` (cycling over the day) at
    ``rate`` per second, or back to back when ``rate`` is ``None``; one
    request in flight."""
    step = Step(rate=rate, start=start)
    raws = [events[(start + j) % len(events)] for j in range(n)]
    payloads = [ev.request() for ev in raws]
    t0 = time.perf_counter() + 0.01
    due = t0
    for j, raw in enumerate(payloads):
        if rate is not None:
            due = t0 + j / rate
            now = time.perf_counter()
            if now < due - SPIN_S:
                time.sleep(due - SPIN_S - now)
            while time.perf_counter() < due:
                pass
        sent = time.perf_counter()
        if rate is None:
            due = sent
        try:
            status, body = exchange(port, raw)
        except (OSError, ValueError, IndexError):
            status, body = 0, b""
        done = time.perf_counter()
        if j == 0:
            step.sent_first = sent
        step.sent_last = sent
        lat = (done - due) * 1e3
        step.latencies_ms.append(lat)
        step.lags_ms.append((sent - due) * 1e3)
        step.responses.append(body if 200 <= status < 300 else None)
    for ev, lat, body in zip(raws, step.latencies_ms, step.responses):
        if body is None:
            step.failed += 1
        elif ev.path == "/arrivals":
            step.admit_ms.append(lat)
            step.daemon_ms.append(json.loads(body)["latency_s"] * 1e3)
    return step


def check_responses(step: Step, events: "list[Event]") -> int:
    """Responses that disagree with the in-process decisions."""
    bad = 0
    for j, body in enumerate(step.responses):
        ev = events[(step.start + j) % len(events)]
        if body is None:
            continue
        body = json.loads(body)
        got = [body["decision"]] if ev.path == "/arrivals" else body["replans"]
        if canonical(got) != canonical(ev.decisions):
            bad += 1
    return bad


def expected_log(events: "list[Event]", sent: int) -> list[dict[str, Any]]:
    out: list[dict[str, Any]] = []
    for j in range(sent):
        out.extend(events[j % len(events)].decisions)
    return out
