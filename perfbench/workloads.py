"""The four workloads, each run untraced (end-to-end metrics) or traced
(per-layer metrics).

* ``day-cold``  — diurnal days through the ``traffic-replay`` artifact,
  each into an empty store: engine-bound, small batches, store writes.
* ``day-warm``  — six days replayed by fresh sessions over a store
  filled during set-up: zero engine runs; keying, store reads, evaluator.
* ``serve-open`` — a client sending at fixed rates (open loop) and back
  to back to ``repro serve start`` on a warm store (see :mod:`serveload`).
* ``runall-cold`` — ``Session.run_all(include_extensions=True)`` over the
  full roster into an empty store, each campaign in a fresh process
  (:mod:`campaign`): the paper artifacts, wide batches.

Every workload returns an :class:`Outcome`; :mod:`run` prints it.  All
timings are host seconds; the simulated numbers only feed the
correctness digests.
"""

from __future__ import annotations

import gc
import json
import platform
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from statistics import median
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy

import serveload
from hostspeed import HostSpeed
from serveload import digest
from stats import rank_value, tail
from tracer import LayerTracer, install_layers, snapshot

#: The day workloads' roster (the legacy traffic benchmark's six apps).
ROSTER = ("G-CC", "G-PR", "fotonik3d", "IRSmk", "swaptions", "nab")
#: Peak arrivals per trace hour of a day-cold / day-warm day (~190
#: arrivals, ~380 decisions over both policies).
DAY_RATE = 15.0
#: Distinct days one day-cold run cycles through.
COLD_DAYS = 4
#: Repetitions of each cheap set-up step (the reported set-up is the median).
SETUP_REPEATS = 3
#: Distinct days one day-warm run fills during set-up and then replays.
WARM_DAYS = 6

HERE = Path(__file__).resolve().parent
PINS = HERE / "pins.json"
ARTIFACTS_REPORTED = ("fig2", "fig5", "predict", "sched-replay", "traffic-replay")


def host_key() -> dict[str, str]:
    """What floating-point results depend on besides the code: numpy
    picks SIMD kernels by CPU feature, so digests are pinned per host."""
    cpu = {}
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        name, _, value = line.partition(":")
        if name.strip() in ("model name", "flags"):
            cpu.setdefault(name.strip(), value.strip())
    return {
        "cpu": cpu.get("model name", ""),
        "cpu_flags": digest(sorted(cpu.get("flags", "").split())),
        "numpy": numpy.__version__,
        "python": platform.python_version(),
    }


def _load_pins() -> dict[str, str]:
    """Pinned digests, when they were taken on a host like this one."""
    if not PINS.exists():
        return {}
    pins = json.loads(PINS.read_text())
    return pins["digests"] if pins["host"] == host_key() else {}


@dataclass
class Outcome:
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    #: The workload's own figures and sample counts, printed before the result.
    report: dict[str, Any] = field(default_factory=dict)
    #: Digests pinned for known seeds (``pins.json``).
    pins: dict[str, str] = field(default_factory=_load_pins, repr=False)

    def check(self, ok: bool, problem: str) -> None:
        if not ok:
            self.problems.append(problem)

    def pin(self, key: str, value: str) -> None:
        """Record a correctness digest; compare it with the pinned value
        for this key, when one is pinned."""
        if key in self.digests:
            self.check(self.digests[key] == value, f"{key}: digest changed within the run")
            return
        self.digests[key] = value
        pinned = self.pins.get(key)
        self.check(pinned is None or pinned == value, f"{key}: digest {value} != pinned {pinned}")


@dataclass
class Ctx:
    seed: int
    seconds: float
    traced: bool
    work: Path

    def store_dir(self) -> Path:
        return Path(tempfile.mkdtemp(dir=self.work, prefix="store-"))


# -- shared pieces ------------------------------------------------------------

#: The end-to-end metrics every workload reports, with their units.
END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_ms", "ms"), ("peak_rss_mb", "MB"))


def end_to_end(*values: float) -> dict[str, tuple[float, str]]:
    return {name: (v, unit) for (name, unit), v in zip(END_TO_END, values, strict=True)}


def _config(**kw):
    from repro.core import ExperimentConfig

    # The CLI's defaults (threads 4, repetitions 3, seed 0, jitter 0.01),
    # so the in-process sessions key the store exactly like the daemon.
    return ExperimentConfig(**{"workloads": ROSTER, "threads": 4, **kw})


def _session(store: Path, **kw):
    from repro.session import Session
    from repro.store import ResultStore

    return Session(_config(**kw), store=ResultStore(store))


def _payload_digest(record) -> str:
    from repro.session.registry import get_runner

    return digest(get_runner(record.artifact).encode(record.result))


def _misses(cache: dict[str, int]) -> int:
    return sum(cache.get(k, 0) for k in ("solo_misses", "corun_misses", "scenario_misses"))


def _import_s() -> float:
    """A cold interpreter loading the program: what every CLI call pays."""
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import repro.cli"],
        check=True,
        env=serveload.child_env(),
    )
    return time.perf_counter() - t0


def _import_median(setup: HostSpeed) -> float:
    times = []
    for _ in range(SETUP_REPEATS):
        setup.sample()
        times.append(_import_s())
    return median(times)


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _day(session, day_seed: int):
    """One ``traffic-replay`` day; ``(host seconds, record, decisions)``."""
    gc.collect()
    t0 = time.perf_counter()
    record = session.run("traffic-replay", rate=DAY_RATE, seed=day_seed)
    dt = time.perf_counter() - t0
    decisions = sum(len(r.outcomes) for r in record.result.reports)
    return dt, record, decisions


def _alternate(units, run_unit: Callable[[Any], float]) -> tuple[float, float, dict[str, Any]]:
    """Run each unit untraced, then traced, alternating, so drift on the
    host hits both sides alike.  ``run_unit`` returns its host seconds.
    Returns ``(traced wall, untraced wall, tracer snapshot)``."""
    tracer = LayerTracer()
    traced = untraced = 0.0
    for unit in units:
        untraced += run_unit(unit)
        install_layers(tracer)
        try:
            traced += run_unit(unit)
        finally:
            tracer.restore()
    return traced, untraced, snapshot(tracer)


def _cycle(seeds, seconds: float, speed: HostSpeed, run: Callable[[int], tuple[float, int]]):
    """Replay the seeds' days in turn, whole cycles only, until
    ``seconds`` have passed, sampling the host's speed around each day
    (``speed`` keeps the days' host seconds).  Returns each day's seed
    and decisions."""
    days: list[tuple[int, int]] = []
    start = time.perf_counter()
    speed.sample()
    while len(days) % len(seeds) or not days or time.perf_counter() - start < seconds:
        day_seed = seeds[len(days) % len(seeds)]
        dt, n = run(day_seed)
        speed.unit(dt)
        speed.sample()
        days.append((day_seed, n))
    return days


def _day_result(out: Outcome, setup: HostSpeed, setup_s: float, speed: HostSpeed, days) -> None:
    """Decisions per second over one cycle of the days, each day at its
    median scaled time; ms per decision, the median over all days."""
    scaled = speed.scaled_units()
    by_seed: dict[int, list[float]] = {}
    decisions: dict[int, int] = {}
    for (day_seed, n), dt in zip(days, scaled, strict=True):
        by_seed.setdefault(day_seed, []).append(dt)
        decisions[day_seed] = n
    rate = sum(decisions.values()) / sum(median(v) for v in by_seed.values())
    per_dec = median(dt / n * 1e3 for (_, n), dt in zip(days, scaled))
    raw = [r for r, _ in speed.units]
    decs = sum(n for _, n in days)
    out.attempted = decs
    out.metrics = end_to_end(setup.scale(setup_s), rate, per_dec, _rss_mb())
    out.report.update({
        "decisions_per_s": rate, "days": len(days), "decisions": decs, "failed_share": 0.0,
        "host": {"decisions_per_s": decs / sum(raw), "day_s": raw, "day_scaled_s": scaled,
                 "setup_s": setup_s, "setup_speed": setup.factor},
    })


def _add_cache(total: dict[str, int], cache: dict[str, int]) -> None:
    for k, v in cache.items():
        total[k] = total.get(k, 0) + v


def _halve(cache: dict[str, int]) -> dict[str, int]:
    """Cache counters of the traced half of an alternating run (both
    halves replay identical units, so they count identically)."""
    return {k: v // 2 for k, v in cache.items()}


# -- day-cold -----------------------------------------------------------------


def day_cold(ctx: Ctx) -> Outcome:
    out = Outcome()
    seeds = [ctx.seed * 1000 + k for k in range(COLD_DAYS)]
    setup = HostSpeed()
    import_s = _import_median(setup)
    # Warm-up: calibration and first-call costs, paid once per process.
    setup.sample()
    t0 = time.perf_counter()
    _day(_session(ctx.store_dir()), -1 - ctx.seed)
    setup_s = import_s + time.perf_counter() - t0

    def one(day_seed: int) -> tuple[float, int, dict[str, int]]:
        store = ctx.store_dir()
        dt, record, decisions = _day(_session(store), day_seed)
        out.pin(f"day:{day_seed}", _payload_digest(record))
        shutil.rmtree(store)
        return dt, decisions, record.provenance["cache"]

    if ctx.traced:
        cache: dict[str, int] = {}

        def unit(day_seed: int) -> float:
            dt, _, c = one(day_seed)
            _add_cache(cache, c)
            return dt

        wall, untraced, snap = _alternate(seeds, unit)
        out.attempted = 2 * len(seeds)
        out.metrics = layer_metrics(snap, wall, untraced, _halve(cache))
        return out

    speed = HostSpeed()
    _day_result(out, setup, setup_s, speed, _cycle(seeds, ctx.seconds, speed, lambda s: one(s)[:2]))
    return out


# -- day-warm -----------------------------------------------------------------


def day_warm(ctx: Ctx) -> Outcome:
    out = Outcome()
    seeds = [ctx.seed * 1000 + k for k in range(WARM_DAYS)]
    setup = HostSpeed()
    import_s = _import_median(setup)
    # One store for all the days, as a user replaying days keeps one:
    # later fills reuse the cells earlier days wrote.
    store = ctx.store_dir()
    fill_s = 0.0
    for day_seed in seeds:
        setup.sample()
        dt, fill, _ = _day(_session(store), day_seed)
        fill_s += dt
        out.pin(f"day:{day_seed}", _payload_digest(fill))

    def replay(day_seed: int) -> tuple[float, int, dict[str, int]]:
        dt, record, n = _day(_session(store), day_seed)
        cache = record.provenance["cache"]
        out.check(_misses(cache) == 0, f"warm replay missed the store: {cache}")
        out.pin(f"day:{day_seed}", _payload_digest(record))
        return dt, n, cache

    if ctx.traced:
        cache: dict[str, int] = {}
        replay(seeds[0])  # the first warm replay in a process pays one-off costs

        def unit(day_seed: int) -> float:
            dt, _, c = replay(day_seed)
            _add_cache(cache, c)
            return dt

        wall, untraced, snap = _alternate(seeds, unit)
        out.attempted = 2 * len(seeds) + 1
        out.metrics = layer_metrics(snap, wall, untraced, _halve(cache))
        return out

    speed = HostSpeed()
    days = _cycle(seeds, ctx.seconds, speed, lambda s: replay(s)[:2])
    out.report["fill_s"] = fill_s
    _day_result(out, setup, import_s + fill_s, speed, days)
    return out


# -- runall-cold --------------------------------------------------------------


#: runall-cold's campaign is the one ``repro run-all`` runs: the CLI's
#: default seed, whatever ``--seed`` says.  Its seed picks the traces of
#: sched-replay and traffic-replay, which moved the campaign's host time
#: by up to 40% from seed to seed; a fixed input leaves only the host's
#: own noise in the spread.
RUNALL_SEED = 0


def runall_cold(ctx: Ctx) -> Outcome:
    out = Outcome()
    setup = HostSpeed()
    setup_s = _import_median(setup)

    def campaign(traced: bool) -> dict[str, Any]:
        """One campaign in a fresh process (a cold interpreter, as a user
        running ``run-all`` has) into an empty store."""
        store = ctx.store_dir()
        proc = subprocess.run(
            [sys.executable, str(HERE / "campaign.py"), str(store), str(RUNALL_SEED), str(int(traced))],
            capture_output=True,
            text=True,
            env=serveload.child_env(),
            timeout=150,
        )
        shutil.rmtree(store)
        if proc.returncode != 0:
            raise RuntimeError(f"campaign failed: {proc.stderr[-2000:]}")
        result = json.loads(proc.stdout.splitlines()[-1])
        for name, art in result["artifacts"].items():
            out.pin(f"runall:{name}", art["digest"])
        out.attempted += len(result["artifacts"])
        return result

    if ctx.traced:
        untraced, traced = campaign(False), campaign(True)
        cache: dict[str, int] = {}
        for art in traced["artifacts"].values():
            _add_cache(cache, art["cache"])
        out.metrics = layer_metrics(
            traced["snapshot"], traced["campaign_s"], untraced["campaign_s"], cache
        )
        return out

    results = []
    start = time.perf_counter()
    while not results or time.perf_counter() - start < ctx.seconds:
        results.append(campaign(False))
    # Each campaign is scaled to the nominal host artifact by artifact,
    # in its own process (see campaign.py and hostspeed).
    scaled = [r["scaled_s"] for r in results]
    campaign_s = median(scaled)
    n_art = len(results[0]["artifacts"])
    out.metrics = end_to_end(
        setup.scale(setup_s),
        n_art / campaign_s,
        campaign_s / n_art * 1e3,
        max(r["rss_mb"] for r in results),
    )
    out.report = {
        "campaign_s": campaign_s, "campaigns": len(scaled), "artifacts": n_art,
        "failed_share": 0.0,
        "host": {"campaign_walls_s": [r["campaign_s"] for r in results],
                 "campaign_scaled_s": scaled, "setup_s": setup_s,
                 "setup_speed": setup.factor},
    }
    return out


# -- serve-open ---------------------------------------------------------------


def serve_day(seed: int):
    from repro.traffic.diurnal import DiurnalCurve
    from repro.traffic.mix import WorkloadMix
    from repro.traffic.model import TrafficModel

    model = TrafficModel(
        mix=WorkloadMix.uniform(ROSTER),
        curve=DiurnalCurve.business_hours(60.0),
        rate_per_hour=serveload.DAY_RATE,
    )
    return model.generate(seed=seed, hours=24.0)


def serve_events(session, seed: int) -> "list[serveload.Event]":
    """The seed's serve day, decided by an in-process scheduler
    configured like ``repro serve start`` (2 machines, interference
    policy, default SLO, departure re-planning on)."""
    from repro.sched.cluster import Cluster
    from repro.sched.policy import get_policy
    from repro.sched.scheduler import Scheduler
    from repro.sched.score import PlacementEvaluator

    scheduler = Scheduler(
        Cluster.homogeneous(2, session.spec),
        get_policy("interference"),
        PlacementEvaluator(session),
        replan=True,
    )
    return serveload.event_sequence(serve_day(seed), scheduler)


def _serve_checks(out: Outcome, daemon: serveload.Daemon, events, sent: int, steps) -> dict:
    bad = sum(serveload.check_responses(s, events) for s in steps)
    out.check(bad == 0, f"{bad} serve response(s) disagree with the in-process scheduler")
    status, body = serveload.get(daemon.port, "/decisions")
    out.check(
        status == 200
        and serveload.canonical(body["decisions"])
        == serveload.canonical(serveload.expected_log(events, sent)),
        "daemon /decisions differs from the in-process scheduler's log",
    )
    status, metrics = serveload.get(daemon.port, "/metrics")
    out.check(status == 200, "GET /metrics failed")
    out.check(_misses(metrics["cache"]) == 0, f"warm daemon missed the store: {metrics['cache']}")
    return metrics


def serve_open(ctx: Ctx) -> Outcome:
    out = Outcome()
    store = ctx.store_dir()
    setup = HostSpeed()
    setup.sample()
    t0 = time.perf_counter()
    events = serve_events(_session(store), ctx.seed)
    fill_s = time.perf_counter() - t0
    out.pin(f"serve:{ctx.seed}", digest([d for ev in events for d in ev.decisions]))

    if ctx.traced:
        return _serve_traced(ctx, out, store, events)

    readies = []
    for i in range(SETUP_REPEATS):
        setup.sample()
        daemon = serveload.start_daemon(store, ROSTER, ctx.work)
        readies.append(daemon.ready_s)
        if i < SETUP_REPEATS - 1:
            daemon.stop()
    echo = serveload.Echo()
    try:
        sent = serveload.WARMUP_REQUESTS
        steps = [serveload.run_step(daemon.port, events, 0, sent, serveload.HIGH)]
        # The stand-in daemon, driven like the chunk it brackets, gives
        # the host's speed for the serve path (see hostspeed).
        speeds = {
            serveload.HIGH: HostSpeed(lambda: echo.paced_ms(serveload.HIGH), echo.PACED_NOMINAL_MS),
            None: HostSpeed(echo.back_to_back_s, echo.TRIPS_NOMINAL_S),
        }
        start = time.perf_counter()
        while len(steps) == 1 or time.perf_counter() - start < ctx.seconds:
            for rate, n in serveload.CYCLE:
                speed = speeds.get(rate)
                if speed:
                    speed.sample()
                steps.append(serveload.run_step(daemon.port, events, sent, n, rate))
                sent += n
                if speed:
                    speed.unit(0.0)  # only its factor is used
                    speed.sample()
        metrics = _serve_checks(out, daemon, events, sent, steps)
        rss = daemon.peak_rss_mb()
    finally:
        echo.stop()
        daemon.stop()
    out.attempted = sent
    out.failed = sum(s.failed for s in steps)
    chunks: dict[Any, list[serveload.Step]] = {}
    for step in steps[1:]:
        chunks.setdefault(step.rate, []).append(step)
    b2b = list(zip(chunks[None], speeds[None].local_factors(), strict=True))
    high = list(zip(chunks[serveload.HIGH], speeds[serveload.HIGH].local_factors(), strict=True))
    max_rate = median(s.achieved_rate / f for s, f in b2b)
    admit_p50 = median(ms * f for s, f in high for ms in s.admit_ms)
    setup_s = fill_s + median(readies)
    out.metrics = end_to_end(setup.scale(setup_s), max_rate, admit_p50, rss)
    report: dict[str, Any] = {
        "max_rate_per_s": max_rate,
        "failed_share": out.failed / sent,
        "day_events": len(events),
        "host": {
            "fill_s": fill_s, "setup_s": setup_s, "setup_speed": setup.factor,
            "max_rate_per_s": median(s.achieved_rate for s, _ in b2b),
            "admit_p50_ms.high": median(ms for s, _ in high for ms in s.admit_ms),
            "echo_back_to_back_s": speeds[None].samples,
            "echo_paced_ms": speeds[serveload.HIGH].samples,
        },
        "serve": metrics["serve"],
    }
    for label, rate in (("low", serveload.LOW), ("high", serveload.HIGH)):
        pooled = chunks[rate]
        report[f"passes.{label}"] = all(s.passes() for s in pooled)
        for kind, attr in (("request", "latencies_ms"), ("admit", "admit_ms")):
            samples = [ms for s in pooled for ms in getattr(s, attr)]
            t = tail(samples)
            report[f"{kind}_p50_ms.{label}"] = median(samples)
            report[f"{kind}_p{t['q'] * 100:g}_ms.{label}"] = t["value"]
            report[f"{kind}_samples.{label}"] = t["n"]
    out.report = report
    return out


def _serve_traced(ctx: Ctx, out: Outcome, store: Path, events) -> Outcome:
    """One step at rate ``high`` against a plain daemon, then the same
    step against a traced one (each after the same warm-up requests)."""
    warm, n, rate = serveload.WARMUP_REQUESTS, serveload.STEP_REQUESTS, serveload.HIGH
    runs = {}
    for traced in (False, True):
        daemon = serveload.start_daemon(store, ROSTER, ctx.work, traced=traced)
        try:
            steps = [serveload.run_step(daemon.port, events, 0, warm, rate)]
            if traced:
                daemon.proc.send_signal(signal.SIGUSR1)
                time.sleep(0.2)
            steps.append(serveload.run_step(daemon.port, events, warm, n, rate))
            snap = None
            if traced:
                daemon.proc.send_signal(signal.SIGUSR2)
                deadline = time.perf_counter() + 30
                while not daemon.snapshot.exists():
                    if time.perf_counter() > deadline:
                        raise RuntimeError("traced daemon wrote no snapshot")
                    time.sleep(0.05)
                snap = json.loads(daemon.snapshot.read_text())
            metrics = _serve_checks(out, daemon, events, warm + n, steps)
        finally:
            daemon.stop()
        out.attempted += warm + n
        out.failed += sum(s.failed for s in steps)
        runs[traced] = (steps[-1], snap, metrics)
    plain = runs[False][0]
    step, snap, metrics = runs[True]
    outside = [c - d for c, d in zip(step.admit_ms, step.daemon_ms)]
    counters = metrics["serve"]
    serve = {
        "serve.daemon_p50_ms": median(step.daemon_ms),
        "serve.daemon_p99_ms": tail(step.daemon_ms)["value"],
        "serve.outside_p50_ms": median(outside),
        "serve.send_lag_p99_ms": tail(step.lags_ms)["value"],
        "serve.requests": _counter(counters, "serve.requests"),
        "serve.errors": _counter(counters, "serve.errors"),
        "serve.replans": _counter(counters, "serve.replans"),
    }
    # Wall: client-observed time from send to response, summed.
    wall = sum(lat - lag for lat, lag in zip(step.latencies_ms, step.lags_ms)) / 1e3
    untraced = sum(lat - lag for lat, lag in zip(plain.latencies_ms, plain.lags_ms)) / 1e3
    out.metrics = layer_metrics(snap, wall, untraced, metrics["cache"], serve)
    return out


def _counter(snapshot: dict, name: str) -> float:
    return float(snapshot["counters"].get(name, 0))


WORKLOADS: dict[str, Callable[[Ctx], Outcome]] = {
    "day-cold": day_cold,
    "day-warm": day_warm,
    "serve-open": serve_open,
    "runall-cold": runall_cold,
}


# -- the per-layer ledger -----------------------------------------------------


def layer_metrics(
    snap: dict[str, Any],
    wall_s: float,
    untraced_s: float,
    cache: dict[str, int],
    serve: "dict[str, float] | None" = None,
) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, from a tracer snapshot.  A layer the
    workload never enters reads 0.  ``*.ms`` and ``*.self_ms`` are self
    time: the layer's own code, its child layers excluded."""
    stats = snap["stats"]

    def st(name: str) -> dict[str, Any]:
        return stats.get(name) or {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "counts": {}, "samples": None}

    def calls(name):
        return float(st(name)["calls"])

    def ms(name):
        return st(name)["self_s"] * 1e3

    def count(name, key):
        return float(st(name)["counts"].get(key, 0))

    def ratio(a, b):
        return a / b if b else 0.0

    m: dict[str, tuple[float, str]] = {}
    m["traffic.generate.ms"] = (ms("traffic.generate"), "ms")

    arrivals = sorted(st("sched.arrival")["samples"] or [])
    m["sched.arrival.calls"] = (calls("sched.arrival"), "count")
    m["sched.arrival.self_ms"] = (ms("sched.arrival"), "ms")
    m["sched.arrival.p50_ms"] = (median(arrivals) * 1e3 if arrivals else 0.0, "ms")
    m["sched.arrival.p95_ms"] = (rank_value(arrivals, 0.95) * 1e3 if arrivals else 0.0, "ms")
    m["sched.departure.calls"] = (calls("sched.departure"), "count")
    m["sched.departure.self_ms"] = (ms("sched.departure"), "ms")
    m["sched.enumerate.calls"] = (calls("sched.enumerate"), "count")
    m["sched.enumerate.candidates"] = (count("sched.enumerate", "candidates"), "count")
    m["sched.enumerate.self_ms"] = (ms("sched.enumerate"), "ms")
    m["sched.state.calls"] = (calls("sched.state"), "count")
    m["sched.state.self_ms"] = (ms("sched.state"), "ms")
    m["sched.drive.self_ms"] = (ms("sched.drive"), "ms")
    scored = count("sched.eval", "scored")
    m["sched.eval.calls"] = (calls("sched.eval"), "count")
    m["sched.eval.layouts"] = (count("sched.eval", "layouts"), "count")
    m["sched.eval.memo_hit_ratio"] = (
        ratio(scored - count("sched.eval", "memo_new"), scored), "ratio"
    )
    m["sched.eval.self_ms"] = (ms("sched.eval"), "ms")

    m["session.fingerprint.calls"] = (calls("session.fingerprint"), "count")
    m["session.fingerprint.ms"] = (ms("session.fingerprint"), "ms")
    m["session.run_scenarios.calls"] = (calls("session.run_scenarios"), "count")
    m["session.run_scenarios.cells"] = (count("session.run_scenarios", "cells"), "count")
    m["session.run_scenarios.self_ms"] = (ms("session.run_scenarios"), "ms")
    m["session.memory_hits"] = (
        float(sum(cache.get(k, 0) for k in ("solo_hits", "corun_hits", "scenario_hits"))), "count"
    )
    m["session.disk_hits"] = (
        float(sum(cache.get(k, 0) for k in ("solo_disk_hits", "corun_disk_hits", "scenario_disk_hits"))),
        "count",
    )
    m["session.misses"] = (float(_misses(cache)), "count")

    m["store.get.calls"] = (calls("store.get"), "count")
    m["store.get.ms"] = (ms("store.get"), "ms")
    m["store.get.hit_ratio"] = (ratio(count("store.get", "hits"), calls("store.get")), "ratio")
    m["store.put.calls"] = (calls("store.put"), "count")
    m["store.put.ms"] = (ms("store.put"), "ms")
    m["store.record.ms"] = (ms("store.record"), "ms")

    cells = count("engine.batch", "cells")
    m["engine.batch.calls"] = (calls("engine.batch"), "count")
    m["engine.batch.cells"] = (cells, "count")
    m["engine.batch.cells_per_call"] = (ratio(cells, calls("engine.batch")), "count")
    m["engine.batch.ms"] = (ms("engine.batch"), "ms")
    m["engine.batch.ms_per_cell"] = (ratio(ms("engine.batch"), cells), "ms")
    m["engine.scalar.calls"] = (calls("engine.scalar"), "count")
    m["engine.scalar.ms"] = (ms("engine.scalar"), "ms")

    artifacts = {k for k in stats if k.startswith("core.artifact.")}
    for name in ARTIFACTS_REPORTED:
        m[f"core.artifact_ms.{name}"] = (ms(f"core.artifact.{name}"), "ms")
    m["core.artifact_ms.other"] = (
        sum(ms(k) for k in artifacts if k.split(".", 2)[2] not in ARTIFACTS_REPORTED), "ms"
    )

    serve = serve or {}
    for key, unit in (
        ("serve.daemon_p50_ms", "ms"), ("serve.daemon_p99_ms", "ms"),
        ("serve.outside_p50_ms", "ms"), ("serve.send_lag_p99_ms", "ms"),
        ("serve.requests", "count"), ("serve.errors", "count"), ("serve.replans", "count"),
    ):
        m[key] = (float(serve.get(key, 0.0)), unit)
    m["serve.handle.self_ms"] = (ms("serve.handle"), "ms")
    m["serve.dispatch.self_ms"] = (ms("serve.dispatch"), "ms")

    covered = sum(s["self_s"] for s in stats.values())
    m["trace.overhead_ratio"] = (ratio(wall_s, untraced_s), "ratio")
    m["trace.coverage"] = (ratio(covered, wall_s), "ratio")
    m["trace.misnested"] = (float(snap["misnested"]), "count")
    return m
