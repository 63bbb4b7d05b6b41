"""Tests for the benchmark itself: ``python -m pytest perfbench -q``."""

from __future__ import annotations

import asyncio
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import serveload  # noqa: E402
import workloads  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from stats import MIN_BEYOND, tail  # noqa: E402
from tracer import LayerTracer, install_layers, snapshot  # noqa: E402


# -- the percentile rule ------------------------------------------------------


@pytest.mark.parametrize(
    "n, q",
    [(1000, 0.99), (999, 0.95), (200, 0.95), (199, 0.90), (100, 0.90), (99, 0.50), (20, 0.50)],
)
def test_tail_picks_highest_percentile_with_ten_beyond(n, q):
    samples = [float(i) for i in range(n, 0, -1)]  # unsorted input
    t = tail(samples)
    assert t["q"] == q
    assert t["n"] == n
    beyond = sum(1 for s in samples if s > t["value"])
    assert beyond >= MIN_BEYOND
    # Nearest rank: the value sits at rank ceil(q * n).
    assert t["value"] == float(-(-q * n // 1))


def test_tail_refuses_too_few_samples():
    assert tail([1.0] * 19) is None


# -- host speed ---------------------------------------------------------------


def test_host_speed_scales_each_unit_by_the_samples_around_it():
    refs = iter([0.04, 0.08, 0.02])
    speed = HostSpeed(lambda: next(refs), 0.04)
    speed.sample()
    speed.unit(1.0)
    speed.sample()
    speed.unit(2.0)
    speed.sample()
    assert speed.local_factors() == pytest.approx([0.08 / 0.12, 0.08 / 0.10])
    assert speed.scaled_units() == pytest.approx([0.08 / 0.12, 1.6])
    with pytest.raises(RuntimeError):
        HostSpeed().unit(1.0)


def test_echo_reference_answers_and_stops():
    echo = serveload.Echo()
    try:
        assert echo.back_to_back_s() > 0
        assert echo.paced_ms(serveload.HIGH) > 0
    finally:
        echo.stop()
    assert echo.proc.returncode == 0


# -- the tracer ---------------------------------------------------------------


def _bindings():
    """Every name the tracer rebinds, with its current object."""
    import repro.engine
    import repro.engine.batch
    import repro.sched.driver
    import repro.sched.policy
    import repro.session.base

    originals = {
        repro.session.base.fingerprint,
        repro.engine.batch.solve_batch,
        repro.sched.driver.drive_trace,
        repro.sched.policy.enumerate_candidates,
        repro.sched.policy.enumerate_layouts,
    }
    found = {}
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("repro"):
            continue
        for attr, value in vars(module).items():
            if any(value is o for o in originals):
                found[(name, attr)] = value
    from repro.sched.driver import LocalPort
    from repro.sched.scheduler import Scheduler
    from repro.session.session import Session
    from repro.store.store import ResultStore

    for cls in (LocalPort, Scheduler, Session, ResultStore):
        for attr, value in vars(cls).items():
            if callable(value):
                found[(cls.__qualname__, attr)] = value
    return found


def test_layers_rebind_every_named_site_and_restore_all():
    import repro.cli  # noqa: F401  (import every module that binds a name)

    before = _bindings()
    with LayerTracer() as tracer:
        sites = install_layers(tracer)
        fp = set(sites["session.fingerprint"])
        for site in (
            "repro.session.base.fingerprint",
            "repro.session.fingerprint",
            "repro.sched.score.fingerprint",
            "repro.session.session.fingerprint",
            "repro.session.scenario.fingerprint",
            "repro.store.store.fingerprint",
            "repro.store.manifest.fingerprint",
            "repro.sched.trace._fingerprint",
        ):
            assert site in fp, site
        assert "repro.engine.solve_batch" in sites["engine.batch"]
        import repro.session.base

        assert hasattr(repro.session.base.fingerprint, "__perfbench_original__")
    after = _bindings()
    changed = [k for k in before if after[k] is not before[k]]
    assert not changed, changed
    left = [k for k, v in after.items() if hasattr(v, "__perfbench_original__")]
    assert not left, left


def test_async_wrapper_times_the_awaited_work():
    tracer = LayerTracer()

    async def slow():
        await asyncio.sleep(0.05)
        return 7

    async def outer():
        return await wrapped()

    wrapped = tracer.wrap(slow, "inner")
    assert asyncio.iscoroutinefunction(wrapped)
    outer_wrapped = tracer.wrap(outer, "outer")
    assert asyncio.run(outer_wrapped()) == 7
    inner, outer_st = tracer.stats["inner"], tracer.stats["outer"]
    assert inner.self_s >= 0.045
    # The parent's self time excludes the child's.
    assert outer_st.incl_s >= inner.incl_s
    assert outer_st.self_s < 0.01


def test_traced_day_keeps_the_correctness_digest(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "DAY_RATE", 3.0)

    def digest_of(store: Path) -> str:
        _, record, _ = workloads._day(workloads._session(store), 11)
        return workloads._payload_digest(record)

    plain = digest_of(tmp_path / "plain")
    with LayerTracer() as tracer:
        install_layers(tracer)
        traced = digest_of(tmp_path / "traced")
        snap = snapshot(tracer)
    assert traced == plain
    assert snap["misnested"] == 0
    for layer in ("sched.arrival", "sched.state", "sched.eval", "session.fingerprint", "store.put"):
        assert snap["stats"][layer]["calls"] > 0, layer
    # LocalPort.state is a coroutine: its wrapper must see real time.
    assert snap["stats"]["sched.state"]["self_s"] > 0


# -- the serve-open event sequence --------------------------------------------


def test_serve_event_sequence_is_byte_identical_for_a_seed(tmp_path, monkeypatch):
    monkeypatch.setattr(serveload, "DAY_RATE", 4.0)
    store = tmp_path / "store"
    cold = workloads.serve_events(workloads._session(store), 3)
    warm = workloads.serve_events(workloads._session(store), 3)
    fresh = workloads.serve_events(workloads._session(tmp_path / "other"), 3)
    assert cold

    def wire(events) -> bytes:
        return b"".join(ev.request() for ev in events)

    assert wire(cold) == wire(warm) == wire(fresh)
    assert [e.decisions for e in cold] == [e.decisions for e in fresh]
    # Only admitted tenants depart, each after its arrival.
    admitted = {
        e.body["tenant"] for e in cold if e.path == "/arrivals" and e.decisions[0]["admitted"]
    }
    departed = [e.body["tenant"] for e in cold if e.path == "/departures"]
    assert sorted(departed) == sorted(admitted)


# -- the command --------------------------------------------------------------


def test_benchmark_json_matches_what_the_command_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(workloads.END_TO_END)
    layers = workloads.layer_metrics({"stats": {}, "misnested": 0}, 1.0, 1.0, {})
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, (_, unit) in layers.items()
    ]
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)


def _run(args, cwd, **env):
    return subprocess.run(
        [sys.executable, str(Path(__file__).with_name("run.py")), *args],
        cwd=cwd,
        env={**os.environ, **env},
        capture_output=True,
        text=True,
        timeout=60,
    )


def test_refuses_a_non_default_engine():
    proc = _run(
        ["--workload", "day-cold", "--seed", "0", "--seconds", "1"],
        ROOT,
        REPRO_ENGINE_BATCH="0",
    )
    assert proc.returncode == 2
    assert "REPRO_ENGINE_BATCH" in proc.stderr
    assert proc.stdout == ""


def test_fails_without_the_program(tmp_path):
    t0 = time.perf_counter()
    proc = _run(["--workload", "day-cold", "--seed", "0", "--seconds", "1"], tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert time.perf_counter() - t0 < 30
