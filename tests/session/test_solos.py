"""Tests for :meth:`Session.solos`, the many-key twin of ``Session.solo``.

``solos(keys)`` must be indistinguishable from ``[solo(k) for k in
keys]`` in everything but wall time:

* the results encode to the same bytes;
* the session's ``CacheStats`` move by the same deltas (a repeated key
  counts as a memory hit, exactly as the loop's second lookup would);
* the ``solo/`` entries written behind to the store are byte-identical;
* with ``engine_batch=False`` every miss takes the scalar ``solo_run``.
"""

import json
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import ExperimentConfig
from repro.engine import BatchCell, IntervalEngine, solve_batch
from repro.session import Session
from repro.store import ResultStore
from repro.store.codec import encode_scenario_result, encode_solo
from repro.workloads.registry import get_profile

ROSTER = ("G-CC", "fotonik3d", "swaptions", "Stream", "CIFAR")
CONFIG = ExperimentConfig(workloads=ROSTER)


def encoded(results):
    return [json.dumps(encode_solo(r), sort_keys=True) for r in results]


def solo_entries(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted((root / "solo").rglob("*"))
        if p.is_file()
    }


def run_both(tmp: Path, keys, *, prepare=None, engine_batch=True, **kw):
    """Resolve ``keys`` once through ``solos`` and once through a loop of
    ``solo`` calls, each in a fresh session over its own store; returns
    ``(batched, sequential)`` as (results, stats delta, store) triples.
    ``prepare(session)`` warms a session's tiers before the measurement."""
    out = []
    for name, resolve in (
        ("batched", lambda s: s.solos(keys, **kw)),
        ("sequential", lambda s: [s.solo(n, threads=t, **kw) for n, t in keys]),
    ):
        root = tmp / name
        session = Session(CONFIG, store=ResultStore(root), engine_batch=engine_batch)
        if prepare is not None:
            prepare(session)
        before = session.stats.snapshot()
        results = resolve(session)
        out.append((results, session.stats.delta_since(before), solo_entries(root)))
    return out


def assert_equivalent(batched, sequential):
    assert encoded(batched[0]) == encoded(sequential[0])
    assert batched[1] == sequential[1]
    assert batched[2] == sequential[2]


@pytest.mark.parametrize(
    "variant",
    ["default", "prefetch-off", "static-llc", "even-llc", "smt"],
)
def test_solos_equal_sequential_solo_calls(tmp_path, variant):
    keys = [(app, t) for app in ROSTER for t in (1, 3, 4, 8)]
    kw = {}
    if variant == "prefetch-off":
        kw["engine_config"] = replace(CONFIG.engine_config, prefetchers_on=False)
    elif variant.endswith("-llc"):
        policy = variant.split("-")[0]
        kw["engine_config"] = replace(CONFIG.engine_config, llc_policy=policy)
    elif variant == "smt":
        kw["spec"] = CONFIG.spec.smt_variant()
    batched, sequential = run_both(tmp_path, keys, **kw)
    assert_equivalent(batched, sequential)
    assert batched[1]["solo_misses"] == len(keys)
    assert len(batched[2]) == len(keys)


def test_duplicate_keys_count_as_memory_hits(tmp_path):
    keys = [("G-CC", 4), ("swaptions", 2), ("G-CC", 4), ("G-CC", 4), ("swaptions", 2)]
    batched, sequential = run_both(tmp_path, keys)
    assert_equivalent(batched, sequential)
    assert batched[1]["solo_misses"] == 2
    assert batched[1]["solo_hits"] == 3
    results = batched[0]
    assert results[0] is results[2] is results[3]
    assert results[1] is results[4]


def test_memory_disk_and_miss_keys_mix(tmp_path):
    warm = tmp_path / "warm"
    Session(CONFIG, store=ResultStore(warm)).solos(
        [("fotonik3d", 4), ("Stream", 1), ("CIFAR", 8)]
    )

    def prepare(session):
        # Disk tier: a copy of the warm store's entries.  Memory tier:
        # two keys resolved in this session (one of them also on disk).
        for rel, data in solo_entries(warm).items():
            path = session.store.root / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(data)
        session.solos([("G-CC", 4), ("Stream", 1)])

    keys = [
        ("G-CC", 4),        # memory
        ("fotonik3d", 4),   # disk
        ("swaptions", 2),   # miss
        ("Stream", 1),      # memory (promoted from disk by prepare)
        ("CIFAR", 8),       # disk
        ("fotonik3d", 4),   # memory: promoted by this very call
        ("G-CC", 1),        # miss
    ]
    batched, sequential = run_both(tmp_path, keys, prepare=prepare)
    assert_equivalent(batched, sequential)
    assert batched[1]["solo_hits"] == 3
    assert batched[1]["solo_disk_hits"] == 2
    assert batched[1]["solo_misses"] == 2


class CountingEngine:
    """Counts the engine entry points a resolution goes through."""

    def __init__(self, monkeypatch):
        self.calls = {"solo_run": 0, "solve_batch": 0}
        for meth in self.calls:
            original = getattr(IntervalEngine, meth)

            def wrapper(engine, *args, _original=original, _meth=meth, **kwargs):
                self.calls[_meth] += 1
                return _original(engine, *args, **kwargs)

            monkeypatch.setattr(IntervalEngine, meth, wrapper)


@pytest.mark.parametrize(
    "engine_batch, keys, solo_runs, batches",
    [
        (False, [("G-CC", 4), ("swaptions", 2), ("Stream", 8)], 3, 0),
        (True, [("G-CC", 4), ("swaptions", 2), ("Stream", 8)], 0, 1),
        (True, [("G-CC", 4), ("G-CC", 4)], 1, 0),  # one miss: scalar
    ],
)
def test_solve_path(monkeypatch, engine_batch, keys, solo_runs, batches):
    engine = CountingEngine(monkeypatch)
    session = Session(CONFIG, engine_batch=engine_batch)
    scalar = Session(CONFIG, engine_batch=False)
    assert encoded(session.solos(keys)) == encoded(
        [scalar.solo(n, threads=t) for n, t in keys]
    )
    assert engine.calls["solve_batch"] == batches
    assert engine.calls["solo_run"] == solo_runs + len(set(keys))


def test_one_app_cell_is_its_own_solo_reference(monkeypatch):
    engine = IntervalEngine(spec=CONFIG.spec, config=CONFIG.engine_config)
    expected = engine.solo_run(get_profile("G-CC"), threads=4)

    def refuse(*_args, **_kwargs):
        raise AssertionError("a 1-app cell must not re-run its solo")

    monkeypatch.setattr(IntervalEngine, "solo_run", refuse)
    (res,) = solve_batch(engine, [BatchCell(profiles=(get_profile("G-CC"),), threads=(4,))])
    assert res.fg_solo_runtime_s == res.fg.runtime_s == expected.runtime_s
    assert res.bg_relative_rates == []


@pytest.mark.parametrize("ways, pins", [((0x3,), None), (None, ((0, 1, 2, 3),))])
def test_restricted_one_app_cell_keeps_the_unrestricted_reference(ways, pins):
    # A masked or pinned app alone is not its own solo run: like the
    # scalar engine, the batch normalizes against the unrestricted run.
    engine = IntervalEngine(spec=CONFIG.spec, config=CONFIG.engine_config)
    prof = get_profile("G-CC")
    (res,) = solve_batch(
        engine, [BatchCell(profiles=(prof,), threads=(4,), llc_ways=ways, pinnings=pins)]
    )
    scalar = engine.scenario_run(
        [prof], [4],
        llc_ways=None if ways is None else list(ways),
        pinnings=None if pins is None else list(pins),
    )
    assert encode_scenario_result(res) == encode_scenario_result(scalar)
    assert res.fg_solo_runtime_s == scalar.fg_solo_runtime_s
    assert res.fg_solo_runtime_s == engine.solo_run(prof, threads=4).runtime_s
    if ways is not None:
        assert res.fg.runtime_s != res.fg_solo_runtime_s


@st.composite
def key_lists(draw):
    return draw(
        st.lists(
            st.tuples(st.sampled_from(ROSTER), st.integers(min_value=1, max_value=8)),
            max_size=10,
        )
    )


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(keys=key_lists(), warm=st.integers(min_value=0, max_value=4))
def test_solos_property(keys, warm):
    # The first ``warm`` keys are resolved beforehand (memory tier), so
    # generated lists mix hits, repeats and misses.
    with tempfile.TemporaryDirectory() as tmp:
        batched, sequential = run_both(
            Path(tmp), keys, prepare=lambda s: s.solos(keys[:warm])
        )
    assert_equivalent(batched, sequential)
