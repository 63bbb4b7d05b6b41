"""Tests for the keying path: digests computed once per immutable value.

Covers three guarantees of :func:`repro.session.base.fingerprint` and
the scenario identities built on it:

* memo safety (property-based): a cached digest always equals a fresh
  one, derivation through ``dataclasses.replace`` never inherits a
  stale digest, and a pickle round trip keeps ``==``, ``hash`` and the
  fingerprint;
* the keying budget: a warm replay hashes each ``MachineSpec`` once
  and each ``Scenario`` object at most once;
* bounded session state: repeated scenario lookups resolve each
  SMT/LLC-policy engine variant once instead of pinning a new memo
  entry per call.
"""

import dataclasses
import hashlib
import json
import pickle
import sys
from collections import Counter
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.session.base as base
from repro.core import ExperimentConfig
from repro.engine.interval import LLC_POLICIES
from repro.machine.spec import MachineSpec, small_test_machine, xeon_e5_4650
from repro.sched import ArrivalTrace, Cluster, Machine, PlacementEvaluator, replay_trace
from repro.session import AppPlacement, Scenario, Session, fingerprint
from repro.store import ResultStore

ROSTER = ("G-CC", "fotonik3d", "swaptions")
NAMES = ("G-CC", "fotonik3d", "swaptions", "Stream", "bfs")


def reference_digest(*parts):
    """The keying formula, computed from scratch (no memo anywhere)."""
    blob = json.dumps(
        [dataclasses.asdict(p) if dataclasses.is_dataclass(p) else p for p in parts],
        sort_keys=True,
        default=str,
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


# -- strategies ---------------------------------------------------------------


@st.composite
def placements(draw):
    return AppPlacement(
        draw(st.sampled_from(NAMES)),
        draw(st.integers(min_value=1, max_value=8)),
        llc_ways=draw(st.none() | st.integers(min_value=1, max_value=(1 << 20) - 1)),
        pinning=draw(
            st.none()
            | st.lists(
                st.integers(min_value=0, max_value=15), min_size=1, max_size=4, unique=True
            ).map(tuple)
        ),
    )


scenarios = st.builds(
    Scenario,
    st.lists(placements(), min_size=1, max_size=4).map(tuple),
    llc_policy=st.sampled_from((None, *LLC_POLICIES)),
    smt=st.booleans(),
)


@st.composite
def machine_specs(draw):
    spec = draw(st.sampled_from((xeon_e5_4650, small_test_machine)))()
    for op in draw(st.lists(st.sampled_from(("cores", "smt", "llc")), max_size=3)):
        if op == "cores":
            spec = dataclasses.replace(spec, n_cores=draw(st.integers(1, 16)))
        elif op == "smt":
            spec = spec.smt_variant()
        else:
            llc = spec.llc
            sets = draw(st.sampled_from((16, 32, 64, 128)))
            spec = spec.scaled_llc(llc.line_bytes * llc.associativity * sets)
    return spec


# -- memo safety --------------------------------------------------------------


class TestScenarioDigestMemo:
    @given(scenarios)
    @settings(max_examples=80, deadline=None)
    def test_cached_digest_equals_fresh(self, s):
        first = s.fingerprint
        assert s.fingerprint == first  # served from the instance cache
        assert first == reference_digest("scenario", s.payload())
        assert Scenario.from_payload(s.payload()).fingerprint == first

    @given(scenarios, st.sampled_from(LLC_POLICIES))
    @settings(max_examples=80, deadline=None)
    def test_derived_values_never_inherit_a_digest(self, s, policy):
        warm = s.fingerprint
        for derived in (
            dataclasses.replace(s, smt=not s.smt),
            s.with_policy(policy),
            s.with_ways(None),
            s.with_pinning(None),
            dataclasses.replace(s, placements=s.placements[::-1]),
        ):
            fresh = reference_digest("scenario", derived.payload())
            assert derived.fingerprint == fresh
            assert (fresh == warm) == (derived.payload() == s.payload())

    @given(scenarios, st.sampled_from(LLC_POLICIES))
    @settings(max_examples=80, deadline=None)
    def test_canonical_matches_an_explicit_policy(self, s, policy):
        canon = s.canonical(policy)
        assert canon is s.canonical(policy)  # built once per policy
        expected = s if s.llc_policy == policy else s.with_policy(policy)
        assert canon == expected
        assert canon.fingerprint == reference_digest("scenario", expected.payload())

    @given(scenarios, st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_pickle_round_trip_keeps_identity(self, s, warm_first):
        if warm_first:
            _ = s.fingerprint
        back = pickle.loads(pickle.dumps(s))
        assert back == s
        assert hash(back) == hash(s)
        assert back.fingerprint == s.fingerprint
        assert back.payload() == s.payload()


class TestSpecDigestMemo:
    @given(machine_specs())
    @settings(max_examples=60, deadline=None)
    def test_cached_digest_equals_fresh(self, spec):
        first = fingerprint(spec)
        assert fingerprint(spec) == first
        assert first == reference_digest(spec)
        assert fingerprint(dataclasses.replace(spec)) == first

    @given(machine_specs(), st.integers(2, 32))
    @settings(max_examples=60, deadline=None)
    def test_derived_specs_never_inherit_a_digest(self, spec, cores):
        _ = fingerprint(spec)
        llc = spec.llc
        for derived in (
            dataclasses.replace(spec, n_cores=cores),
            spec.smt_variant(),
            spec.scaled_llc(llc.line_bytes * llc.associativity * 8),
        ):
            assert fingerprint(derived) == reference_digest(derived)
            assert (fingerprint(derived) == fingerprint(spec)) == (derived == spec)

    @given(machine_specs(), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_pickle_round_trip_keeps_identity(self, spec, warm_first):
        if warm_first:
            _ = fingerprint(spec)
        back = pickle.loads(pickle.dumps(spec))
        assert back == spec
        assert hash(back) == hash(spec)
        assert fingerprint(back) == fingerprint(spec) == reference_digest(spec)

    def test_memo_is_invisible_to_value_semantics(self):
        spec = xeon_e5_4650()
        before = (dataclasses.asdict(spec), repr(spec), hash(spec))
        fingerprint(spec)
        assert (dataclasses.asdict(spec), repr(spec), hash(spec)) == before
        assert spec == xeon_e5_4650()

    def test_mutable_and_composite_keys_are_never_cached(self):
        config = ExperimentConfig(workloads=ROSTER)  # a mutable dataclass
        first = fingerprint(config)
        config.threads = 2
        assert fingerprint(config) != first
        assert fingerprint(config) == reference_digest(config)
        spec = small_test_machine()
        assert fingerprint(spec, "x") == reference_digest(spec, "x")


# -- keying budget ------------------------------------------------------------


class _DigestSpy:
    """Counts the digests actually computed (SHA-256 runs of the keying
    function), attributed to the value being keyed."""

    def __init__(self, monkeypatch):
        self.computed = 0
        self.specs: Counter = Counter()
        self.scenarios: Counter = Counter()
        self._alive: list = []  # keeps ids unique for the whole replay
        real_sha = hashlib.sha256

        def sha256(data=b""):
            self.computed += 1
            return real_sha(data)

        monkeypatch.setattr(base, "hashlib", SimpleNamespace(sha256=sha256))

        real_fp = base.fingerprint

        def spy_fingerprint(*parts):
            before = self.computed
            digest = real_fp(*parts)
            if self.computed > before and len(parts) == 1:
                if isinstance(parts[0], MachineSpec):
                    self._alive.append(parts[0])
                    self.specs[id(parts[0])] += 1
            return digest

        for name, module in list(sys.modules.items()):
            if module is None or not name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is real_fp:
                    monkeypatch.setattr(module, attr, spy_fingerprint)

        real_prop = Scenario.fingerprint

        def scenario_fingerprint(s):
            before = self.computed
            digest = real_prop.fget(s)
            if self.computed > before:
                self._alive.append(s)
                self.scenarios[id(s)] += 1
            return digest

        monkeypatch.setattr(Scenario, "fingerprint", property(scenario_fingerprint))


class TestKeyingBudget:
    def _replay(self, store_root, spec):
        session = Session(
            ExperimentConfig(workloads=ROSTER, threads=4, jitter=0.0, spec=spec),
            store=ResultStore(store_root),
        )
        evaluator = PlacementEvaluator(session)
        # One plain and one SMT machine: the SMT one is scored through a
        # sibling session, so both spec shapes go through the keying path.
        cluster = Cluster((Machine("m0", spec), Machine("m1", spec.smt_variant())))
        trace = ArrivalTrace.synthetic(
            ROSTER, seed=3, arrivals=10, threads=2, mean_gap_s=1.0
        ).with_departures(fraction=0.3, seed=3)
        report = replay_trace(trace, evaluator, cluster=cluster, replan=True)
        return report, evaluator.cache_stats()

    def test_warm_replay_keys_each_value_once(self, tmp_path, monkeypatch):
        cold, _ = self._replay(tmp_path / "st", xeon_e5_4650())
        spy = _DigestSpy(monkeypatch)
        warm, stats = self._replay(tmp_path / "st", xeon_e5_4650())
        assert warm.decision_log() == cold.decision_log()
        assert sum(v for k, v in stats.items() if k.endswith("_misses")) == 0
        assert stats["scenario_disk_hits"] > 0  # the N-way store path ran
        # Two distinct machine shapes, each hashed exactly once.
        assert sorted(spy.specs.values()) == [1, 1]
        # Every Scenario object keyed at most once, and there were some.
        assert spy.scenarios
        assert max(spy.scenarios.values()) == 1


# -- bounded session state ----------------------------------------------------


class TestEngineVariants:
    def test_repeated_lookups_keep_engine_memo_constant(self):
        session = Session(
            ExperimentConfig(
                workloads=ROSTER, threads=1, jitter=0.0, spec=small_test_machine(4)
            )
        )
        batch = [
            Scenario.pair("G-CC", "swaptions", threads=1, llc_policy="even"),
            Scenario.of("G-CC:1", "fotonik3d:1", "swaptions:1", smt=True),
            Scenario.of("G-CC:1", "fotonik3d:1", llc_policy="static", smt=True),
            Scenario.pair("G-CC", "fotonik3d", threads=1),
        ]
        first = session.run_scenarios(batch)
        size = len(session._engine_fps)
        for _ in range(25):
            again = session.run_scenarios(batch)
            for s in batch:
                session.run_scenario(s)
        assert len(session._engine_fps) == size
        assert [r.result for r in again] == [r.result for r in first]
