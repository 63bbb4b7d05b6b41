"""The Session: shared measurement state for all paper artifacts.

A :class:`Session` owns everything the eleven experiment runners used
to construct privately:

* the :class:`~repro.machine.spec.MachineSpec` and memoized
  :class:`~repro.engine.interval.IntervalEngine` instances (one per
  engine configuration, keyed by fingerprint);
* a cross-experiment **solo cache** keyed by
  ``workload x threads x engine fingerprint`` — Fig 2, Fig 3, Fig 5 and
  Table III all reuse the same 25 solo references instead of
  recomputing them per artifact;
* a cross-experiment **co-run cache** keyed by
  ``fg x bg x split x engine fingerprint`` — Table III's five pairs and
  Fig 8's offender cells are free once the Fig 5 sweep ran;
* the seeded :class:`~repro.core.experiment.Jitter` model, keyed
  per-measurement so results do not depend on iteration order (which is
  what makes the parallel executor bit-identical to the serial one);
* a pluggable :class:`~repro.session.executors.Executor` that fans the
  independent sweep cells out over a process or thread pool;
* optionally a persistent :class:`~repro.store.store.ResultStore`
  (``Session(config, store=...)``): solo/co-run lookups read through
  the disk tier, fresh simulations write behind to it, and every
  executed artifact's record streams into the store's index — a cold
  process over a warm store never re-simulates.

Usage::

    from repro import ExperimentConfig, Session

    session = Session(ExperimentConfig())
    fig5 = session.run("fig5")            # 625-pair sweep
    table3 = session.run("table3")        # solo + pair co-runs all cached
    print(fig5.result.render_fig5())
    everything = session.run_all()        # every paper artifact, one pass
"""

from __future__ import annotations

import inspect
import logging
import os
import time
from dataclasses import asdict, dataclass
from typing import Any, Iterable

from repro.core.experiment import ExperimentConfig, Jitter
from repro.engine import (
    BatchCell,
    CoRunResult,
    EngineConfig,
    IntervalEngine,
    ScenarioRunResult,
    SoloRunResult,
)
from repro.machine.spec import MachineSpec
from repro.session.base import fingerprint
from repro.session.executors import Executor, resolve_executor
from repro.session.record import RunRecord
from repro.session.registry import get_runner, runner_names
from repro.session.scenario import (
    Scenario,
    ScenarioResult,
    _ScenarioBatchTask,
    _ScenarioTask,
    run_scenario_batch_task,
    run_scenario_task,
    scenario_engine_parts,
    scenario_pinnings,
    scenario_way_masks,
)
from repro.telemetry.tracer import get_tracer
from repro.workloads.base import WorkloadProfile
from repro.workloads.registry import get_profile

__all__ = ["CacheStats", "Session", "fingerprint"]

logger = logging.getLogger(__name__)

def _served_tier(delta: dict[str, int]) -> str:
    """Which cache tier answered one lookup, judged from a CacheStats
    delta: any simulation makes it ``engine``, else ``disk``, else
    ``memory``.  Uncacheable scenarios move no counters but always
    simulate, so the fall-through default is ``engine`` too."""
    if any(
        delta.get(k, 0) > 0
        for k in ("solo_misses", "corun_misses", "scenario_misses")
    ):
        return "engine"
    if any(
        delta.get(k, 0) > 0
        for k in ("solo_disk_hits", "corun_disk_hits", "scenario_disk_hits")
    ):
        return "disk"
    if any(delta.get(k, 0) > 0 for k in ("solo_hits", "corun_hits", "scenario_hits")):
        return "memory"
    return "engine"


@dataclass
class CacheStats:
    """Hit/miss economics of a session's shared caches.

    ``*_hits`` count in-memory hits, ``*_disk_hits`` count results
    served from an attached :class:`~repro.store.store.ResultStore`
    (read-through), and ``*_misses`` count actual simulations.  The
    ``corun_*`` counters cover 2-app scenarios too (pair scenarios
    bridge onto the legacy co-run key space); ``scenario_*`` counters
    cover N >= 3 apps and SMT/policy shapes with no pair key.
    """

    solo_hits: int = 0
    solo_misses: int = 0
    corun_hits: int = 0
    corun_misses: int = 0
    solo_disk_hits: int = 0
    corun_disk_hits: int = 0
    scenario_hits: int = 0
    scenario_misses: int = 0
    scenario_disk_hits: int = 0

    def snapshot(self) -> dict[str, int]:
        return dict(asdict(self))

    def delta_since(self, before: dict[str, int]) -> dict[str, int]:
        return {k: v - before[k] for k, v in asdict(self).items()}


def _resolve_store(value: Any) -> Any:
    """Normalize a store argument: ResultStore instance, path, or None.

    Imported lazily — :mod:`repro.store` depends on this module for
    :func:`fingerprint`, so the dependency must stay one-directional at
    import time.
    """
    if value is None:
        return None
    from repro.store import ResultStore

    if isinstance(value, ResultStore):
        return value
    return ResultStore(value)


def _strip_default_kwargs(runner: Any, kwargs: dict[str, Any]) -> dict[str, Any]:
    """Drop kwargs that merely restate the runner's execute defaults, so
    ``run("fig2")`` and ``run("fig2", max_threads=8)`` share one memo."""
    sig = inspect.signature(runner.execute)
    out: dict[str, Any] = {}
    for key, value in kwargs.items():
        param = sig.parameters.get(key)
        if param is not None and param.default is not inspect.Parameter.empty:
            try:
                if value is param.default or value == param.default:
                    continue
            except Exception:
                pass  # incomparable value: keep it
        out[key] = value
    return out


class Session:
    """Shared substrate every artifact runner executes through."""

    def __init__(
        self,
        config: ExperimentConfig | None = None,
        *,
        executor: Executor | str | None = None,
        store: "Any | None" = None,
        chunksize: int | None = None,
        engine_batch: bool | None = None,
    ) -> None:
        self.config = config if config is not None else ExperimentConfig()
        self.executor = resolve_executor(executor)
        self.stats = CacheStats()
        #: Default chunk size for scenario fan-outs; ``None`` picks an
        #: automatic chunk from the task and worker counts (see
        #: :meth:`run_scenarios`).
        self.chunksize = chunksize
        if engine_batch is None:
            engine_batch = os.environ.get("REPRO_ENGINE_BATCH", "1") != "0"
        #: Solve cache-missing scenario fan-outs through the stacked
        #: batch engine (:func:`repro.engine.solve_batch`) instead of
        #: one scalar solve per cell.  Defaults on; the
        #: ``REPRO_ENGINE_BATCH=0`` escape hatch restores the scalar
        #: path (results are bit-identical either way).
        self.engine_batch = bool(engine_batch)
        #: Every RunRecord produced by this session, in execution order.
        self.records: list[RunRecord] = []
        #: Optional persistent ResultStore: solo/co-run lookups read
        #: through it, fresh simulations write behind to it, and every
        #: executed artifact's record is streamed into it.
        self.store = _resolve_store(store)
        self._engines: dict[str, IntervalEngine] = {}
        # Engine fingerprints memoized by config/spec object identity:
        # hashing a full MachineSpec asdict per lookup dominates sweep
        # planning otherwise.  Values keep strong references to the
        # keyed objects so ids can never be recycled underneath us
        # (configs are value objects — derivation goes through
        # dataclasses.replace, never in-place mutation).
        self._engine_fps: dict[tuple[int, int], tuple[str, Any, Any]] = {}
        # (smt, llc_policy) -> the (spec, engine config) a scenario of
        # that shape runs under, resolved once: scenario_engine_parts
        # derives fresh variant objects per call, and each would pin a
        # new _engine_fps entry.
        self._variants: dict[
            tuple[bool, str | None], tuple[MachineSpec, EngineConfig]
        ] = {}
        self._solos: dict[tuple[str, str, int], SoloRunResult] = {}
        self._coruns: dict[tuple[str, str, str, int, int], CoRunResult] = {}
        #: N-way scenario cache keyed by (engine_fp, scenario fingerprint);
        #: 2-app scenarios bridge onto ``_coruns`` instead.
        self._scenarios: dict[tuple[str, str], ScenarioRunResult] = {}
        self._artifacts: dict[tuple[str, str], RunRecord] = {}
        # Keys promoted from disk by a peek and not yet consumed by
        # co_run / run_scenario — lets the consuming lookup skip the hit
        # counter, so one disk-served measurement is counted exactly once.
        self._disk_promoted: set[tuple[str, str, str, int, int]] = set()
        self._scenario_promoted: set[tuple[str, str]] = set()

    # -- machine / engine ---------------------------------------------------

    @property
    def spec(self):
        """The shared machine specification."""
        return self.config.spec

    def spec_fingerprint(self) -> str:
        return fingerprint(self.spec)

    def engine_fingerprint(
        self,
        engine_config: EngineConfig | None = None,
        spec: MachineSpec | None = None,
    ) -> str:
        cfg = engine_config if engine_config is not None else self.config.engine_config
        sp = spec if spec is not None else self.spec
        key = (id(cfg), id(sp))
        hit = self._engine_fps.get(key)
        if hit is not None:
            return hit[0]
        fp = fingerprint(sp, cfg)
        self._engine_fps[key] = (fp, cfg, sp)
        return fp

    def engine(
        self,
        engine_config: EngineConfig | None = None,
        spec: MachineSpec | None = None,
    ) -> IntervalEngine:
        """Memoized engine for a (spec, engine config) pair; both default
        to the session's own."""
        cfg = engine_config if engine_config is not None else self.config.engine_config
        fp = self.engine_fingerprint(cfg, spec)
        if fp not in self._engines:
            self._engines[fp] = IntervalEngine(
                spec=spec if spec is not None else self.spec, config=cfg
            )
        return self._engines[fp]

    # -- shared measurement caches -----------------------------------------

    def solo(
        self,
        name: str,
        *,
        threads: int,
        engine_config: EngineConfig | None = None,
        profile: WorkloadProfile | None = None,
        spec: MachineSpec | None = None,
    ) -> SoloRunResult:
        """Solo run, cached across every artifact of this session.

        Lookup order: in-memory cache, then the attached store (disk
        hit), then simulation — which writes behind to both.  Explicit
        ``profile`` overrides bypass the disk tier: the store keys by
        name, and only registry-resolved profiles are guaranteed stable
        under one engine fingerprint.  This is the one-key case of
        :meth:`solos`.
        """
        return self._resolve_solos(
            [(name, threads, profile)], engine_config, spec
        )[0]

    def solos(
        self,
        keys: "Iterable[tuple[str, int]]",
        *,
        engine_config: EngineConfig | None = None,
        spec: MachineSpec | None = None,
    ) -> list[SoloRunResult]:
        """Many solo runs at once, one result per ``(workload, threads)``
        key in key order: the many-key twin of :meth:`solo`.

        Each key is looked up exactly as :meth:`solo` would in a loop
        (a repeated key counts as a memory hit), and the misses are
        simulated together: one stacked :func:`repro.engine.solve_batch`
        call when more than one key misses and ``engine_batch`` is on,
        else one scalar solve per key.  Results are bit-identical either
        way and write behind to memory and the store.
        """
        return self._resolve_solos(
            [(name, threads, None) for name, threads in keys], engine_config, spec
        )

    def _resolve_solos(
        self,
        keys: "list[tuple[str, int, WorkloadProfile | None]]",
        engine_config: EngineConfig | None,
        spec: MachineSpec | None,
    ) -> list[SoloRunResult]:
        engine_fp = self.engine_fingerprint(engine_config, spec)
        missing: "dict[tuple[str, int], WorkloadProfile | None]" = {}
        for name, threads, profile in keys:
            key = (engine_fp, name, threads)
            if key in self._solos or (name, threads) in missing:
                self.stats.solo_hits += 1
                continue
            if self.store is not None and profile is None:
                disk = self.store.get_solo(engine_fp, name, threads)
                if disk is not None:
                    self.stats.solo_disk_hits += 1
                    self._solos[key] = disk
                    continue
            missing[(name, threads)] = profile
        if missing:
            self.stats.solo_misses += len(missing)
            runs = [
                (prof if prof is not None else get_profile(name), threads)
                for (name, threads), prof in missing.items()
            ]
            engine = self.engine(engine_config, spec)
            if self.engine_batch and len(runs) > 1:
                cells = [BatchCell(profiles=(prof,), threads=(t,)) for prof, t in runs]
                results = [
                    SoloRunResult(metrics=res.fg, timeline=res.timeline)
                    for res in engine.solve_batch(cells)
                ]
            else:
                results = [engine.solo_run(prof, threads=t) for prof, t in runs]
            for ((name, threads), profile), res in zip(missing.items(), results):
                self._solos[(engine_fp, name, threads)] = res
                if self.store is not None and profile is None:
                    self.store.put_solo(engine_fp, name, threads, res)
        return [self._solos[(engine_fp, name, threads)] for name, threads, _ in keys]

    def solo_runtime(
        self,
        name: str,
        *,
        threads: int,
        engine_config: EngineConfig | None = None,
        spec: MachineSpec | None = None,
    ) -> float:
        """Solo runtime (seconds)."""
        return self.solo(
            name, threads=threads, engine_config=engine_config, spec=spec
        ).runtime_s

    def solo_rate(
        self,
        name: str,
        *,
        threads: int,
        engine_config: EngineConfig | None = None,
        spec: MachineSpec | None = None,
    ) -> float:
        """Solo instruction throughput (instructions / second)."""
        res = self.solo(name, threads=threads, engine_config=engine_config, spec=spec)
        return res.metrics.total.instructions / res.runtime_s

    def _corun_key(
        self,
        fg: str,
        bg: str,
        threads: int | None,
        bg_threads: int | None,
        engine_config: EngineConfig | None,
        spec: MachineSpec | None = None,
    ) -> tuple[str, str, str, int, int]:
        fg_t = threads if threads is not None else self.config.threads
        bg_t = bg_threads if bg_threads is not None else fg_t
        return (self.engine_fingerprint(engine_config, spec), fg, bg, fg_t, bg_t)

    def cached_co_run(
        self,
        fg: str,
        bg: str,
        *,
        threads: int | None = None,
        bg_threads: int | None = None,
        engine_config: EngineConfig | None = None,
        spec: MachineSpec | None = None,
    ) -> CoRunResult | None:
        """Peek the co-run caches without simulating.

        Memory peeks record no stats; a disk peek that finds the result
        promotes it into the in-memory cache and counts one disk hit
        (the fan-out planners use this, so cells already persisted are
        never shipped to workers).  The promoted key is remembered so
        the consuming :meth:`co_run` lookup does not count the same
        measurement a second time as a memory hit.
        """
        key = self._corun_key(fg, bg, threads, bg_threads, engine_config, spec)
        hit = self._coruns.get(key)
        if hit is None and self.store is not None:
            hit = self.store.get_corun(key[0], fg, bg, key[3], key[4])
            if hit is not None:
                self.stats.corun_disk_hits += 1
                self._coruns[key] = hit
                self._disk_promoted.add(key)
        return hit

    def store_co_run(
        self,
        fg: str,
        bg: str,
        result: CoRunResult,
        *,
        threads: int | None = None,
        bg_threads: int | None = None,
        engine_config: EngineConfig | None = None,
        spec: MachineSpec | None = None,
    ) -> None:
        """Insert an externally computed co-run (e.g. from a pool worker)
        into the shared cache; counted as a miss, since it was simulated."""
        self.stats.corun_misses += 1
        key = self._corun_key(fg, bg, threads, bg_threads, engine_config, spec)
        self._coruns[key] = result
        if self.store is not None:
            self.store.put_corun(key[0], fg, bg, key[3], key[4], result)

    def co_run(
        self,
        fg: str,
        bg: str,
        *,
        threads: int | None = None,
        bg_threads: int | None = None,
        engine_config: EngineConfig | None = None,
        spec: MachineSpec | None = None,
    ) -> CoRunResult:
        """Consolidation co-run, cached across every artifact.

        Solo references (fg runtime, bg rate) come from the shared solo
        cache, so the same floats feed every caller — serial loops,
        parallel workers and later artifacts all see identical results.
        """
        fg_t = threads if threads is not None else self.config.threads
        bg_t = bg_threads if bg_threads is not None else fg_t
        key = self._corun_key(fg, bg, threads, bg_threads, engine_config, spec)
        hit = self._coruns.get(key)
        if hit is not None:
            if key in self._disk_promoted:
                self._disk_promoted.discard(key)  # already counted as a disk hit
            else:
                self.stats.corun_hits += 1
            return hit
        # Disk tier: cached_co_run owns the lookup-and-promote logic.
        promoted = self.cached_co_run(
            fg,
            bg,
            threads=threads,
            bg_threads=bg_threads,
            engine_config=engine_config,
            spec=spec,
        )
        if promoted is not None:
            self._disk_promoted.discard(key)
            return promoted
        self.stats.corun_misses += 1
        res = self.engine(engine_config, spec).co_run(
            get_profile(fg),
            get_profile(bg),
            threads=fg_t,
            bg_threads=bg_t,
            fg_solo_runtime_s=self.solo_runtime(
                fg, threads=fg_t, engine_config=engine_config, spec=spec
            ),
            bg_solo_rate=self.solo_rate(
                bg, threads=bg_t, engine_config=engine_config, spec=spec
            ),
        )
        self._coruns[key] = res
        if self.store is not None:
            self.store.put_corun(key[0], fg, bg, key[3], key[4], res)
        return res

    # -- scenarios ----------------------------------------------------------

    def _scenario_parts(
        self, scenario: Scenario
    ) -> tuple[str, EngineConfig, MachineSpec | None, Scenario]:
        """(engine_fp, engine_config, spec override, canonical scenario).

        The canonical scenario collapses ``llc_policy=None`` onto the
        *effective* engine policy, so the session default and the same
        policy named explicitly share one cache identity — a
        ``policy_ablation`` never re-simulates the default cell.  Both
        the engine variant and the canonical scenario are resolved once
        (per session and per scenario object respectively), so a cell
        is keyed once however many lookups its call chain makes.
        """
        variant = (scenario.smt, scenario.llc_policy)
        parts = self._variants.get(variant)
        if parts is None:
            parts = self._variants[variant] = scenario_engine_parts(
                self.config, scenario
            )
        spec, cfg = parts
        spec_override = spec if scenario.smt else None
        canon = scenario.canonical(cfg.llc_policy)
        return self.engine_fingerprint(cfg, spec_override), cfg, spec_override, canon

    def _scenario_solo_refs(
        self,
        scenario: Scenario,
        engine_config: EngineConfig,
        spec: MachineSpec | None,
    ) -> tuple[float, tuple[float, ...]]:
        """Resolve a scenario's solo references through the shared cache
        (honouring per-placement overrides), so serial loops and pool
        workers all see identical floats."""
        fg = scenario.placements[0]
        fg_runtime = self.solo(
            fg.workload,
            threads=fg.threads,
            engine_config=engine_config,
            profile=fg.profile,
            spec=spec,
        ).runtime_s
        rates: list[float] = []
        for p in scenario.placements[1:]:
            if p.solo_rate_override is not None:
                rates.append(p.solo_rate_override)
                continue
            solo = self.solo(
                p.workload,
                threads=p.threads,
                engine_config=engine_config,
                profile=p.profile,
                spec=spec,
            )
            rates.append(solo.metrics.total.instructions / solo.runtime_s)
        return fg_runtime, tuple(rates)

    def scenario_identity(self, scenario: Scenario) -> tuple[str, str, str]:
        """``(engine_fingerprint, scenario_fingerprint, cache_tier)`` —
        the persistent identity a cacheable scenario's result lives
        under in any store sharing this session's configuration.

        ``cache_tier`` is ``"corun"`` for 2-app scenarios (they bridge
        onto the legacy pair key space) and ``"scenario"`` for every
        other shape.  This is the per-cell provenance the
        ``scenario-set`` campaign artifact records.
        """
        engine_fp, _, _, canon = self._scenario_parts(scenario)
        tier = "corun" if scenario.corun_key() is not None else "scenario"
        return engine_fp, canon.fingerprint, tier

    def cached_scenario(self, scenario: Scenario) -> ScenarioRunResult | None:
        """Peek the scenario caches without simulating.

        2-app scenarios bridge to the legacy co-run caches
        (:meth:`cached_co_run`), so a warm store written before the
        scenario redesign serves them unchanged; N-way scenarios use
        the scenario-fingerprint-keyed tier.  Disk peeks promote into
        memory and count one disk hit, exactly like co-runs.
        """
        if not scenario.cacheable:
            return None
        engine_fp, engine_config, spec, canon = self._scenario_parts(scenario)
        pair = scenario.corun_key()
        if pair is not None:
            fg, bg, fg_t, bg_t = pair
            hit = self.cached_co_run(
                fg,
                bg,
                threads=fg_t,
                bg_threads=bg_t,
                engine_config=engine_config,
                spec=spec,
            )
            return None if hit is None else ScenarioRunResult.from_corun(hit)
        key = (engine_fp, canon.fingerprint)
        hit = self._scenarios.get(key)
        if hit is None and self.store is not None:
            hit = self.store.get_scenario(engine_fp, canon)
            if hit is not None:
                self.stats.scenario_disk_hits += 1
                self._scenarios[key] = hit
                self._scenario_promoted.add(key)
        return hit

    def store_scenario_result(
        self, scenario: Scenario, result: ScenarioRunResult
    ) -> None:
        """Insert an externally computed scenario result (e.g. from a
        pool worker) into the shared caches; counted as a miss, since
        it was simulated.  Uncacheable scenarios are ignored."""
        if not scenario.cacheable:
            return
        engine_fp, engine_config, spec, canon = self._scenario_parts(scenario)
        pair = scenario.corun_key()
        if pair is not None:
            fg, bg, fg_t, bg_t = pair
            self.store_co_run(
                fg,
                bg,
                result.to_corun(),
                threads=fg_t,
                bg_threads=bg_t,
                engine_config=engine_config,
                spec=spec,
            )
            return
        self.stats.scenario_misses += 1
        key = (engine_fp, canon.fingerprint)
        self._scenarios[key] = result
        if self.store is not None:
            self.store.put_scenario(engine_fp, canon, result)

    def run_scenario(self, scenario: Scenario) -> ScenarioResult:
        """The one measurement primitive: run a declarative scenario.

        2-app scenarios route through :meth:`co_run` (same keys, same
        caches, bit-identical results — ``co_run`` is effectively the
        pair special case of this method).  N-way and SMT shapes run
        through the scenario cache tier; uncacheable scenarios (in-band
        profiles) simulate directly every time.

        With telemetry enabled, each call emits a
        ``session.run_scenario`` span tagged with the cache tier that
        answered (``memory`` / ``disk`` / ``engine``); the span is
        out-of-band and the returned result is byte-identical either
        way.
        """
        tracer = get_tracer()
        if not tracer.enabled:
            return self._run_scenario_impl(scenario)
        before = self.stats.snapshot()
        with tracer.span("session.run_scenario", apps=scenario.label) as sp:
            result = self._run_scenario_impl(scenario)
            sp.tag("tier", _served_tier(self.stats.delta_since(before)))
        return result

    def _run_scenario_impl(self, scenario: Scenario) -> ScenarioResult:
        engine_fp, engine_config, spec, canon = self._scenario_parts(scenario)
        pair = scenario.corun_key()
        if pair is not None:
            fg, bg, fg_t, bg_t = pair
            co = self.co_run(
                fg,
                bg,
                threads=fg_t,
                bg_threads=bg_t,
                engine_config=engine_config,
                spec=spec,
            )
            return ScenarioResult(scenario, ScenarioRunResult.from_corun(co))
        if not scenario.cacheable:
            return ScenarioResult(
                scenario, self._simulate_scenario(scenario, engine_config, spec)
            )
        key = (engine_fp, canon.fingerprint)
        hit = self._scenarios.get(key)
        if hit is not None:
            if key in self._scenario_promoted:
                self._scenario_promoted.discard(key)  # counted as a disk hit
            else:
                self.stats.scenario_hits += 1
            return ScenarioResult(scenario, hit)
        promoted = self.cached_scenario(scenario)
        if promoted is not None:
            self._scenario_promoted.discard(key)
            return ScenarioResult(scenario, promoted)
        self.stats.scenario_misses += 1
        res = self._simulate_scenario(scenario, engine_config, spec)
        self._scenarios[key] = res
        if self.store is not None:
            self.store.put_scenario(engine_fp, canon, res)
        return ScenarioResult(scenario, res)

    def _simulate_scenario(
        self,
        scenario: Scenario,
        engine_config: EngineConfig,
        spec: MachineSpec | None,
    ) -> ScenarioRunResult:
        fg_runtime, rates = self._scenario_solo_refs(scenario, engine_config, spec)
        # Solo references stay mask/pin-free: the paper normalizes
        # against the *unrestricted* solo run, which also keeps the
        # shared solo cache serving every CAT/pinning variant.
        return self.engine(engine_config, spec).scenario_run(
            [p.resolve_profile() for p in scenario.placements],
            [p.threads for p in scenario.placements],
            fg_solo_runtime_s=fg_runtime,
            bg_solo_rates=list(rates),
            llc_ways=scenario_way_masks(scenario),
            pinnings=scenario_pinnings(scenario),
        )

    def run_scenarios(
        self,
        scenarios: "Iterable[Scenario]",
        *,
        chunksize: int | None = None,
    ) -> list[ScenarioResult]:
        """Run many scenarios; uncached ones fan out over the executor.

        Cells the caches already hold are never shipped to workers
        (disk peeks promote them first), duplicate *cacheable*
        scenarios are simulated once (uncacheable ones have no
        identity to deduplicate by), and worker results are stored
        back through the same keys the serial path uses — so the
        returned list is bit-identical whatever the executor.  ``chunksize`` batches tasks per worker
        dispatch; ``None`` uses the session default or an automatic
        chunk sized from the task and worker counts (fine-grained
        fig8-style cells amortize dispatch overhead with chunks > 1).
        """
        scens = list(scenarios)
        tracer = get_tracer()
        if not tracer.enabled:
            return self._run_scenarios_impl(scens, chunksize)
        with tracer.span(
            "session.run_scenarios",
            cells=len(scens),
            executor=self.executor.name,
        ):
            return self._run_scenarios_impl(scens, chunksize)

    def _run_scenarios_impl(
        self, scens: "list[Scenario]", chunksize: int | None
    ) -> list[ScenarioResult]:
        direct: dict[int, ScenarioRunResult] = {}
        if (self.engine_batch or self.executor.parallel) and len(scens) > 1:
            tasks: list[_ScenarioTask] = []
            task_idx: list[int] = []
            task_fps: list[str] = []
            seen: set[tuple[str, str]] = set()
            for i, s in enumerate(scens):
                engine_fp, engine_config, spec, canon = self._scenario_parts(s)
                if s.cacheable:
                    ident = (engine_fp, canon.fingerprint)
                    if ident in seen or self.cached_scenario(s) is not None:
                        continue
                    seen.add(ident)
                fg_runtime, rates = self._scenario_solo_refs(s, engine_config, spec)
                tasks.append(_ScenarioTask(self.config, s, fg_runtime, rates))
                task_idx.append(i)
                task_fps.append(engine_fp)
            if tasks:
                if self.engine_batch:
                    results = self._solve_tasks_batched(tasks, task_fps)
                else:
                    if chunksize is None:
                        chunksize = self.chunksize
                    if chunksize is None:
                        workers = getattr(self.executor, "max_workers", 1)
                        chunksize = max(1, min(32, len(tasks) // (workers * 4) or 1))
                    results = self.executor.map(
                        run_scenario_task, tasks, chunksize=chunksize
                    )
                for i, res in zip(task_idx, results):
                    if scens[i].cacheable:
                        self.store_scenario_result(scens[i], res)
                    else:
                        direct[i] = res
        return [
            ScenarioResult(s, direct[i]) if i in direct else self.run_scenario(s)
            for i, s in enumerate(scens)
        ]

    def _solve_tasks_batched(
        self, tasks: "list[_ScenarioTask]", task_fps: "list[str]"
    ) -> "list[ScenarioRunResult]":
        """Solve planned scenario tasks through the batch engine.

        Tasks partition into engine-compatible groups (same engine
        fingerprint = same spec + engine config), each group shards
        across the executor's workers, and every shard is one
        :func:`repro.engine.solve_batch` call — one stacked fixed point
        instead of ``len(tasks)`` scalar solves.  Results come back in
        task order and are bit-identical to the scalar path.
        """
        groups: dict[str, list[int]] = {}
        for j, fp in enumerate(task_fps):
            groups.setdefault(fp, []).append(j)
        workers = int(getattr(self.executor, "max_workers", 1) or 1)
        n_shards = workers if self.executor.parallel else 1
        shards: list[_ScenarioBatchTask] = []
        shard_idx: list[list[int]] = []
        for idxs in groups.values():
            per = max(1, -(-len(idxs) // n_shards))
            for a in range(0, len(idxs), per):
                part = idxs[a : a + per]
                shards.append(
                    _ScenarioBatchTask(self.config, tuple(tasks[j] for j in part))
                )
                shard_idx.append(part)
        outs = self.executor.map_batches(run_scenario_batch_task, shards)
        results: "list[ScenarioRunResult | None]" = [None] * len(tasks)
        for part, out in zip(shard_idx, outs):
            for j, res in zip(part, out):
                results[j] = res
        return results  # type: ignore[return-value]

    # -- measurement jitter -------------------------------------------------

    def jitter(self, *key: Any) -> Jitter:
        """Seeded jitter model for one named measurement.

        Keying each measurement (instead of drawing from one sequential
        RNG) makes every cell's noise independent of sweep order and of
        which executor computed it.
        """
        return Jitter.for_key(self.config, *key)

    # -- artifact execution -------------------------------------------------

    def run(self, name: str, **kwargs: Any) -> RunRecord:
        """Execute one artifact by name, memoized per (name, kwargs).

        Returns the :class:`RunRecord`; re-running the same artifact
        with equivalent arguments (explicitly passing a runner default
        counts as equivalent) returns the *same* record object, so one
        session holds at most one record per distinct invocation.
        """
        runner = get_runner(name)
        kwargs = _strip_default_kwargs(runner, kwargs)
        memo_key = (name, repr(sorted(kwargs.items())))
        cached = self._artifacts.get(memo_key)
        if cached is not None:
            return cached
        tracer = get_tracer()
        before = self.stats.snapshot()
        t0 = time.perf_counter()
        if tracer.enabled:
            with tracer.span("session.run", artifact=name):
                result = runner.execute(self, **kwargs)
        else:
            result = runner.execute(self, **kwargs)
        duration = time.perf_counter() - t0
        record = RunRecord(
            artifact=name,
            result=result,
            provenance={
                "artifact": name,
                # Non-default invocation arguments (repr'd): lets the
                # store tell a canonical artifact run from a nested
                # subset run (e.g. fig6's mini-bench fig5 sweep).
                "arguments": {k: repr(v) for k, v in sorted(kwargs.items())},
                "seed": self.config.seed,
                "threads": self.config.threads,
                "repetitions": self.config.repetitions,
                "jitter": self.config.jitter,
                "workloads": list(self.config.workloads),
                "spec_fingerprint": self.spec_fingerprint(),
                "engine_fingerprint": self.engine_fingerprint(),
                "executor": self.executor.name,
                "duration_s": duration,
                "cache": self.stats.delta_since(before),
            },
        )
        self.records.append(record)
        self._artifacts[memo_key] = record
        if self.store is not None:
            self.store.record(record)
        cache_delta = record.provenance["cache"]
        tracer.merge_counters("cache", cache_delta)
        logger.info(
            "artifact %s finished in %.3fs (cache delta: %s)",
            name,
            duration,
            {k: v for k, v in cache_delta.items() if v},
        )
        return record

    def run_all(
        self,
        *,
        include_extensions: bool = False,
        names: "Iterable[str] | None" = None,
    ) -> dict[str, RunRecord]:
        """Run every paper artifact in paper order; returns name -> record.

        With ``include_extensions=True`` the registered extension
        studies (solo, insights, predict, efficiency, allocation) run
        after the paper artifacts, each with its default arguments —
        this is what ``repro run-all`` executes for a campaign.  An
        explicit ``names`` subset runs exactly those artifacts in the
        given order (``repro run-all --shard I/N`` hands each shard its
        slice of the registry this way).
        """
        if names is None:
            names = runner_names(artifact_only=not include_extensions)
        return {name: self.run(name) for name in names}
