"""Outside-in layer tracer: times calls into each layer's public functions.

Nothing under ``src/`` changes.  :class:`LayerTracer` rebinds a layer's
public functions (module functions at every name they are bound to,
methods on their class) to timing wrappers, and puts every original back
on exit.  Each wrapper records its inclusive time and its *self* time —
its duration minus the time its child wrappers cover — so the layers'
self times add up to the traced wall without double counting.

Frames live on one stack shared by all threads.  That is exact when the
traced work runs one call chain at a time, which holds for every
workload here: an in-process replay is sequential, and the serve daemon
answers one request at a time behind its lock, handing each scheduler
call to a single worker thread.  A frame that closes out of order is
counted in :attr:`LayerTracer.misnested` instead of corrupting the split.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass
class LayerStat:
    calls: int = 0
    incl_s: float = 0.0
    self_s: float = 0.0
    counts: dict[str, float] = field(default_factory=dict)
    #: Inclusive durations, kept only for layers that report percentiles.
    samples: "list[float] | None" = None


class _Frame:
    __slots__ = ("name", "start", "child_s")

    def __init__(self, name: str, start: float) -> None:
        self.name = name
        self.start = start
        self.child_s = 0.0


class LayerTracer:
    """Install with ``with LayerTracer() as t: install_layers(t)``."""

    def __init__(self) -> None:
        self.stats: dict[str, LayerStat] = {}
        self.misnested = 0
        self._stack: list[_Frame] = []
        self._lock = threading.Lock()
        self._patches: list[tuple[Any, str, Any]] = []
        self._sampled: set[str] = set()

    # -- recording -----------------------------------------------------------

    def _enter(self, name: str) -> _Frame:
        frame = _Frame(name, time.perf_counter())
        with self._lock:
            self._stack.append(frame)
        return frame

    def _exit(self, frame: _Frame, counts: "dict[str, float] | None") -> None:
        end = time.perf_counter()
        dur = end - frame.start
        with self._lock:
            if self._stack and self._stack[-1] is frame:
                self._stack.pop()
            else:
                self.misnested += 1
                if frame in self._stack:
                    self._stack.remove(frame)
            if self._stack:
                self._stack[-1].child_s += dur
            st = self.stats.get(frame.name)
            if st is None:
                st = self.stats[frame.name] = LayerStat(
                    samples=[] if frame.name in self._sampled else None
                )
            st.calls += 1
            st.incl_s += dur
            st.self_s += dur - frame.child_s
            if st.samples is not None:
                st.samples.append(dur)
            if counts:
                for k, v in counts.items():
                    st.counts[k] = st.counts.get(k, 0) + v

    def reset(self) -> None:
        with self._lock:
            self.stats.clear()
            self.misnested = 0

    # -- wrapping ------------------------------------------------------------

    def wrap(
        self,
        fn: Callable,
        name: "str | Callable[..., str]",
        probe: "Callable[..., Callable[[Any], dict]] | None" = None,
        samples: bool = False,
    ) -> Callable:
        """A timing wrapper around ``fn``.  ``name`` may be a function of
        the call's arguments; ``probe(*args, **kwargs)`` runs before the
        call and returns a function of the result giving extra counts."""
        if samples and isinstance(name, str):
            self._sampled.add(name)
        label = name if callable(name) else (lambda *a, **k: name)

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                finish = probe(*args, **kwargs) if probe else None
                frame = self._enter(label(*args, **kwargs))
                counts = None
                try:
                    result = await fn(*args, **kwargs)
                    counts = finish(result) if finish else None
                    return result
                finally:
                    self._exit(frame, counts)

            async_wrapper.__perfbench_original__ = fn
            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            finish = probe(*args, **kwargs) if probe else None
            frame = self._enter(label(*args, **kwargs))
            counts = None
            try:
                result = fn(*args, **kwargs)
                counts = finish(result) if finish else None
                return result
            finally:
                self._exit(frame, counts)

        wrapper.__perfbench_original__ = fn
        return wrapper

    def patch(self, owner: type, attr: str, name, **opts) -> None:
        """Replace the method ``owner.attr`` defined on class ``owner``."""
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, **opts))

    def patch_everywhere(self, original: Callable, name, **opts) -> list[str]:
        """Rebind a module-level function at every ``repro`` module
        attribute bound to it (``from x import f`` copies the binding,
        so patching the defining module alone misses callers).  Returns
        the ``module.attr`` names rebound."""
        wrapper = self.wrap(original, name, **opts)
        bound = []
        for mod_name, module in sorted(sys.modules.items()):
            if module is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)
                    bound.append(f"{mod_name}.{attr}")
        return bound

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "LayerTracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


# -- the layer map ------------------------------------------------------------


def _count_len(key: str, arg_index: int):
    """Count the items of a positional argument, without consuming an
    iterator the wrapped function still has to read."""

    def probe(*args, **kwargs):
        arg = args[arg_index] if len(args) > arg_index else None
        n = len(arg) if hasattr(arg, "__len__") else 0
        return lambda result: {key: n}

    return probe


def _count_result(key: str):
    return lambda *a, **k: (lambda result: {key: len(result)})


def _count_hit(*args, **kwargs):
    return lambda result: {"hits": 0 if result is None else 1}


def _eval_probe(evaluator, *rest, **kwargs):
    # slowdowns_many(items) or slowdowns(spec, placements): count the
    # layouts asked for, those that need scoring (two or more tenants),
    # and how many of those missed the memo (new memo entries).
    if len(rest) == 1:
        layouts = [p for _, p in rest[0]]
    else:
        layouts = [rest[1]]
    scored = sum(1 for p in layouts if len(tuple(p)) > 1)
    before = len(evaluator._memo)
    return lambda result: {
        "layouts": len(layouts),
        "scored": scored,
        "memo_new": len(evaluator._memo) - before,
    }


def install_layers(tracer: LayerTracer) -> dict[str, list[str]]:
    """Wrap every layer boundary the per-layer ledger reports.  Returns
    the rebinding sites of the module-level functions, by layer."""
    import repro

    # Import every module first: one imported while the wrappers are in
    # place would bind a wrapper by name and keep it after restore().
    for mod in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(mod.name)
    import repro.engine.batch
    import repro.sched.driver
    import repro.sched.policy
    import repro.session.base
    from repro.engine.interval import IntervalEngine
    from repro.sched.driver import LocalPort
    from repro.sched.scheduler import Scheduler
    from repro.sched.score import PlacementEvaluator
    from repro.serve.daemon import ServeDaemon
    from repro.session.session import Session
    from repro.store.store import ResultStore
    from repro.traffic.model import TrafficModel

    t = tracer
    t.patch(TrafficModel, "generate", "traffic.generate")

    t.patch(Scheduler, "arrival", "sched.arrival", samples=True)
    t.patch(Scheduler, "departure", "sched.departure")
    t.patch(LocalPort, "state", "sched.state")
    t.patch(PlacementEvaluator, "slowdowns_many", "sched.eval", probe=_eval_probe)
    t.patch(PlacementEvaluator, "slowdowns", "sched.eval", probe=_eval_probe)
    sites = {
        "sched.drive": t.patch_everywhere(repro.sched.driver.drive_trace, "sched.drive"),
        "sched.enumerate": t.patch_everywhere(
            repro.sched.policy.enumerate_candidates,
            "sched.enumerate",
            probe=_count_result("candidates"),
        )
        + t.patch_everywhere(
            repro.sched.policy.enumerate_layouts,
            "sched.enumerate",
            probe=_count_result("candidates"),
        ),
        "session.fingerprint": t.patch_everywhere(
            repro.session.base.fingerprint, "session.fingerprint"
        ),
        "engine.batch": t.patch_everywhere(
            repro.engine.batch.solve_batch, "engine.batch", probe=_count_len("cells", 1)
        ),
    }

    t.patch(Session, "run", lambda self, name, **kw: f"core.artifact.{name}")
    t.patch(Session, "run_scenarios", "session.run_scenarios", probe=_count_len("cells", 1))

    for meth in ("get_solo", "get_corun", "get_scenario"):
        t.patch(ResultStore, meth, "store.get", probe=_count_hit)
    for meth in ("put_solo", "put_corun", "put_scenario"):
        t.patch(ResultStore, meth, "store.put")
    t.patch(ResultStore, "record", "store.record")

    for meth in ("solo_run", "scenario_run", "co_run"):
        t.patch(IntervalEngine, meth, "engine.scalar")

    t.patch(ServeDaemon, "_handle", "serve.handle")
    t.patch(ServeDaemon, "_dispatch", "serve.dispatch")
    return sites


def snapshot(tracer: LayerTracer) -> dict[str, Any]:
    """JSON-able copy of the tracer's stats (for the traced daemon)."""
    with tracer._lock:
        return {
            "misnested": tracer.misnested,
            "stats": {
                name: {
                    "calls": st.calls,
                    "incl_s": st.incl_s,
                    "self_s": st.self_s,
                    "counts": dict(st.counts),
                    "samples": list(st.samples) if st.samples is not None else None,
                }
                for name, st in tracer.stats.items()
            },
        }
