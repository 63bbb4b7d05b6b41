"""Experiment: the application roster (Table I) and solo cards.

Table I is pure metadata — which application belongs to which suite —
but registering it as a runner gives it the same record/provenance
treatment as every measured artifact.  The ``solo`` runner produces the
full characterization card the CLI prints per application (runtime,
bandwidth, VTune metrics, scalability class), all through the session's
shared caches.
"""

from __future__ import annotations

from repro.core.report import ascii_table
from repro.core.scalability import classify_speedup
from repro.session.base import Runner
from repro.session.registry import register_runner
from repro.tools.vtune import VtuneProfiler
from repro.units import GB
from repro.workloads.registry import list_workloads, suite_of


@register_runner("table1", title="application roster", order=10)
class RosterRunner(Runner):
    """Table I: applications chosen for each suite."""

    def execute(self, session) -> list[tuple[str, str]]:
        return [(suite_of(n), n) for n in list_workloads()]

    def render(self, result: list[tuple[str, str]], **_) -> str:
        return ascii_table(
            ["suite", "application"],
            [list(row) for row in result],
            title="Table I: applications chosen for each suite",
        )


@register_runner(
    "solo",
    title="full solo characterization card per workload",
    artifact=False,
    order=100,
)
class SoloCardRunner(Runner):
    """One characterization card per configured workload."""

    def execute(self, session) -> str:
        config = session.config
        vtune = VtuneProfiler()
        cards = []
        keys = [
            (app, t) for app in config.workloads for t in (config.threads, 1, 8)
        ]
        solos = dict(zip(keys, session.solos(keys)))
        for app in config.workloads:
            solo = solos[app, config.threads]
            t1 = solos[app, 1].runtime_s
            t8 = solos[app, 8].runtime_s
            tot = solo.metrics.total
            cards.append("\n".join([
                f"== {app} ({suite_of(app)}) ==",
                f"runtime @{config.threads}T : {solo.runtime_s:.1f} s",
                f"bandwidth       : {solo.metrics.avg_bandwidth_bytes / GB:.1f} GB/s",
                f"CPI / L2_PCP    : {tot.cpi:.2f} / {tot.l2_pcp:.1%}",
                f"LLC MPKI / LL   : {tot.llc_mpki:.1f} / {tot.ll:.1f}",
                f"8T speedup      : {t1 / t8:.1f}x -> {classify_speedup(t1 / t8).value}",
                vtune.report(solo.metrics),
            ]))
        return "\n\n".join(cards)
