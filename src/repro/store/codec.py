"""Exact JSON codec for the engine's result containers.

The persistent cache only works if a round-tripped result is
*bit-identical* to the in-memory original: a Fig 5 cell computed from a
disk-loaded solo reference must equal the cell computed in the same
process.  Python's ``json`` module serializes floats via ``repr``,
whose shortest-round-trip representation re-parses to the exact same
IEEE-754 value, and both ``dict`` and JSON objects preserve insertion
order — so the per-region accumulation order (which matters for float
summation in :attr:`AppMetrics.total`) survives the trip.

The codec is deliberately explicit per type rather than reflective:
the on-disk schema is a contract (see :data:`SCHEMA_VERSION` in
:mod:`repro.store.store`), and silent field drift would corrupt warm
stores.

The decoders sit on the warm store's read path, so they build each
container positionally and **take ownership** of the freshly parsed
JSON they are handed: a sample's ``bytes_per_s`` dict and a scenario's
``bg_relative_rates`` list become the decoded result's own, uncopied.
A missing field raises ``KeyError`` and a mistyped one ``TypeError``
or ``AttributeError``, which the store reads as a cache miss.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any

from repro.engine.results import (
    AppMetrics,
    BandwidthSample,
    CoRunResult,
    RegionMetrics,
    ScenarioRunResult,
    SoloRunResult,
)

#: :class:`RegionMetrics` fields in constructor order.
_REGION_FIELDS = (
    "instructions",
    "cycles",
    "pending_cycles",
    "l2_misses",
    "llc_misses",
    "bus_bytes",
)

_region_values = itemgetter(*_REGION_FIELDS)


def encode_region_metrics(rm: RegionMetrics) -> dict[str, float]:
    return {f: getattr(rm, f) for f in _REGION_FIELDS}


def decode_region_metrics(data: dict[str, float]) -> RegionMetrics:
    return RegionMetrics(*_region_values(data))


def encode_app_metrics(am: AppMetrics) -> dict[str, Any]:
    return {
        "name": am.name,
        "threads": am.threads,
        "runtime_s": am.runtime_s,
        "by_region": {
            region: encode_region_metrics(rm) for region, rm in am.by_region.items()
        },
    }


def decode_app_metrics(data: dict[str, Any]) -> AppMetrics:
    return AppMetrics(
        data["name"],
        data["threads"],
        data["runtime_s"],
        {
            region: decode_region_metrics(rm)
            for region, rm in data["by_region"].items()
        },
    )


def encode_timeline(timeline: list[BandwidthSample]) -> list[dict[str, Any]]:
    return [
        {"time_s": s.time_s, "bytes_per_s": dict(s.bytes_per_s)} for s in timeline
    ]


def decode_timeline(data: list[dict[str, Any]]) -> list[BandwidthSample]:
    return [BandwidthSample(s["time_s"], s["bytes_per_s"]) for s in data]


def encode_solo(res: SoloRunResult) -> dict[str, Any]:
    return {
        "metrics": encode_app_metrics(res.metrics),
        "timeline": encode_timeline(res.timeline),
    }


def decode_solo(data: dict[str, Any]) -> SoloRunResult:
    return SoloRunResult(
        decode_app_metrics(data["metrics"]), decode_timeline(data["timeline"])
    )


def encode_corun(res: CoRunResult) -> dict[str, Any]:
    return {
        "fg": encode_app_metrics(res.fg),
        "bg": encode_app_metrics(res.bg),
        "fg_solo_runtime_s": res.fg_solo_runtime_s,
        "bg_relative_rate": res.bg_relative_rate,
        "timeline": encode_timeline(res.timeline),
    }


def decode_corun(data: dict[str, Any]) -> CoRunResult:
    return CoRunResult(
        decode_app_metrics(data["fg"]),
        decode_app_metrics(data["bg"]),
        data["fg_solo_runtime_s"],
        data["bg_relative_rate"],
        decode_timeline(data["timeline"]),
    )


def encode_scenario_result(res: ScenarioRunResult) -> dict[str, Any]:
    return {
        "apps": [encode_app_metrics(a) for a in res.apps],
        "fg_solo_runtime_s": res.fg_solo_runtime_s,
        "bg_relative_rates": list(res.bg_relative_rates),
        "timeline": encode_timeline(res.timeline),
    }


def decode_scenario_result(data: dict[str, Any]) -> ScenarioRunResult:
    return ScenarioRunResult(
        [decode_app_metrics(a) for a in data["apps"]],
        data["fg_solo_runtime_s"],
        data["bg_relative_rates"],
        decode_timeline(data["timeline"]),
    )
