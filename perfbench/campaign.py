"""One cold ``run-all`` campaign in a fresh process.

Usage: ``python3 perfbench/campaign.py STORE SEED TRACE`` (from a checkout
root, with ``src`` on ``PYTHONPATH``).  Runs
``Session.run_all(include_extensions=True)`` over the full roster into
the empty store ``STORE`` and prints one JSON line: the campaign's host
seconds (as measured, and scaled to the nominal host), this process's
peak memory, and per artifact its duration, payload digest and cache
counters — plus the layer tracer's snapshot when ``TRACE`` is 1.

The campaign runs one artifact per ``run_all(names=[...])`` call, in
``run_all``'s own order, so the host speed can be sampled around each
artifact (see :mod:`hostspeed`); the samples are not in the timed spans.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import time
from pathlib import Path

from hostspeed import HostSpeed
from tracer import LayerTracer, install_layers, snapshot
from workloads import _payload_digest, _session


def main() -> int:
    store, seed, trace = Path(sys.argv[1]), int(sys.argv[2]), sys.argv[3] == "1"
    from repro.session.registry import runner_names
    from repro.workloads.registry import APPLICATIONS

    session = _session(store, workloads=APPLICATIONS, seed=seed)
    tracer = LayerTracer()
    if trace:
        install_layers(tracer)
    speed = HostSpeed()
    records = {}
    gc.collect()
    try:
        for name in runner_names(artifact_only=False):
            speed.sample()
            t0 = time.perf_counter()
            records.update(session.run_all(names=[name]))
            speed.unit(time.perf_counter() - t0)
        speed.sample()
    finally:
        tracer.restore()
    print(json.dumps({
        "campaign_s": sum(raw for raw, _ in speed.units),
        "scaled_s": sum(speed.scaled_units()),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "artifacts": {
            name: {
                "duration_s": r.provenance["duration_s"],
                "digest": _payload_digest(r),
                "cache": r.provenance["cache"],
            }
            for name, r in records.items()
        },
        "snapshot": snapshot(tracer) if trace else None,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
