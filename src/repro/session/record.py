"""RunRecord: one executed artifact with result and provenance.

Every :meth:`Session.run` returns a :class:`RunRecord` carrying the
result object, the provenance metadata that makes the number
reproducible (seed, fingerprints of the machine spec and engine
configuration, executor, cache economics), and a JSON round-trip so
records can be persisted and re-loaded::

    record = Session(config).run("fig5")
    text = record.to_json()
    again = RunRecord.from_json(text)
    assert again.result.cells == record.result.cells
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any


@dataclass
class RunRecord:
    """Outcome of one artifact run."""

    #: Artifact id this record was produced by (``"fig5"``, ...).
    artifact: str
    #: The runner's result object (e.g. :class:`ConsolidationMatrix`).
    result: Any
    #: Reproducibility metadata: seed, spec/engine fingerprints,
    #: executor, duration, per-run cache hit/miss deltas.
    provenance: dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> str:
        """Serialize artifact + provenance + encoded result payload as
        one line of compact JSON (the C encoder's fast path: no indent).
        This is also the byte format of a record file in a store."""
        from repro.session.registry import get_runner

        payload = get_runner(self.artifact).encode(self.result)
        return json.dumps(
            {
                "artifact": self.artifact,
                "provenance": self.provenance,
                "payload": payload,
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "RunRecord":
        """Rebuild a record; the result is decoded by the artifact's runner.
        Reads compact and indented records alike (older stores hold
        ``indent=1`` record files)."""
        from repro.session.registry import get_runner

        data = json.loads(text)
        runner = get_runner(data["artifact"])
        return cls(
            artifact=data["artifact"],
            result=runner.decode(data["payload"]),
            provenance=data["provenance"],
        )
