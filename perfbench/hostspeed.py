"""Host speed, measured with a fixed reference computation.

The virtual machines this benchmark runs on change speed by tens of
percent within seconds (CPU time tracks wall time: the vCPU runs slower,
it is not descheduled), and each vCPU on its own: a reference timed on
one vCPU says nothing about the other one at the same moment.  One warm
day replayed in eight fresh processes took 0.25 s to 0.44 s, a spread far
wider than any useful regression bound, while the program did not change.

So runs time :func:`reference_s` — JSON encoding, SHA-256 and dict
inserts, the mix of the program's keying path — on the benchmark's CPU
right before and right after every measured unit of CPU-bound work, and
report that unit's host seconds scaled to a host on which the reference
takes :data:`NOMINAL_S`, at the speed the two samples around the unit
show.  A sample a whole campaign away says little: one factor per run
widened the spread of 22-artifact campaigns from 10% to 29%, while a
sample around each artifact narrowed it to 6%.  The reference is the
benchmark's own code, so a change to the program cannot move it.

Requests through the serve daemon follow this reference only loosely, so
serve-open times another one, :class:`serveload.Echo`: a stand-in daemon
driven the way the measured chunk drives the real one.
"""

from __future__ import annotations

import hashlib
import json
import time
from statistics import median
from typing import Callable

#: Reference time that defines the nominal host.
NOMINAL_S = 0.040


def reference_s() -> float:
    t0 = time.perf_counter()
    table = {}
    for i in range(8000):
        key = json.dumps({"cell": i, "slots": [i, i + 1, "fg"]}, sort_keys=True)
        table[hashlib.sha256(key.encode()).hexdigest()] = i
    return time.perf_counter() - t0


class HostSpeed:
    """Reference samples taken between the measured units of one phase
    of a run: ``sample()``, a unit, ``unit(seconds)``, ``sample()``, a
    unit, ``unit(seconds)``, ..., ``sample()``.  ``reference`` times one
    reference computation; on the nominal host it reads ``nominal``."""

    def __init__(self, reference: Callable[[], float] = reference_s, nominal: float = NOMINAL_S) -> None:
        self.reference = reference
        self.nominal = nominal
        self.samples: list[float] = []
        #: Each unit's host seconds and the index of the sample taken
        #: right before it.
        self.units: list[tuple[float, int]] = []

    def sample(self) -> None:
        self.samples.append(self.reference())

    def unit(self, raw: float) -> None:
        """Record a unit of work timed right after the latest sample."""
        if not self.samples:
            raise RuntimeError("sample the host speed before the unit")
        self.units.append((raw, len(self.samples) - 1))

    def local_factors(self) -> list[float]:
        """Per unit, nominal over the mean of the samples right before
        and right after it (the one before, if none followed)."""
        factors = []
        for _, i in self.units:
            around = self.samples[i : i + 2]
            factors.append(self.nominal * len(around) / sum(around))
        return factors

    def scaled_units(self) -> list[float]:
        """Each unit's host seconds, scaled to the nominal host."""
        return [raw * f for (raw, _), f in zip(self.units, self.local_factors())]

    @property
    def factor(self) -> float:
        """Nominal over the median reference time of the whole phase
        (below 1 on a slow host)."""
        return self.nominal / median(self.samples)

    def scale(self, raw: float) -> float:
        """A duration measured across the whole phase, scaled to the
        nominal host."""
        return raw * self.factor
