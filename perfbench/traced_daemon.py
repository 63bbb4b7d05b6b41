"""Run ``repro serve start`` with the layer tracer installed.

Usage: ``python3 perfbench/traced_daemon.py SNAPSHOT.json <repro cli args>``

The daemon runs exactly as ``python -m repro.cli <args>`` would.  SIGUSR1
clears the tracer's counts (so start-up is not in the ledger); SIGUSR2
writes them to ``SNAPSHOT.json``.
"""

from __future__ import annotations

import json
import os
import signal
import sys

from tracer import LayerTracer, install_layers, snapshot


def main() -> int:
    out, args = sys.argv[1], sys.argv[2:]
    with LayerTracer() as tracer:
        install_layers(tracer)

        def dump(*_):
            tmp = out + ".tmp"
            with open(tmp, "w") as fh:
                json.dump(snapshot(tracer), fh)
            os.replace(tmp, out)

        signal.signal(signal.SIGUSR1, lambda *_: tracer.reset())
        signal.signal(signal.SIGUSR2, dump)
        from repro.cli import main as cli_main

        return cli_main(args)


if __name__ == "__main__":
    sys.exit(main())
