"""The benchmark's one command.

    python3 perfbench/run.py --workload day-cold --seed 0 --seconds 15 --trace 0

Run from the root of a checkout (it imports the program from ``./src``).
With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1``
the per-layer ledger.  Before the result it prints the host record and a
report line (the workload's figures by their own names, sample counts
and correctness digests).  The last line is the result object.  Any
wrong output makes ``correct`` false and the exit code 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sys
import tempfile
import traceback
from pathlib import Path

from workloads import WORKLOADS, Ctx, host_key

#: Settings that select a non-default engine or roster.  A result taken
#: under one of them is not comparable with a default one, so the
#: benchmark refuses to run at all.
REFUSED_ENV = ("REPRO_ENGINE_BATCH", "REPRO_BENCH_WORKLOADS", "REPRO_TELEMETRY")


def _commit(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def host_record(root: Path) -> dict:
    return {
        **host_key(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
        "commit": _commit(root),
        "source_digest": _source_digest(root),
        "env": {k: os.environ.get(k) for k in REFUSED_ENV},
    }


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("error: run from a checkout root (no src/repro here)", file=sys.stderr)
        return 2
    refused = [k for k in REFUSED_ENV if k in os.environ]
    if refused:
        print(f"error: unset {', '.join(refused)} before benchmarking", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    # One CPU for the benchmark and every process it starts: on a small
    # VM, a request handed between the client, the daemon's loop and its
    # worker thread on different vCPUs waits for an idle vCPU to wake,
    # which made admission latency swing and its tail 2-5x longer.  The
    # host-speed reference then also runs on the CPU the work runs on.
    host = host_record(root)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    (root / ".perfbench").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=root / ".perfbench", prefix="run-"))
    try:
        outcome = WORKLOADS[args.workload](
            Ctx(seed=args.seed, seconds=args.seconds, traced=bool(args.trace), work=work)
        )
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(json.dumps({"host": host}))
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "report": outcome.report, "digests": outcome.digests, "pins_apply": bool(outcome.pins),
        "problems": outcome.problems,
    }))
    correct = not outcome.problems
    for problem in outcome.problems:
        print(f"incorrect: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, outcome.attempted),
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in outcome.metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
