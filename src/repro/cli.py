"""Command-line interface: regenerate any paper artifact.

Grammar: ``repro [global flags] <command> [<subcommand>] [flags]``
(``repro <command> -h`` lists what each command accepts).  The global
flags — ``-v``/``-q``, the session flags (``--store``, ``--workloads``,
``--threads``, ``--seed``, ``--executor`` ...), ``--trace``/``--traffic``,
``--policy``/``--machines``/``--slo``, ``--cluster`` and
``--host``/``--port`` — parse the same before or after the command, but
only a command that reads a flag accepts it.

Usage::

    repro list
    repro fig2 [--workloads G-PR,G-CC] [--csv]
    repro fig5 --workloads G-CC,fotonik3d,swaptions --parallel
    repro table4
    repro scenario run G-CC:2 fotonik3d:2 swaptions:2 --llc-policy static
    repro scenario run G-CC:8 Stream:8 --smt     # 16 threads on 8 SMT cores
    repro scenario run G-CC:4 Stream:4 --ways G-CC:0xF0 Stream:0x0F  # CAT masks
    repro scenario run G-CC:1 Stream:1 --smt --pin G-CC:0 Stream:0   # share a core
    repro consolidate-n --workloads G-CC,fotonik3d,swaptions
    repro cat-sweep                              # way-mask Pareto sweep
    repro --store .repro-store run-all          # campaign + manifest.json
    repro --store .repro-store run-all --shard 1/2   # one shard of a campaign
    repro --store .repro-store campaign --workers 4  # multi-process campaign
    repro --store .repro-store fig5             # warm-store single artifact
    repro --store .repro-store store ls
    repro --store .repro-store store show fig5
    repro --store .repro-store scenario ls      # persisted N-way scenarios
    repro --store .repro-store store gc --dry-run
    repro store diff A/manifest.json B/manifest.json
    repro --store .repro-store sched replay --trace seed:0:10 \\
        --policy interference --policy baseline  # placement policies head to head
    repro --store .repro-store sched replay --trace seed:0:10:2:0.5 --replan
    repro sched decide G-CC:4 --machines 2       # one admission what-if
    repro --store .repro-store serve start --port 7453 --budget-s 0.25
    repro serve submit G-CC:4 t000 --port 7453   # one live admission
    repro serve drain --trace seed:0:10:2:0.5 --port 7453 --json
    repro serve metrics --port 7453; repro serve stop --port 7453
    repro traffic gen --seed 0 --out day.json    # a seeded diurnal day
    repro traffic stats --trace diurnal:0 --json # per-hour arrival shape
    repro --store .repro-store traffic-replay --rate 8 --replan
    repro --store .repro-store sched replay --traffic model.json
    repro --store .repro-store store ls --json   # scripted consumption
    repro --store .repro-store store stats       # per-artifact run/cache stats
    repro --store .repro-store campaign --workers 2 --telemetry  # record spans
    repro --store .repro-store trace summary     # where did the wall time go?
    repro --store .repro-store trace export --format chrome --out trace.json
    repro -v --store .repro-store fig5           # INFO logging to stderr

Experiment ids are artifact names in the runner registry
(:mod:`repro.session.registry`): table1, fig2, table2, fig3, fig4,
fig5, table3, fig6, fig7, fig8, table4, plus the extension studies
(solo, insights, predict, efficiency, allocation).  Every invocation
builds one :class:`~repro.session.session.Session`, so ``--parallel``
(or ``--executor thread``) fans the independent sweep cells out with
bit-identical results.

With ``--store DIR`` the session reads measurements through the
persistent :class:`~repro.store.store.ResultStore` and writes fresh
ones behind, every executed artifact is streamed into
``DIR/results/`` + a per-process index segment under ``DIR/index/``,
and ``run-all`` freezes the campaign into ``DIR/manifest.json``.

One store safely serves many processes: ``repro campaign --workers N``
forks N workers that steal artifacts off the shared registry, and
``run-all --shard I/N`` runs a deterministic slice (launch the N
shards concurrently on one store — the index is per-process segmented
and cache writes are lock-coordinated, so the merged campaign is
cell-for-cell identical to a serial one).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from repro.core import ExperimentConfig
from repro.engine.interval import LLC_POLICIES
from repro.errors import ReproError, SchedError, StoreError
from repro.session import (
    ParallelExecutor,
    Scenario,
    Session,
    ThreadExecutor,
    get_runner,
    parse_pinning,
    parse_way_mask,
    runner_names,
)
from repro.workloads.calibration import APPLICATIONS, MINI_BENCHMARKS


def subcommands(parser: argparse.ArgumentParser) -> dict:
    """``{name: parser}`` of the commands nested under ``parser``."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    return {}


class _Subcommands(argparse._SubParsersAction):
    """Command dispatch under which a repeatable flag accumulates across
    the command.

    argparse parses everything after a command into a fresh namespace
    and copies it over the one parsed so far, so ``--policy baseline
    sched replay --policy interference`` would keep ``interference``
    alone and ``-v fig5 -v`` would count one ``-v``.  Here ``append``
    and ``count`` values given on both sides are added up instead.
    """

    def __call__(self, parser, namespace, values, option_string=None):
        repeatable = _repeatable(self._name_parser_map[values[0]])
        before = {d: vars(namespace).pop(d) for d in repeatable & vars(namespace).keys()}
        super().__call__(parser, namespace, values, option_string)
        for dest, value in before.items():
            setattr(namespace, dest, value + getattr(namespace, dest, type(value)()))


def _repeatable(parser: argparse.ArgumentParser) -> "set[str]":
    """Dests of the ``append``/``count`` flags of ``parser`` and every
    command nested under it."""
    dests = {
        a.dest for a in parser._actions
        if isinstance(a, (argparse._AppendAction, argparse._CountAction))
    }
    for sub in subcommands(parser).values():
        dests |= _repeatable(sub)
    return dests


def _grammar() -> "tuple[argparse.ArgumentParser, dict]":
    """The command tree, plus ``{dest: (default, flag)}`` for every flag.

    Flags are shared between parsers through ``parents=`` groups, each
    built once.  The global groups also sit on the root parser, so they
    parse on either side of the command.  Every flag's default is then
    swapped for ``SUPPRESS``: a leaf's default would otherwise overwrite
    a value given before the command, and a parsed namespace must hold
    exactly the flags the command line gave.
    """
    from repro.sched.policy import POLICIES

    def group(*parents) -> argparse.ArgumentParser:
        return argparse.ArgumentParser(add_help=False, parents=list(parents))

    verbosity = group()
    talk = verbosity.add_mutually_exclusive_group()
    talk.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="log to stderr: -v INFO, -vv DEBUG (default: warnings only)",
    )
    talk.add_argument(
        "-q", "--quiet", action="store_true",
        help="suppress warnings on stderr (errors only)",
    )

    store = group()
    store.add_argument(
        "--store", metavar="DIR",
        help="persistent result store: read measurements through DIR, "
        "write fresh ones behind, stream records + index",
    )

    threads = group()
    threads.add_argument(
        "--threads", type=int, default=4, help="threads per application (default 4)"
    )
    config = group(threads)
    config.add_argument(
        "--workloads", help="comma-separated subset of applications (default: all 25)"
    )
    config.add_argument(
        "--repetitions", type=int, default=3, help="measurement repetitions (default 3)"
    )
    config.add_argument("--seed", type=int, default=0, help="jitter seed")

    session = group(store, config)
    session.add_argument(
        "--telemetry", action="store_true",
        help="record spans + metrics into <store>/telemetry during this "
        "invocation (requires --store; inherited by campaign/pool "
        "workers; never changes results — inspect with 'trace')",
    )
    session.add_argument(
        "--executor", choices=("serial", "parallel", "thread"),
        help="sweep fan-out backend (default serial; 'parallel' = process "
        "pool, 'thread' = thread pool for hosts where fork dominates)",
    )
    session.add_argument(
        "--parallel", action="store_true", help="shorthand for --executor parallel"
    )
    session.add_argument(
        "--workers", type=int,
        help="pool size for --executor parallel/thread (default: CPU count); "
        "for 'campaign': number of worker processes (default 2)",
    )
    session.add_argument(
        "--chunksize", type=int,
        help="tasks per worker dispatch for scenario fan-outs "
        "(default: automatic from task and worker counts)",
    )
    session.add_argument(
        "--engine-batch", action=argparse.BooleanOptionalAction,
        help="solve scenario sweeps through the stacked batch engine "
        "(default on; --no-engine-batch restores the per-cell scalar "
        "path — results are bit-identical; also settable via "
        "REPRO_ENGINE_BATCH=0)",
    )

    traffic_flag = dict(
        metavar="MODEL",
        help="generate the arrival trace from a traffic-model JSON file "
        "(curve + mix + rate; schema in docs/trace-format.md)",
    )
    arrivals = group()
    source = arrivals.add_mutually_exclusive_group()
    source.add_argument(
        "--trace", metavar="SPEC",
        help="arrival trace — seed:S:N[:T[:D]] (synthetic), diurnal:S[:H[:T]] "
        "(an open-loop diurnal day) or a trace JSON file path (default: "
        "seeded from --seed); grammar in docs/trace-format.md",
    )
    source.add_argument("--traffic", **traffic_flag)
    model = group()
    model.add_argument("--traffic", **traffic_flag)

    policy = group()
    policy.add_argument(
        "--policy", choices=tuple(POLICIES), action="append",
        help="placement policy; repeat to replay several head to head "
        "(default: replays run baseline and interference, one admission "
        "or the daemon uses interference)",
    )
    policy.add_argument(
        "--machines", type=int, help="homogeneous cluster size (default 2)"
    )
    policy.add_argument(
        "--slo", type=float,
        help="per-tenant slowdown SLO (default: the paper's 1.5x victim threshold)",
    )

    cluster = group()
    cluster.add_argument(
        "--cluster", metavar="PATH",
        help="cluster state JSON (machines + resident tenants; default: an "
        "empty homogeneous cluster of --machines)",
    )

    endpoint = group()
    endpoint.add_argument(
        "--host", help="daemon bind/connect address (default 127.0.0.1)"
    )
    endpoint.add_argument(
        "--port", type=int,
        help="daemon port (default 7453; 0 binds an ephemeral port, "
        "announced on stdout)",
    )

    as_json = group()
    as_json.add_argument("--json", action="store_true", help="machine-readable JSON output")
    csv = group()
    csv.add_argument("--csv", action="store_true", help="CSV output where supported")
    engine = group()
    engine.add_argument(
        "--llc-policy", choices=LLC_POLICIES,
        help="LLC sharing policy override (default: the engine's 'pressure' model)",
    )
    engine.add_argument(
        "--smt", action="store_true",
        help="run on the SMT-enabled spec variant (2 hardware threads per core)",
    )
    diurnal = group()
    diurnal.add_argument(
        "--hours", type=float,
        help="trace hours to generate (default 24, one full day)",
    )
    diurnal.add_argument(
        "--scale", type=float,
        help="time scale factor — trace minutes per simulated minute "
        "(default 60: a 24h day in 1440 simulated seconds)",
    )
    diurnal.add_argument(
        "--rate", type=float,
        help="arrivals per trace hour at the diurnal peak (default 6)",
    )
    manifest = group()
    manifest.add_argument(
        "--manifest", metavar="PATH",
        help="manifest output path (default: <store>/manifest.json, or "
        "./manifest.json without --store)",
    )
    out = group()
    out.add_argument("--out", metavar="PATH", help="write to PATH instead of stdout")
    replan = group()
    replan.add_argument(
        "--replan", action="store_true",
        help="re-plan the vacated machine on every departure (re-partitions "
        "/ SLO-relief migrations land in the decision log as replan events)",
    )

    root = argparse.ArgumentParser(
        prog="repro-interference",
        description="Regenerate figures/tables of the interference characterization paper.",
        epilog=(
            "Run '%(prog)s <command> -h' for a command's flags. Trace / "
            "traffic spec grammar: docs/trace-format.md. Subsystem map: "
            "docs/architecture.md."
        ),
        parents=[verbosity, session, arrivals, policy, cluster, endpoint],
    )

    def leaf(subs, name, func, help, *parents, needs_store=None):
        """A command; by default, one that takes --store alone needs it."""
        parser = subs.add_parser(
            name, help=help, description=help, parents=[verbosity, *parents]
        )
        needs_store = store in parents if needs_store is None else needs_store
        parser.set_defaults(func=func, leaf=parser, needs_store=needs_store)
        return parser

    def nest(parser):
        return parser.add_subparsers(
            metavar="<subcommand>", title="subcommands", action=_Subcommands
        )

    def command(name, help, default, subs):
        """A command whose bare form runs its ``default`` subcommand."""
        func, _, *parents = subs[default]
        cmd = nest(leaf(commands, name, func, f"{help} (default: {default})", *parents))
        return [leaf(cmd, sub, *spec) for sub, spec in subs.items()]

    commands = root.add_subparsers(
        dest="command", metavar="<command>", required=True, title="commands",
        action=_Subcommands,
    )
    root.usage = "%(prog)s [global flags] <command> [<subcommand>] [flags]"
    for name in runner_names():
        title = get_runner(name).title
        if name == "traffic-replay":
            leaf(commands, name, _traffic_replay, title, session, model, diurnal,
                 policy, replan, as_json)
        elif name in ("scenario", "consolidate-n", "scenario-set"):
            leaf(commands, name, _run_with_engine, title, session, csv, engine)
        else:
            leaf(commands, name, _run_artifact, title, session, csv)
    scenario = nest(subcommands(root)["scenario"])
    run = leaf(scenario, "run", _scenario_run, "run one N-way scenario",
               session, csv, engine)
    run.add_argument("placements", nargs="+", metavar="APP[:THREADS]")
    run.add_argument(
        "--ways", metavar="NAME:BITMAP", nargs="+",
        help="per-app CAT LLC way masks, e.g. --ways G-CC:0xF0 Stream:0x0F "
        "(apps without a mask keep all ways)",
    )
    run.add_argument(
        "--pin", metavar="NAME:CORE[,CORE...]", nargs="+",
        help="per-app core pinnings, e.g. --pin G-CC:0,1 Stream:0,1 (pinned "
        "cores are reserved; unpinned apps schedule onto the remaining ones)",
    )
    leaf(scenario, "ls", _scenario_ls, "list persisted N-way scenarios",
         store, as_json)

    leaf(commands, "list", lambda args: _list(root),
         "list artifacts, commands and workloads")
    leaf(commands, "run-all", _run_all, "run every artifact and freeze the "
         "campaign manifest", session, manifest).add_argument(
        "--shard", metavar="I/N",
        help="run only round-robin shard I of N (1-based) of the runner "
        "registry; launch all N shards against one --store (concurrently "
        "is fine) for a sharded campaign",
    )
    leaf(commands, "campaign", _campaign, "multi-process run-all over one "
         "store", session, manifest, needs_store=True)

    _, show, gc, diff, _ = command("store", "inspect and maintain the result store", "ls", {
        "ls": (_store_ls, "list records and cache counts", store, as_json),
        "show": (_store_show, "render a stored record", store, csv),
        "gc": (_store_gc, "prune orphaned cache shards", store),
        "diff": (_store_diff, "compare two campaign manifests"),
        "stats": (_store_stats, "per-artifact run/cache stats", store, as_json),
    })
    show.add_argument("target", metavar="ARTIFACT|RUN_ID")
    gc.add_argument(
        "--dry-run", action="store_true",
        help="report what would be pruned without deleting",
    )
    diff.add_argument("manifest_a", metavar="MANIFEST_A")
    diff.add_argument("manifest_b", metavar="MANIFEST_B")

    _, decide = command("sched", "the interference-aware scheduler", "replay", {
        "replay": (_sched_replay, "replay an arrival trace per policy",
                   session, arrivals, policy, replan, as_json),
        "decide": (_sched_decide, "one admission what-if (exit 1 = reject)",
                   session, policy, cluster, as_json),
    })
    decide.add_argument("arrival", metavar="APP[:THREADS]")

    daemon = group()
    daemon.add_argument(
        "--budget-s", type=float,
        help="per-arrival admission-latency budget in seconds — "
        "observability only (responses/metrics flag overruns; decisions "
        "never change)",
    )
    daemon.add_argument(
        "--no-replan", action="store_true",
        help="disable departure-time re-planning (the daemon re-plans by "
        "default, unlike offline replay)",
    )
    _, submit, *_ = command("serve", "the scheduler as an HTTP daemon", "start", {
        "start": (_serve_start, "run the admission daemon",
                  session, endpoint, policy, cluster, daemon),
        "submit": (_serve_submit, "one live admission (exit 1 = reject)",
                   threads, endpoint, as_json),
        "drain": (_serve_drain, "replay a trace through the daemon",
                  config, endpoint, arrivals, as_json),
        "stop": (_serve_stop, "ask the daemon to stop", endpoint),
        "metrics": (_serve_metrics, "the daemon's metrics", endpoint, as_json),
    })
    submit.add_argument("arrival", metavar="APP[:THREADS]")
    submit.add_argument("tenant", nargs="?", help="tenant id (default: the arrival label)")
    submit.add_argument(
        "--solo-s", type=float,
        help="the arrival's work in solo-execution seconds (default 1.0)",
    )

    traffic_flags = (config, arrivals, diurnal, as_json)
    command("traffic", "generate and inspect diurnal open-loop days", "show", {
        "gen": (_traffic_gen, "generate a day as trace JSON", *traffic_flags, out),
        "show": (_traffic_show, "tabulate a day's events", *traffic_flags),
        "stats": (_traffic_stats, "per-hour arrival shape", *traffic_flags),
    })

    show, export, _ = command("trace", "telemetry recorded with --telemetry", "summary", {
        "show": (_trace_show, "print the recorded spans", store, as_json),
        "export": (_trace_export, "export spans as chrome/csv/json", store, out),
        "summary": (_trace_summary, "where the wall time went", store, as_json),
    })
    show.add_argument("--limit", type=int, help="print at most N spans (default: all)")
    export.add_argument(
        "--format", choices=("chrome", "csv", "json"),
        help="chrome (Perfetto-loadable trace-event JSON, the default), csv "
        "(per-span-name summary rows) or json (raw spans + merged metrics)",
    )
    return root, _defer_defaults(root, {})


def _defer_defaults(parser: argparse.ArgumentParser, found: dict) -> dict:
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                _defer_defaults(sub, found)
        elif action.option_strings and action.default is not argparse.SUPPRESS:
            # Parents share action objects: the first visit records it.
            found[action.dest] = (action.default, "/".join(action.option_strings))
            action.default = argparse.SUPPRESS
    return found


def build_parser() -> argparse.ArgumentParser:
    """The CLI command tree (exposed for tests and scripts/check_docs.py)."""
    return _grammar()[0]


def parse_args(argv: "list[str] | None" = None) -> argparse.Namespace:
    """Parse ``argv`` against the command tree; misuse exits 2, as argparse.

    A flag given before the command must also be one the command reads,
    and exclusive flags stay exclusive across that split.  The result
    holds every flag, defaulted where not given.
    """
    parser, defaults = _grammar()
    args = parser.parse_args(argv)
    given, leaf = vars(args), args.leaf
    accepted = {action.dest for action in leaf._actions}
    stray = [flag for dest, (_, flag) in defaults.items()
             if dest in given and dest not in accepted]
    if stray:
        leaf.error(f"unrecognized arguments: {' '.join(stray)}")
    for group in leaf._mutually_exclusive_groups:
        both = ["/".join(a.option_strings) for a in group._group_actions if a.dest in given]
        if len(both) > 1:
            leaf.error(f"argument {both[1]}: not allowed with argument {both[0]}")
    for dest, (default, _) in defaults.items():
        given.setdefault(dest, default)
    # The telemetry sink lives inside the store, and a shard without a
    # shared store would freeze a silently partial manifest.
    needs = (
        f"'{leaf.prog.split(' ', 1)[1]}'" if args.needs_store
        else "--telemetry" if args.telemetry
        else "run-all --shard" if args.shard is not None
        else None
    )
    if needs and args.store is None:
        leaf.error(f"{needs} requires --store DIR")
    return args


def _list(root: argparse.ArgumentParser) -> int:
    lines = ["experiments:"]
    for name in runner_names():
        runner = get_runner(name)
        lines.append(f"  {name:<12} {runner.title}")
    lines.append("commands:")
    for name, parser in subcommands(root).items():
        nested = subcommands(parser)
        if nested or name not in runner_names():
            usage = " ".join([name, "|".join(nested)]) if nested else name
            lines.append(f"  {usage:<38} {parser.description}")
    lines.append("applications: " + ", ".join(APPLICATIONS))
    lines.append("mini-benchmarks: " + ", ".join(MINI_BENCHMARKS))
    print("\n".join(lines))
    return 0


def _resolve_executor_arg(args: argparse.Namespace):
    name = args.executor or ("parallel" if args.parallel else None)
    if name == "parallel":
        return ParallelExecutor(args.workers)
    if name == "thread":
        return ThreadExecutor(args.workers)
    return None


def _session(args: argparse.Namespace) -> Session:
    return Session(
        _build_config(args),
        executor=_resolve_executor_arg(args),
        store=args.store,
        chunksize=args.chunksize,
        engine_batch=args.engine_batch,
    )


def _run_artifact(args: argparse.Namespace, **kwargs) -> int:
    record = _session(args).run(args.command, **kwargs)
    print(get_runner(args.command).render(record.result, csv=args.csv))
    return 0


def _run_with_engine(args: argparse.Namespace) -> int:
    """The scenario-shaped artifacts honour the engine overrides."""
    return _run_artifact(args, llc_policy=args.llc_policy, smt=args.smt)


def _store_ls(args: argparse.Namespace) -> int:
    from repro.store import ResultStore

    store = ResultStore(args.store)
    counts = store.describe()
    if args.json:
        from dataclasses import asdict

        print(
            json.dumps(
                {
                    "store": str(store.root),
                    "counts": counts,
                    "records": [asdict(e) for e in store.query()],
                },
                sort_keys=True,
            )
        )
        return 0
    print(
        f"store {store.root}: {counts['solo_entries']} solo, "
        f"{counts['corun_entries']} co-run, "
        f"{counts['scenario_entries']} scenario, "
        f"{counts['records']} record(s), "
        f"{counts['index_lines']} index line(s)"
    )
    for entry in store.query():
        print(
            f"  {entry.run_id:<32} {entry.artifact:<12} "
            f"spec={entry.spec_fingerprint} {entry.path}"
        )
    return 0


def _store_show(args: argparse.Namespace) -> int:
    from repro.session import Runner
    from repro.store import ResultStore

    store = ResultStore(args.store)
    target = args.target
    record = store.latest(target) if target in runner_names() else store.load(target)
    runner = get_runner(record.artifact)
    if type(runner).decode is not Runner.decode:
        # The runner rebuilds its result object from the payload, so
        # the stored record renders exactly like a live run.
        print(runner.render(record.result, csv=args.csv))
    else:
        # Default decode keeps the raw JSON payload: show it as-is.
        print(json.dumps(record.result, indent=1, default=str))
    print(json.dumps(record.provenance, indent=1))
    return 0


def _store_gc(args: argparse.Namespace) -> int:
    from repro.store import ResultStore, live_engine_fingerprints

    config = ExperimentConfig()
    live = live_engine_fingerprints(config.spec, config.engine_config)
    summary = ResultStore(args.store).gc(live, dry_run=args.dry_run)
    verb = "would prune" if summary["dry_run"] else "pruned"
    print(
        f"{verb} {summary['removed_entries']} cache entr(ies) in "
        f"{len(summary['removed_dirs'])} orphaned shard(s); "
        f"kept {summary['kept_entries']}"
    )
    for shard in summary["removed_dirs"]:
        print(f"  {shard}")
    return 0


def _store_diff(args: argparse.Namespace) -> int:
    """Reads manifest files directly; no --store needed."""
    from repro.store import diff_manifests, load_manifest, render_diff

    diff = diff_manifests(load_manifest(args.manifest_a), load_manifest(args.manifest_b))
    print(render_diff(diff))
    return 0 if not (diff["changed"] or diff["only_in_a"] or diff["only_in_b"]) else 1


def _store_stats(args: argparse.Namespace) -> int:
    """``repro store stats [--json]``: per-artifact run counts, total /
    mean durations and cache-tier hit rates, aggregated from the merged
    index (no record files are opened)."""
    from repro.store import ResultStore

    store = ResultStore(args.store)
    per: dict[str, dict] = {}
    for entry in store.query():
        agg = per.setdefault(
            entry.artifact,
            {"runs": 0, "total_s": 0.0, "memory": 0, "disk": 0, "engine": 0},
        )
        agg["runs"] += 1
        agg["total_s"] += entry.duration_s
        for key, count in entry.cache.items():
            if not isinstance(count, int) or count <= 0:
                continue
            if key.endswith("_disk_hits"):
                agg["disk"] += count
            elif key.endswith("_hits"):
                agg["memory"] += count
            elif key.endswith("_misses"):
                agg["engine"] += count
    stats = {}
    for name, agg in sorted(per.items()):
        lookups = agg["memory"] + agg["disk"] + agg["engine"]
        stats[name] = {
            "runs": agg["runs"],
            "total_s": agg["total_s"],
            "mean_s": agg["total_s"] / agg["runs"],
            "lookups": lookups,
            "memory_hits": agg["memory"],
            "disk_hits": agg["disk"],
            "engine_runs": agg["engine"],
            "hit_rate": (
                (agg["memory"] + agg["disk"]) / lookups if lookups else 0.0
            ),
        }
    if args.json:
        print(
            json.dumps(
                {"store": str(store.root), "artifacts": stats}, sort_keys=True
            )
        )
        return 0
    from repro.core.report import ascii_table

    rows = [
        [
            name,
            s["runs"],
            f"{s['total_s']:.3f}",
            f"{s['mean_s']:.3f}",
            s["memory_hits"],
            s["disk_hits"],
            s["engine_runs"],
            f"{s['hit_rate'] * 100:.1f}%",
        ]
        for name, s in stats.items()
    ]
    print(
        ascii_table(
            ["artifact", "runs", "total s", "mean s", "mem", "disk", "engine", "hit rate"],
            rows,
            title=f"{sum(s['runs'] for s in stats.values())} run(s) of "
            f"{len(stats)} artifact(s) in {store.root}",
        ),
        end="",
    )
    return 0


def _by_name(specs, parse, flag: str) -> dict:
    """Parse NAME:VALUE specs into a dict, refusing duplicate names —
    a repeated name would silently keep only the last value, which is
    exactly wrong for self-pair scenarios (use the Python API's
    placement-aligned sequence form for per-seat values there)."""
    from repro.errors import ScenarioError

    out: dict = {}
    for spec in specs:
        name, value = parse(spec)
        if name in out:
            raise ScenarioError(
                f"{flag} names {name!r} twice; one value per workload "
                "(for a self-pair, use Scenario.with_ways/with_pinning "
                "with a placement-aligned list)"
            )
        out[name] = value
    return out


def _scenario_ls(args: argparse.Namespace) -> int:
    from repro.store import ResultStore

    store = ResultStore(args.store)
    entries = store.scenarios()
    if args.json:
        print(json.dumps({"store": str(store.root), "scenarios": entries}, sort_keys=True))
        return 0
    print(f"{len(entries)} persisted N-way scenario(s) in {store.root}")
    for e in entries:
        payload = e["scenario"]
        apps = "+".join(f"{name}:{threads}" for name, threads in payload["apps"])
        policy = payload["llc_policy"] or "default"
        smt = "on" if payload["smt"] else "off"
        extras = ""
        if payload.get("llc_ways"):
            masks = "/".join(
                f"{m:#x}" if m is not None else "-"
                for m in payload["llc_ways"]
            )
            extras += f" ways={masks}"
        if payload.get("pinning"):
            pins = "/".join(
                ",".join(str(c) for c in p) if p is not None else "-"
                for p in payload["pinning"]
            )
            extras += f" pin={pins}"
        print(
            f"  {apps:<44} llc={policy:<8} smt={smt} "
            f"engine={e['engine_fingerprint']}{extras}"
        )
    return 0


def _scenario_run(args: argparse.Namespace) -> int:
    session = _session(args)
    scenario = Scenario.of(
        *args.placements,
        threads=args.threads,
        llc_policy=args.llc_policy,
        smt=args.smt,
    )
    if args.ways:
        scenario = scenario.with_ways(_by_name(args.ways, parse_way_mask, "--ways"))
    if args.pin:
        scenario = scenario.with_pinning(_by_name(args.pin, parse_pinning, "--pin"))
    record = session.run("scenario", scenario=scenario)
    print(get_runner("scenario").render(record.result, csv=args.csv))
    return 0


def _traffic_trace(args: argparse.Namespace):
    """Resolve the arrival trace shared by the traffic commands:
    ``--traffic MODEL.json`` (generated; the file's own ``seed`` /
    ``hours`` keys are honored unless ``--hours`` overrides), ``--trace
    SPEC`` (incl. the ``diurnal:`` form), or a default diurnal day from
    the roster and the ``--seed/--hours/--scale/--rate`` knobs."""
    from repro.sched.trace import parse_trace
    from repro.traffic import (
        DiurnalCurve,
        TrafficModel,
        WorkloadMix,
        generate_from_file,
    )
    from repro.traffic.model import DEFAULT_RATE_PER_HOUR

    workloads = _build_config(args).workloads
    if args.traffic is not None:
        return generate_from_file(args.traffic, hours=args.hours)
    if args.trace is not None:
        return parse_trace(args.trace, workloads)
    model = TrafficModel(
        mix=WorkloadMix.uniform(workloads),
        curve=DiurnalCurve.business_hours(
            args.scale if args.scale is not None else 60.0
        ),
        rate_per_hour=(
            args.rate if args.rate is not None else DEFAULT_RATE_PER_HOUR
        ),
    )
    return model.generate(
        seed=args.seed,
        hours=args.hours if args.hours is not None else 24.0,
    )


def _traffic_gen(args: argparse.Namespace) -> int:
    trace = _traffic_trace(args)
    if args.out is not None:
        trace.to_json(args.out)
        print(
            f"wrote {len(trace.arrivals)} arrival(s) / "
            f"{len(trace) - len(trace.arrivals)} departure(s) to "
            f"{args.out} (trace {trace.fingerprint})"
        )
    else:
        print(json.dumps(trace.payload(), indent=None if args.json else 1))
    return 0


def _traffic_show(args: argparse.Namespace) -> int:
    from repro.core.report import ascii_table

    trace = _traffic_trace(args)
    if args.json:
        print(json.dumps(trace.payload(), sort_keys=True))
        return 0
    rows = [
        [
            f"{e.time_s:.3f}",
            e.kind,
            e.tenant,
            e.workload or "-",
            e.threads or "-",
            f"{e.solo_s:.3f}" if e.kind == "arrival" else "-",
            e.hint or "-",
        ]
        for e in trace
    ]
    print(
        ascii_table(
            ["time_s", "kind", "tenant", "workload", "threads", "solo_s", "hint"],
            rows,
            title=(
                f"{len(trace.arrivals)} arrival(s), "
                f"{len(trace) - len(trace.arrivals)} departure(s) "
                f"(trace {trace.fingerprint})"
            ),
        ),
        end="",
    )
    return 0


def _traffic_stats(args: argparse.Namespace) -> int:
    from repro.traffic import trace_stats

    trace = _traffic_trace(args)
    bucket_s = 3600.0 / (args.scale if args.scale is not None else 60.0)
    stats = trace_stats(trace, bucket_s=bucket_s)
    if args.json:
        print(json.dumps(stats.payload(), sort_keys=True))
    else:
        print(stats.render(), end="")
    return 0


def _replay_kwargs(args: argparse.Namespace, kwargs: dict) -> dict:
    """Add the policy / cluster knobs a replay runner takes."""
    if args.policy:
        kwargs["policies"] = tuple(args.policy)
    if args.machines is not None:
        kwargs["machines"] = args.machines
    if args.slo is not None:
        kwargs["slo"] = args.slo
    if args.replan:
        kwargs["replan"] = True
    return kwargs


def _traffic_replay(args: argparse.Namespace) -> int:
    """``repro traffic-replay``: route the traffic knobs into the
    registered runner (campaigns run its defaults)."""
    knobs = {"traffic": args.traffic, "hours": args.hours,
             "scale": args.scale, "rate": args.rate}
    kwargs = {k: v for k, v in knobs.items() if v is not None}
    record = _session(args).run("traffic-replay", **_replay_kwargs(args, kwargs))
    runner = get_runner("traffic-replay")
    if args.json:
        print(
            json.dumps(
                {
                    "replay": runner.encode(record.result),
                    "cache": record.provenance["cache"],
                },
                sort_keys=True,
            )
        )
    else:
        print(runner.render(record.result), end="")
    return 0


def _sched_replay(args: argparse.Namespace) -> int:
    session = _session(args)
    kwargs: dict = {}
    if args.trace is not None:
        kwargs["trace"] = args.trace
    elif args.traffic is not None:
        from repro.traffic import generate_from_file

        kwargs["trace"] = generate_from_file(args.traffic)
    record = session.run("sched-replay", **_replay_kwargs(args, kwargs))
    runner = get_runner("sched-replay")
    if args.json:
        print(
            json.dumps(
                {
                    "comparison": runner.encode(record.result),
                    "cache": record.provenance["cache"],
                },
                sort_keys=True,
            )
        )
    else:
        print(runner.render(record.result))
    return 0


def _cluster(args: argparse.Namespace, session: Session):
    """The ``--cluster`` state file, or None when not given."""
    if args.cluster is None:
        return None
    from repro.sched import Cluster

    try:
        payload = json.loads(Path(args.cluster).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise SchedError(f"cannot read cluster {args.cluster}: {exc}") from exc
    return Cluster.from_payload(payload, session.spec)


def _sched_decide(args: argparse.Namespace) -> int:
    from repro.core.classify import VICTIM_THRESHOLD
    from repro.sched import Cluster, PlacementEvaluator, Tenant, get_policy
    from repro.session.scenario import parse_placement

    session = _session(args)
    placement = parse_placement(args.arrival, default_threads=args.threads)
    cluster = _cluster(args, session)
    if cluster is None:
        machines = args.machines if args.machines is not None else 2
        cluster = Cluster.homogeneous(machines, session.spec)
    tenant = Tenant(
        tenant="arrival",
        workload=placement.workload,
        threads=placement.threads,
        solo_s=1.0,
    )
    policy = get_policy((args.policy or ["interference"])[0])
    slo = args.slo if args.slo is not None else VICTIM_THRESHOLD
    decision, _ = policy.decide(
        cluster, tenant, PlacementEvaluator(session), slo=slo
    )
    if args.json:
        print(json.dumps(decision.payload(), sort_keys=True))
    elif decision.admitted:
        residents = ", ".join(decision.co_tenants) or "(empty machine)"
        predicted = (
            "; predicted slowdowns "
            + ", ".join(f"{s:.3f}x" for s in decision.predicted)
            if decision.predicted
            else ""
        )
        print(
            f"admit {placement.label} on {decision.machine} "
            f"[{decision.variant}] with {residents}"
            f"{predicted} ({decision.candidates} candidate(s), "
            f"policy {decision.policy}, SLO {slo:.2f}x)"
        )
    else:
        print(
            f"reject {placement.label}: {decision.reason} "
            f"({decision.candidates} candidate(s), policy "
            f"{decision.policy}, SLO {slo:.2f}x)"
        )
    return 0 if decision.admitted else 1


def _endpoint(args: argparse.Namespace) -> "tuple[str, int]":
    return args.host or "127.0.0.1", args.port if args.port is not None else 7453


def _client(args: argparse.Namespace):
    from repro.serve import ServeClient

    return ServeClient(*_endpoint(args))


def _serve_start(args: argparse.Namespace) -> int:
    """``repro serve start``: the admission daemon, until stopped."""
    import asyncio

    from repro.serve import ServeDaemon

    session = _session(args)
    host, port = _endpoint(args)
    daemon = ServeDaemon(
        session,
        host=host,
        port=port,
        cluster=_cluster(args, session),
        machines=args.machines if args.machines is not None else 2,
        policy=(args.policy or ["interference"])[0],
        **({"slo": args.slo} if args.slo is not None else {}),
        replan=not args.no_replan,
        budget_s=args.budget_s,
    )

    def _announce(d: ServeDaemon) -> None:
        budget = f", budget {d.budget_s * 1e3:.0f}ms" if d.budget_s else ""
        print(
            f"serve: listening on {d.host}:{d.port} "
            f"(policy={d.scheduler.policy.name}, "
            f"slo={d.scheduler.slo:.2f}x, "
            f"replan={'on' if d.scheduler.replan else 'off'}, "
            f"machines={len(list(d.scheduler.cluster))}{budget})",
            flush=True,
        )

    asyncio.run(daemon.run(ready=_announce))
    print("serve: stopped", flush=True)
    return 0


def _serve_submit(args: argparse.Namespace) -> int:
    import asyncio

    from repro.session.scenario import parse_placement

    placement = parse_placement(args.arrival, default_threads=args.threads)
    tenant = args.tenant or placement.label
    response = asyncio.run(
        _client(args).arrival(
            tenant=tenant,
            workload=placement.workload,
            threads=placement.threads,
            solo_s=args.solo_s if args.solo_s is not None else 1.0,
        )
    )
    if args.json:
        print(json.dumps(response, sort_keys=True))
        return 0 if response["decision"]["admitted"] else 1
    decision = response["decision"]
    verb = (
        f"admit on {decision['machine']} [{decision['variant']}]"
        if decision["admitted"]
        else f"reject ({decision['reason']})"
    )
    budget = (
        ""
        if response.get("within_budget") is None
        else (" within budget" if response["within_budget"] else " OVER BUDGET")
    )
    print(f"{tenant}: {verb} in {response['latency_s'] * 1e3:.2f}ms{budget}")
    return 0 if decision["admitted"] else 1


def _serve_drain(args: argparse.Namespace) -> int:
    import asyncio

    from repro.sched import ArrivalTrace, parse_trace
    from repro.serve import drain_trace

    config = _build_config(args)
    if args.trace is not None:
        trace = parse_trace(args.trace, config.workloads)
    elif args.traffic is not None:
        from repro.traffic import generate_from_file

        trace = generate_from_file(args.traffic)
    else:
        trace = ArrivalTrace.synthetic(config.workloads, seed=config.seed)
    client = _client(args)

    async def _drain():
        await client.wait_ready()
        return await drain_trace(client, trace)

    result = asyncio.run(_drain())
    if args.json:
        print(
            json.dumps(
                {
                    "report": result.report.payload(),
                    "latencies": result.latencies,
                    "p50_latency_s": result.p50_latency_s,
                    "p95_latency_s": result.p95_latency_s,
                    "budget_misses": result.budget_misses,
                },
                sort_keys=True,
            )
        )
    else:
        print(result.render(), end="")
    return 0


def _serve_stop(args: argparse.Namespace) -> int:
    import asyncio

    client = _client(args)
    asyncio.run(client.shutdown())
    print(f"serve: asked {client.url} to stop")
    return 0


def _serve_metrics(args: argparse.Namespace) -> int:
    import asyncio

    payload = asyncio.run(_client(args).metrics())
    print(
        json.dumps(payload, sort_keys=True)
        if args.json
        else json.dumps(payload, indent=1, sort_keys=True)
    )
    return 0


def _spans(args: argparse.Namespace) -> "tuple[Path, list]":
    """``<store>/telemetry`` and its spans (recorded with ``--telemetry``)."""
    from repro.telemetry.export import read_spans

    root = Path(args.store) / "telemetry"
    spans = read_spans(root)
    if not spans:
        print(
            f"no telemetry under {root} (record a run with --telemetry)",
            file=sys.stderr,
        )
    return root, spans


def _trace_show(args: argparse.Namespace) -> int:
    _, spans = _spans(args)
    if not spans:
        return 1
    shown = spans if args.limit is None else spans[: args.limit]
    if args.json:
        for span in shown:
            print(json.dumps(span, sort_keys=True))
        return 0
    base = spans[0]["ts"]
    for span in shown:
        tags = " ".join(
            f"{k}={v}" for k, v in sorted((span.get("tags") or {}).items())
        )
        print(
            f"+{span['ts'] - base:10.6f}s pid={span['pid']:<7} "
            f"{span['dur_s'] * 1e3:9.3f}ms {span['name']:<22} {tags}"
        )
    if len(shown) < len(spans):
        print(f"... {len(spans) - len(shown)} more span(s); raise --limit")
    return 0


def _trace_export(args: argparse.Namespace) -> int:
    from repro.telemetry.export import (
        chrome_trace,
        metrics_snapshot,
        summarize,
        summary_rows,
    )

    root, spans = _spans(args)
    if not spans:
        return 1
    fmt = args.format or "chrome"
    if fmt == "chrome":
        payload = json.dumps(chrome_trace(spans))
    elif fmt == "json":
        payload = json.dumps(
            {"spans": spans, "metrics": metrics_snapshot(root)},
            sort_keys=True,
        )
    else:
        payload = "\n".join(",".join(row) for row in summary_rows(summarize(spans)))
    if args.out is not None:
        Path(args.out).write_text(payload + "\n", encoding="utf-8")
        print(f"wrote {len(spans)} span(s) to {args.out} [{fmt}]")
    else:
        print(payload)
    return 0


def _trace_summary(args: argparse.Namespace) -> int:
    from repro.telemetry.export import render_summary, summarize

    _, spans = _spans(args)
    if not spans:
        return 1
    summary = summarize(spans)
    if args.json:
        print(json.dumps(summary, sort_keys=True))
    else:
        print(render_summary(summary), end="")
    return 0


def _run_all(args: argparse.Namespace) -> int:
    """Execute every registered runner (or one ``--shard I/N`` slice of
    them) and freeze the campaign manifest."""
    from repro.store import parse_shard, shard_names, write_manifest

    session = _session(args)
    names = None
    if args.shard is not None:
        index, count = parse_shard(args.shard)
        names = shard_names(runner_names(), index, count)
        print(f"shard {index}/{count}: {', '.join(names)}")
        if count > 1:
            # Warm this shard's cell slice of the scenario-set sweep
            # first: the sweep splits at *cell* granularity across
            # shards, so whichever shard owns the artifact name later
            # materializes the canonical record mostly from cache hits
            # instead of re-simulating the whole sweep alone.
            slice_record = session.run("scenario-set", shard=args.shard)
            print(
                f"scenario-set shard {args.shard}: warmed "
                f"{len(slice_record.result.cells)} cell(s)"
            )
    records = session.run_all(include_extensions=True, names=names)
    for name, record in records.items():
        prov = record.provenance
        cache = prov["cache"]
        served = sum(
            cache.get(k, 0)
            for k in (
                "solo_hits", "corun_hits", "scenario_hits",
                "solo_disk_hits", "corun_disk_hits", "scenario_disk_hits",
            )
        )
        simulated = sum(
            cache.get(k, 0)
            for k in ("solo_misses", "corun_misses", "scenario_misses")
        )
        print(
            f"{name:<14} {prov['duration_s'] * 1e3:8.1f} ms   "
            f"cache: {served} served / {simulated} simulated"
        )
    if args.manifest is not None:
        manifest_path = Path(args.manifest)
    elif session.store is not None:
        manifest_path = session.store.root / "manifest.json"
    else:
        manifest_path = Path("manifest.json")
    if args.shard is not None:
        # A shard only ran its slice: rebuild the manifest from the
        # store's merged index so it covers every shard finished so far
        # (the last shard's freeze covers the whole campaign).
        from repro.store import write_manifest_from_store

        manifest = write_manifest_from_store(
            session.store,
            session.config,
            manifest_path,
            executor_name=f"run-all --shard {args.shard}",
        )
        covered = len(manifest["artifacts"])
        print(f"manifest covers {covered} artifact(s) persisted so far")
    else:
        write_manifest(session, manifest_path, session.store)
    stats = session.stats
    print(
        f"{len(records)} artifacts -> {manifest_path}   "
        f"disk hits: {stats.solo_disk_hits} solo / {stats.corun_disk_hits} co-run"
        f" / {stats.scenario_disk_hits} scenario"
    )
    return 0


def _campaign(args: argparse.Namespace) -> int:
    """``repro campaign``: fork N workers over the runner registry, all
    sharing one store, with claim-file work stealing."""
    from repro.store import run_campaign

    workers = args.workers if args.workers is not None else 2
    inner = args.executor or ("parallel" if args.parallel else None)
    summary = run_campaign(
        _build_config(args),
        args.store,
        workers=workers,
        manifest_path=args.manifest,
        executor=inner,
        chunksize=args.chunksize,
    )
    for report in summary["workers"]:
        cache = report["cache"]
        served = sum(v for k, v in cache.items() if k.endswith("hits"))
        simulated = sum(v for k, v in cache.items() if k.endswith("misses"))
        print(
            f"worker pid={report['pid']}: {len(report['done'])} artifact(s) "
            f"[{', '.join(report['done'])}] cache: {served} served / "
            f"{simulated} simulated"
        )
    if summary["recovered"]:
        print(
            f"recovered {len(summary['recovered'])} artifact(s) re-queued "
            f"from dead worker(s): {', '.join(summary['recovered'])}"
        )
    totals = summary["cache"]
    disk = (
        totals.get("solo_disk_hits", 0)
        + totals.get("corun_disk_hits", 0)
        + totals.get("scenario_disk_hits", 0)
    )
    print(
        f"{len(summary['artifacts'])} artifacts -> {summary['manifest_path']}   "
        f"{workers} worker(s), {disk} disk hit(s) across the campaign"
    )
    return 0


def _build_config(args: argparse.Namespace) -> ExperimentConfig:
    if args.workloads:
        names = tuple(w.strip() for w in args.workloads.split(",") if w.strip())
    else:
        names = APPLICATIONS
    config = ExperimentConfig(
        threads=args.threads,
        repetitions=args.repetitions,
        seed=args.seed,
        workloads=names,
    )
    if args.engine_batch is not None:
        # Exported so campaign / pool workers building their own
        # sessions resolve the same batch-vs-scalar choice.
        os.environ["REPRO_ENGINE_BATCH"] = "1" if args.engine_batch else "0"
    return config


def _configure_logging(args: argparse.Namespace) -> None:
    """Map ``-q`` / ``-v`` / ``-vv`` onto stdlib logging to stderr.

    The package modules (session, store, campaign, sched) log through
    ``logging.getLogger(__name__)``; default visibility is WARNING so
    normal runs stay byte-identical on stdout.
    """
    import logging

    if args.quiet:
        level = logging.ERROR
    elif args.verbose >= 2:
        level = logging.DEBUG
    elif args.verbose == 1:
        level = logging.INFO
    else:
        level = logging.WARNING
    logging.basicConfig(
        level=level,
        stream=sys.stderr,
        format="%(levelname)s %(name)s: %(message)s",
    )


def main(argv: list[str] | None = None) -> int:
    """Entry point: the exit status (argparse's 2 on misuse, 0 for -h)."""
    try:
        args = parse_args(argv)
    except SystemExit as exc:
        return exc.code
    _configure_logging(args)
    try:
        if args.telemetry:
            from repro.telemetry.tracer import enable as _telemetry_enable

            _telemetry_enable(Path(args.store) / "telemetry")
        try:
            return args.func(args)
        finally:
            if args.telemetry:
                from repro.telemetry.tracer import disable as _telemetry_disable

                _telemetry_disable()
    except StoreError as exc:
        print(f"store error: {exc}", file=sys.stderr)
        return 2
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream pager/head closed the pipe: exit quietly (and keep
        # the interpreter from re-raising on stdout flush at shutdown).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
