"""Tests for the CLI grammar itself: the argparse command tree of
:mod:`repro.cli` — global flags on either side of the command, help on
every command, and refusal of arguments that no command reads."""

import pytest

from repro.cli import build_parser, main, parse_args, subcommands

ROOT = build_parser()


def commands(parser, path=()):
    """``(path, parser)`` for every command, bare group commands included."""
    for name, sub in subcommands(parser).items():
        yield (*path, name), sub
        yield from commands(sub, (*path, name))


COMMANDS = dict(commands(ROOT))
GLOBAL = [a for a in ROOT._actions if a.option_strings and a.dest != "help"]

#: Values for the required positionals of the commands that take them.
POSITIONALS = {
    ("store", "show"): ["fig5"],
    ("store", "diff"): ["a.json", "b.json"],
    ("scenario", "run"): ["G-CC:2", "swaptions:2"],
    ("sched", "decide"): ["G-CC:4"],
    ("serve", "submit"): ["G-CC:4"],
}


def flag_argv(action):
    if action.nargs == 0:
        return [action.option_strings[0]]
    if action.choices:
        return [action.option_strings[0], list(action.choices)[-1]]
    value = {int: "3", float: "1.5"}.get(action.type, "v")
    return [action.option_strings[0], value]


@pytest.mark.parametrize("path", list(COMMANDS), ids=" ".join)
def test_global_flags_parse_the_same_before_and_after_the_command(path):
    # Compares the raw namespaces, which hold exactly the flags given:
    # a subcommand's own default must not overwrite a value given
    # before the command (``repro --store A store ls`` is store=A).
    accepted = {action.dest for action in COMMANDS[path]._actions}
    tail = POSITIONALS.get(path, [])
    checked = 0
    for action in GLOBAL:
        if action.dest not in accepted:
            continue
        flag = flag_argv(action)
        before = vars(ROOT.parse_args([*flag, *path, *tail]))
        after = vars(ROOT.parse_args([*path, *tail, *flag]))
        assert before == after, flag
        assert action.dest in before, flag
        checked += 1
    assert checked  # -v/-q at least


def test_a_value_given_before_the_command_survives_its_defaults():
    assert parse_args(["--store", "A", "store", "ls"]).store == "A"
    args = parse_args(["--store", "A", "--threads", "2", "sched", "replay"])
    assert args.store == "A" and args.threads == 2
    args = parse_args(["--store", "A", "fig5"])
    assert args.store == "A" and args.threads == 4  # the default filled in


@pytest.mark.parametrize("path", [(), *COMMANDS], ids=lambda p: " ".join(p) or "repro")
def test_help_exits_zero(path, capsys):
    assert main([*path, "-h"]) == 0
    assert capsys.readouterr().out.startswith("usage: repro-interference")


def test_serveload_daemon_argv_parses_to_serve_start(tmp_path):
    # The exact argv perfbench/serveload.py's start_daemon builds.
    args = parse_args([
        "serve", "start", "--store", str(tmp_path), "--port", "0",
        "--workloads", "G-CC,fotonik3d,swaptions", "--threads", "4",
    ])
    assert args.leaf.prog == "repro-interference serve start"
    assert args.store == str(tmp_path) and args.port == 0
    assert args.workloads == "G-CC,fotonik3d,swaptions" and args.threads == 4


@pytest.mark.parametrize("group, default, flags", [
    ("store", "ls", ["--store", "S", "--json"]),
    ("sched", "replay", ["--trace", "seed:0:2", "--json"]),
    ("serve", "start", ["--port", "0", "--no-replan"]),
    ("traffic", "show", ["--hours", "2", "--json"]),
    ("trace", "summary", ["--store", "S", "--json"]),
])
def test_bare_group_command_runs_its_default_subcommand(group, default, flags):
    bare, named = parse_args([group, *flags]), parse_args([group, default, *flags])
    assert bare.func is named.func
    assert {k: v for k, v in vars(bare).items() if k != "leaf"} == {
        k: v for k, v in vars(named).items() if k != "leaf"
    }


def test_list_names_every_command_from_the_tree(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("list", "run-all", "campaign", "store ls|show|gc|diff|stats",
                 "scenario run|ls", "sched replay|decide", "trace show|export|summary",
                 "serve start|submit|drain|stop|metrics", "traffic gen|show|stats"):
        assert f"  {name} " in out, name


@pytest.fixture(scope="module")
def populated_store(tmp_path_factory):
    store = str(tmp_path_factory.mktemp("cli") / "store")
    assert main(["table1", "--store", store, "--workloads", "swaptions"]) == 0
    return store


@pytest.mark.parametrize("argv, token", [
    (["sched", "decide", "G-CC:4", "extra", "--workloads", "G-CC,swaptions"], "extra"),
    (["scenario", "ls", "extra", "--store", "{store}"], "extra"),
    (["store", "show", "table1", "extra", "--store", "{store}"], "extra"),
    (["store", "ls", "--dry-run", "--store", "{store}"], "--dry-run"),
    (["sched", "replay", "--csv", "--workloads", "G-CC,swaptions"], "--csv"),
    (["traffic", "show", "--manifest", "m.json", "--workloads", "G-CC"], "--manifest"),
    (["list", "--manifest", "x.json"], "--manifest"),
    (["serve", "submit", "G-CC:4", "t0", "extra"], "extra"),
    (["--port", "7453", "fig5", "--workloads", "swaptions"], "--port"),
    (["--store", "{store}", "--telemetry", "trace", "summary"], "--telemetry"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_arguments_nothing_reads_are_refused(argv, token, populated_store, capsys):
    argv = [a.replace("{store}", populated_store) for a in argv]
    assert main(argv) == 2
    assert token in capsys.readouterr().err


def test_sched_replay_refuses_cluster(tmp_path, capsys):
    # Replay builds its own cluster, so a --cluster file (even a
    # missing one) would be ignored while replaying the default.
    code = main([
        "sched", "replay", "--cluster", str(tmp_path / "missing.json"),
        "--workloads", "G-CC,swaptions",
    ])
    assert code == 2
    assert "unrecognized arguments: --cluster" in capsys.readouterr().err


def test_exclusive_flags_stay_exclusive_across_the_command(capsys):
    assert main(["--trace", "seed:0:2", "sched", "replay", "--traffic", "m.json"]) == 2
    assert "--traffic: not allowed with argument --trace" in capsys.readouterr().err
    assert main(["-q", "fig5", "-v"]) == 2
    assert "not allowed with argument" in capsys.readouterr().err



@pytest.mark.parametrize("argv, dest, value", [
    ("--policy baseline sched replay --policy interference",
     "policy", ["baseline", "interference"]),
    ("--policy baseline sched --policy interference replay --policy baseline",
     "policy", ["baseline", "interference", "baseline"]),
    ("--policy baseline sched replay", "policy", ["baseline"]),
    ("sched replay --policy interference", "policy", ["interference"]),
    ("-v fig5 -v", "verbose", 2),
    ("-vv fig5 -v", "verbose", 3),
    ("-v store -v ls -v --store S", "verbose", 3),
    ("-v fig5", "verbose", 1),
    ("fig5", "verbose", 0),
])
def test_repeatable_flags_accumulate_across_the_command(argv, dest, value):
    # argparse parses the part after a command into a fresh namespace;
    # an append or count flag given on both sides must add up, not
    # keep the later side alone.
    assert getattr(parse_args(argv.split()), dest) == value
