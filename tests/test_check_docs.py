"""Tests for scripts/check_docs.py — the doc-vs-CLI drift checker —
plus the acceptance check itself: the committed docs must be clean."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "check_docs", ROOT / "scripts" / "check_docs.py"
)
check_docs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_docs)


def found_in(text):
    return [
        (Path("doc.md"), lineno, argv)
        for lineno, argv in check_docs.iter_invocations(
            check_docs.iter_cli_lines(text)
        )
    ]


class TestLineExtraction:
    def test_only_fenced_cli_lines_are_kept(self):
        text = "\n".join(
            [
                "Use `repro fig5 --store DIR` in prose — not extracted.",
                "```bash",
                "PYTHONPATH=src python -m repro.cli fig5 --store .st",
                "PYTHONPATH=src python -m pytest -x -q --store bogus",
                "ls --color",
                "```",
                "python -m repro.cli run-all --shard 1/2  # outside the fence",
            ]
        )
        lines = [line for _, line in check_docs.iter_cli_lines(text)]
        assert lines == ["PYTHONPATH=src python -m repro.cli fig5 --store .st"]

    def test_backslash_continuations_are_followed(self):
        text = "\n".join(
            [
                "```bash",
                "PYTHONPATH=src python -m repro.cli sched replay \\",
                "    --trace seed:0:10 --policy baseline",
                "--orphan-flag-not-part-of-any-invocation",
                "```",
            ]
        )
        lines = [line for _, line in check_docs.iter_cli_lines(text)]
        assert len(lines) == 2
        assert lines[1] == "--trace seed:0:10 --policy baseline"

    def test_flags_are_parsed_out_of_kept_lines(self, tmp_path):
        doc = tmp_path / "doc.md"
        doc.write_text(
            "```bash\nrepro traffic gen --seed 5 --out day.json\n```\n"
        )
        found = found_in(doc.read_text())
        assert [argv for _, _, argv in found] == [
            ["traffic", "gen", "--seed", "5", "--out", "day.json"]
        ]

    def test_invocations_split_at_shell_punctuation(self):
        text = "\n".join(
            [
                "```bash",
                "PYTHONPATH=src python -m repro.cli serve start --port 0 \\",
                "    --budget-s 0.25 > d.out &",
                "repro serve metrics --port 7; repro serve stop --port 7  # done",
                "```",
            ]
        )
        assert [argv for _, _, argv in found_in(text)] == [
            ["serve", "start", "--port", "0", "--budget-s", "0.25"],
            ["serve", "metrics", "--port", "7"],
            ["serve", "stop", "--port", "7"],
        ]


class TestValidation:
    def test_known_flags_cover_the_live_surface(self):
        for argv in (
            ["sched", "replay", "--trace", "seed:0:1", "--json"],
            ["--store", "D", "traffic-replay", "--traffic", "m.json", "--hours", "2"],
            ["traffic", "gen", "--out", "day.json"],
            ["store", "ls", "--store", "D", "--json"],
            ["--store", "D", "--workloads", "G-CC", "fig5", "--csv"],
        ):
            assert check_docs.stale_flags([(Path("doc.md"), 1, argv)]) == []

    def test_a_stale_flag_is_caught(self):
        flags = check_docs.stale_flags(
            found_in("```bash\npython -m repro.cli fig5 --frobnicate-quickly\n```\n")
        )
        assert [flag for _, _, flag, _ in flags] == ["--frobnicate-quickly"]

    def test_a_flag_of_another_command_is_caught(self):
        # --trace exists, but only on commands that replay arrivals.
        stale = check_docs.stale_flags(
            found_in("```bash\nrepro fig5 --trace seed:0:1\n```\n")
        )
        assert [(flag, command) for _, _, flag, command in stale] == [
            ("--trace", "fig5")
        ]

    def test_global_flags_before_the_command_are_checked_too(self):
        stale = check_docs.stale_flags(
            found_in("```bash\nrepro --port 7453 --store D fig5\n```\n")
        )
        assert [flag for _, _, flag, _ in stale] == ["--port"]

    def test_cli_usage_docstring_is_scanned(self):
        found = check_docs.invocations([])
        assert found and {p.name for p, _, _ in found} == {"cli.py"}
        # The backslash-continued usage line arrives as one invocation.
        assert any(
            argv[:3] == ["--store", ".repro-store", "sched"] and "--policy" in argv
            for _, _, argv in found
        )


class TestCommittedDocs:
    def test_readme_and_docs_have_no_stale_flags(self):
        # The acceptance criterion itself: every --flag the committed
        # prose documents must be one its command accepts.
        found = check_docs.invocations(check_docs.doc_files(ROOT))
        assert found, "the docs should document at least one CLI invocation"
        stale = [
            (str(p.relative_to(ROOT)), n, f, command)
            for p, n, f, command in check_docs.stale_flags(found)
        ]
        assert stale == []

    def test_both_doc_pages_exist_and_are_readme_linked(self):
        readme = (ROOT / "README.md").read_text()
        for page in ("docs/architecture.md", "docs/trace-format.md"):
            assert (ROOT / page).is_file(), page
            assert page in readme, f"README does not link {page}"
