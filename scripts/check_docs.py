#!/usr/bin/env python
"""Doc-vs-CLI drift check: every ``--flag`` the prose shows must be one
the invoked command accepts.

Walks the fenced code blocks of README.md and docs/*.md, plus the
``repro ...`` usage lines of the :mod:`repro.cli` module docstring,
keeps the lines that invoke the repro CLI (``repro ...`` / ``python -m
repro.cli ...``), follows each invocation down the command tree of
:func:`repro.cli.build_parser` to the leaf it runs, and checks every
``--flag`` on the line — global flags before the command included —
against that leaf's options.  Lines invoking anything else — pytest,
pip, plain python — are skipped: their flags belong to other tools.

Exit 0 when the docs are clean; exit 1 listing every stale flag with
its file, line and command.  CI runs this in the lint job, and
``tests/test_check_docs.py`` keeps the checker itself honest.
"""

from __future__ import annotations

import re
import shlex
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: A line is a repro-CLI invocation if it mentions one of these.
_CLI_MARKERS = ("python -m repro.cli", "repro ")

#: ``--flag`` tokens; '=' and trailing punctuation terminate the name.
_FLAG_RE = re.compile(r"(?<![\w-])(--[A-Za-z][\w-]*)")

#: Lines that *look* like CLI calls but drive other tools.
_SKIP_RE = re.compile(r"\b(pytest|pip|ruff)\b")


def doc_files(root: Path = REPO_ROOT) -> "list[Path]":
    docs = sorted((root / "docs").glob("*.md")) if (root / "docs").is_dir() else []
    return [root / "README.md", *docs]


def iter_cli_lines(text: str, fenced_only: bool = True):
    """Yield ``(lineno, line)`` for repro-CLI lines inside fenced blocks
    (or, with ``fenced_only=False``, lines that start with ``repro``)."""
    fenced = False
    continuation = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        if line.lstrip().startswith("```"):
            fenced = not fenced
            continuation = False
            continue
        if fenced_only and not fenced:
            continue
        stripped = line.strip()
        is_cli = (
            any(m in stripped for m in _CLI_MARKERS) if fenced_only
            else stripped.startswith("repro ")
        ) and not _SKIP_RE.search(stripped)
        if is_cli or (continuation and stripped.startswith("--")):
            yield lineno, stripped
        # Backslash continuations carry the invocation onto the next line.
        continuation = (is_cli or continuation) and stripped.endswith("\\")


def iter_invocations(lines):
    """Join continuation lines, split shell lists and pipes, and yield
    ``(lineno, argv)`` for each repro-CLI command (argv after the
    ``repro`` / ``python -m repro.cli`` prefix)."""
    start, text = None, ""
    for lineno, line in lines:
        start = start or lineno
        text += " " + line.rstrip("\\")
        if line.endswith("\\"):
            continue
        lexer = shlex.shlex(text, posix=True, punctuation_chars=True)
        lexer.whitespace_split = True
        command: list = []
        for token in [*lexer, ";"]:
            if token.strip("();<>|&"):
                command.append(token)
                continue
            while command and ("=" in command[0] or command[0] == "time"):
                command.pop(0)  # VAR=value prefixes and `time`
            if command[:1] == ["repro"]:
                yield start, command[1:]
            elif command[1:3] == ["-m", "repro.cli"]:
                yield start, command[3:]
            command = []
        start, text = None, ""


def invocations(paths: "list[Path]") -> "list[tuple[Path, int, list]]":
    """Every repro invocation of the docs and the CLI's usage docstring."""
    found = [
        (path, lineno, argv)
        for path in paths
        for lineno, argv in iter_invocations(iter_cli_lines(path.read_text()))
    ]
    from repro import cli

    usage = iter_cli_lines(cli.__doc__, fenced_only=False)
    found += [(Path(cli.__file__), n, argv) for n, argv in iter_invocations(usage)]
    return found


def invoked_leaf(argv: list, root):
    """``(command path, parser)`` of the command ``argv`` runs."""
    from repro.cli import subcommands

    parser, path = root, []
    tokens = iter(argv)
    for token in tokens:
        if token.startswith("-"):
            action = parser._option_string_actions.get(token.split("=")[0])
            if action is not None and action.nargs is None and "=" not in token:
                next(tokens, None)  # the flag's value
            continue
        nested = subcommands(parser)
        if token not in nested:
            break
        parser = nested[token]
        path.append(token)
    return " ".join(path), parser


def stale_flags(found) -> "list[tuple[Path, int, str, str]]":
    """``(path, lineno, flag, command)`` for each flag the command
    it appears with does not accept (or that names no command)."""
    from repro.cli import build_parser

    root, stale = build_parser(), []
    for path, lineno, argv in found:
        command, leaf = invoked_leaf(argv, root)
        for flag in _FLAG_RE.findall(" ".join(argv)):
            if not command or flag not in leaf._option_string_actions:
                stale.append((path, lineno, flag, command))
    return stale


def main() -> int:
    found = invocations(doc_files())
    flags = sum(len(_FLAG_RE.findall(" ".join(argv))) for _, _, argv in found)
    if not flags:
        print("check_docs: no repro-CLI flags found in the docs", file=sys.stderr)
        return 1
    stale = stale_flags(found)
    for path, lineno, flag, command in stale:
        rel = path.relative_to(REPO_ROOT)
        where = f"'repro {command}' does not take" if command else "no command for"
        print(f"{rel}:{lineno}: {where} {flag}", file=sys.stderr)
    if stale:
        print(
            f"check_docs: {len(stale)} stale flag reference(s) "
            f"out of {flags} checked",
            file=sys.stderr,
        )
        return 1
    files = len({p for p, _, _ in found})
    print(f"check_docs OK: {flags} flag reference(s) across {files} file(s)")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(REPO_ROOT / "src"))
    sys.exit(main())
