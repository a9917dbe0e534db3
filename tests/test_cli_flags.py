"""Flag consistency across the perfrecup subcommands.

Every reporting subcommand shares one parent parser, so ``--out`` and
``--format`` parse identically everywhere: the analysis commands over
persisted runs and the workflow-output commands (``faults``/
``metrics``/``trace``/``sanitize``).  ``run --workers`` is the only
fan-out flag.
"""

import argparse

import pytest

from repro.cli import build_parser

#: The whole subcommand surface: adding or removing a command is a
#: deliberate change to this set.
SUBCOMMANDS = {"run", "analyze", "provenance", "compare", "figures",
               "zoom", "report", "dataplane", "lint", "sanitize",
               "faults", "trace", "metrics", "list-workflows",
               "experiments"}

#: Subcommands that read persisted runs.
ANALYSIS_COMMANDS = ("analyze", "compare", "figures", "zoom", "report",
                     "dataplane")

#: Subcommands that run a workflow and report on it.
OUTPUT_COMMANDS = ("faults", "metrics", "trace", "sanitize")

POSITIONAL = {
    "analyze": ["some/run"],
    "compare": ["some/runs"],
    "figures": ["some/run"],
    "zoom": ["some/run"],
    "report": ["some/run"],
    "dataplane": ["some/run"],
    "faults": ["imageprocessing"],
    "metrics": ["imageprocessing"],
    "trace": ["imageprocessing"],
    "sanitize": ["imageprocessing"],
}


class TestSharedAnalysisFlags:
    @pytest.mark.parametrize("command", ANALYSIS_COMMANDS)
    def test_accepts_common_flags(self, command, capsys):
        parser = build_parser()
        args = parser.parse_args(
            [command, *POSITIONAL[command],
             "--out", "dest", "--format", "json"])
        assert args.command == command
        assert args.out == "dest"
        assert args.format == "json"
        # Analysis runs serially: no thread fan-out flag to pass.
        with pytest.raises(SystemExit):
            parser.parse_args(
                [command, *POSITIONAL[command], "--workers", "4"])
        assert "unrecognized arguments: --workers" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("command", ANALYSIS_COMMANDS)
    def test_defaults(self, command):
        args = build_parser().parse_args([command, *POSITIONAL[command]])
        assert args.out is None
        assert args.format == "text"
        assert not hasattr(args, "workers")

    @pytest.mark.parametrize("command", ANALYSIS_COMMANDS)
    def test_rejects_unknown_format(self, command, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                [command, *POSITIONAL[command], "--format", "xml"])
        assert "invalid choice" in capsys.readouterr().err

    def test_run_takes_workers_too(self):
        args = build_parser().parse_args(
            ["run", "imageprocessing", "--workers", "2"])
        assert args.workers == 2


class TestSharedOutputFlags:
    """faults/metrics/trace/sanitize share --out/--format (no --workers)."""

    @pytest.mark.parametrize("command", OUTPUT_COMMANDS)
    def test_accepts_output_flags(self, command):
        args = build_parser().parse_args(
            [command, *POSITIONAL[command],
             "--out", "dest", "--format", "json"])
        assert args.out == "dest"
        assert args.format == "json"

    @pytest.mark.parametrize("command", OUTPUT_COMMANDS)
    def test_defaults(self, command):
        args = build_parser().parse_args([command, *POSITIONAL[command]])
        assert args.out is None
        # trace's product is the Chrome trace document itself.
        expected = "json" if command == "trace" else "text"
        assert args.format == expected

    @pytest.mark.parametrize("command", OUTPUT_COMMANDS)
    def test_rejects_unknown_format(self, command, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                [command, *POSITIONAL[command], "--format", "xml"])
        assert "invalid choice" in capsys.readouterr().err


class TestSubcommandSurface:
    def test_subcommand_set_is_exact(self):
        parser = build_parser()
        (subparsers,) = [action for action in parser._actions
                         if isinstance(action, argparse._SubParsersAction)]
        assert set(subparsers.choices) == SUBCOMMANDS
        assert set(ANALYSIS_COMMANDS) | set(OUTPUT_COMMANDS) <= SUBCOMMANDS
