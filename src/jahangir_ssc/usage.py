"""The argparse parser of the CLI, which writes every usage, error and
help text. `cli.main` builds it only for an argv that `cli._read_argv`
declines, so a well-formed request neither compiles this module nor
imports argparse.
"""

from __future__ import annotations

import argparse
import sys

from . import cli


class _Parser(argparse.ArgumentParser):
    # usage errors must exit 1, not argparse's default 2
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add(p: _Parser, options: dict) -> None:
    for flag, (kind, default, text) in options.items():
        if kind is bool:
            p.add_argument(flag, action="store_true", help=text)
        elif isinstance(kind, tuple):
            p.add_argument(flag, choices=kind, default=default, help=text)
        elif default is cli._REQUIRED:
            p.add_argument(flag, type=kind, required=True, help=text)
        else:
            p.add_argument(flag, type=kind, default=default, help=text)


def build_parser() -> argparse.ArgumentParser:
    """The parser of both commands, from cli's table of options."""
    parser = _Parser(prog="jssc", description=cli.__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for command, (text, options) in cli._COMMANDS.items():
        p = sub.add_parser(command, help=text)
        _add(p, options)
        p.add_argument("action", choices=cli.ACTIONS)
        _add(p, cli._COMMON_OPTIONS)
    return parser
