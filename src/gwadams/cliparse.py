"""The argparse parser of a table of commands (`cli.COMMANDS`), which
`cli.main` imports only for help, usage and errors."""

import argparse

from . import __version__


class _Parser(argparse.ArgumentParser):
    """An argument parser that also takes options between the values of a
    variable-length positional, as in `universal Q --max 9 2 4`.  Parsers
    with subcommands parse as usual: argparse cannot intermix those."""

    _mixing = False

    def parse_known_args(self, args=None, namespace=None):
        if self._subparsers is not None or self._mixing:
            return super().parse_known_args(args, namespace)
        self._mixing = True     # parse_known_intermixed_args calls back here
        try:
            return self.parse_known_intermixed_args(args, namespace)
        finally:
            self._mixing = False


def build(prog: str, table: dict) -> _Parser:
    """The parser of `PROG COMMAND ...` for the commands of table."""
    parser = _Parser(prog=prog, allow_abbrev=False, description=(
        "Exact verification toolkit for lambda-operation identities."))
    parser.add_argument("--version", action="version",
                        version="%(prog)s, version " + __version__)
    groups = [(parser, table)]
    for group, table in groups:     # `form` joins the list as it is read
        subs = group.add_subparsers(metavar="COMMAND", required=True)
        for name, (run, arguments) in table.items():
            doc = run if isinstance(run, str) else run.__doc__
            sub = subs.add_parser(name, help=doc, description=doc,
                                  allow_abbrev=False)
            if isinstance(arguments, dict):
                groups.append((sub, arguments))
                continue
            sub.set_defaults(run=run, parser=sub)
            for flag, kwargs in arguments:
                sub.add_argument(flag, **kwargs)
    return parser
