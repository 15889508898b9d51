"""build_parser(argv), which registers only the commands argv names, against the full tree.

For every command path and every kind of argv that reaches argparse's help
or error paths, the parser built for that argv must give the same
Namespace, exit code, stdout and stderr as build_parser() with no argv.
"""

import contextlib
import io

import pytest

from homforge import cli

PATHS = [list(path) for path in cli.COMMANDS if path]
COMMAND_PATHS = [p for p in PATHS if len(cli.COMMANDS[tuple(p)]) == 3]

# what follows a command path: help, no arguments (missing required ones),
# plausible arguments, abbreviated options, an unrecognized option, "--" and
# an unknown subcommand
SUFFIXES = [
    [],
    ["-h"],
    ["a.json", "--target", "t.json"],
    ["a.json", "--tar", "t.json", "--wit"],
    ["a.json", "--target", "t.json", "--bogus"],
    ["a.json", "--target", "t.json", "--pretty"],
    ["a.json", "--tar", "t.json", "--out", "o"],
    ["--system", "s.json", "--prefix", "a", "b"],
    ["--system", "s.json", "--prefix", "a", "b", "--out-dir", "o"],
    ["--system", "s.json", "--prefix", "a", "--out-dir", "o", "--mode", "bogus"],
    ["q.json", "s.json"],
    ["s.json", "--relation", "r.json", "--wit"],
    ["--", "a.json"],
    ["bogus"],
]
PREFIXES = [[], ["--pretty"], ["--pretty", "--pretty"], ["-h"], ["--pre"], ["--"], ["bogus"]]


def _parse(parser, argv):
    out, err = io.StringIO(), io.StringIO()
    namespace, code = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            namespace = vars(parser.parse_args(argv))
        except SystemExit as exc:
            code = exc.code
    return namespace, code, out.getvalue(), err.getvalue()


def _cases():
    yield []
    for path in PATHS:
        for suffix in SUFFIXES:
            yield path + suffix
        for prefix in PREFIXES:
            yield prefix + path
            yield prefix + path + ["-h"]
        if len(path) == 2:
            # help or --pretty between a group and its subcommand
            yield [path[0], "-h", path[1]]
            yield [path[0], "--pretty", path[1]]


CASES = list(_cases())


def test_parser_for_argv_matches_the_full_tree():
    outcomes = []
    for argv in CASES:
        full = _parse(cli.build_parser(), argv)
        assert _parse(cli.build_parser(argv), argv) == full, argv
        outcomes.append(full)
    # the cases parse every command, and reach help (exit 0) and errors (exit 2)
    parsed = {ns["func"].__name__ for ns, _, _, _ in outcomes if ns}
    assert parsed == {cli.COMMANDS[tuple(p)][2] for p in COMMAND_PATHS}
    assert {code for _, code, _, _ in outcomes} == {None, 0, 2}


def test_unrecognized_argument_usage_lists_every_command(capsys):
    argv = ["check-hom", "a.json", "--target", "t.json", "--bogus"]
    with pytest.raises(SystemExit) as exc:
        cli.build_parser(argv).parse_args(argv)
    assert exc.value.code == 2
    assert "{check-hom,product,solve-tiling,reduce,cq,cqdef}" in capsys.readouterr().err
