"""cli._quick_parse, which reads a plain argv straight from cli.COMMANDS, against argparse.

Wherever _quick_parse returns a Namespace it must be the one the full
argparse tree (build_parser()) returns for the same argv; wherever argparse
prints help or an error and exits, _quick_parse must return None, so that
argparse alone writes that text.
"""

import contextlib
import io
import json
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homforge import cli
from homforge.core import digraph, save_structure

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

# one plain argv per command, among them the shapes perfbench/run.py sends
PLAIN = [
    ["check-hom", "a.json", "b.json", "--target", "t.json", "--witness"],
    ["--pretty", "product", "a.json", "b.json", "--out", "p.json"],
    ["solve-tiling", "--system", "s.json", "--prefix", "a", "b"],
    ["reduce", "tiling", "--system", "s.json", "--prefix", "a", "b", "--out-dir", "o"],
    ["reduce", "single-rel", "a.json", "--target", "t.json", "--out-dir", "o"],
    ["reduce", "digraph", "a.json", "b.json", "--target", "t.json", "--out-dir", "o"],
    ["reduce", "php-to-cqdef", "a.json", "--target", "t.json", "--out-dir", "o"],
    ["cq", "eval", "q.json", "s.json"],
    ["cq", "canonical", "q.json", "s.json"],
    ["cqdef", "check", "s.json", "--relation", "r.json", "--witness"],
]

FLAGS = sorted({flag for entry in cli.COMMANDS.values() if len(entry) == 3 for flag, _ in entry[1]})
WORDS = sorted({word for path in PATHS for word in path})
TOKENS = st.sampled_from(
    FLAGS
    + WORDS
    + ["--pretty", "-h", "--help", "--", "-", "-1", "--tar", "--wit", "--pre", "--out"]
    + ["--target=t.json", "--mode=exact", "exact", "paper-literal", "bogus", "a.json", "o", ""]
)


@st.composite
def _plain_argv(draw):
    """A plain argv of some command, with its flags and positional run in any order."""
    path = draw(st.sampled_from(COMMAND_PATHS))
    groups, run = [], []
    for name, options in cli.COMMANDS[tuple(path)][1]:
        value = st.sampled_from(options.get("choices", ["a.json", "o", "t", ""]))
        given = draw(st.lists(value, min_size=1, max_size=3 if options.get("nargs") else 1))
        if not name.startswith("-"):
            run += given
        elif options.get("required") or draw(st.booleans()):
            groups.append([name] if options.get("action") else [name, *given])
    groups = draw(st.permutations([*groups, run]))
    return draw(st.lists(st.just("--pretty"), max_size=2)) + path + sum(groups, [])


@st.composite
def _edited(draw, argv):
    """argv with perhaps one token inserted, replaced or dropped."""
    argv = draw(argv)
    i = draw(st.integers(0, len(argv)))
    edit = draw(st.sampled_from(["keep", "insert", "replace", "drop"]))
    if edit == "keep" or (i == len(argv) and edit != "insert"):
        return argv
    return argv[:i] + ([draw(TOKENS)] if edit != "drop" else []) + argv[i + (edit != "insert") :]


ARGV = _edited(_plain_argv()) | st.lists(TOKENS, max_size=8) | st.builds(
    lambda path, rest: path + rest, st.sampled_from(PATHS), st.lists(TOKENS, max_size=10)
)

def _parse(parser, argv):
    out, err = io.StringIO(), io.StringIO()
    namespace, code = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            namespace = vars(parser.parse_args(argv))
        except SystemExit as exc:
            code = exc.code
    return namespace, code, out.getvalue(), err.getvalue()


def _check(argv):
    """argparse's outcome for argv, after checking _quick_parse against it."""
    full = _parse(cli.build_parser(), argv)
    quick = cli._quick_parse(argv)
    if quick is not None:
        assert full[1] is None, argv
        assert vars(quick) == full[0], argv
    return quick, full


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


def test_quick_parse_matches_argparse():
    outcomes = [_check(argv)[1] for argv in CASES + PLAIN]
    # the cases parse every command, and reach help (exit 0) and errors (exit 2)
    parsed = {ns["func"].__name__ for ns, _, _, _ in outcomes if ns}
    assert parsed == {cli.COMMANDS[tuple(p)][2] for p in COMMAND_PATHS}
    assert {code for _, code, _, _ in outcomes} == {None, 0, 2}


@settings(derandomize=True, database=None, deadline=None, max_examples=1000)
@given(ARGV)
def test_quick_parse_matches_argparse_on_generated_argv(argv):
    _check(argv)


def test_quick_parse_accepts_a_plain_argv_of_every_command():
    accepted = {cli._quick_parse(argv).func.__name__ for argv in PLAIN}
    assert accepted == {cli.COMMANDS[tuple(p)][2] for p in COMMAND_PATHS}


@pytest.mark.parametrize(
    "argv",
    [
        ["check-hom", "a.json", "--target", "t.json", "-h"],
        ["check-hom", "--", "a.json", "--target", "t.json"],
        ["check-hom", "a.json", "--target=t.json"],
        ["check-hom", "a.json", "--tar", "t.json", "--wit"],
        ["--pre", "check-hom", "a.json", "--target", "t.json"],
        ["check-hom", "a.json", "--target", "t.json", "--target", "u.json"],
        ["check-hom", "-", "--target", "t.json"],
        ["check-hom", "-1", "--target", "t.json"],
        ["check-hom", "a.json", "--target", "t.json", "b.json"],
        ["reduce", "tiling", "--system", "s", "--prefix", "a", "--out-dir", "o", "--mode", "x"],
        ["reduce", "digraph", "a.json", "--target", "t.json"],
        ["cq", "eval", "q.json"],
    ],
)
def test_quick_parse_declines_what_is_not_plain(argv):
    assert cli._quick_parse(argv) is None


def test_command_table_uses_only_what_quick_parse_reads():
    # a type=, nargs="?" or other keyword here would let the two parsers diverge
    for entry in cli.COMMANDS.values():
        for _, options in entry[1] if len(entry) == 3 else ():
            assert set(options) <= {"help", "required", "default", "choices", "nargs", "action"}
            assert options.get("nargs") in (None, "+")
            assert options.get("action") in (None, "store_true")


# run in a fresh interpreter, as the homforge script is: the plain calls in
# argv[1], then whether anything imported locale, which argparse's first parse would
SCRIPT = """
import json, sys
from homforge import cli
codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
print(codes, "locale" in sys.modules, file=sys.stderr)
"""


def test_plain_calls_never_reach_argparse(tmp_path):
    edge, loop, rel = (str(tmp_path / name) for name in ("edge.json", "loop.json", "s.json"))
    save_structure(digraph(("a", "b"), (("a", "b"),)), edge)
    save_structure(digraph(("v",), (("v", "v"),)), loop)
    (tmp_path / "s.json").write_text('[["a"]]')
    # S = {(a)} is the set of edge sources, so cqdef check answers Definable
    plain = [
        ["check-hom", edge, "--target", loop, "--witness"],
        ["cqdef", "check", edge, "--relation", rel],
    ]
    cmd = [sys.executable, "-c", SCRIPT, json.dumps(plain)]
    r = subprocess.run(cmd, capture_output=True, text=True)
    assert r.stderr.splitlines()[-1] == "[0, 0] False"
    # an abbreviation goes through argparse and answers exactly as the full spelling does
    run = [sys.executable, "-m", "homforge.cli", "check-hom", edge]
    full = subprocess.run(run + ["--target", loop, "--witness"], capture_output=True)
    short = subprocess.run(run + ["--tar", loop, "--wit"], capture_output=True)
    assert full.returncode == short.returncode == 0
    assert short.stdout == full.stdout
    assert json.loads(full.stdout)["witness"] == {'["a"]': "v", '["b"]': "v"}


def test_unrecognized_argument_usage_lists_every_command(capsys):
    argv = ["check-hom", "a.json", "--target", "t.json", "--bogus"]
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(argv)
    assert exc.value.code == 2
    assert "{check-hom,product,solve-tiling,reduce,cq,cqdef}" in capsys.readouterr().err
