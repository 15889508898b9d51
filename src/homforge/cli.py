"""Command-line surface: decisions, reductions, and query evaluation.

All machine output is a single JSON document on stdout (pretty-printed with
--pretty), written once every check has passed; a witness or tiling is
streamed in batches of labels in key order, so no whole answer is built.
Exit codes: 0 = decided YES / Definable, 1 = decided NO / NotDefinable, 2 =
usage or parse error, 3 = a resource guard was hit, 4 = internal error (an
unexpected exception, or an answer whose certificate fails its check; the
traceback goes to stderr).  Each decider checks its answer against the
structure its search ran on: decide_php (check-hom, solve-tiling) every
witness, decide_cq_definability (cqdef check) every NotDefinable
certificate.  solve-tiling also checks the decoded grid, whose rows it
reads straight off the search's value list.  No command passes
a size guard on: core.check_guard reads HOMFORGE_GUARD itself, and main
reads it once first, so a bad value exits 2 whatever the command.
A plain argv is read straight from COMMANDS (see _quick_parse); help, usage
and errors come from the full argparse tree of build_parser, the only
importer of argparse, so a plain call never loads it (nor traceback, which
main imports only where it prints one).  Files are written by core,
byte-identical to json.dumps(..., sort_keys=True, indent=2).
"""

import json
import os
import sys
import types

from . import cqdef, normalform, tiling
from .core import (
    PhpInstance,
    _quote,
    check_guard,
    element_label,
    load_json,
    load_structure,
    product,
    save_rows,
    save_structure,
    size_guard,
    string_rows,
    structure_to_dict,
)
from .cq import canonical_structure, evaluate, load_query, query_to_dict
from .errors import CertificateError, GuardExceededError, HomforgeError
from .homsolver import decide_php
from .tiling import TilingInstance, check_tiling, decode_hom_to_tiling, encode_tiling_php

EXIT_YES = 0
EXIT_NO = 1
EXIT_USAGE = 2
EXIT_GUARD = 3
EXIT_INTERNAL = 4


def _emit(payload, args):
    """Write payload as json.dumps(payload, sort_keys=True) would, compact or with indent=2."""
    if sys.stdout is None:  # Python's value when fd 1 is closed at start-up
        raise OSError("stdout is closed")
    write = sys.stdout.write
    pad, colon, indent = ("\n  ", ": ", 2) if args.pretty else ("", ":", None)
    lead = "{" + pad
    for key in sorted(payload):
        write(lead + _quote(key) + colon)
        lead, value = "," + pad, payload[key]
        if isinstance(value, types.GeneratorType):
            # an object, as batches of (keys, values) label lists, keys ascending
            inner, start = pad and pad + "  ", "{"
            for keys, values in value:
                if keys:
                    items = map(colon.join, zip(map(_quote, keys), map(_quote, values)))
                    write(start + inner + ("," + inner).join(items))
                    start = ","
            write("{}" if start == "{" else pad + "}")
        else:
            text = json.dumps(value, sort_keys=True, indent=indent, separators=(",", colon))
            write(text.replace("\n", pad))
    write(pad[:1] + "}\n")
    sys.stdout.flush()


def _hom_to_json(hom):
    """The witness as one dict of labels, in the order _emit streams them."""
    return {k: v for keys, values in hom.label_batches() for k, v in zip(keys, values)}


def _load_instance(args):
    return PhpInstance(tuple(map(load_structure, args.factors)), load_structure(args.target))


def _write_instance(inst, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    names = [f"factor_{i}.json" for i in range(1, len(inst.factors) + 1)] + ["target.json"]
    files = [os.path.join(out_dir, name) for name in names]
    for s, path in zip((*inst.factors, inst.target), files):
        save_structure(s, path)
    return files


def cmd_check_hom(args):
    inst = _load_instance(args)
    verdict = decide_php(inst)
    payload = {"answer": "YES" if verdict.yes else "NO"}
    if verdict.yes and args.witness:
        payload["witness"] = verdict.witness.label_batches()
    return (EXIT_YES if verdict.yes else EXIT_NO), payload


def cmd_product(args):
    factors = [load_structure(p) for p in args.factors]
    prod = product(factors)
    if args.out:
        save_structure(prod, args.out)
        return EXIT_YES, {"written": args.out, "size": len(prod.domain)}
    return EXIT_YES, {"structure": structure_to_dict(prod)}


def _tiling_instance(args):
    return TilingInstance(tiling.load_tile_system(args.system), tuple(args.prefix))


def cmd_reduce_tiling(args):
    inst = _tiling_instance(args)
    php = encode_tiling_php(inst, mode=args.mode)
    files = _write_instance(php, args.out_dir)
    return EXIT_YES, {"files": files, "factors": len(php.factors), "mode": args.mode}


def cmd_solve_tiling(args):
    inst = _tiling_instance(args)
    m = inst.m
    # the encoded product has 4^m elements; checked here because encoding
    # alone grows faster than m^2
    check_guard(4**m, f"product domain would have 4^{m} elements")
    php = encode_tiling_php(inst)
    # y's factors first: cell (x, y) is then product rank y * 2^m + x, so the
    # prefix of every cell in row-major order is range(4^m) and the first
    # solution is the least grid in that order with tiles tried in sorted order
    verdict = decide_php(PhpInstance(php.factors[m:] + php.factors[:m], php.target), range(4**m))
    if not verdict.yes:
        return EXIT_NO, {"answer": "NO"}
    rows = decode_hom_to_tiling(verdict.witness, inst)
    if not check_tiling(rows, inst):
        raise CertificateError("the decoded grid is not a valid tiling")
    # "," sorts before every digit, so "x,y" sorts as (str(x) + ",", str(y))
    n = 2**m
    xs, ys = sorted(range(n), key="{},".format), sorted(range(n), key=str)
    grid = (([f"{x},{y}" for y in ys], [rows[y][x] for y in ys]) for x in xs)
    return EXIT_YES, {"answer": "YES", "tiling": grid}


def cmd_reduce_single_rel(args):
    inst = _load_instance(args)
    out = normalform.single_relation_transform(inst)
    files = _write_instance(out, args.out_dir)
    return EXIT_YES, {"files": files}


def cmd_reduce_digraph(args):
    inst = _load_instance(args)
    out = normalform.digraph_transform(inst)
    files = _write_instance(out, args.out_dir)
    return EXIT_YES, {"files": files}


def cmd_reduce_php_to_cqdef(args):
    inst = _load_instance(args)
    red = cqdef.reduce_php_to_nondefinability(inst)
    os.makedirs(args.out_dir, exist_ok=True)
    structure_path = os.path.join(args.out_dir, "instance.json")
    relation_path = os.path.join(args.out_dir, "relation.json")
    save_structure(red.structure, structure_path)
    save_rows(red.s_tuples, relation_path)
    return EXIT_YES, {"files": [structure_path, relation_path]}


def cmd_cq_eval(args):
    q = load_query(args.query)
    s = load_structure(args.structure)
    answers = evaluate(q, s)
    out = sorted([list(map(element_label, t)) for t in answers])
    return EXIT_YES, {"answers": out}


def cmd_cq_canonical(args):
    q = load_query(args.query)
    s = load_structure(args.structure)
    pointed = canonical_structure(q, s.signature)
    return EXIT_YES, {
        "structure": structure_to_dict(pointed.structure),
        "distinguished": [element_label(e) for e in pointed.distinguished],
    }


def cmd_cqdef_check(args):
    s = load_structure(args.structure)
    s_tuples = string_rows(load_json(args.relation), "the relation file")
    verdict = cqdef.decide_cq_definability(s, s_tuples)
    if isinstance(verdict, cqdef.Definable):
        return EXIT_YES, {
            "answer": "Definable",
            "query": query_to_dict(verdict.query),
        }
    if verdict.isolated_position is not None:
        return EXIT_NO, {
            "answer": "NotDefinable",
            "isolated_position": verdict.isolated_position,
        }
    payload = {
        "answer": "NotDefinable",
        "witness_tuple": [element_label(c) for c in verdict.witness_tuple],
    }
    if args.witness:
        payload["witness_hom"] = verdict.witness_hom.label_batches()
    return EXIT_NO, payload


_REQUIRED = {"required": True}
_PHP_OUT = (("factors", {"nargs": "+"}), ("--target", _REQUIRED), ("--out-dir", _REQUIRED))

# path -> (help, arguments, function name, resolved when built) for a command,
# or (help, dest) for a group, whose children are the paths one word longer
COMMANDS = {
    (): ("Product homomorphism problem toolkit", "command"),
    ("check-hom",): ("decide a PHP instance", (
        ("factors", {"nargs": "+", "help": "factor structure files"}),
        ("--target", {"required": True, "help": "target structure file"}),
        ("--witness", {"action": "store_true", "help": "emit the witness map"}),
    ), "cmd_check_hom"),
    ("product",): ("materialize a direct product", (
        ("factors", {"nargs": "+"}), ("--out", {"help": "write the product to this file"})
    ), "cmd_product"),
    ("solve-tiling",): ("decide a tiling instance through its PHP encoding", (
        ("--system", {"required": True, "help": "tile system file"}),
        ("--prefix", {"nargs": "+", "required": True, "help": "first-row prefix tiles"}),
    ), "cmd_solve_tiling"),
    ("reduce",): ("run a reduction", "reduction"),
    ("reduce", "tiling"): ("tiling instance to PHP over {0,1}", (
        ("--system", _REQUIRED), ("--prefix", {"nargs": "+", "required": True}),
        ("--mode", {"choices": tiling.MODES, "default": "exact"}), ("--out-dir", _REQUIRED),
    ), "cmd_reduce_tiling"),
    ("reduce", "single-rel"): ("collapse to a single relation", _PHP_OUT, "cmd_reduce_single_rel"),
    ("reduce", "digraph"): ("single-relation PHP to digraph PHP", _PHP_OUT, "cmd_reduce_digraph"),
    ("reduce", "php-to-cqdef"): (
        "digraph PHP to a CQ-definability instance", _PHP_OUT, "cmd_reduce_php_to_cqdef"
    ),
    ("cq",): ("conjunctive query operations", "cq_command"),
    ("cq", "eval"): (
        "evaluate a query on a structure", (("query", {}), ("structure", {})), "cmd_cq_eval"
    ),
    ("cq", "canonical"): ("canonical structure of a query", (
        ("query", {}), ("structure", {"help": "structure file supplying the signature"})
    ), "cmd_cq_canonical"),
    ("cqdef",): ("CQ-definability operations", "cqdef_command"),
    ("cqdef", "check"): ("decide definability of a relation", (
        ("structure", {}), ("--relation", {"required": True, "help": "JSON array of tuples"}),
        ("--witness", {"action": "store_true"}),
    ), "cmd_cqdef_check"),
}


def build_parser():
    """The full argparse tree, which writes every help, usage and error text."""
    import argparse

    parser = argparse.ArgumentParser(prog="homforge", description=COMMANDS[()][0])
    parser.add_argument("--pretty", action="store_true", help="indent JSON output")
    _add_children(parser, ())
    return parser


def _add_children(parser, path):
    sub = parser.add_subparsers(dest=COMMANDS[path][1], required=True)
    for name in [p[-1] for p in COMMANDS if p and p[:-1] == path]:
        entry = COMMANDS[path + (name,)]
        child = sub.add_parser(name, help=entry[0])
        if len(entry) == 2:
            _add_children(child, path + (name,))
            continue
        for flag, options in entry[1]:
            child.add_argument(flag, **options)
        child.set_defaults(func=globals()[entry[2]])


def _quick_parse(argv):
    """The namespace argparse returns for a plain, complete argv, read from COMMANDS.

    Plain: leading --pretty tokens, exact command words, then exact declared
    flags, each at most once with its values, and the positionals in one run;
    only a flag may start with "-".  Anything else (help, "--", --flag=value,
    abbreviations, errors) gives None and is left to build_parser.
    """
    argv = list(argv)
    values = {"pretty": False}
    while argv[:1] == ["--pretty"]:
        values["pretty"], argv = True, argv[1:]
    path = ()
    while len(COMMANDS[path]) == 2:
        if not argv or path + (argv[0],) not in COMMANDS:
            return None
        values[COMMANDS[path][1]] = argv[0]
        path, argv = path + (argv[0],), argv[1:]
    _, arguments, func = COMMANDS[path]
    declared = dict(arguments)
    # each token that starts with "-" begins a segment: that flag, then its tokens
    segments = [[None]]
    for token in argv:
        if token.startswith("-"):
            segments.append([token])
        else:
            segments[-1].append(token)
    got, runs = {}, []
    for flag, *tokens in segments:
        if flag is not None:
            if flag not in declared or flag in got:
                return None
            if declared[flag].get("action") == "store_true":
                got[flag] = True
            else:
                # nargs None takes one token, "+" all of them
                take = len(tokens) if declared[flag].get("nargs") == "+" else 1
                got[flag], tokens = tokens[:take], tokens[take:]
        if tokens:
            runs.append(tokens)
    run = runs[0] if runs else []
    positionals = [name for name, _ in arguments if not name.startswith("-")]
    extra = len(run) - len(positionals)
    if len(runs) > 1 or extra < 0:
        return None
    # a "+" positional takes every token the others leave, as argparse's greedy match does
    for name in positionals:
        take = 1 + extra if declared[name].get("nargs") == "+" else 1
        got[name], run, extra = run[:take], run[take:], extra + 1 - take
    if run:
        return None
    for name, options in arguments:
        value = got.get(name)
        if value is None:
            if options.get("required"):
                return None
            value = False if options.get("action") == "store_true" else options.get("default")
        elif value is not True:
            unknown = "choices" in options and not set(value) <= set(options["choices"])
            if not value or unknown:
                return None
            value = value if options.get("nargs") == "+" else value[0]
        values[name.lstrip("-").replace("-", "_") if name.startswith("-") else name] = value
    values["func"] = globals()[func]
    return types.SimpleNamespace(**values)


def _report(message, args, code):
    """Emit an error payload and return code, dropping it when stdout itself fails."""
    try:
        _emit({"error": message}, args)
    except OSError:
        if sys.stdout is not None:
            # point stdout at os.devnull, so the flush at shutdown cannot fail again
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
    return code


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    args = _quick_parse(argv) or build_parser().parse_args(argv)
    try:
        # read before any command runs, so every command rejects a bad value
        size_guard()
        code, payload = args.func(args)
        _emit(payload, args)
        return code
    except CertificateError as exc:
        # exits 0 and 1 are checked answers, so one that fails its check is a bug
        import traceback

        traceback.print_exc()
        return _report(f"certificate check failed: {exc}", args, EXIT_INTERNAL)
    except GuardExceededError as exc:
        return _report(str(exc), args, EXIT_GUARD)
    except (HomforgeError, OSError) as exc:
        # OSError includes a failed write of the answer to stdout
        return _report(str(exc), args, EXIT_USAGE)
    except Exception as exc:
        # exits 0 and 1 are decided answers, so a crash must not exit 1
        import traceback

        traceback.print_exc()
        return _report(f"internal error: {type(exc).__name__}: {exc}", args, EXIT_INTERNAL)


if __name__ == "__main__":
    sys.exit(main())
