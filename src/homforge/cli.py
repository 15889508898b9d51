"""Command-line surface: decisions, reductions, and query evaluation.

All machine output is a single JSON document on stdout (pretty-printed with
--pretty).  Exit codes: 0 = decided YES / Definable, 1 = decided NO /
NotDefinable, 2 = usage or parse error, 3 = a resource guard was hit,
4 = internal error (an unexpected exception, or an answer whose certificate
fails its check; the traceback goes to stderr).  check-hom validates every
YES witness and cqdef check every NotDefinable certificate before printing.
"""

import argparse
import json
import os
import sys
import traceback

from . import cqdef, normalform, tiling
from .core import (
    DEFAULT_PRODUCT_GUARD,
    PhpInstance,
    element_label,
    load_json,
    load_structure,
    product,
    save_structure,
    string_rows,
    structure_to_dict,
    validate_php_witness,
)
from .cq import canonical_structure, evaluate, load_query, query_to_dict
from .errors import CertificateError, GuardExceededError, HomforgeError, UsageError
from .homsolver import decide_php
from .tiling import TilingInstance, brute_force_tiling, encode_tiling_php

EXIT_YES = 0
EXIT_NO = 1
EXIT_USAGE = 2
EXIT_GUARD = 3
EXIT_INTERNAL = 4


def _guard():
    """The product size guard; HOMFORGE_GUARD, when set, must be a positive integer."""
    raw = os.environ.get("HOMFORGE_GUARD")
    if raw is None:
        return DEFAULT_PRODUCT_GUARD
    digits = raw.strip()
    # int() alone would also take "+5", "1_000" and non-ASCII digits, and it
    # refuses more digits than its conversion limit of 4300
    ok = digits.isascii() and digits.isdigit() and len(digits) < 4300
    guard = int(digits) if ok else 0
    if guard < 1:
        raise UsageError(f"HOMFORGE_GUARD must be a positive integer, got {raw!r}")
    return guard


def _emit(payload, args):
    if args.pretty:
        text = json.dumps(payload, sort_keys=True, indent=2)
    else:
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    sys.stdout.write(text + "\n")


def _hom_to_json(hom):
    # no sort here: _emit writes every object with sorted keys
    return {element_label(k): element_label(v) for k, v in hom.mapping.items()}


def _load_instance(args):
    factors = tuple(load_structure(p) for p in args.factors)
    target = load_structure(args.target)
    return PhpInstance(factors, target)


def _write_instance(inst, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    files = []
    for i, f in enumerate(inst.factors, start=1):
        path = os.path.join(out_dir, f"factor_{i}.json")
        save_structure(f, path)
        files.append(path)
    path = os.path.join(out_dir, "target.json")
    save_structure(inst.target, path)
    files.append(path)
    return files


def cmd_check_hom(args):
    inst = _load_instance(args)
    verdict = decide_php(inst, args.guard)
    payload = {"answer": "YES" if verdict.yes else "NO"}
    if verdict.yes:
        validate_php_witness(inst, verdict.witness, args.guard)
        if args.witness:
            payload["witness"] = _hom_to_json(verdict.witness)
    return (EXIT_YES if verdict.yes else EXIT_NO), payload


def cmd_product(args):
    factors = [load_structure(p) for p in args.factors]
    prod = product(factors, guard=args.guard)
    if args.out:
        save_structure(prod, args.out)
        return EXIT_YES, {"written": args.out, "size": len(prod.domain)}
    return EXIT_YES, {"structure": structure_to_dict(prod)}


def _tiling_instance(args):
    system = tiling.load_tile_system(args.system)
    return TilingInstance(system, tuple(args.prefix))


def cmd_reduce_tiling(args):
    inst = _tiling_instance(args)
    php = encode_tiling_php(inst, mode=args.mode)
    files = _write_instance(php, args.out_dir)
    return EXIT_YES, {"files": files, "factors": len(php.factors), "mode": args.mode}


def cmd_solve_tiling(args):
    inst = _tiling_instance(args)
    assignment = brute_force_tiling(inst)
    if assignment is None:
        return EXIT_NO, {"answer": "NO"}
    grid = {f"{x},{y}": t for (x, y), t in assignment.items()}
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
    s_json = [[element_label(c) for c in t] for t in red.s_tuples]
    with open(relation_path, "w", encoding="utf-8") as fh:
        json.dump(s_json, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return EXIT_YES, {"files": [structure_path, relation_path]}


def cmd_cq_eval(args):
    q = load_query(args.query)
    s = load_structure(args.structure)
    answers = evaluate(q, s, args.guard)
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
    verdict = cqdef.decide_cq_definability(s, s_tuples, args.guard)
    if isinstance(verdict, cqdef.Definable):
        return EXIT_YES, {
            "answer": "Definable",
            "query": query_to_dict(verdict.query),
        }
    cqdef.validate_not_definable(s, s_tuples, verdict, args.guard)
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
        payload["witness_hom"] = _hom_to_json(verdict.witness_hom)
    return EXIT_NO, payload


def build_parser():
    parser = argparse.ArgumentParser(
        prog="homforge",
        description="Product homomorphism problem toolkit",
    )
    parser.add_argument("--pretty", action="store_true", help="indent JSON output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-hom", help="decide a PHP instance")
    p.add_argument("factors", nargs="+", help="factor structure files")
    p.add_argument("--target", required=True, help="target structure file")
    p.add_argument("--witness", action="store_true", help="emit the witness map")
    p.set_defaults(func=cmd_check_hom)

    p = sub.add_parser("product", help="materialize a direct product")
    p.add_argument("factors", nargs="+")
    p.add_argument("--out", help="write the product to this file")
    p.set_defaults(func=cmd_product)

    p = sub.add_parser("solve-tiling", help="brute-force tiling oracle")
    p.add_argument("--system", required=True, help="tile system file")
    p.add_argument("--prefix", nargs="+", required=True, help="first-row prefix tiles")
    p.set_defaults(func=cmd_solve_tiling)

    reduce_p = sub.add_parser("reduce", help="run a reduction")
    reduce_sub = reduce_p.add_subparsers(dest="reduction", required=True)

    p = reduce_sub.add_parser("tiling", help="tiling instance to PHP over {0,1}")
    p.add_argument("--system", required=True)
    p.add_argument("--prefix", nargs="+", required=True)
    p.add_argument("--mode", choices=list(tiling.MODES), default="exact")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_reduce_tiling)

    p = reduce_sub.add_parser("single-rel", help="collapse to a single relation")
    p.add_argument("factors", nargs="+")
    p.add_argument("--target", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_reduce_single_rel)

    p = reduce_sub.add_parser("digraph", help="single-relation PHP to digraph PHP")
    p.add_argument("factors", nargs="+")
    p.add_argument("--target", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_reduce_digraph)

    p = reduce_sub.add_parser(
        "php-to-cqdef", help="digraph PHP to a CQ-definability instance"
    )
    p.add_argument("factors", nargs="+")
    p.add_argument("--target", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_reduce_php_to_cqdef)

    cq_p = sub.add_parser("cq", help="conjunctive query operations")
    cq_sub = cq_p.add_subparsers(dest="cq_command", required=True)

    p = cq_sub.add_parser("eval", help="evaluate a query on a structure")
    p.add_argument("query")
    p.add_argument("structure")
    p.set_defaults(func=cmd_cq_eval)

    p = cq_sub.add_parser("canonical", help="canonical structure of a query")
    p.add_argument("query")
    p.add_argument("structure", help="structure file supplying the signature")
    p.set_defaults(func=cmd_cq_canonical)

    cqdef_p = sub.add_parser("cqdef", help="CQ-definability operations")
    cqdef_sub = cqdef_p.add_subparsers(dest="cqdef_command", required=True)

    p = cqdef_sub.add_parser("check", help="decide definability of a relation")
    p.add_argument("structure")
    p.add_argument("--relation", required=True, help="JSON array of tuples")
    p.add_argument("--witness", action="store_true")
    p.set_defaults(func=cmd_cqdef_check)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # read once, before any command runs, so every command rejects a bad value
        args.guard = _guard()
        code, payload = args.func(args)
    except CertificateError as exc:
        # exits 0 and 1 are checked answers, so one that fails its check is a bug
        traceback.print_exc()
        _emit({"error": f"certificate check failed: {exc}"}, args)
        return EXIT_INTERNAL
    except GuardExceededError as exc:
        _emit({"error": str(exc)}, args)
        return EXIT_GUARD
    except (HomforgeError, OSError) as exc:
        _emit({"error": str(exc)}, args)
        return EXIT_USAGE
    except Exception as exc:
        # exits 0 and 1 are decided answers, so a crash must not exit 1
        traceback.print_exc()
        _emit({"error": f"internal error: {type(exc).__name__}: {exc}"}, args)
        return EXIT_INTERNAL
    _emit(payload, args)
    return code


if __name__ == "__main__":
    sys.exit(main())
