"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import json
import math
import random
import subprocess
import sys
import time

import pytest

from homforge.core import (
    PhpInstance,
    Signature,
    digraph,
    product,
    save_structure,
)
from homforge.cq import evaluate
from homforge.cqdef import (
    Definable,
    NotDefinable,
    decide_cq_definability,
    reduce_php_to_nondefinability,
)
from homforge.homsolver import decide_php, find_homomorphism
from homforge.normalform import (
    digraph_transform,
    max_path_length,
    pad_first_coordinate,
    restrict_hom_digraph,
    single_relation_transform,
)
from homforge.tiling import (
    TileSystem,
    TilingInstance,
    brute_force_tiling,
    encode_tiling_php,
)

import helpers
from paper_objects import (
    audit_apex_paths,
    lift_hom_digraph,
    lift_hom_star,
    projection,
    star_instance,
    successor_relations,
)


def report(number, title, ok):
    print(f"\ncriterion {number} ({title}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({title}) failed"


def test_criterion_1_solver_oracle_equivalence():
    rng = random.Random(1001)
    start = time.monotonic()
    ok = True
    for _ in range(500):
        sig = helpers.random_signature(rng, max_relations=2, max_arity=2)
        src = helpers.random_structure(rng, sig, max_dom=4)
        tgt = helpers.random_structure(rng, sig, max_dom=4)
        expected = helpers.exhaustive_hom_exists(src, tgt)
        got = find_homomorphism(src, tgt) is not None
        if expected != got:
            ok = False
            break
    elapsed = time.monotonic() - start
    report(1, "solver oracle equivalence", ok and elapsed < 60)


def test_criterion_2_product_correctness():
    rng = random.Random(1002)
    ok = True
    for _ in range(100):
        sig = helpers.random_signature(rng)
        factors = [
            helpers.random_structure(rng, sig, max_dom=3)
            for _ in range(rng.randint(1, 3))
        ]
        p = product(factors)
        if len(p.domain) != math.prod(len(f.domain) for f in factors):
            ok = False
            break
        for i, f in enumerate(factors):
            # raises NotAHomomorphismError naming the first violation
            projection(p, i).validate(p, f)
    report(2, "product correctness", ok)


FREE = TileSystem(("t",), frozenset({("t", "t")}), frozenset({("t", "t")}))
STUCK = TileSystem(("t",), frozenset(), frozenset({("t", "t")}))
CHECKER = TileSystem(
    ("k", "w"),
    frozenset({("w", "k"), ("k", "w")}),
    frozenset({("w", "k"), ("k", "w")}),
)
STRIPES = TileSystem(
    ("k", "w"),
    frozenset({("w", "k"), ("k", "w")}),
    frozenset({("w", "w"), ("k", "k")}),
)


def test_criterion_3_tiling_equivalence_exact_mode():
    cases = []
    for system, tile in ((FREE, "t"), (STUCK, "t"), (CHECKER, "w"), (STRIPES, "w")):
        cases.append(TilingInstance(system, (tile,)))
        cases.append(TilingInstance(system, (tile, tile)))
    # at least one with no valid tiling, one forcing a non-constant tiling
    assert brute_force_tiling(TilingInstance(STUCK, ("t",))) is None
    checker = brute_force_tiling(TilingInstance(CHECKER, ("w",)))
    assert checker is not None and len({tile for row in checker for tile in row}) > 1
    ok = True
    for inst in cases:
        start = time.monotonic()
        bf = brute_force_tiling(inst) is not None
        php = decide_php(encode_tiling_php(inst, "exact")).yes
        if bf != php or time.monotonic() - start >= 60:
            ok = False
            break
    report(3, "tiling equivalence, exact mode", ok)


def test_criterion_4_decomposition_identity():
    ok = True
    for m in (1, 2, 3):
        inst = TilingInstance(FREE, ("t",) * m)
        prod = product(encode_tiling_php(inst, "exact").factors)
        h_exp, v_exp = successor_relations(m)
        h_got = {t for k in range(1, m + 1) for t in prod.relation(f"H{k}")}
        v_got = {t for k in range(1, m + 1) for t in prod.relation(f"V{k}")}
        if h_got != h_exp or v_got != v_exp:
            ok = False
    # paper-literal H_1 is a strict superset for m=1 (diff vs s01)
    exact1 = product(encode_tiling_php(TilingInstance(FREE, ("t",)), "exact").factors)
    lit1 = product(
        encode_tiling_php(TilingInstance(FREE, ("t",)), "paper-literal").factors
    )
    if not set(exact1.relation("H1")) < set(lit1.relation("H1")):
        ok = False
    report(4, "exact-mode decomposition identity", ok)


def test_criterion_5_star_merge_preservation():
    rng = random.Random(1005)
    sig = Signature((("R1", 1), ("R2", 2)))
    ok = True
    for _ in range(200):
        inst = helpers.random_php_instance(rng, sig, max_dom=3)
        verdict = decide_php(inst)
        transformed = single_relation_transform(inst)
        if decide_php(transformed).yes != verdict.yes:
            ok = False
            break
        if verdict.yes:
            lifted = lift_hom_star(verdict.witness, inst)
            si = star_instance(inst)
            # each raises NotAHomomorphismError naming the first violation
            lifted.validate(product(si.factors), si.target)
            lifted.validate(product(transformed.factors), transformed.target)
    report(5, "star+merge preservation and lift validity", ok)


def test_criterion_6_digraph_preservation():
    rng = random.Random(1006)
    ok = True
    for _ in range(200):
        inst = helpers.random_single_relation_instance(rng)
        padded = PhpInstance(
            tuple(pad_first_coordinate(f) for f in inst.factors),
            pad_first_coordinate(inst.target),
        )
        r = padded.target.signature.relations[0][1]
        verdict = decide_php(padded)
        transformed = digraph_transform(inst)
        t_verdict = decide_php(transformed)
        if t_verdict.yes != verdict.yes:
            ok = False
            break
        for s in list(transformed.factors) + [transformed.target]:
            if max_path_length(s) != r:  # acyclic with exact max path length
                ok = False
        if not ok:
            break
        if verdict.yes:
            lifted = lift_hom_digraph(verdict.witness, inst)
            # each raises NotAHomomorphismError naming the first violation
            lifted.validate(product(transformed.factors), transformed.target)
            back = restrict_hom_digraph(lifted, inst)
            if back.mapping != verdict.witness.mapping:
                ok = False
                break
            back.validate(product(padded.factors), padded.target)
    report(6, "digraph preservation, lifts, and round trip", ok)


def test_criterion_7_cqdef_certificates():
    loop = digraph(("v",), (("v", "v"),))
    path = digraph(("a", "b", "c"), (("a", "b"), ("b", "c")))
    ok = True
    v1 = decide_cq_definability(loop, [("v",)])
    ok &= isinstance(v1, Definable) and evaluate(v1.query, loop) == {("v",)}
    v2 = decide_cq_definability(path, [("a",)])
    ok &= isinstance(v2, Definable) and evaluate(v2.query, path) == {("a",)}
    v3 = decide_cq_definability(path, [("a",), ("c",)])
    ok &= isinstance(v3, NotDefinable) and v3.witness_tuple == ("b",)
    if isinstance(v3, NotDefinable):
        square = product([path, path])
        v3.witness_hom.validate(square, path)
        ok &= v3.witness_hom.mapping[("a", "c")] == "b"
    report(7, "CQ-definability certificates", ok)


def _tiny_single_relation_corpus():
    rng = random.Random(1008)
    edge = digraph(("a", "b"), (("a", "b"),))
    twocycle = digraph(("u", "v"), (("u", "v"), ("v", "u")))
    loop = digraph(("v",), (("v", "v"),))
    threecycle = digraph(("a", "b", "c"), (("a", "b"), ("b", "c"), ("c", "a")))
    fixed = [
        PhpInstance((edge,), twocycle),
        PhpInstance((twocycle,), edge),
        PhpInstance((edge,), loop),
        PhpInstance((threecycle,), edge),
        PhpInstance((threecycle,), twocycle),
        PhpInstance((loop, loop), loop),
        PhpInstance((edge, edge), loop),
    ]
    corpus = list(fixed)
    while len(corpus) < 30:
        n = 1 if len(corpus) % 4 else 2
        corpus.append(
            helpers.random_single_relation_instance(
                rng, max_arity=2, max_dom=2, max_factors=n
            )
        )
    return corpus


def test_criterion_8_php_to_cqdef_equivalence():
    ok = True
    for inst in _tiny_single_relation_corpus():
        transformed = digraph_transform(inst)
        php = decide_php(transformed).yes
        red = reduce_php_to_nondefinability(transformed)
        if not audit_apex_paths(red):
            ok = False
            break
        verdict = decide_cq_definability(red.structure, red.s_tuples)
        if php != isinstance(verdict, NotDefinable):
            ok = False
            break
    report(8, "end-to-end PHP vs CQ-definability", ok)


def test_criterion_9_cli_determinism(tmp_path):
    edge = tmp_path / "edge.json"
    save_structure(digraph(("a", "b"), (("a", "b"),)), edge)
    loop = tmp_path / "loop.json"
    save_structure(digraph(("v",), (("v", "v"),)), loop)
    system = tmp_path / "sys.json"
    system.write_text(
        json.dumps({"tiles": ["t"], "hcompat": [["t", "t"]], "vcompat": [["t", "t"]]})
    )
    rel = tmp_path / "s.json"
    rel.write_text(json.dumps([["v"]]))
    invocations = [
        ["check-hom", str(edge), "--target", str(loop), "--witness"],
        ["product", str(edge), str(edge)],
        ["solve-tiling", "--system", str(system), "--prefix", "t"],
        ["cqdef", "check", str(loop), "--relation", str(rel)],
    ]
    ok = True
    for inv in invocations:
        runs = [
            subprocess.run(
                [sys.executable, "-m", "homforge.cli", *inv],
                capture_output=True,
            )
            for _ in range(2)
        ]
        # a usage error (exit 2, empty stdout) on both runs would match trivially
        codes = [r.returncode for r in runs]
        same = codes[0] == codes[1] and runs[0].stdout == runs[1].stdout
        if codes[0] not in (0, 1) or not same:
            ok = False
            break
    report(9, "CLI determinism", ok)
