"""Tests of the benchmark itself: inputs, references, classification and tracing.

Run from the root of the repository with ``python3 -m pytest perfbench/tests``.
"""

import json
import os
import random
import sys
import types

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

import corpus  # noqa: E402
import layertrace  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402


def _cases(make_block, seed, tmp_path, name):
    inputs = tmp_path / name
    inputs.mkdir()
    cases, _ = make_block(random.Random(seed), str(inputs))
    return [
        {k: v for k, v in case.items() if not k.endswith(("_file", "_files"))}
        for case in cases
    ]


def test_same_seed_gives_same_inputs(tmp_path):
    for name, make_block in run.WORKLOADS.items():
        first = _cases(make_block, "5/0", tmp_path, name + "-a")
        again = _cases(make_block, "5/0", tmp_path, name + "-b")
        other = _cases(make_block, "6/0", tmp_path, name + "-c")
        assert first == again, name
        assert first != other, name
    assert corpus.chain_corpus(3, 60) == corpus.chain_corpus(3, 60)
    assert corpus.chain_corpus(3, 60) != corpus.chain_corpus(4, 60)


def test_random_block_meets_its_quotas(tmp_path):
    (tmp_path / "in").mkdir()
    cases, _ = run.random_block(random.Random("1/0"), str(tmp_path / "in"))
    counts = {}
    for case in cases:
        key = (len(case["prefix"]), case["grid"] is not None)
        counts[key] = counts.get(key, 0) + 1
    assert counts == run.RANDOM_BLOCK


def test_grid_oracle_agrees_with_brute_force():
    from homforge.tiling import TileSystem, TilingInstance, brute_force_tiling

    rng = random.Random(11)
    for _ in range(300):
        m = rng.randint(1, 3)
        system = corpus.random_tile_system(rng)
        prefix = corpus.random_prefix(rng, system, m)
        grid = oracle.grid_tiling(system, prefix)
        inst = TilingInstance(
            TileSystem(
                tuple(system["tiles"]),
                frozenset(map(tuple, system["hcompat"])),
                frozenset(map(tuple, system["vcompat"])),
            ),
            tuple(prefix),
        )
        assert (grid is None) == (brute_force_tiling(inst) is None)
        if grid is not None:
            assert oracle.check_grid(system, prefix, grid) is None


def test_checkerboard_references_are_yes():
    for m in (3, 4, 5, 6):
        prefix = corpus.checker_prefix(m)
        grid = oracle.grid_tiling(corpus.CHECKER, prefix)
        assert oracle.check_grid(corpus.CHECKER, prefix, grid) is None


def test_check_grid_rejects_a_broken_tiling():
    prefix = corpus.checker_prefix(2)
    grid = oracle.grid_tiling(corpus.CHECKER, prefix)
    grid[(3, 3)] = grid[(2, 3)]
    assert "(3, 3) break" in oracle.check_grid(corpus.CHECKER, prefix, grid)


def test_not_definable_certificate_check():
    from homforge.cli import _hom_to_json
    from homforge.core import digraph
    from homforge.cqdef import decide_cq_definability

    path = (("a", "b", "c"), {"E": (2, (("a", "b"), ("b", "c")))})
    verdict = decide_cq_definability(digraph(*_edges(path)), [("a",), ("c",)])
    payload = {
        "witness_tuple": list(verdict.witness_tuple),
        "witness_hom": _hom_to_json(verdict.witness_hom),
    }
    s_tuples = {("a",), ("c",)}
    assert oracle.check_not_definable(payload, path, s_tuples) is None
    payload["witness_hom"][oracle.label(("a", "a"))] = "c"
    assert "not preserved" in oracle.check_not_definable(payload, path, s_tuples)
    assert "lies in S" in oracle.check_not_definable(
        dict(payload, witness_tuple=["a"]), path, s_tuples
    )


def _edges(structure):
    domain, relations = structure
    return domain, relations["E"][1]


def _bench_form(structure):
    return (
        tuple(sorted(structure.domain)),
        {
            name: (arity, tuple(sorted(structure.relation(name))))
            for name, arity in structure.signature.relations
        },
    )


def _canonical(structure):
    domain, relations = structure
    return (
        tuple(sorted(domain)),
        {name: (a, tuple(sorted(ts))) for name, (a, ts) in relations.items()},
    )


def test_chain_corpus_and_oracle_match_criterion_8():
    from test_acceptance import _tiny_single_relation_corpus

    from homforge.homsolver import decide_php
    from homforge.normalform import digraph_transform

    ours = corpus.chain_corpus(run.CHAIN_SEED, run.CHAIN_COUNT)
    theirs = _tiny_single_relation_corpus()
    assert len(ours) == len(theirs) == 30
    for (factors, target), inst in zip(ours, theirs):
        assert [_canonical(f) for f in factors] == [_bench_form(f) for f in inst.factors]
        assert _canonical(target) == _bench_form(inst.target)
        # criterion 8: PHP is YES exactly when the digraph instance is YES
        assert oracle.php_exists(factors, target) == decide_php(digraph_transform(inst)).yes


class _StubWorker:
    """Runs calls through worker.run_call against a stand-in for homforge.cli."""

    def __init__(self, main):
        self.cli = types.SimpleNamespace(main=main)

    def call(self, request):
        return worker.run_call(self.cli, request)


def _crash(argv):
    raise RecursionError("maximum recursion depth exceeded")


def test_crashing_child_exits_1_and_counts_as_wrong_verdict(tmp_path):
    answer = _StubWorker(_crash).call(
        {"argv": [], "stdout": str(tmp_path / "out"), "stderr": str(tmp_path / "err")}
    )
    assert answer["code"] == 1 and answer["signal"] is None
    assert "RecursionError" in (tmp_path / "err").read_text()

    op = run.Op("crash", str(tmp_path), _StubWorker(_crash), trace=False)
    assert op.verdict(["check-hom"], True, "YES") is None
    assert op.outcome == "wrong"
    assert "RecursionError" in op.reason
    assert not op.bad_output


def test_wrong_answer_document_is_not_correct(tmp_path):
    def says_no(argv):
        print('{"answer":"NO"}')
        return 1

    op = run.Op("no", str(tmp_path), _StubWorker(says_no), trace=False)
    assert op.verdict(["check-hom"], True, "YES") is None
    assert op.outcome == "wrong" and op.bad_output


def test_usage_error_and_time_limit_count_as_failed(tmp_path, monkeypatch):
    def usage(argv):
        return 2

    def hang(argv):
        while True:
            pass

    for main, reason in ((usage, "exit 2"), (hang, "time limit")):
        monkeypatch.setattr(worker, "LIMIT_S", 0.5)
        op = run.Op("x", str(tmp_path), _StubWorker(main), trace=False)
        assert op.verdict(["check-hom"], True, "YES") is None
        assert op.outcome == "failed" and reason in op.reason


def test_traced_self_times_sum_to_cli_main(tmp_path):
    inputs = tmp_path / "in"
    inputs.mkdir()
    cases, run_op = run.chain_block(random.Random("2/0"), str(inputs))
    case = next(c for c in cases if len(c["factor_files"]) == 2)
    traced = run.Worker()
    try:
        op = run.Op(case["kind"], str(tmp_path), traced, trace=True)
        run_op(op, case)
    finally:
        traced.close()
    assert op.outcome == "decided", op.reason
    main_total = op.layers[layertrace.ROOT][1]
    self_total = sum(own for _, _, own in op.layers.values())
    assert abs(self_total - main_total) < 1e-6 * max(1.0, main_total)
    assert op.layers[layertrace.ROOT][0] == op.calls
    assert op.counters["homsolver.image_candidates"] > 0
    assert op.plain_main_s > 0


def test_only_traced_calls_are_wrapped(tmp_path):
    edge = tmp_path / "edge.json"
    run._write_json(str(edge), corpus.structure_json(corpus.EDGE))
    plain = {
        "argv": ["check-hom", str(edge), "--target", str(edge)],
        "stdout": str(tmp_path / "out"),
        "stderr": str(tmp_path / "err"),
        "meta": str(tmp_path / "meta"),
    }
    traced = run.Worker()
    try:
        metas = []
        for request in (plain, dict(plain, trace=True), plain):
            assert traced.call(request)["code"] == 0
            metas.append(run._read_json(plain["meta"], None))
    finally:
        traced.close()
    assert [sorted(m) for m in metas] == [
        ["main_s"],
        ["counters", "layers", "main_s"],
        ["main_s"],
    ]


def test_no_sources_exits_without_a_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", str(tmp_path / "src"))
    code = run.main(["--workload", "tiling-checker", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""


def test_metric_names_match_benchmark_json(tmp_path):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    op = run.Op("x", str(tmp_path), None, trace=True)
    op.outcome, op.seconds, op.maxrss_kb = "decided", 0.5, 1024
    for section, metrics in (
        ("end_to_end", run.end_to_end([op], 0.1)),
        ("per_layer", run.per_layer([op])),
    ):
        declared = {m["name"]: m["unit"] for m in spec[section]}
        assert {name: unit for name, (_, unit) in metrics.items()} == declared
