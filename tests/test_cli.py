import hashlib
import importlib
import json
import os
import pkgutil
import shlex
import subprocess
import sys

import pytest

import homforge
from homforge import cli, core, cqdef, homsolver
from homforge.core import (
    Homomorphism,
    digraph,
    load_structure,
    save_structure,
    serialize,
)
from homforge.cqdef import NotDefinable
from homforge.errors import CertificateError

import helpers


def run_cli(*args, env=None):
    cmd = [sys.executable, "-m", "homforge.cli", *args]
    return subprocess.run(cmd, capture_output=True, text=True, env=env)


@pytest.fixture
def files(tmp_path):
    edge = tmp_path / "edge.json"
    save_structure(digraph(("a", "b"), (("a", "b"),)), edge)
    loop = tmp_path / "loop.json"
    save_structure(digraph(("v",), (("v", "v"),)), loop)
    vertex = tmp_path / "vertex.json"
    save_structure(digraph(("v",), ()), vertex)
    system = tmp_path / "sys.json"
    system.write_text(
        json.dumps(
            {
                "tiles": ["t"],
                "hcompat": [["t", "t"]],
                "vcompat": [["t", "t"]],
            }
        )
    )
    return tmp_path


def test_check_hom_identity_yes(files):
    r = run_cli("check-hom", str(files / "edge.json"), "--target", str(files / "edge.json"))
    assert r.returncode == 0
    assert json.loads(r.stdout)["answer"] == "YES"


def test_check_hom_no(files):
    r = run_cli(
        "check-hom",
        str(files / "edge.json"),
        str(files / "edge.json"),
        "--target",
        str(files / "vertex.json"),
    )
    assert r.returncode == 1
    assert json.loads(r.stdout)["answer"] == "NO"


def test_check_hom_witness_validates(files):
    r = run_cli(
        "check-hom",
        str(files / "edge.json"),
        "--target",
        str(files / "loop.json"),
        "--witness",
    )
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert payload["witness"] == {'["a"]': "v", '["b"]': "v"}


def test_missing_file_is_usage_error(files):
    r = run_cli("check-hom", str(files / "nope.json"), "--target", str(files / "edge.json"))
    assert r.returncode == 2


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
@pytest.mark.parametrize("answer", ["YES", "NO", "error"])
def test_failed_stdout_write_is_not_an_answer(files, answer):
    # writes to /dev/full fail with ENOSPC: the answer never reaches stdout
    edge, target = str(files / "edge.json"), {"YES": "loop", "NO": "vertex", "error": "nope"}
    argv = ["check-hom", edge, edge, "--target", str(files / f"{target[answer]}.json")]
    with open("/dev/full", "w") as full:
        cmd = [sys.executable, "-m", "homforge.cli", *argv]
        r = subprocess.run(cmd, stdout=full, stderr=subprocess.PIPE, text=True)
    assert r.returncode == 2  # a usage-class failure, never the answers 0 or 1
    # neither the error report nor the flush at shutdown raised again
    assert r.stderr == ""


@pytest.mark.parametrize("answer", ["YES", "NO", "error"])
def test_closed_stdout_is_not_an_answer(files, answer):
    # with fd 1 closed at start-up, Python sets sys.stdout to None
    edge, target = str(files / "edge.json"), {"YES": "loop", "NO": "vertex", "error": "nope"}
    argv = ["check-hom", edge, edge, "--target", str(files / f"{target[answer]}.json")]
    cmd = shlex.join([sys.executable, "-m", "homforge.cli", *argv]) + " >&-"
    r = subprocess.run(cmd, shell=True, stderr=subprocess.PIPE, text=True)
    assert r.returncode == 2
    assert "Traceback" not in r.stderr


def test_bad_arguments_exit_2():
    r = run_cli("check-hom")
    assert r.returncode == 2


def test_guard_exit_3(files, monkeypatch):
    import os

    env = dict(os.environ, HOMFORGE_GUARD="1")
    r = run_cli(
        "check-hom",
        str(files / "edge.json"),
        "--target",
        str(files / "edge.json"),
        env=env,
    )
    assert r.returncode == 3
    assert "error" in json.loads(r.stdout)


def test_guard_counts_the_whole_product(tmp_path, monkeypatch, capsys):
    # edge x edge x edge, with E and F both the edge: 8 elements and 1 tuple
    # per relation, so 10 in all; each part alone is within a guard of 9
    edge = [("a", "b")]
    two = core.Structure(core.Signature((("E", 2), ("F", 2))), ("a", "b"), {"E": edge, "F": edge})
    path = tmp_path / "two.json"
    save_structure(two, path)
    argv = ["check-hom", str(path), str(path), str(path), "--target", str(path)]
    built = []
    monkeypatch.setattr(core.ProductDomain, "columns", lambda *a: built.append(a))
    monkeypatch.setenv("HOMFORGE_GUARD", "9")
    assert cli.main(argv) == 3
    assert json.loads(capsys.readouterr().out) == {
        "error": "product would have 8 elements and 2 tuples (guard 9)"
    }
    assert not built
    monkeypatch.undo()
    monkeypatch.setenv("HOMFORGE_GUARD", "10")
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out) == {"answer": "YES"}


@pytest.mark.parametrize("value", ["abc", "0"])
def test_bad_guard_value_exit_2(files, value):
    import os

    env = dict(os.environ, HOMFORGE_GUARD=value)
    edge = str(files / "edge.json")
    query = files / "q.json"
    query.write_text(
        json.dumps({"free": ["x"], "bound": [], "atoms": [["E", ["x", "x"]]]})
    )
    for argv in (
        ("check-hom", edge, "--target", edge),
        ("product", edge, edge),
        ("cq", "eval", str(query), edge),
        ("reduce", "digraph", edge, "--target", edge, "--out-dir", str(files / "dg")),
        ("solve-tiling", "--system", str(files / "sys.json"), "--prefix", "t"),
    ):
        r = run_cli(*argv, env=env)
        assert r.returncode == 2
        assert "HOMFORGE_GUARD" in json.loads(r.stdout)["error"]


def test_reduce_steps_guard_their_quadratic_relations(tmp_path, monkeypatch, capsys):
    # a directed 40-cycle: the star merge builds 40 * 41 = 1640 tuples on 41
    # elements and the first-coordinate pad 40 * 40 = 1600 on 40, both past
    # a guard of 1000
    nodes = [f"v{i}" for i in range(40)]
    cycle = tmp_path / "cycle.json"
    save_structure(digraph(nodes, zip(nodes, nodes[1:] + nodes[:1])), cycle)
    errors = {
        "single-rel": "merged structure would have 41 elements and 1640 tuples (guard 1000)",
        "digraph": "padded structure would have 40 elements and 1600 tuples (guard 1000)",
    }
    for step, error in errors.items():
        argv = ["reduce", step, str(cycle), "--target", str(cycle)]
        monkeypatch.setenv("HOMFORGE_GUARD", "1000")
        assert cli.main([*argv, "--out-dir", str(tmp_path / "guarded")]) == 3
        assert json.loads(capsys.readouterr().out) == {"error": error}
        assert not (tmp_path / "guarded").exists()
        monkeypatch.delenv("HOMFORGE_GUARD")
        assert cli.main([*argv, "--out-dir", str(tmp_path / step)]) == 0
        assert len(json.loads(capsys.readouterr().out)["files"]) == 2


def test_reduce_steps_guard_elements_plus_tuples(tmp_path, monkeypatch, capsys):
    # the 40-cycle again: a guard of each step's tuple count alone admits
    # its tuples but not its elements with them, and exits 3 before any
    # file is written; a guard of exactly both together passes that check,
    # and reduce digraph then stops at its first gadget digraph (see below)
    nodes = [f"v{i}" for i in range(40)]
    cycle = tmp_path / "cycle.json"
    save_structure(digraph(nodes, zip(nodes, nodes[1:] + nodes[:1])), cycle)
    gadget = "gadget digraph would have 4840 elements and 8000 tuples (guard 1640)"
    for step, tuples, size, then in (
        ("single-rel", 1640, 41, None),
        ("digraph", 1600, 40, gadget),
    ):
        argv = ["reduce", step, str(cycle), "--target", str(cycle)]
        monkeypatch.setenv("HOMFORGE_GUARD", str(tuples))
        assert cli.main([*argv, "--out-dir", str(tmp_path / "guarded")]) == 3
        assert f"would have {size} elements and {tuples} tuples" in capsys.readouterr().out
        assert not (tmp_path / "guarded").exists()
        monkeypatch.setenv("HOMFORGE_GUARD", str(size + tuples))
        code = cli.main([*argv, "--out-dir", str(tmp_path / step)])
        payload = json.loads(capsys.readouterr().out)
        if then is None:
            assert code == 0 and len(payload["files"]) == 2
        else:
            assert code == 3 and payload == {"error": then}


def test_reduce_digraph_guards_each_gadget_digraph(tmp_path, monkeypatch, capsys):
    # the 40-cycle padded has 40 elements and 1600 triples: each factor's
    # gadget digraph has 40 + 3 * 1600 nodes and (2 * 3 - 1) * 1600 edges,
    # 12840 in all, and the target's adds 2 sink nodes and 1 + 40 * 2 sink
    # edges, 12923 in all; each is checked before any node is built
    nodes = [f"v{i}" for i in range(40)]
    cycle = tmp_path / "cycle.json"
    save_structure(digraph(nodes, zip(nodes, nodes[1:] + nodes[:1])), cycle)
    argv = ["reduce", "digraph", str(cycle), "--target", str(cycle)]
    for guard, size, tuples in ((12839, 4840, 8000), (12922, 4842, 8081)):
        monkeypatch.setenv("HOMFORGE_GUARD", str(guard))
        assert cli.main([*argv, "--out-dir", str(tmp_path / "guarded")]) == 3
        error = f"gadget digraph would have {size} elements and {tuples} tuples (guard {guard})"
        assert json.loads(capsys.readouterr().out) == {"error": error}
        assert not (tmp_path / "guarded").exists()
    monkeypatch.setenv("HOMFORGE_GUARD", "12923")
    assert cli.main([*argv, "--out-dir", str(tmp_path / "out")]) == 0
    out = load_structure(tmp_path / "out" / "target.json")
    assert (len(out.domain), out.tuple_count()) == (4842, 8081)


# sha256 of the files `reduce digraph` writes for the 30-element shape below
# into itself, recorded before the gadget digraph step had a guard check
WIDE_DIGRAPH_SHA256 = {
    "factor_1.json": "7ff7067cef270bb1070e9689192336a7a41aa4aefc5f40a4eb30a4c0f98a510a",
    "target.json": "bd2fd9b9fd4171b0d0823c9f068338959e60ad749a457d84730ec69f0091904c",
}


def test_reduce_digraph_guards_the_gadget_when_the_pad_fits(tmp_path):
    # 30 elements, the 30 cyclic shifts of (v0, ..., v29): the pad has 30
    # elements and 900 tuples, within a guard of 1000, but the factor's
    # gadget digraph has 30 + 31 * 900 nodes and 61 * 900 edges; under the
    # default guard the files are byte for byte what they were (fresh
    # processes, so the ~280 MB the reduction peaks at is not kept here)
    nodes = [f"v{i}" for i in range(30)]
    rows = [[nodes[(i + j) % 30] for j in range(30)] for i in range(30)]
    wide = tmp_path / "wide.json"
    relations = {"R": {"arity": 30, "tuples": rows}}
    wide.write_text(json.dumps({"domain": nodes, "relations": relations}))
    argv = ["reduce", "digraph", str(wide), "--target", str(wide), "--out-dir"]
    env = dict(os.environ, HOMFORGE_GUARD="1000")
    r = run_cli(*argv, str(tmp_path / "guarded"), env=env)
    assert r.returncode == 3
    error = "gadget digraph would have 27930 elements and 54900 tuples (guard 1000)"
    assert json.loads(r.stdout) == {"error": error}
    assert not (tmp_path / "guarded").exists()
    env.pop("HOMFORGE_GUARD")
    r = run_cli(*argv, str(tmp_path / "out"), env=env)
    assert r.returncode == 0
    assert len(json.loads(r.stdout)["files"]) == 2
    digests = {
        name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
        for name in WIDE_DIGRAPH_SHA256
    }
    assert digests == WIDE_DIGRAPH_SHA256


def test_every_size_check_sees_the_guard(files, monkeypatch, capsys):
    # every module that binds core.check_guard, so a new caller is spied on too
    modules = [
        importlib.import_module(f"homforge.{info.name}")
        for info in pkgutil.iter_modules(homforge.__path__)
    ]
    real = core.check_guard
    guards = []

    def spy(count, what):
        # the guard this check compares with, read as check_guard reads it
        guards.append(core.size_guard())
        real(count, what)

    for module in modules:
        if getattr(module, "check_guard", None) is real:
            monkeypatch.setattr(module, "check_guard", spy)
    monkeypatch.setenv("HOMFORGE_GUARD", "123457")
    edge, loop = str(files / "edge.json"), str(files / "loop.json")
    query = files / "q.json"
    query.write_text(json.dumps({"free": ["x"], "bound": [], "atoms": [["E", ["x", "x"]]]}))
    relation = files / "s.json"
    relation.write_text(json.dumps([["v"]]))
    for argv in (
        ("check-hom", edge, "--target", loop),
        ("product", edge, edge),
        ("solve-tiling", "--system", str(files / "sys.json"), "--prefix", "t"),
        ("reduce", "single-rel", edge, "--target", loop, "--out-dir", str(files / "sr")),
        ("reduce", "digraph", edge, "--target", loop, "--out-dir", str(files / "dg")),
        ("cq", "eval", str(query), edge),
        ("cqdef", "check", loop, "--relation", str(relation)),
    ):
        guards.clear()
        assert cli.main(list(argv)) in (0, 1), capsys.readouterr().out
        capsys.readouterr()
        assert guards, argv
        assert set(guards) == {123457}, argv


@pytest.mark.parametrize(
    "atom, error",
    [
        (["F", ["x", "x"]], "relations not in signature: ['F']"),
        (["E", ["x"]], "tuple ('x',) in 'E' has length 1, arity is 2"),
    ],
    ids=["unknown-relation", "wrong-arity"],
)
def test_query_atom_outside_the_signature_exits_2(files, capsys, atom, error):
    # Structure checks the canonical structure's relations and arities
    query = files / "q.json"
    query.write_text(json.dumps({"free": ["x"], "bound": [], "atoms": [atom]}))
    for command in ("eval", "canonical"):
        assert cli.main(["cq", command, str(query), str(files / "edge.json")]) == 2
        assert json.loads(capsys.readouterr().out) == {"error": error}


def test_cq_eval_image_guard_exit_3(files):
    import os

    env = dict(os.environ, HOMFORGE_GUARD="1")
    query = files / "q.json"
    query.write_text(
        json.dumps({"free": ["x"], "bound": [], "atoms": [["E", ["x", "x"]]]})
    )
    # the product guard cannot fire here: only the image candidates (2^1) exceed 1
    r = run_cli("cq", "eval", str(query), str(files / "edge.json"), env=env)
    assert r.returncode == 3
    assert "candidate" in json.loads(r.stdout)["error"]


def test_bad_tuple_error_is_independent_of_hash_seed(files, tmp_path):
    import os

    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "domain": ["a"],
                "relations": {
                    "E": {
                        "arity": 2,
                        "tuples": [["a", "x"], ["a", "y"], ["z", "a"], ["w", "w"]],
                    }
                },
            }
        )
    )
    rel = tmp_path / "s.json"
    rel.write_text(json.dumps([["a"], ["x"], ["y"], ["z"], ["w"]]))
    for argv in (
        ("check-hom", str(bad), "--target", str(bad)),
        ("cqdef", "check", str(files / "edge.json"), "--relation", str(rel)),
    ):
        runs = [
            run_cli(*argv, env=dict(os.environ, PYTHONHASHSEED=seed))
            for seed in ("1", "2")
        ]
        assert [r.returncode for r in runs] == [2, 2]
        assert runs[0].stdout == runs[1].stdout


def _assert_json_error(r, code):
    assert r.returncode == code
    assert "error" in json.loads(r.stdout)


@pytest.mark.parametrize(
    "content",
    [b"\xff\xfe{}", b"[" * 200000 + b"]" * 200000],
    ids=["not-utf8", "nested-too-deep"],
)
def test_undecodable_file_exit_2(files, tmp_path, content):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    r = run_cli("check-hom", str(bad), "--target", str(files / "edge.json"))
    _assert_json_error(r, 2)


@pytest.mark.parametrize(
    "spec",
    [{"arity": 2, "tuples": 5}, {"arity": True, "tuples": [["a"]]}],
    ids=["tuples-not-a-list", "bool-arity"],
)
def test_bad_structure_schema_exit_2(tmp_path, spec):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"domain": ["a"], "relations": {"E": spec}}))
    r = run_cli("check-hom", str(bad), "--target", str(bad))
    _assert_json_error(r, 2)


CHECKER_PAIRS = [["k", "w"], ["w", "k"]]


@pytest.mark.parametrize(
    "kind, data",
    [
        ("relation", ["ab"]),
        ("relation", {"a": 1}),
        ("relation", [5]),
        ("tiles", {"tiles": "kw", "hcompat": CHECKER_PAIRS, "vcompat": CHECKER_PAIRS}),
        ("tiles", {"tiles": ["k", "w"], "hcompat": [5], "vcompat": CHECKER_PAIRS}),
        ("query", {"free": 5, "bound": [], "atoms": [["E", ["x", "x"]]]}),
    ],
)
def test_bad_input_schema_exit_2(files, tmp_path, kind, data):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    edge = str(files / "edge.json")
    argv = {
        "relation": ("cqdef", "check", edge, "--relation", str(bad)),
        "tiles": ("solve-tiling", "--system", str(bad), "--prefix", "k"),
        "query": ("cq", "eval", str(bad), edge),
    }[kind]
    _assert_json_error(run_cli(*argv), 2)


def test_internal_error_exit_4(files, monkeypatch, capsys):
    def crash(args):
        raise RuntimeError("crash in a command")

    monkeypatch.setattr(cli, "cmd_check_hom", crash)
    edge = str(files / "edge.json")
    assert cli.main(["check-hom", edge, "--target", edge]) == 4
    assert "crash in a command" in json.loads(capsys.readouterr().out)["error"]


def _assert_certificate_failure(code, capsys):
    assert code == 4
    payload = json.loads(capsys.readouterr().out)
    assert list(payload) == ["error"]
    assert payload["error"].startswith("certificate check failed")


def test_check_hom_invalid_witness_exits_4(files, monkeypatch, capsys):
    # edge -> edge: the witness is the identity, and (b) -> a sends the edge to (a, a)
    find = homsolver.find_homomorphism

    def wrong_witness(source, target, prefix):
        mapping = dict(find(source, target, prefix).mapping)
        assert mapping[("b",)] == "b"
        mapping[("b",)] = "a"
        return Homomorphism(mapping)

    monkeypatch.setattr(homsolver, "find_homomorphism", wrong_witness)
    edge = str(files / "edge.json")
    for extra in ((), ("--witness",)):
        _assert_certificate_failure(
            cli.main(["check-hom", edge, "--target", edge, *extra]), capsys
        )


@pytest.mark.parametrize(
    "corruption", ["tuple in S", "not a homomorphism", "other image", "isolated"]
)
def test_cqdef_check_invalid_certificate_exits_4(
    tmp_path, monkeypatch, capsys, corruption
):
    # a -> v -> v: the image of a is {a, v}, so S = {(a)} is not definable and
    # the certificate maps the pointed copy (a) -> v, (v) -> v
    instance = digraph(("a", "v"), (("a", "v"), ("v", "v")))
    structure = tmp_path / "s.json"
    save_structure(instance, structure)
    rel = tmp_path / "rel.json"
    rel.write_text(json.dumps([["a"]]))
    if corruption == "isolated":
        # the search never yields this answer, so the decider's check is called
        # directly: (a) has an edge, so position 0 is not isolated
        s_set, pointed = cqdef._pointed_product(instance, [("a",)])
        with pytest.raises(CertificateError, match="lies in a tuple"):
            cqdef._check_not_definable(
                instance, s_set, pointed, NotDefinable(None, None, isolated_position=0)
            )
        return
    search = cqdef.image_witnesses

    def corrupt(source, target, known):
        images = search(source, target, known)
        assert list(images) == [("v",)]
        if corruption == "tuple in S":
            return {("a",): images[("v",)]}
        if corruption == "not a homomorphism":
            # the edge ((a), (v)) goes to (v, a), which is no edge
            return {("v",): Homomorphism({("a",): "v", ("v",): "a"})}
        # still a homomorphism, but it sends the distinguished (a) to a
        return {("v",): Homomorphism({("a",): "a", ("v",): "v"})}

    monkeypatch.setattr(cqdef, "image_witnesses", corrupt)
    for extra in ((), ("--witness",)):
        code = cli.main(["cqdef", "check", str(structure), "--relation", str(rel), *extra])
        _assert_certificate_failure(code, capsys)


@pytest.mark.parametrize("corruption", ["search", "grid"])
def test_solve_tiling_invalid_tiling_exits_4(tmp_path, monkeypatch, capsys, corruption):
    # the checkerboard on the 2x2 grid: (0, 0) is w, so (1, 0) and (0, 1)
    # must be k; the search's element ("1", "0") is one of them
    system = tmp_path / "checker.json"
    alternate = [["k", "w"], ["w", "k"]]
    system.write_text(json.dumps({"tiles": ["k", "w"], "hcompat": alternate, "vcompat": alternate}))
    if corruption == "search":
        find = homsolver.find_homomorphism

        def corrupt(source, target, prefix):
            mapping = dict(find(source, target, prefix).mapping)
            assert mapping[("1", "0")] == "k"
            mapping[("1", "0")] = "w"
            return Homomorphism(mapping)

        monkeypatch.setattr(homsolver, "find_homomorphism", corrupt)
    else:
        decode = cli.decode_hom_to_tiling

        def corrupt(hom, inst):
            rows = decode(hom, inst)
            assert rows[0] == ["w", "k"]
            return [["w", "w"], rows[1]]

        monkeypatch.setattr(cli, "decode_hom_to_tiling", corrupt)
    code = cli.main(["solve-tiling", "--system", str(system), "--prefix", "w"])
    _assert_certificate_failure(code, capsys)


def _spy_products(monkeypatch):
    """The domain size of every product built from here on, in order."""
    sizes = []
    init = core.ProductDomain.__init__

    def build(domain, factors):
        init(domain, factors)
        sizes.append(len(domain))

    monkeypatch.setattr(core.ProductDomain, "__init__", build)
    return sizes


def test_check_hom_builds_no_product_element(tmp_path, monkeypatch, capsys):
    # checkerboard m=3: search, witness check and output read the product's
    # counts, ranks, columns and labels only, never an element tuple or a row
    system = tmp_path / "checker.json"
    system.write_text(json.dumps({"tiles": ["k", "w"], "hcompat": [["k", "w"], ["w", "k"]],
                                  "vcompat": [["k", "w"], ["w", "k"]]}))
    out = tmp_path / "php"
    argv = ["reduce", "tiling", "--system", str(system), "--prefix", "w", "k", "w"]
    assert cli.main([*argv, "--out-dir", str(out)]) == 0
    capsys.readouterr()
    factors = [str(out / f"factor_{i}.json") for i in range(1, 7)]
    argv = ["check-hom", *factors, "--target", str(out / "target.json"), "--witness"]
    assert cli.main(argv) == 0
    expected = capsys.readouterr().out

    def built(*args):
        raise AssertionError("a product element or row was built")

    for name in ("__iter__", "__getitem__"):
        monkeypatch.setattr(core.ProductDomain, name, built)
    monkeypatch.setattr(core._ProductRows, "__getitem__", built)
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == expected
    witness = json.loads(expected)["witness"]
    assert len(witness) == 64 and witness['["0","0","0","0","0","0"]'] == "w"


def test_check_hom_builds_one_product(files, monkeypatch, capsys):
    # the witness is checked against the product the search ran on
    products = _spy_products(monkeypatch)
    edge = str(files / "edge.json")
    argv = ["check-hom", edge, edge, "--target", str(files / "loop.json"), "--witness"]
    assert cli.main(argv) == 0
    assert len(json.loads(capsys.readouterr().out)["witness"]) == 4
    assert products == [4]


@pytest.mark.parametrize("s_rows, code, size", [([["a"], ["c"]], 1, 9), ([["a"]], 0, 3)])
def test_cqdef_check_builds_one_product(tmp_path, monkeypatch, capsys, s_rows, code, size):
    # a -> b -> c: S = {(a), (c)} is refuted by the image (b), checked against
    # the pointed product the search ran on; S = {(a)} is definable
    structure = tmp_path / "path.json"
    save_structure(digraph(("a", "b", "c"), (("a", "b"), ("b", "c"))), structure)
    rel = tmp_path / "rel.json"
    rel.write_text(json.dumps(s_rows))
    products = _spy_products(monkeypatch)
    argv = ["cqdef", "check", str(structure), "--relation", str(rel), "--witness"]
    assert cli.main(argv) == code
    payload = json.loads(capsys.readouterr().out)
    if code:
        assert payload["witness_tuple"] == ["b"] and "witness_hom" in payload
    else:
        assert payload["answer"] == "Definable"
    assert products == [size]


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KB on Linux")
def test_an_empty_relation_costs_nothing_in_its_arity(tmp_path):
    # one element and one relation of arity 10^6 with no tuples: a fresh
    # process printed these bytes in 1.8-3.3 s at 99-244 MB peak while the
    # witness check, the isolated-element scan and the product's rows walked
    # an empty column per position, and in 0.1 s at 17 MB with no column at
    # all (Python 3.11)
    wide, s, prod = tmp_path / "wide.json", tmp_path / "s.json", tmp_path / "prod.json"
    relations = {"E": {"arity": 10**6, "tuples": []}}
    wide.write_text(json.dumps({"domain": ["v"], "relations": relations}))
    s.write_text(json.dumps([["v"]]))
    runs = {
        ("check-hom", wide, "--target", wide, "--witness"):
            (0, "45afa019770d42ecc55a098d0942da02105b1fff959dfdde0f35b9a7366d2d32"),
        ("cqdef", "check", wide, "--relation", s, "--witness"):
            (1, "d7be9d665296a0cfb8a6e3e3e5c24841cc595a4cc73be7aa22287e43138e1e7f"),
        # its stdout names the file it writes, whose bytes are checked below
        ("product", wide, wide, "--out", prod): (0, None),
    }
    for args, (code, digest) in runs.items():
        out = tmp_path / "out.json"
        got, peak_mb = helpers.peak_cli(out, *map(str, args))
        assert got == code and peak_mb < 40, (args[0], got, peak_mb)
        if digest is not None:
            assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    digest = hashlib.sha256(prod.read_bytes()).hexdigest()
    assert digest == "a389f0eca2156c85800d763a883d882c3b9ae6173cb1d3b40350eaa9ae87d39b"


def test_product_output_reparses(files, tmp_path):
    out = tmp_path / "prod.json"
    r = run_cli(
        "product",
        str(files / "edge.json"),
        str(files / "edge.json"),
        "--out",
        str(out),
    )
    assert r.returncode == 0
    s = load_structure(out)
    assert len(s.domain) == 4
    assert serialize(s) == out.read_text()


def test_reduce_tiling_writes_files(files, tmp_path):
    out_dir = tmp_path / "red"
    r = run_cli(
        "reduce",
        "tiling",
        "--system",
        str(files / "sys.json"),
        "--prefix",
        "t",
        "--mode",
        "exact",
        "--out-dir",
        str(out_dir),
    )
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert len(payload["files"]) == 3  # 2 factors + target for m=1
    for path in payload["files"]:
        load_structure(path)  # must re-parse


def test_solve_tiling(files):
    r = run_cli("solve-tiling", "--system", str(files / "sys.json"), "--prefix", "t")
    assert r.returncode == 0
    assert json.loads(r.stdout)["answer"] == "YES"


def test_reduce_digraph_pipeline(files, tmp_path):
    out_dir = tmp_path / "dg"
    r = run_cli(
        "reduce",
        "single-rel",
        str(files / "edge.json"),
        "--target",
        str(files / "loop.json"),
        "--out-dir",
        str(out_dir),
    )
    assert r.returncode == 0
    paths = json.loads(r.stdout)["files"]
    r2 = run_cli(
        "reduce",
        "digraph",
        *paths[:-1],
        "--target",
        paths[-1],
        "--out-dir",
        str(tmp_path / "dg2"),
    )
    assert r2.returncode == 0
    dg_paths = json.loads(r2.stdout)["files"]
    # piping a reduce output into check-hom reproduces the original verdict
    orig = run_cli(
        "check-hom", str(files / "edge.json"), "--target", str(files / "loop.json")
    )
    piped = run_cli("check-hom", *dg_paths[:-1], "--target", dg_paths[-1])
    assert orig.returncode == piped.returncode == 0


def test_reduce_php_to_cqdef_and_check(files, tmp_path):
    dg_dir = tmp_path / "dg"
    r = run_cli(
        "reduce",
        "digraph",
        str(files / "edge.json"),
        "--target",
        str(files / "loop.json"),
        "--out-dir",
        str(dg_dir),
    )
    paths = json.loads(r.stdout)["files"]
    cq_dir = tmp_path / "cq"
    r2 = run_cli(
        "reduce",
        "php-to-cqdef",
        *paths[:-1],
        "--target",
        paths[-1],
        "--out-dir",
        str(cq_dir),
    )
    assert r2.returncode == 0
    out = json.loads(r2.stdout)["files"]
    r3 = run_cli("cqdef", "check", out[0], "--relation", out[1])
    # original instance is YES, so S must not be definable
    assert r3.returncode == 1
    assert json.loads(r3.stdout)["answer"] == "NotDefinable"


def test_cq_eval(files, tmp_path):
    q = tmp_path / "q.json"
    q.write_text(
        json.dumps({"free": ["x"], "bound": ["y"], "atoms": [["E", ["x", "y"]]]})
    )
    path = tmp_path / "path.json"
    save_structure(
        digraph(("a", "b", "c"), (("a", "b"), ("b", "c"))), path
    )
    r = run_cli("cq", "eval", str(q), str(path))
    assert r.returncode == 0
    assert json.loads(r.stdout)["answers"] == [["a"], ["b"]]


def test_cq_canonical(files, tmp_path):
    q = tmp_path / "q.json"
    q.write_text(
        json.dumps({"free": ["x"], "bound": ["y"], "atoms": [["E", ["x", "y"]]]})
    )
    r = run_cli("cq", "canonical", str(q), str(files / "edge.json"))
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert payload["distinguished"] == ["x"]
    assert payload["structure"]["relations"]["E"]["tuples"] == [["x", "y"]]


def test_cqdef_check_definable(files, tmp_path):
    rel = tmp_path / "s.json"
    rel.write_text(json.dumps([["v"]]))
    r = run_cli("cqdef", "check", str(files / "loop.json"), "--relation", str(rel))
    assert r.returncode == 0
    assert json.loads(r.stdout)["answer"] == "Definable"


def test_cqdef_check_isolated_element_is_not_definable(files, tmp_path):
    # the one-node edgeless digraph: S = {(v)} is all of its image, but a safe
    # query must put its free variable in an atom, and v lies in no edge
    rel = tmp_path / "s.json"
    rel.write_text(json.dumps([["v"]]))
    argv = ("cqdef", "check", str(files / "vertex.json"), "--relation", str(rel))
    for extra in ((), ("--witness",)):
        r = run_cli(*argv, *extra)
        assert r.returncode == 1
        assert r.stdout == '{"answer":"NotDefinable","isolated_position":0}\n'


def test_cli_byte_identical_across_runs(files, tmp_path):
    q = tmp_path / "q.json"
    q.write_text(
        json.dumps({"free": ["x"], "bound": ["y"], "atoms": [["E", ["x", "y"]]]})
    )
    invocations = [
        ("check-hom", str(files / "edge.json"), "--target", str(files / "loop.json"),
         "--witness"),
        ("product", str(files / "edge.json"), str(files / "edge.json")),
        ("solve-tiling", "--system", str(files / "sys.json"), "--prefix", "t"),
        ("cq", "eval", str(q), str(files / "edge.json")),
    ]
    for inv in invocations:
        first = run_cli(*inv)
        second = run_cli(*inv)
        assert first.returncode in (0, 1) and second.returncode in (0, 1)
        assert first.stdout == second.stdout
        assert first.returncode == second.returncode


# imported by a fresh interpreter running cli.main(argv[1:]): the modules
# `import homforge.cli` added, then whether argparse was loaded by the end
BUDGET_SCRIPT = """
import json, sys
before = set(sys.modules)
from homforge import cli
added = sorted(set(sys.modules) - before)
try:
    cli.main(sys.argv[1:])
finally:
    print(json.dumps([added, "argparse" in sys.modules]), file=sys.stderr)
"""
# what a frozen dataclass, the argparse tree and a printed traceback would
# import; a plain call needs none of them
HEAVY_MODULES = {"argparse", "gettext", "dataclasses", "inspect", "ast", "dis", "traceback"}


def test_import_budget(files, monkeypatch):
    # one help width for this process and the child, whatever the terminal
    monkeypatch.setenv("COLUMNS", "80")

    def run(*argv):
        cmd = [sys.executable, "-c", BUDGET_SCRIPT, *argv]
        r = subprocess.run(cmd, capture_output=True, text=True)
        added, argparse_loaded = json.loads(r.stderr.splitlines()[-1])
        return r, set(added), argparse_loaded

    plain, added, argparse_loaded = run(
        "check-hom", str(files / "edge.json"), "--target", str(files / "loop.json")
    )
    assert plain.returncode == 0 and plain.stdout == '{"answer":"YES"}\n'
    assert "homforge.cli" in added and not added & HEAVY_MODULES
    assert not argparse_loaded
    # help is argparse's to write, and it loads argparse to write it
    helped, _, argparse_loaded = run("--help")
    assert helped.returncode == 0 and argparse_loaded
    assert helped.stdout == cli.build_parser().format_help()
