import argparse
import hashlib
import itertools
import json
import random
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homforge import cli, core, homsolver, tiling
from homforge.core import (
    Homomorphism, PhpInstance, ProductDomain, _ProductRank, _ProductRows, product
)
from homforge.errors import CertificateError, GuardExceededError, InvalidStructureError
from homforge.homsolver import decide_php
from homforge.tiling import (
    DIFF,
    S01,
    TileSystem,
    TilingInstance,
    brute_force_tiling,
    check_tiling,
    decode_hom_to_tiling,
    encode_tiling_php,
    tile_system_from_dict,
)

from paper_objects import (
    binarize_unary, bits, check_tiling_by_coordinates, coordinate_element, successor_relations
)


CHECKER = TileSystem(
    ("k", "w"),
    frozenset({("w", "k"), ("k", "w")}),
    frozenset({("w", "k"), ("k", "w")}),
)
FREE = TileSystem(("t",), frozenset({("t", "t")}), frozenset({("t", "t")}))
STUCK = TileSystem(("t",), frozenset(), frozenset({("t", "t")}))
# alternating along a row, constant up a column: the grid is not its own transpose
STRIPES = TileSystem(
    ("k", "w"),
    frozenset({("w", "k"), ("k", "w")}),
    frozenset({("w", "w"), ("k", "k")}),
)


def _rows_first(enc, m):
    """The encoding with y's m factors first, as solve-tiling searches it."""
    return PhpInstance(enc.factors[m:] + enc.factors[:m], enc.target)


def test_bits_examples():
    assert bits(0, 2) == (0, 0)
    assert bits(2, 2) == (1, 0)
    with pytest.raises(InvalidStructureError):
        bits(4, 2)


def test_bits_reconstruction():
    for m in range(1, 5):
        for k in range(2**m):
            b = bits(k, m)
            assert sum(b[i] * 2 ** (m - 1 - i) for i in range(m)) == k


def test_coordinate_element_is_the_bits_of_x_then_y():
    for m in range(1, 7):
        for x in range(2**m):
            for y in range(2**m):
                expected = tuple(str(b) for b in bits(x, m) + bits(y, m))
                assert coordinate_element(x, y, m) == expected
    for x, y in ((4, 0), (0, 4), (-1, 0), (0, -1)):
        with pytest.raises(InvalidStructureError):
            coordinate_element(x, y, 2)


def test_brute_force_constant_tiling():
    a = brute_force_tiling(TilingInstance(FREE, ("t",)))
    assert a is not None
    assert check_tiling(a, TilingInstance(FREE, ("t",)))


def test_brute_force_stuck_system():
    assert brute_force_tiling(TilingInstance(STUCK, ("t",))) is None


def test_brute_force_checkerboard():
    inst = TilingInstance(CHECKER, ("w",))
    a = brute_force_tiling(inst)
    assert a is not None
    assert check_tiling(a, inst)
    assert a == [["w", "k"], ["k", "w"]]


def test_brute_force_guard():
    with pytest.raises(GuardExceededError):
        brute_force_tiling(TilingInstance(FREE, ("t",) * 4))


def test_encode_m1_exact_mode():
    inst = TilingInstance(FREE, ("t",))
    enc = encode_tiling_php(inst, "exact")
    a1, a2 = enc.factors
    assert a1.relation("H1") == S01
    assert a2.relation("H1") == (("0", "0"), ("1", "1"))
    assert a1.relation("V1") == (("0", "0"), ("1", "1"))
    assert a2.relation("V1") == S01
    assert a1.relation("P1") == (("0",),)
    assert a2.relation("P1") == (("0",),)


def test_encode_m2_paper_literal():
    inst = TilingInstance(CHECKER, ("w", "k"))
    enc = encode_tiling_php(inst, "paper-literal")
    id2 = (("0", "0"), ("1", "1"))
    assert enc.factors[0].relation("H1") == DIFF
    assert enc.factors[1].relation("H1") == DIFF
    assert enc.factors[2].relation("H1") == id2
    assert enc.factors[3].relation("H1") == id2


def test_encode_shape_counts():
    for prefix in (("t",), ("t", "t")):
        enc = encode_tiling_php(TilingInstance(FREE, prefix))
        m = len(prefix)
        assert len(enc.factors) == 2 * m
        assert len(enc.target.signature.relations) == 3 * m


def test_p_relations_are_singletons():
    enc = encode_tiling_php(TilingInstance(CHECKER, ("w", "k")))
    for f in enc.factors:
        for k in (1, 2):
            assert len(f.relation(f"P{k}")) == 1


def test_target_relations():
    inst = TilingInstance(CHECKER, ("w", "k"))
    enc = encode_tiling_php(inst)
    assert set(enc.target.relation("H1")) == set(CHECKER.hcompat)
    assert enc.target.relation("P1") == (("w",),)
    assert enc.target.relation("P2") == (("k",),)


def test_exact_decomposition_identity():
    for m, system, prefix in ((1, FREE, ("t",)), (2, CHECKER, ("w", "k")), (3, FREE, ("t",) * 3)):
        enc = encode_tiling_php(TilingInstance(system, prefix), "exact")
        prod = product(enc.factors)
        h_exp, v_exp = successor_relations(m)
        h_got = {t for k in range(1, m + 1) for t in prod.relation(f"H{k}")}
        v_got = {t for k in range(1, m + 1) for t in prod.relation(f"V{k}")}
        assert h_got == h_exp
        assert v_got == v_exp


def test_paper_literal_is_strict_superset():
    for m, system, prefix in ((1, FREE, ("t",)), (2, CHECKER, ("w", "k"))):
        exact = product(encode_tiling_php(TilingInstance(system, prefix), "exact").factors)
        lit = product(
            encode_tiling_php(TilingInstance(system, prefix), "paper-literal").factors
        )
        for k in range(1, m + 1):
            assert set(exact.relation(f"H{k}")) < set(lit.relation(f"H{k}"))


def test_exact_mode_equivalence_m1():
    for system, prefix in (
        (FREE, ("t",)),
        (STUCK, ("t",)),
        (CHECKER, ("w",)),
        (CHECKER, ("k",)),
    ):
        inst = TilingInstance(system, prefix)
        bf = brute_force_tiling(inst) is not None
        php = decide_php(encode_tiling_php(inst, "exact")).yes
        assert bf == php


def test_decode_checkerboard():
    inst = TilingInstance(CHECKER, ("w",))
    enc = encode_tiling_php(inst)
    v = decide_php(_rows_first(enc, 1))
    assert v.yes
    decoded = decode_hom_to_tiling(v.witness, inst)
    assert check_tiling(decoded, inst)


def test_decode_reads_row_y_off_ranks_y_times_2_to_the_m_on():
    # vertical stripes: decoding by the wrong coordinate order would print
    # horizontal ones, which check_tiling refuses
    inst = TilingInstance(STRIPES, ("w", "k"))
    v = decide_php(_rows_first(encode_tiling_php(inst), 2), range(16))
    rows = decode_hom_to_tiling(v.witness, inst)
    assert rows == [["w", "k", "w", "k"]] * 4 == brute_force_tiling(inst)
    assert check_tiling(rows, inst)
    assert not check_tiling([list(column) for column in zip(*rows)], inst)


def _as_assignment(rows):
    return {(x, y): tile for y, row in enumerate(rows) for x, tile in enumerate(row)}


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data())
def test_check_tiling_agrees_with_the_coordinate_check(data):
    # a random grid is valid for the pairs it uses; then a wrong prefix, one
    # bad horizontal pair, one bad vertical pair and a short row each break it
    m = data.draw(st.integers(1, 3))
    n = 2**m
    tiles = ("a", "b", "c")[: data.draw(st.integers(1, 3))]
    rows = [[data.draw(st.sampled_from(tiles)) for _ in range(n)] for _ in range(n)]
    h = frozenset(p for row in rows for p in zip(row, row[1:]))
    v = frozenset(p for below, above in zip(rows, rows[1:]) for p in zip(below, above))
    inst = TilingInstance(TileSystem(tiles, h, v), rows[0][:m])
    x, y = data.draw(st.integers(0, n - 2)), data.draw(st.integers(0, n - 2))
    cases = [
        (rows, inst, True),
        (rows, TilingInstance(TileSystem(tiles, h - {(rows[y][x], rows[y][x + 1])}, v),
                              inst.prefix), False),
        (rows, TilingInstance(TileSystem(tiles, h, v - {(rows[y][x], rows[y + 1][x])}),
                              inst.prefix), False),
        ([*rows[:y], rows[y][:-1], *rows[y + 1 :]], inst, False),
    ]
    k = data.draw(st.integers(0, m - 1))
    for other in set(tiles) - {inst.prefix[k]}:
        prefix = inst.prefix[:k] + (other,) + inst.prefix[k + 1 :]
        cases.append((rows, TilingInstance(inst.system, prefix), False))
    for grid, instance, valid in cases:
        assert check_tiling(grid, instance) is valid
        assert check_tiling_by_coordinates(_as_assignment(grid), instance) is valid


def test_binarized_encoding_same_verdict():
    for system, prefix in ((CHECKER, ("w",)), (STUCK, ("t",))):
        inst = TilingInstance(system, prefix)
        enc = encode_tiling_php(inst)
        benc = PhpInstance(
            tuple(binarize_unary(f) for f in enc.factors),
            binarize_unary(enc.target),
        )
        assert decide_php(enc).yes == decide_php(benc).yes


SYSTEM = {"tiles": ["t", "u"], "hcompat": [["t", "u"]], "vcompat": [["t", "t"]]}


def test_tile_system_parsing():
    sys = tile_system_from_dict(SYSTEM)
    assert sys.hcompat == frozenset({("t", "u")})
    # tiles are kept sorted, whatever order they are declared in
    assert tile_system_from_dict({**SYSTEM, "tiles": ["u", "t"]}) == sys
    with pytest.raises(InvalidStructureError):
        tile_system_from_dict({"tiles": ["t"]})
    with pytest.raises(InvalidStructureError):
        tile_system_from_dict(
            {"tiles": ["t"], "hcompat": [["t", "x"]], "vcompat": []}
        )



# sha256 of the files `reduce tiling` writes for the checkerboard prefix of
# length m (factor_1 .. factor_2m, then the target, concatenated), recorded
# while the horizontal and vertical successor pieces had a rule each
REDUCE_TILING_SHA256 = {
    "exact m=1": "222e919ddf12ba595f968be760e11859a23bad6bf63d27954b7ea73a3992f40a",
    "exact m=2": "54bc99f76e481fffdd25e8cf23079e5c5edc2f4b8869cb95add238d102673773",
    "exact m=3": "908478b86697175576ffc37df2110faa19862e93e66d4740a11c98365fd78987",
    "exact m=4": "169853fb1314d7115c644c0c6d532e0c966199b82cb751b62f6dee1431023ed6",
    "paper-literal m=1": "1d86cc31632563f24f9df33cab6afddc1a2984948704e2706c4ccd275da6136e",
    "paper-literal m=2": "0161b2704ebf4a8137649adb38c6e5cd5d59dfb57cfbc62b32171694fa2dc0fc",
    "paper-literal m=3": "28bef7b7edd23fd1479234ee0251fc880039212a58e63d757f60843e5ebdc484",
    "paper-literal m=4": "60d14db428e25ee7039f2f70d1d59adc1c322002610affa1d6f523c821d52d80",
}


@pytest.mark.parametrize("key", sorted(REDUCE_TILING_SHA256))
def test_reduce_tiling_files_are_pinned(key, capsys, tmp_path):
    mode, m = key.split(" m=")
    system = tmp_path / "checker.json"
    system.write_text(
        json.dumps({"tiles": ["k", "w"], "hcompat": [["k", "w"], ["w", "k"]],
                    "vcompat": [["k", "w"], ["w", "k"]]})
    )
    prefix = ["w" if i % 2 == 0 else "k" for i in range(int(m))]
    code = cli.main(["reduce", "tiling", "--system", str(system), "--prefix", *prefix,
                     "--mode", mode, "--out-dir", str(tmp_path / "out")])
    assert code == 0
    files = json.loads(capsys.readouterr().out)["files"]
    digest = hashlib.sha256(b"".join(map(Path.read_bytes, map(Path, files)))).hexdigest()
    assert digest == REDUCE_TILING_SHA256[key]


# (exit code, sha256 of stdout) of `solve-tiling`, recorded while it still
# named every grid cell by its product element: for the checkerboard prefix
# of length m, and for the tile systems _seeded_system draws, declared with
# their tiles in sorted and in reversed order
NO_SHA256 = "f78aa115e0a9b57562c89220fd45f6bf6e53f3c6888d4a30bafacabccc5b364d"
SOLVE_TILING_SHA256 = {
    "checker m=1": (0, "78566a9d6afea3801409d05b30a9d987d16a892a5d1311b11aa7e32cb83074b9"),
    "checker m=2": (0, "e285996c30a201036969b5c400c6848e00b4666b5ce19450e8342543324fe0e5"),
    "checker m=3": (0, "8ccd29172e16d2e5120694a5781a1794a00f45e9bd9b486f30362f493413c90a"),
    "checker m=4": (0, "a706d4c1853f33fb74fee25abf82258d16d10be7c3324b259490c9260625f680"),
    "checker m=5": (0, "8a92a3934095e4c3bceb279b2ca97dabdec2dad07d5600e28f19401981542f2a"),
    "checker m=6": (0, "9bfc87cc522510c11813fc23c8b5b4a95a71768ad07649cc32ed60fb95aa5cba"),
    "seed 0": (0, "574d038be59ca955f19529343176b6d4a5e90017f46c35cd56ff959011304d00"),
    "seed 1": (1, NO_SHA256),
    "seed 2": (0, "47d56e7ede5af8533ae16114155726d61f0425e178ebb13da3f1204aea99c7da"),
    "seed 4": (0, "df067baf673d5e45b1a6dca08262d5646869b9f2f08d27b36baaaa04e638999b"),
    "seed 5": (1, NO_SHA256),
    "seed 9": (0, "ea4f3d5ad543206e753827cfed7b889e626becaf4660420c20976d1dbfa80292"),
}


def _seeded_system(seed):
    """A random tile system of 2-4 tiles and a prefix of length 1-4, drawn from seed."""
    rng = random.Random(seed)
    m = rng.randint(1, 4)
    tiles = [f"t{j}" for j in range(rng.randint(2, 4))]
    pairs = [list(p) for p in itertools.product(tiles, repeat=2)]
    data = {
        "tiles": tiles,
        "hcompat": [p for p in pairs if rng.random() < 0.6],
        "vcompat": [p for p in pairs if rng.random() < 0.6],
    }
    return data, [rng.choice(tiles) for _ in range(m)]


def _solve_tiling_stdout(capsys, tmp_path, key, declared=sorted):
    """Exit code and stdout of `solve-tiling` on the instance a SOLVE_TILING_SHA256 key names."""
    kind, number = key.split(" ", 1)
    if kind == "checker":
        m = int(number.removeprefix("m="))
        data = {"tiles": ["k", "w"], "hcompat": [["k", "w"], ["w", "k"]],
                "vcompat": [["k", "w"], ["w", "k"]]}
        prefix = ["w" if i % 2 == 0 else "k" for i in range(m)]
    else:
        data, prefix = _seeded_system(int(number))
    system = tmp_path / "system.json"
    system.write_text(json.dumps({**data, "tiles": declared(data["tiles"])}))
    code = cli.main(["solve-tiling", "--system", str(system), "--prefix", *prefix])
    return code, capsys.readouterr().out


@pytest.mark.parametrize("key", list(SOLVE_TILING_SHA256))
def test_solve_tiling_stdout_is_pinned(key, capsys, tmp_path):
    for declared in (sorted, lambda tiles: sorted(tiles, reverse=True)):
        code, out = _solve_tiling_stdout(capsys, tmp_path, key, declared)
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == SOLVE_TILING_SHA256[key]


def test_solve_tiling_builds_no_product_element(capsys, tmp_path, monkeypatch):
    # between the encoding and the printed grid every cell is a product rank:
    # no product element, sorted product row or element rank is read
    def refuse(*args):
        raise AssertionError("a product element was built")

    for cls, name in ((ProductDomain, "__iter__"), (ProductDomain, "__getitem__"),
                      (_ProductRows, "__getitem__"), (_ProductRank, "__getitem__")):
        monkeypatch.setattr(cls, name, refuse)
    for key in ("checker m=4", "seed 0", "seed 1"):
        code, out = _solve_tiling_stdout(capsys, tmp_path, key)
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == SOLVE_TILING_SHA256[key]


def test_solve_tiling_memory_at_m6(capsys, tmp_path):
    # tracemalloc peak of cli.main solve-tiling on checkerboard m=6 (4096
    # cells), Python 3.11: 2,336,700 bytes while each cell was a bit tuple
    # (the prefix and the decoded witness), 1,746,644 bytes by rank
    tracemalloc.start()
    try:
        code, out = _solve_tiling_stdout(capsys, tmp_path, "checker m=6")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 2_000_000


def test_cell_rank_is_the_product_rank_of_its_bits():
    # cell (x, y) is the product element of the bits of x then y, so its rank
    # is x * 2^m + y; with y's factors first, as solve-tiling searches, it is
    # y * 2^m + x; P_k pins the bits of cell (k-1, 0) factor by factor
    for m in range(1, 5):
        enc = encode_tiling_php(TilingInstance(FREE, ("t",) * m))
        prod, rows_first = product(enc.factors), product(_rows_first(enc, m).factors)
        for x, y in itertools.product(range(2**m), repeat=2):
            cell = coordinate_element(x, y, m)
            assert prod.rank[cell] == x << m | y
            assert rows_first.rank[cell[m:] + cell[:m]] == y << m | x
        for k in range(1, m + 1):
            pin = coordinate_element(k - 1, 0, m)
            assert [f.relation(f"P{k}") for f in enc.factors] == [((b,),) for b in pin]


def test_decode_reads_only_a_search_witness():
    # a map that is not the search's value list over the 4^m cells is refused
    inst = TilingInstance(CHECKER, ("w",))
    witness = decide_php(_rows_first(encode_tiling_php(inst), 1)).witness
    assert decode_hom_to_tiling(witness, inst) == [["w", "k"], ["k", "w"]]
    for hom, other in ((Homomorphism(dict(witness.mapping)), inst),
                       (witness, TilingInstance(CHECKER, ("w", "k")))):
        with pytest.raises(CertificateError):
            decode_hom_to_tiling(hom, other)


def _checker_file(tmp_path):
    path = tmp_path / "checker.json"
    path.write_text(json.dumps({"tiles": ["k", "w"], "hcompat": [["k", "w"], ["w", "k"]],
                                "vcompat": [["k", "w"], ["w", "k"]]}))
    return path


def _solve_tiling(capsys, system, prefix):
    code = cli.main(["solve-tiling", "--system", str(system), "--prefix", *prefix])
    payload = json.loads(capsys.readouterr().out)
    if "tiling" in payload:
        n = 2 ** len(prefix)
        rows = [[None] * n for _ in range(n)]
        for cell, t in payload["tiling"].items():
            x, y = map(int, cell.split(","))
            rows[y][x] = t
        payload["tiling"] = rows
    return code, payload


def test_solve_tiling_agrees_with_brute_force(tmp_path, capsys):
    rng = random.Random(11)
    answers = set()
    for i in range(150):
        m = 1 + i % 3
        tiles = [f"t{j}" for j in range(rng.randint(2, 4))]
        pairs = [list(p) for p in itertools.product(tiles, repeat=2)]
        data = {
            "tiles": tiles,
            "hcompat": [p for p in pairs if rng.random() < 0.5],
            "vcompat": [p for p in pairs if rng.random() < 0.5],
        }
        inst = TilingInstance(tile_system_from_dict(data), [rng.choice(tiles) for _ in range(m)])
        expected = brute_force_tiling(inst)
        answers.add(expected is None)
        # declared in sorted order, then in a random one: both the search and
        # brute force try tiles in sorted order, so the grid is the same
        for declared in (tiles, rng.sample(tiles, len(tiles))):
            redeclared = {**data, "tiles": declared}
            reordered = TilingInstance(tile_system_from_dict(redeclared), inst.prefix)
            assert brute_force_tiling(reordered) == expected
            system = tmp_path / "system.json"
            system.write_text(json.dumps(redeclared))
            code, payload = _solve_tiling(capsys, system, inst.prefix)
            if expected is None:
                assert (code, payload) == (1, {"answer": "NO"})
                continue
            assert code == 0 and payload["answer"] == "YES"
            assert check_tiling(payload["tiling"], inst)
            assert payload["tiling"] == expected
    assert answers == {True, False}


@pytest.mark.parametrize("m", [4, 5])
def test_solve_tiling_checkerboard_past_brute_force(m, tmp_path, capsys):
    prefix = ["w" if i % 2 == 0 else "k" for i in range(m)]
    code, payload = _solve_tiling(capsys, _checker_file(tmp_path), prefix)
    assert code == 0
    grid = payload["tiling"]
    assert check_tiling(grid, TilingInstance(CHECKER, prefix))
    n = 2**m
    assert grid == [["wk"[(x + y) % 2] for x in range(n)] for y in range(n)]


def test_solve_tiling_guard_fires_before_encoding(tmp_path, capsys, monkeypatch):
    checker = _checker_file(tmp_path)

    def encode(*args):
        raise AssertionError("encoded past the guard")

    with monkeypatch.context() as patch:
        patch.setattr(cli, "encode_tiling_php", encode)
        start = time.monotonic()
        code, payload = _solve_tiling(capsys, checker, ["w"] * 1000)
        assert time.monotonic() - start < 1
        assert code == 3 and "4^1000" in payload["error"]
    # checkerboard m=4 has 256 product elements
    monkeypatch.setenv("HOMFORGE_GUARD", "255")
    code, payload = _solve_tiling(capsys, checker, ["w", "k", "w", "k"])
    assert code == 3
    assert payload == {"error": "product domain would have 4^4 elements (guard 255)"}
    args = argparse.Namespace(system=str(checker), prefix=["w", "k", "w", "k"])
    with pytest.raises(GuardExceededError) as exc:
        cli.cmd_solve_tiling(args)
    assert exc.value.cardinality == 256
    # ... and 484 tuples: the product passes a guard of their sum exactly
    monkeypatch.setenv("HOMFORGE_GUARD", "740")
    assert _solve_tiling(capsys, checker, ["w", "k", "w", "k"])[0] == 0


def test_solve_tiling_checks_its_witness_under_the_guard(tmp_path, capsys, monkeypatch):
    checks = []
    validate = core.Homomorphism.validate

    def spy(hom, source, target):
        # the guard the checked product was built under, and its size
        checks.append((core.size_guard(), len(source.domain)))
        validate(hom, source, target)

    monkeypatch.setattr(core.Homomorphism, "validate", spy)
    monkeypatch.setenv("HOMFORGE_GUARD", "2000000")
    assert _solve_tiling(capsys, _checker_file(tmp_path), ["w", "k"])[0] == 0
    assert checks == [(2000000, 16)]


def test_solve_tiling_builds_one_product_and_encodes_once(tmp_path, capsys, monkeypatch):
    # the witness is checked against the product the search ran on
    products, encodings = [], []
    init = core.ProductDomain.__init__
    encode = tiling.encode_tiling_php

    def build(domain, factors):
        init(domain, factors)
        products.append(len(domain))

    def spy(*args, **kwargs):
        encodings.append(args)
        return encode(*args, **kwargs)

    monkeypatch.setattr(core.ProductDomain, "__init__", build)
    for module in (cli, tiling):
        monkeypatch.setattr(module, "encode_tiling_php", spy)
    assert _solve_tiling(capsys, _checker_file(tmp_path), ["w", "k", "w"])[0] == 0
    assert products == [64]
    assert len(encodings) == 1


def test_solve_tiling_searches_every_cell_as_a_range(tmp_path, capsys, monkeypatch):
    # row-major order is rank order, so no list of the 4^m cells is built
    prefixes = []
    decide = cli.decide_php

    def spy(inst, prefix=()):
        prefixes.append(prefix)
        return decide(inst, prefix)

    monkeypatch.setattr(cli, "decide_php", spy)
    assert _solve_tiling(capsys, _checker_file(tmp_path), ["w", "k"])[0] == 0
    assert len(prefixes) == 1 and type(prefixes[0]) is range
    assert prefixes[0] == range(16)


def test_solve_tiling_rejects_an_empty_witness(tmp_path, capsys, monkeypatch):
    # a map from the search that misses every cell fails the witness check
    monkeypatch.setattr(homsolver, "find_homomorphism", lambda *args: Homomorphism({}))
    code, payload = _solve_tiling(capsys, _checker_file(tmp_path), ["w"])
    assert code == 4
    assert payload["error"].startswith("certificate check failed")
