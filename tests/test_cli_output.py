"""CLI stdout pinned byte for byte, and CLI runs deeper than the recursion limit.

The hashes were recorded from the recursive solver this package started
with; any change to the search order, the witness chosen or the JSON layout
shows up here (acceptance criterion 9 requires stdout to stay identical).
"""

import hashlib
import json

from homforge import cli
from homforge.core import Homomorphism, save_structure
from homforge.tiling import TileSystem, TilingInstance, check_tiling

from paper_objects import decode_by_coordinates
from test_acceptance import _tiny_single_relation_corpus

CHECKER = TileSystem(
    ("k", "w"),
    frozenset({("w", "k"), ("k", "w")}),
    frozenset({("w", "k"), ("k", "w")}),
)

GOLDEN_SHA256 = {
    "check-hom m=3": "cdd0ef235d2e13a62278a1316b8eb576ad94e49f84b2ff231e5ea8f02dc45685",
    "check-hom m=4": "05748067079e7c1d3f4ef1ccdf945b929820c7f6b2466b6d4870065a3d1616d4",
    # recorded with a raised recursion limit, which the recursive solver needed
    "check-hom m=5": "786fd089504eecf5533cfe6ec2a2b03914163e7fbc73367fedd35793068099a7",
    "cqdef criterion 8": "c6671b95c9b9e1e88bf6e69057834ac615a96c749dfa386e032584a1b1138714",
}


def _run(capsys, argv):
    code = cli.main(argv)
    return code, capsys.readouterr().out


def _checker_prefix(m):
    return ["w" if i % 2 == 0 else "k" for i in range(m)]


def _check_hom_checkerboard(capsys, tmp_path, m):
    """`check-hom --witness` on the checkerboard tiling of side 2^m."""
    system = tmp_path / "checker.json"
    system.write_text(
        json.dumps(
            {
                "tiles": list(CHECKER.tiles),
                "hcompat": sorted(map(list, CHECKER.hcompat)),
                "vcompat": sorted(map(list, CHECKER.vcompat)),
            }
        )
    )
    out_dir = tmp_path / f"m{m}"
    code, out = _run(
        capsys,
        ["reduce", "tiling", "--system", str(system), "--prefix",
         *_checker_prefix(m), "--out-dir", str(out_dir)],
    )
    assert code == 0
    files = json.loads(out)["files"]  # factor_1 .. factor_2m, then the target
    return _run(capsys, ["check-hom", *files[:-1], "--target", files[-1], "--witness"])


def _cqdef_chain_stdout(capsys, tmp_path):
    """`cqdef check --witness` stdout over the criterion-8 corpus, concatenated."""
    chunks = []
    for i, inst in enumerate(_tiny_single_relation_corpus()):
        src = tmp_path / f"inst{i}"
        src.mkdir()
        paths = []
        for j, f in enumerate(inst.factors):
            paths.append(str(src / f"factor_{j}.json"))
            save_structure(f, paths[-1])
        save_structure(inst.target, src / "target.json")
        code, out = _run(
            capsys,
            ["reduce", "digraph", *paths, "--target", str(src / "target.json"),
             "--out-dir", str(src / "dg")],
        )
        assert code == 0
        dg = json.loads(out)["files"]
        code, out = _run(
            capsys,
            ["reduce", "php-to-cqdef", *dg[:-1], "--target", dg[-1],
             "--out-dir", str(src / "cq")],
        )
        assert code == 0
        structure, relation = json.loads(out)["files"]
        code, out = _run(
            capsys, ["cqdef", "check", structure, "--relation", relation, "--witness"]
        )
        assert code in (0, 1)
        chunks.append(out)
    return "".join(chunks)


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_check_hom_checkerboard_stdout_is_pinned(capsys, tmp_path):
    for m in (3, 4):
        code, out = _check_hom_checkerboard(capsys, tmp_path, m)
        assert code == 0
        assert _sha(out) == GOLDEN_SHA256[f"check-hom m={m}"]


def test_cqdef_chain_stdout_is_pinned(capsys, tmp_path):
    out = _cqdef_chain_stdout(capsys, tmp_path)
    assert _sha(out) == GOLDEN_SHA256["cqdef criterion 8"]


def _element(label):
    """Inverse of core.element_label for labels of strings and nested tuples."""
    if not label.startswith("["):
        return label

    def tuples(x):
        return x if isinstance(x, str) else tuple(tuples(c) for c in x)

    return tuples(json.loads(label))


def test_check_hom_checkerboard_m5_under_default_recursion_limit(capsys, tmp_path):
    # 1024 product elements: more variables than the default recursion limit
    code, out = _check_hom_checkerboard(capsys, tmp_path, 5)
    assert code == 0
    assert _sha(out) == GOLDEN_SHA256["check-hom m=5"]
    payload = json.loads(out)
    assert payload["answer"] == "YES"
    hom = Homomorphism({_element(k): v for k, v in payload["witness"].items()})
    inst = TilingInstance(CHECKER, tuple(_checker_prefix(5)))
    assert check_tiling(decode_by_coordinates(hom, inst), inst)
