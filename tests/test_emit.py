"""Streamed answers: _emit writes a witness batch by batch, byte for byte as json.dumps would.

A witness is listed by Homomorphism.label_batches in sorted-label order,
read off per-factor orders by the text each element shows inside a
product label.  Escape-heavy strings ('"', backslashes, non-ASCII, and "a"
beside "a!", whose quoted texts sort the other way round) and nested
tuples make that order differ from the rank order.
"""

import contextlib
import hashlib
import io
import json
import shlex
import subprocess
import sys
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homforge import cli
from homforge.core import (
    Homomorphism,
    Signature,
    Structure,
    digraph,
    element_label,
    product,
    save_structure,
)
from homforge.cq import canonical_structure, load_query

import helpers

TRICKY = ["a", "a!", "a ", "", '"', "\\", "\\\\", 'a"b', "é", "☃", "😀", "[", "]", ",", "\x00"]

atoms = st.sampled_from(TRICKY) | st.text(max_size=3)
elements = st.recursive(atoms, lambda e: st.tuples(e) | st.tuples(e, e), max_leaves=4)
SIG = Signature((("E", 2),))


def _structure(domain):
    return Structure(SIG, domain, {})


@st.composite
def witnesses(draw):
    """A map from a product of 1-3 factors of escape-heavy elements into a target."""
    factors = [
        _structure(draw(st.lists(elements, unique=True, min_size=0 if i else 1, max_size=4)))
        for i in range(draw(st.integers(1, 3)))
    ]
    source = product(factors)
    target = _structure(draw(st.lists(elements, unique=True, min_size=1, max_size=4)))
    images = [draw(st.integers(0, len(target.domain) - 1)) for _ in range(len(source.domain))]
    return Homomorphism._of_ranks(source, target, images)


@pytest.fixture
def edge_loop(tmp_path):
    """check-hom arguments whose answer is YES with a 4-element witness."""
    edge, loop = tmp_path / "edge.json", tmp_path / "loop.json"
    save_structure(digraph(("a", "b"), (("a", "b"),)), edge)
    save_structure(digraph(("v",), (("v", "v"),)), loop)
    return ["check-hom", str(edge), str(edge), "--target", str(loop), "--witness"]


def _emitted(payload, pretty):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit(payload, types.SimpleNamespace(pretty=pretty))
    return out.getvalue()


def _expected(payload, pretty):
    options = {"indent": 2} if pretty else {"separators": (",", ":")}
    return json.dumps(payload, sort_keys=True, **options) + "\n"


def _labels(hom):
    """The map as labels, by element_label of every element and image."""
    source = hom.mapping.source
    return {element_label(e): element_label(hom(e)) for e in source.domain}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(witnesses(), st.booleans())
def test_streamed_witness_is_json_dumps(hom, pretty):
    labels = _labels(hom)
    witness = cli._hom_to_json(hom)
    assert witness == labels and list(witness) == sorted(labels)
    # check-hom's payload, and cqdef's, whose witness_tuple follows witness_hom
    for answer, key in (("YES", "witness"), ("NotDefinable", "witness_hom")):
        payload = {"answer": answer, key: hom.label_batches(), "witness_tuple": ["a!", "a"]}
        expected = dict(payload, **{key: labels})
        assert _emitted(payload, pretty) == _expected(expected, pretty)


def test_empty_and_one_factor_witnesses():
    # an empty factor gives the empty witness {}; one factor labels c as [c]
    nothing = product([_structure(["a"]), _structure([])])
    empty = Homomorphism._of_ranks(nothing, _structure(["v"]), [])
    one = product([_structure(["a", "a!", ("a",)])])
    single = Homomorphism._of_ranks(one, _structure(["v", "w"]), [1, 0, 1])
    for hom, labels in ((empty, {}), (single, {'["a"]': "w", '["a!"]': "v", '[["a"]]': "w"})):
        assert cli._hom_to_json(hom) == labels
        for pretty in (False, True):
            payload = {"answer": "YES", "witness": hom.label_batches()}
            assert _emitted(payload, pretty) == _expected(
                {"answer": "YES", "witness": labels}, pretty
            )


def test_streamed_grid_is_json_dumps(tmp_path, capsys):
    # solve-tiling's grid: "x,y" keys sort as (str(x) + ",", str(y)), so "1,0"
    # comes before "10,0"; checked at m=4, whose x and y reach 15
    system = tmp_path / "checker.json"
    system.write_text(json.dumps({"tiles": ["k", "w"], "hcompat": [["k", "w"], ["w", "k"]],
                                  "vcompat": [["k", "w"], ["w", "k"]]}))
    argv = ["solve-tiling", "--system", str(system), "--prefix", "w", "k", "w", "k"]
    for pretty in ([], ["--pretty"]):
        assert cli.main([*pretty, *argv]) == 0
        out = capsys.readouterr().out
        assert out == _expected(json.loads(out), bool(pretty))
        assert len(json.loads(out)["tiling"]) == 256


def _reference(s):
    """A structure as a dict of labels, built from its element tuples label by label."""
    arity = dict(s.signature.relations)
    return {
        "domain": [element_label(e) for e in s.domain],
        "relations": {
            name: {
                "arity": arity[name],
                "tuples": [[element_label(c) for c in t] for t in s.relation(name)],
            }
            for name in sorted(arity)
        },
    }


def test_structure_payloads_are_json_dumps(tmp_path, capsys):
    # product and cq canonical print a structure: escape-heavy elements and
    # relation names, nested product labels, an empty relation, and the
    # product of an empty structure
    sig = Signature((("E", 2), ('R"\\é', 1), ("empty", 3)))
    left = Structure(sig, TRICKY[:8], {"E": [("a", '"'), ("\\", "a!")], 'R"\\é': [("a ",)]})
    right = Structure(sig, TRICKY[8:], {"E": [("☃", "😀"), ("\x00", "\x00")]})
    nothing = Structure(Signature(()), (), {})
    paths = {}
    for name, s in (("left", left), ("right", right), ("nothing", nothing)):
        paths[name] = str(tmp_path / f"{name}.json")
        save_structure(s, paths[name])
    query = tmp_path / "q.json"
    atoms = [["E", ["x", "☃"]], ['R"\\é', ['y"']], ["E", ["☃", "☃"]]]
    query.write_text(json.dumps({"free": ["x", 'y"', "x"], "bound": ["☃"], "atoms": atoms}))
    pointed = canonical_structure(load_query(query), sig)
    cases = [
        (["product", paths["left"], paths["right"]], {"structure": product([left, right])}),
        (["product", paths["nothing"]], {"structure": product([nothing])}),
        (["cq", "canonical", str(query), paths["left"]], {
            "structure": pointed.structure,
            "distinguished": [element_label(e) for e in pointed.distinguished],
        }),
    ]
    for argv, payload in cases:
        expected = dict(payload, structure=_reference(payload["structure"]))
        for pretty in ([], ["--pretty"]):
            assert cli.main([*pretty, *argv]) == 0
            assert capsys.readouterr().out == _expected(expected, bool(pretty))


def test_closed_stdout_writes_nothing_and_starts_no_batch(edge_loop, monkeypatch):
    # with fd 1 closed at start-up Python sets sys.stdout to None: the answer
    # fails before its first byte, and no batch of labels is made
    started = []
    batches = Homomorphism.label_batches

    def spy(self):
        started.append(True)
        yield from batches(self)

    monkeypatch.setattr(Homomorphism, "label_batches", spy)
    monkeypatch.setattr(sys, "stdout", None)
    assert cli.main(edge_loop) == 2
    assert started == []


def test_closed_stdout_with_a_witness_exits_2(edge_loop):
    cmd = shlex.join([sys.executable, "-m", "homforge.cli", *edge_loop]) + " >&-"
    r = subprocess.run(cmd, shell=True, stderr=subprocess.PIPE, text=True)
    assert r.returncode == 2
    assert "Traceback" not in r.stderr


NO_TUPLES_SHA256 = "bc0164bd3f27f6a895262c83a8e25daeee43af8c7dec40f17ff443966678f4ff"

def _no_tuple_run(tmp_path, target):
    """sha256 of the stdout and peak RSS in MB of a fresh check-hom --witness.

    The source is the product of five 10-element factors with one empty
    binary relation, 10^5 elements and no tuple, so the answer is the whole
    of the work.
    """
    ten, to, out = tmp_path / "ten.json", tmp_path / "target.json", tmp_path / "out.json"
    save_structure(Structure(SIG, [str(i) for i in range(10)], {}), ten)
    save_structure(target, to)
    argv = ["check-hom", *[str(ten)] * 5, "--target", str(to), "--witness"]
    code, peak_mb = helpers.peak_cli(out, *argv)
    assert code == 0
    return hashlib.sha256(out.read_bytes()).hexdigest(), peak_mb


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KB on Linux")
def test_no_tuple_witness_stays_within_its_memory_budget(tmp_path):
    # into one vertex: a fresh check-hom --witness printed these bytes at 41
    # MB peak while it built a label dict and the whole answer text, and at
    # 19 MB with the witness streamed in label order (Python 3.11)
    digest, peak_mb = _no_tuple_run(tmp_path, digraph(("v",), ()))
    assert digest == NO_TUPLES_SHA256
    assert peak_mb < 30


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KB on Linux")
def test_no_tuple_witness_into_two_vertices_takes_no_search(tmp_path):
    # into two vertices every domain keeps both, and no variable is in a
    # constraint: these bytes were printed at 29 MB peak while each variable
    # went through the search's heap and frames, and at 19 MB when each takes
    # its least value at the root (Python 3.11)
    digest, peak_mb = _no_tuple_run(tmp_path, digraph(("u", "v"), ()))
    assert digest == "af3280a9415a2604785cabf06146398bf6f3e9632b304a8e2fbc7075ce74eacd"
    assert peak_mb < 25
