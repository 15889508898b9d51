"""Property tests of the CLI exit-code contract, run in-process through cli.main.

Exits 0 and 1 are decided answers and nothing else: a structure file that
breaks the schema and a HOMFORGE_GUARD value that is not a positive integer
must exit 2, every YES of check-hom --witness must carry a map that
validates against the built product, and every answer of cqdef check
--witness must carry its certificate: a query that evaluates to exactly S,
a map of the pointed product sending the distinguished tuple outside S, or
the position of a distinguished element that occurs in no tuple.
Examples are derandomized, so every run checks the same ones.
"""

import contextlib
import copy
import io
import json
import os
import re
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from homforge import cli
from homforge.core import (
    Homomorphism,
    digraph,
    product,
    save_structure,
)
from homforge.cq import evaluate, query_from_dict

import helpers

FUZZ = settings(derandomize=True, database=None, deadline=None)

EDGE = digraph(("a", "b"), (("a", "b"),))
VALID = {"domain": ["a", "b"], "relations": {"E": {"arity": 2, "tuples": [["a", "b"]]}}}

JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


def _is_string_list(v):
    return isinstance(v, list) and all(isinstance(x, str) for x in v)


def _is_valid_row_list(rows):
    """True iff rows are distinct pairs over the domain of VALID."""
    return (
        isinstance(rows, list)
        and all(_is_string_list(r) and len(r) == 2 and set(r) <= {"a", "b"} for r in rows)
        and len({tuple(r) for r in rows}) == len(rows)
    )


MISSING = object()


def _replace(path, value, base=VALID):
    """base with the entry at path set to value, or deleted when value is MISSING."""
    doc = copy.deepcopy(base)
    node = doc
    for key in path[:-1]:
        node = node[key]
    if value is MISSING:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return doc


def _at(*path, base=VALID):
    return lambda value: _replace(path, value, base)


NOT_AN_OBJECT = JSON.filter(lambda v: not isinstance(v, dict))
ROWS = st.lists(
    st.lists(st.sampled_from(["a", "b", "c", ""]), max_size=3), min_size=1, max_size=3
)
REQUIRED_KEYS = [
    ("domain",),
    ("relations",),
    ("relations", "E", "arity"),
    ("relations", "E", "tuples"),
]

# every document below breaks the structure schema by construction
BROKEN_STRUCTURES = st.one_of(
    JSON.filter(lambda v: not (isinstance(v, dict) and {"domain", "relations"} <= set(v))),
    st.sampled_from(REQUIRED_KEYS).map(lambda path: _replace(path, MISSING)),
    JSON.filter(lambda v: not _is_string_list(v)).map(_at("domain")),
    st.just(["a", "b", "a"]).map(_at("domain")),
    NOT_AN_OBJECT.map(_at("relations")),
    NOT_AN_OBJECT.map(_at("relations", "E")),
    JSON.filter(lambda v: not (type(v) is int and v == 2)).map(_at("relations", "E", "arity")),
    JSON.filter(lambda v: not _is_valid_row_list(v)).map(_at("relations", "E", "tuples")),
    ROWS.filter(lambda v: not _is_valid_row_list(v)).map(_at("relations", "E", "tuples")),
)

# the query, tile-system and relation documents below are read against
# the structure file VALID and the prefix "k"
VALID_QUERY = {"free": ["x"], "bound": ["y"], "atoms": [["E", ["x", "y"]]]}
VARIABLES = st.lists(st.sampled_from(["x", "y", "z", ""]), max_size=3)


def _is_valid_atom_list(atoms):
    """True iff atoms are E-atoms over the declared x and y, and x occurs in one."""
    return (
        isinstance(atoms, list)
        and all(
            isinstance(a, list)
            and len(a) == 2
            and a[0] == "E"
            and _is_string_list(a[1])
            and len(a[1]) == 2
            and set(a[1]) <= {"x", "y"}
            for a in atoms
        )
        and any("x" in a[1] for a in atoms)
    )


def _query_at(*path):
    return _at(*path, base=VALID_QUERY)


BROKEN_QUERIES = st.one_of(
    JSON.filter(lambda v: not (isinstance(v, dict) and {"free", "bound", "atoms"} <= set(v))),
    st.sampled_from(["free", "bound", "atoms"]).map(lambda key: _query_at(key)(MISSING)),
    JSON.filter(lambda v: not _is_string_list(v)).map(_query_at("free")),
    JSON.filter(lambda v: not _is_string_list(v)).map(_query_at("bound")),
    # free must be x alone (y is bound, z and "" would occur in no atom)
    VARIABLES.filter(lambda v: set(v) != {"x"}).map(_query_at("free")),
    # bound must hold y and not the free x
    VARIABLES.filter(lambda v: "y" not in v or "x" in v).map(_query_at("bound")),
    JSON.filter(lambda v: not isinstance(v, list)).map(_query_at("atoms")),
    st.lists(JSON, max_size=2)
    .filter(lambda v: not _is_valid_atom_list(v))
    .map(_query_at("atoms")),
    st.text(max_size=4).filter(lambda v: v != "E").map(_query_at("atoms", 0, 0)),
    VARIABLES.filter(lambda v: not _is_valid_atom_list([["E", v]])).map(
        _query_at("atoms", 0, 1)
    ),
)

CHECKER_PAIRS = [["k", "w"], ["w", "k"]]
VALID_TILES = {"tiles": ["k", "w"], "hcompat": CHECKER_PAIRS, "vcompat": CHECKER_PAIRS}
TILE_ROWS = st.lists(
    st.lists(st.sampled_from(["k", "w", "z", ""]), max_size=3), min_size=1, max_size=3
)


def _is_valid_pair_list(rows):
    """True iff rows are pairs of the tiles k and w."""
    return isinstance(rows, list) and all(
        _is_string_list(r) and len(r) == 2 and set(r) <= {"k", "w"} for r in rows
    )


def _tiles_at(*path):
    return _at(*path, base=VALID_TILES)


BROKEN_TILE_SYSTEMS = st.one_of(
    JSON.filter(
        lambda v: not (isinstance(v, dict) and {"tiles", "hcompat", "vcompat"} <= set(v))
    ),
    st.sampled_from(["tiles", "hcompat", "vcompat"]).map(lambda key: _tiles_at(key)(MISSING)),
    JSON.filter(lambda v: not _is_string_list(v)).map(_tiles_at("tiles")),
    # the tiles must be distinct and declare k and w
    st.lists(st.sampled_from(["k", "w", "z"]), max_size=4)
    .filter(lambda v: len(set(v)) != len(v) or not {"k", "w"} <= set(v))
    .map(_tiles_at("tiles")),
    st.sampled_from(["hcompat", "vcompat"]).flatmap(
        lambda key: st.one_of(JSON, TILE_ROWS)
        .filter(lambda v: not _is_valid_pair_list(v))
        .map(_tiles_at(key))
    ),
)


def _is_valid_relation(rows):
    """True iff rows are a nonempty list of same-length tuples over the domain of VALID."""
    return (
        isinstance(rows, list)
        and len(rows) > 0
        and all(_is_string_list(r) and set(r) <= {"a", "b"} for r in rows)
        and len({len(r) for r in rows}) == 1
    )


BROKEN_RELATIONS = st.one_of(JSON, ROWS).filter(lambda v: not _is_valid_relation(v))

ENV_TEXT = st.text(
    st.characters(exclude_categories=("Cs",), exclude_characters="\x00"), max_size=6
)
NOT_POSITIVE_INTEGERS = st.one_of(
    st.sampled_from(["", " ", "+5", "1_000", "1.5", "1e3", "0x10", "٥", "5 5", "-1"]),
    st.integers(max_value=0).map(str),
    ENV_TEXT,
).filter(lambda s: not re.fullmatch(r"0*[1-9][0-9]*", s.strip()))

NAMES = ("a", "b", "c")


def digraphs(max_size):
    """Digraphs on the first 1..max_size of NAMES with any edge set."""

    def on(n):
        nodes = st.sampled_from(NAMES[:n])
        edges = st.sets(st.tuples(nodes, nodes))
        return edges.map(lambda es: digraph(NAMES[:n], sorted(es)))

    return st.integers(1, max_size).flatmap(on)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    save_structure(EDGE, d / "edge.json")
    return d


def run_main(argv, guard=None):
    """Exit code and parsed stdout of cli.main, with HOMFORGE_GUARD set to guard."""
    out = io.StringIO()
    with mock.patch.dict(os.environ), contextlib.redirect_stdout(out):
        os.environ.pop("HOMFORGE_GUARD", None)
        if guard is not None:
            os.environ["HOMFORGE_GUARD"] = guard
        with contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    return code, json.loads(out.getvalue())


def _element(label):
    """Inverse of element_label for product elements (nested lists of strings)."""

    def tuples(v):
        return tuple(map(tuples, v)) if isinstance(v, list) else v

    return tuples(json.loads(label))


@settings(FUZZ, max_examples=100)
@given(doc=BROKEN_STRUCTURES, as_target=st.booleans())
def test_schema_breaking_structure_exits_2(workdir, doc, as_target):
    bad = str(workdir / "bad.json")
    with open(bad, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    edge = str(workdir / "edge.json")
    if as_target:
        argv = ["check-hom", edge, "--target", bad]
    else:
        argv = ["check-hom", bad, "--target", edge]
    code, payload = run_main(argv)
    assert code == 2, payload
    assert "error" in payload


def _assert_exit_2(argv):
    code, payload = run_main(argv)
    assert code == 2, payload
    assert "error" in payload


def _write_json(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return str(path)


@settings(FUZZ, max_examples=100)
@given(doc=BROKEN_QUERIES, command=st.sampled_from(["eval", "canonical"]))
# atoms that are not iterable at all, which the generated examples rarely reach
@example(doc=_query_at("atoms")(None), command="eval")
@example(doc=_query_at("atoms")(5), command="canonical")
def test_schema_breaking_query_exits_2(workdir, doc, command):
    bad = _write_json(workdir / "bad_query.json", doc)
    _assert_exit_2(["cq", command, bad, str(workdir / "edge.json")])


@settings(FUZZ, max_examples=80)
@given(doc=BROKEN_TILE_SYSTEMS, reduce=st.booleans())
def test_schema_breaking_tile_system_exits_2(workdir, doc, reduce):
    bad = _write_json(workdir / "bad_tiles.json", doc)
    if reduce:
        argv = ["reduce", "tiling", "--system", bad, "--prefix", "k"]
        argv += ["--out-dir", str(workdir / "tiling_out")]
    else:
        argv = ["solve-tiling", "--system", bad, "--prefix", "k"]
    _assert_exit_2(argv)


@settings(FUZZ, max_examples=60)
@given(doc=BROKEN_RELATIONS)
def test_schema_breaking_relation_exits_2(workdir, doc):
    bad = _write_json(workdir / "bad_relation.json", doc)
    _assert_exit_2(["cqdef", "check", str(workdir / "edge.json"), "--relation", bad])


@settings(FUZZ, max_examples=60)
@given(value=NOT_POSITIVE_INTEGERS)
def test_guard_that_is_not_a_positive_integer_exits_2(workdir, value):
    edge = str(workdir / "edge.json")
    code, payload = run_main(["check-hom", edge, "--target", edge], guard=value)
    assert code == 2, payload
    assert "HOMFORGE_GUARD" in payload["error"]


@settings(FUZZ, max_examples=40)
@given(factors=st.lists(digraphs(2), min_size=1, max_size=3), target=digraphs(3))
def test_check_hom_witness_validates(workdir, factors, target):
    paths = []
    for i, f in enumerate(factors):
        paths.append(str(workdir / f"factor_{i}.json"))
        save_structure(f, paths[-1])
    target_path = str(workdir / "target.json")
    save_structure(target, target_path)
    argv = ["check-hom", *paths, "--target", target_path, "--witness"]
    code, payload = run_main(argv)
    assert code in (0, 1), payload
    if code == 0:
        hom = Homomorphism({_element(k): v for k, v in payload["witness"].items()})
        hom.validate(product(factors), target)
    else:
        assert payload == {"answer": "NO"}
        assert not helpers.exhaustive_hom_exists(product(factors), target)


@st.composite
def cqdef_instances(draw):
    """A digraph on at most three nodes and a nonempty relation S of 1..3 tuples over it."""
    g = draw(digraphs(3))
    k = draw(st.integers(1, 2))
    tuples = st.tuples(*[st.sampled_from(g.domain)] * k)
    return g, draw(st.lists(tuples, min_size=1, max_size=3))


@settings(FUZZ, max_examples=60)
@given(case=cqdef_instances())
def test_cqdef_check_witness_certifies_the_answer(workdir, case):
    g, s_rows = case
    structure = str(workdir / "instance.json")
    save_structure(g, structure)
    relation = str(workdir / "relation.json")
    with open(relation, "w", encoding="utf-8") as fh:
        json.dump(s_rows, fh)
    code, payload = run_main(["cqdef", "check", structure, "--relation", relation, "--witness"])
    s_set = set(s_rows)
    # the pointed product of the copies (g, s), s in S in the canonical order
    s_sorted = sorted(s_set, key=helpers.reference_tuple_key)
    pointed = product([g] * len(s_sorted))
    distinguished = [tuple(s[j] for s in s_sorted) for j in range(len(s_rows[0]))]
    used = {c for t in pointed.relation("E") for c in t}
    if code == 0:
        assert payload["answer"] == "Definable"
        assert evaluate(query_from_dict(payload["query"]), g) == s_set
        return
    assert code == 1, payload
    assert payload["answer"] == "NotDefinable"
    if "isolated_position" in payload:
        # a safe query's free variable occurs in an atom, so its value in
        # the pointed product must occur in a tuple
        assert set(payload) == {"answer", "isolated_position"}
        j = payload["isolated_position"]
        assert distinguished[j] not in used
        assert all(d in used for d in distinguished[:j])
        return
    witness_tuple = tuple(payload["witness_tuple"])
    assert witness_tuple not in s_set
    hom = Homomorphism({_element(k): v for k, v in payload["witness_hom"].items()})
    hom.validate(pointed, g)
    assert tuple(hom(d) for d in distinguished) == witness_tuple
