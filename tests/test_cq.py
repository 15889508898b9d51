import random

import pytest

from homforge.core import PointedStructure, Signature, digraph
from homforge.cq import (
    ConjunctiveQuery,
    canonical_query,
    canonical_structure,
    evaluate,
    query_from_dict,
    query_to_dict,
)
from homforge.errors import GuardExceededError, InvalidStructureError, UnsafeQueryError
from homforge.homsolver import find_homomorphism

import helpers
from paper_objects import enumerate_homomorphisms, path_fan_query


SIG_E = Signature((("E", 2),))
PATH3 = digraph(("a", "b", "c"), (("a", "b"), ("b", "c")))


def test_query_invariants():
    with pytest.raises(InvalidStructureError):
        ConjunctiveQuery(("x",), ("x",), (("E", ("x", "x")),))  # overlap
    with pytest.raises(InvalidStructureError):
        ConjunctiveQuery(("x",), (), (("E", ("x", "z")),))  # undeclared
    with pytest.raises(UnsafeQueryError):
        ConjunctiveQuery(("x",), ("y",), (("E", ("y", "y")),))  # unsafe


def test_canonical_structure_of_exists_edge():
    q = ConjunctiveQuery(("x",), ("y",), (("E", ("x", "y")),))
    p = canonical_structure(q, SIG_E)
    assert set(p.structure.domain) == {"x", "y"}
    assert p.structure.relation("E") == (("x", "y"),)
    assert p.distinguished == ("x",)


def test_boolean_query_evaluation():
    q = ConjunctiveQuery((), ("x", "y"), (("E", ("x", "y")),))
    assert evaluate(q, PATH3) == {()}
    assert evaluate(q, digraph(("v",), ())) == set()


def test_canonical_query_of_one_edge():
    p = PointedStructure(digraph(("a", "b"), (("a", "b"),)), ("a",))
    q = canonical_query(p)
    assert q.free_vars == ("a",)
    assert q.atoms == (("E", ("a", "b")),)


def test_canonical_query_boolean_case():
    p = PointedStructure(digraph(("a", "b"), (("a", "b"),)), ())
    q = canonical_query(p)
    assert q.free_vars == ()
    assert len(q.atoms) == 1


def test_canonical_query_unsafe_distinguished():
    p = PointedStructure(digraph(("a", "b"), (("a", "b"),)), ("a",))
    isolated = PointedStructure(digraph(("a", "b", "z"), (("a", "b"),)), ("z",))
    canonical_query(p)  # fine
    with pytest.raises(UnsafeQueryError):
        canonical_query(isolated)


def test_canonical_query_selects_own_distinguished():
    rng = random.Random(3)
    for _ in range(15):
        s = helpers.random_structure(rng, SIG_E, nonempty_relations=True)
        elem = s.relation("E")[0][0]
        p = PointedStructure(s, (elem,))
        q = canonical_query(p)
        assert (elem,) in evaluate(q, s)


def test_round_trip_canonical_query_structure_isomorphic():
    # variables are named after their originating elements, so the round trip
    # is the identity up to that relabeling
    rng = random.Random(8)
    for _ in range(15):
        s = helpers.random_structure(rng, SIG_E, nonempty_relations=True)
        elem = s.relation("E")[0][0]
        p = PointedStructure(s, (elem,))
        back = canonical_structure(canonical_query(p), SIG_E)
        assert set(back.structure.domain) == set(s.domain)
        assert set(back.structure.relation("E")) == set(s.relation("E"))
        assert back.distinguished == p.distinguished


def test_evaluate_exists_successor_on_path():
    q = ConjunctiveQuery(("x",), ("y",), (("E", ("x", "y")),))
    assert evaluate(q, PATH3) == {("a",), ("b",)}


def test_evaluate_self_loop_query():
    q = ConjunctiveQuery(("x",), (), (("E", ("x", "x")),))
    s = digraph(("u", "v"), (("u", "v"), ("v", "v")))
    assert evaluate(q, s) == {("v",)}


def test_evaluate_guards_the_image_candidates(monkeypatch):
    nodes = tuple(f"v{i}" for i in range(10))
    complete = digraph(nodes, [(a, b) for a in nodes for b in nodes])
    xs = ("x1", "x2", "x3")
    q = ConjunctiveQuery(xs, (), tuple(("E", (x, x)) for x in xs))
    monkeypatch.setenv("HOMFORGE_GUARD", "999")
    with pytest.raises(GuardExceededError) as exc:
        evaluate(q, complete)
    assert exc.value.cardinality == 1000
    assert str(exc.value) == "image would have 1000 candidate tuples (guard 999)"
    monkeypatch.delenv("HOMFORGE_GUARD")
    assert len(evaluate(q, complete)) == 1000


def test_chandra_merlin_correspondence():
    rng = random.Random(21)
    for _ in range(10):
        s = helpers.random_structure(rng, SIG_E, nonempty_relations=True)
        q = ConjunctiveQuery(("x",), ("y",), (("E", ("x", "y")),))
        pointed = canonical_structure(q, SIG_E)
        homs = enumerate_homomorphisms(pointed.structure, s)
        expected = {tuple(h.mapping[v] for v in q.free_vars) for h in homs}
        assert evaluate(q, s) == expected


def test_evaluation_preserved_under_homomorphisms():
    rng = random.Random(42)
    done = 0
    while done < 10:
        s = helpers.random_structure(rng, SIG_E, nonempty_relations=True)
        t = helpers.random_structure(rng, SIG_E, nonempty_relations=True)
        h = find_homomorphism(s, t)
        if h is None:
            continue
        q = ConjunctiveQuery(("x",), ("y",), (("E", ("x", "y")),))
        answers = evaluate(q, s)
        t_answers = evaluate(q, t)
        for a in answers:
            assert tuple(h.mapping[c] for c in a) in t_answers
        done += 1


def test_path_fan_query_smallest():
    q = path_fan_query(1)
    assert q.free_vars == ("x1",)
    assert q.atoms == (("E", ("x1", "y1")),)


def test_path_fan_query_r2_atoms():
    q = path_fan_query(2)
    assert set(q.atoms) == {
        ("E", ("x1", "y1")),
        ("E", ("x2", "y2")),
        ("E", ("y1", "y2")),
    }


def test_path_fan_atom_count():
    for r in range(1, 7):
        assert len(path_fan_query(r).atoms) == 2 * r - 1
    with pytest.raises(InvalidStructureError):
        path_fan_query(0)


def test_query_json_round_trip():
    q = path_fan_query(2)
    assert query_from_dict(query_to_dict(q)) == q
    with pytest.raises(InvalidStructureError):
        query_from_dict({"free": []})
