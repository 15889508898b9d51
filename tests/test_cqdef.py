import itertools
import random

import pytest

from homforge import cqdef
from homforge.core import Homomorphism, PhpInstance, digraph, product
from homforge.cq import evaluate
from homforge.cqdef import (
    Definable,
    NotDefinable,
    _check_not_definable,
    _pointed_product,
    decide_cq_definability,
    reduce_php_to_nondefinability,
)
from homforge.errors import (
    CertificateError,
    GuardExceededError,
    InvalidStructureError,
    NotAHomomorphismError,
    SignatureMismatchError,
)
from homforge.homsolver import decide_php, image_witnesses
from homforge.normalform import digraph_transform

import helpers
from paper_objects import audit_apex_paths
from test_acceptance import _tiny_single_relation_corpus


LOOP = digraph(("v",), (("v", "v"),))
PATH3 = digraph(("a", "b", "c"), (("a", "b"), ("b", "c")))


def _check(instance, s_tuples, answer):
    """The decider's own check of answer, against the pointed product of S."""
    _check_not_definable(instance, *_pointed_product(instance, s_tuples), answer)


def test_self_loop_is_definable():
    verdict = decide_cq_definability(LOOP, [("v",)])
    assert isinstance(verdict, Definable)
    assert evaluate(verdict.query, LOOP) == {("v",)}


def test_path_start_is_definable():
    verdict = decide_cq_definability(PATH3, [("a",)])
    assert isinstance(verdict, Definable)
    assert evaluate(verdict.query, PATH3) == {("a",)}


def test_path_endpoints_not_definable():
    verdict = decide_cq_definability(PATH3, [("a",), ("c",)])
    assert isinstance(verdict, NotDefinable)
    assert verdict.witness_tuple == ("b",)
    # the witness maps the pointed square of the path onto b
    square = product([PATH3, PATH3])
    verdict.witness_hom.validate(square, PATH3)
    assert verdict.witness_hom.mapping[("a", "c")] == "b"


def test_isolated_distinguished_element_is_not_definable():
    # the image of the pointed product is S, but its distinguished element
    # (v, v) lies in no edge, so no safe query defines S
    vertex = digraph(("v",), ())
    assert decide_cq_definability(vertex, [("v",)]) == NotDefinable(
        None, None, isolated_position=0
    )
    _check(vertex, [("v",)], NotDefinable(None, None, 0))
    # in the square of a -> b, (a, a) has an edge and (a, b) none, while the
    # image of ((a, a), (a, b)) is exactly S
    edge = digraph(("a", "b"), (("a", "b"),))
    verdict = decide_cq_definability(edge, [("a", "a"), ("a", "b")])
    assert verdict == NotDefinable(None, None, isolated_position=1)
    _check(edge, [("a", "a"), ("a", "b")], verdict)


@pytest.mark.parametrize("position", [1, -1])
def test_check_rejects_an_isolated_position_outside_s(position):
    # S = {(a)} has one position, 0; the decider finds the isolated position
    # itself, so its check is called directly
    with pytest.raises(CertificateError) as caught:
        _check(PATH3, [("a",)], NotDefinable(None, None, position))
    assert str(caught.value) == f"isolated position {position} is not a position of S"


def test_empty_s_rejected():
    with pytest.raises(InvalidStructureError):
        decide_cq_definability(PATH3, [])


def test_mixed_arity_s_rejected():
    with pytest.raises(InvalidStructureError):
        decide_cq_definability(PATH3, [("a",), ("a", "b")])


@pytest.mark.parametrize(
    "s_tuples, message",
    [
        ([], "S must be nonempty"),
        ([("a",), ("a", "b")], "all tuples of S must have the same length"),
        ([("a",), ("x",)], "tuple ('x',) uses elements outside the domain"),
        # checked in input order: the length error comes before the unknown element
        ([("a",), ("a", "b"), ("x",)], "all tuples of S must have the same length"),
        ([("a",), ("x",), ("a", "b")], "tuple ('x',) uses elements outside the domain"),
    ],
    ids=["empty", "mixed-lengths", "unknown-element", "length-first", "unknown-first"],
)
def test_validator_checks_s_as_the_decider_does(s_tuples, message):
    # S is read once, by the decider; its check reuses that S and never reads it
    with pytest.raises(InvalidStructureError) as decided:
        decide_cq_definability(PATH3, s_tuples)
    assert str(decided.value) == message


@pytest.mark.parametrize(
    "corruption, error",
    [("not a homomorphism", NotAHomomorphismError), ("tuple in S", CertificateError)],
)
def test_decider_checks_its_own_certificate(monkeypatch, corruption, error):
    # a -> b -> c with S = {(a), (c)}: the search sends the distinguished
    # (a, c) to b, and a corrupt witness fails the check before it is returned
    search = cqdef.image_witnesses

    def corrupt(source, target, known):
        [(image, hom)] = search(source, target, known).items()
        assert image == ("b",)
        if corruption == "not a homomorphism":
            # the edge ((a, b), (b, c)) leaves c, which has no edge
            return {image: Homomorphism({**hom.mapping, ("a", "b"): "c"})}
        return {("c",): hom}

    monkeypatch.setattr(cqdef, "image_witnesses", corrupt)
    with pytest.raises(error):
        decide_cq_definability(PATH3, [("a",), ("c",)])


def test_image_candidates_are_guarded(monkeypatch):
    nodes = tuple(f"v{i}" for i in range(10))
    complete = digraph(nodes, [(a, b) for a in nodes for b in nodes])
    # one tuple of S: the pointed product has 10 elements, the image 10^3 candidates
    monkeypatch.setenv("HOMFORGE_GUARD", "999")
    with pytest.raises(GuardExceededError) as exc:
        decide_cq_definability(complete, [("v0", "v1", "v2")])
    assert exc.value.cardinality == 1000
    monkeypatch.delenv("HOMFORGE_GUARD")
    assert isinstance(decide_cq_definability(complete, [("v0", "v1", "v2")]), NotDefinable)


def test_definable_verdicts_are_sound():
    rng = random.Random(71)
    from homforge.core import Signature

    sig = Signature((("E", 2),))
    for _ in range(20):
        s = helpers.random_structure(rng, sig, nonempty_relations=True)
        elem = s.relation("E")[0][0]
        verdict = decide_cq_definability(s, [(elem,)])
        if isinstance(verdict, Definable):
            assert evaluate(verdict.query, s) == {(elem,)}
        else:
            assert verdict.witness_tuple != (elem,)
            n = 1
            verdict.witness_hom.validate(product([s] * n), s)


def test_witness_tuple_is_the_least_image_outside_s():
    rng = random.Random(1212)
    sig = helpers.random_signature(rng, max_relations=1, max_arity=2)
    checked = 0
    for _ in range(30):
        s = helpers.random_structure(rng, sig, max_dom=3)
        k = rng.randint(1, 2)
        candidates = sorted(itertools.product(s.domain, repeat=k))
        s_rows = rng.sample(candidates, min(len(candidates), rng.randint(1, 2)))
        s_sorted = sorted(s_rows, key=helpers.reference_tuple_key)
        pointed = product([s] * len(s_sorted))
        distinguished = [tuple(t[j] for t in s_sorted) for j in range(k)]
        images = {
            tuple(h[d] for d in distinguished)
            for h in helpers.exhaustive_homs(pointed, s)
        }
        outside = images - set(s_rows)
        if not outside:
            continue
        verdict = decide_cq_definability(s, s_rows)
        assert isinstance(verdict, NotDefinable)
        assert verdict.witness_tuple == min(outside, key=helpers.reference_tuple_key)
        _check(s, s_rows, verdict)
        checked += 1
    assert checked >= 10


def _reference_verdict(instance, s_rows):
    """The least image outside S of the full image map, or None when there is none."""
    pointed = _pointed_product(instance, s_rows)[1]
    images = image_witnesses(pointed, instance)
    for image, hom in images.items():
        if image not in set(s_rows):
            return image, hom
    return None


def _same_verdict(instance, s_rows):
    verdict = decide_cq_definability(instance, s_rows)
    expected = _reference_verdict(instance, s_rows)
    if expected is None:
        assert not isinstance(verdict, NotDefinable) or verdict.witness_hom is None
    else:
        assert isinstance(verdict, NotDefinable)
        assert verdict.witness_tuple == expected[0]
        assert verdict.witness_hom.mapping == expected[1].mapping


def test_skipping_s_changes_no_answer():
    # the search never looks below a tuple of S; the images outside S, their
    # order and their witnesses are those of the full search
    rng = random.Random(404)
    skipped = 0
    for _ in range(60):
        sig = helpers.random_signature(rng, max_relations=2, max_arity=2)
        size = rng.randint(1, 3)
        instance = helpers.random_structure(rng, sig, max_dom=3 if size < 3 else 2)
        k = rng.randint(1, 2)
        s_rows = [tuple(rng.choice(instance.domain) for _ in range(k)) for _ in range(size)]
        if rng.random() < 0.4:
            s_rows[-1] = (s_rows[0][0],) * k  # a tuple that repeats a coordinate
        pointed = _pointed_product(instance, s_rows)[1]
        full = image_witnesses(pointed, instance)
        outside = image_witnesses(pointed, instance, known=set(s_rows))
        dist = pointed.distinguished
        oracle = {
            tuple(h[d] for d in dist)
            for h in helpers.exhaustive_homs(pointed.structure, instance)
        }
        rank = instance.rank
        assert list(outside) == sorted(
            oracle - set(s_rows), key=lambda t: tuple(rank[c] for c in t)
        )
        assert list(outside) == [t for t in full if t not in set(s_rows)]
        for image, hom in outside.items():
            assert hom.mapping == full[image].mapping
        skipped += len(full) - len(outside)
        _same_verdict(instance, s_rows)
    assert skipped >= 60  # every S tuple is an image, so each case skips one
    for inst in _tiny_single_relation_corpus():
        red = reduce_php_to_nondefinability(digraph_transform(inst))
        _same_verdict(red.structure, red.s_tuples)


def test_binary_s_supported():
    # extension beyond unary S: same pointed-product machinery
    verdict = decide_cq_definability(PATH3, [("a", "b")])
    assert isinstance(verdict, Definable)
    assert evaluate(verdict.query, PATH3) == {("a", "b")}


def test_reduction_counts_and_audit():
    inst = PhpInstance(
        (digraph(("a", "b"), (("a", "b"),)),),
        digraph(("u", "v"), (("u", "v"), ("v", "u"))),
    )
    t = digraph_transform(inst)
    red = reduce_php_to_nondefinability(t)
    n = len(t.factors)
    expected = sum(len(f.domain) for f in t.factors) + len(t.target.domain) + n + 1
    assert len(red.structure.domain) == expected
    # apex out-degrees match part sizes
    name = red.structure.signature.relations[0][0]
    edges = red.structure.relation(name)
    for i, f in enumerate(t.factors):
        apex = red.apexes[i]
        assert sum(1 for e in edges if e[0] == apex) == len(f.domain)
    assert (
        sum(1 for e in edges if e[0] == red.target_apex) == len(t.target.domain)
    )
    assert audit_apex_paths(red)
    assert red.s_tuples == tuple((a,) for a in red.apexes)


def test_reduction_lists_apexes_in_canonical_order():
    edge = digraph(("a", "b"), (("a", "b"),))
    red = reduce_php_to_nondefinability(digraph_transform(PhpInstance((edge,) * 11, edge)))
    expected = sorted(red.apexes, key=helpers.reference_element_key)
    assert red.s_tuples == tuple((a,) for a in expected)
    assert red.s_tuples[2] == (("apex", "10"),)  # "10" sorts before "2"


def test_reduction_rejects_wrong_signature():
    from homforge.core import Signature, Structure

    s = Structure(Signature((("R", 3),)), ("a",), {"R": ()})
    with pytest.raises(SignatureMismatchError):
        reduce_php_to_nondefinability(PhpInstance((s,), s))


def test_reduction_rejects_uneven_path_lengths():
    a = digraph(("a", "b"), (("a", "b"),))
    b = digraph(("u", "v", "w"), (("u", "v"), ("v", "w")))
    with pytest.raises(InvalidStructureError):
        reduce_php_to_nondefinability(PhpInstance((a,), b))


def test_reduction_rejects_cycles():
    cyc = digraph(("a", "b"), (("a", "b"), ("b", "a")))
    from homforge.errors import CyclicStructureError

    with pytest.raises(CyclicStructureError):
        reduce_php_to_nondefinability(PhpInstance((cyc,), cyc))


def test_end_to_end_equivalence_small():
    cases = [
        PhpInstance(
            (digraph(("a", "b"), (("a", "b"),)),),
            digraph(("u", "v"), (("u", "v"), ("v", "u"))),
        ),
        PhpInstance(
            (digraph(("u", "v"), (("u", "v"), ("v", "u"))),),
            digraph(("a", "b"), (("a", "b"),)),
        ),
        PhpInstance(
            (digraph(("a",), (("a", "a"),)), digraph(("b",), (("b", "b"),))),
            digraph(("u",), (("u", "u"),)),
        ),
    ]
    for inst in cases:
        t = digraph_transform(inst)
        php = decide_php(t).yes
        red = reduce_php_to_nondefinability(t)
        assert audit_apex_paths(red)
        verdict = decide_cq_definability(red.structure, red.s_tuples)
        assert php == isinstance(verdict, NotDefinable)
