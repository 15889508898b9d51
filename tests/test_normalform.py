import random

import pytest

from homforge.core import (
    Homomorphism,
    PhpInstance,
    Signature,
    Structure,
    digraph,
    product,
)
from homforge.cq import evaluate
from homforge.errors import (
    CyclicStructureError,
    GuardExceededError,
    InvalidStructureError,
    NotAHomomorphismError,
)
from homforge.homsolver import decide_php
from homforge.normalform import (
    ZERO,
    base_node,
    digraph_transform,
    gadget_digraph,
    max_path_length,
    merge_relations,
    out_path_lengths,
    pad_first_coordinate,
    restrict_hom_digraph,
    single_relation_transform,
    sink_node,
    star_transform,
    tuple_node,
)

import helpers
from paper_objects import (
    lift_hom_digraph,
    lift_hom_star,
    path_fan_query,
    projection,
    star_instance,
)


TWO_REL_SIG = Signature((("R1", 1), ("R2", 2)))


def two_rel_example():
    return Structure(
        TWO_REL_SIG, ("a", "b"), {"R1": (("a",),), "R2": (("a", "b"),)}
    )


def test_star_transform_definition():
    star = star_transform(two_rel_example())
    assert set(star.domain) == {"a", "b", ZERO}
    assert set(star.relation("P")) == {("a",), ("b",)}
    assert set(star.relation("R")) == {
        (ZERO, ZERO, ZERO),
        ("a", ZERO, ZERO),
        (ZERO, "a", "b"),
    }


def test_star_tuple_count():
    rng = random.Random(2)
    for _ in range(15):
        s = helpers.random_structure(rng, TWO_REL_SIG)
        star = star_transform(s)
        assert len(star.relation("R")) == 1 + s.tuple_count()


def test_merge_relations_definition(monkeypatch):
    merged = merge_relations(star_transform(two_rel_example()))
    assert merged.signature.relations == (("R", 4),)
    star = star_transform(two_rel_example())
    assert len(merged.relation("R")) == len(star.relation("P")) * len(
        star.relation("R")
    )
    # |P| = 2 and |R| = 3 on 3 elements: 6 merged tuples, 9 with the elements
    monkeypatch.setenv("HOMFORGE_GUARD", "9")
    assert merge_relations(star) == merged
    monkeypatch.setenv("HOMFORGE_GUARD", "8")
    with pytest.raises(GuardExceededError) as exc:
        merge_relations(star)
    assert exc.value.cardinality == 9
    assert str(exc.value) == "merged structure would have 3 elements and 6 tuples (guard 8)"


def test_merge_requires_two_relations():
    with pytest.raises(InvalidStructureError):
        merge_relations(two_rel_example().__class__(
            Signature((("R", 2),)), ("a",), {"R": ()}
        ))


def test_star_merge_preserves_php():
    rng = random.Random(40)
    for _ in range(40):
        inst = helpers.random_php_instance(rng, TWO_REL_SIG)
        before = decide_php(inst).yes
        after = decide_php(single_relation_transform(inst)).yes
        assert before == after


def test_star_merge_ignores_declaration_order():
    # the star blocks line up even when each structure declares its relations
    # in its own order
    rng = random.Random(43)
    answers = set()
    for _ in range(60):
        factors = []
        for _ in range(rng.randint(1, 2)):
            declared = Signature(tuple(rng.sample(TWO_REL_SIG.relations, 2)))
            factors.append(helpers.random_structure(rng, declared))
        declared = Signature(tuple(rng.sample(TWO_REL_SIG.relations, 2)))
        inst = PhpInstance(tuple(factors), helpers.random_structure(rng, declared))
        v = decide_php(inst)
        merged = single_relation_transform(inst)
        assert decide_php(merged).yes == v.yes
        answers.add(v.yes)
        if v.yes:
            lifted = lift_hom_star(v.witness, inst)
            lifted.validate(product(merged.factors), merged.target)
    assert answers == {True, False}


def test_lift_hom_star_identity_factor():
    s = two_rel_example()
    inst = PhpInstance((s,), s)
    v = decide_php(inst)
    lifted = lift_hom_star(v.witness, inst)
    si = star_instance(inst)
    prod = product(si.factors)
    lifted.validate(prod, si.target)
    # fresh element goes to zero, zero-free elements into P
    assert lifted.mapping[(ZERO,)] == ZERO
    p_targets = {t[0] for t in si.target.relation("P")}
    for e in prod.domain:
        if ZERO not in e:
            assert lifted.mapping[e] in p_targets


def test_lift_hom_star_random_instances():
    rng = random.Random(41)
    done = 0
    while done < 15:
        inst = helpers.random_php_instance(rng, TWO_REL_SIG)
        v = decide_php(inst)
        if not v.yes:
            continue
        lifted = lift_hom_star(v.witness, inst)
        si = star_instance(inst)
        lifted.validate(product(si.factors), si.target)
        merged = single_relation_transform(inst)
        lifted.validate(product(merged.factors), merged.target)
        done += 1


def test_lift_hom_star_rejects_invalid_map():
    s = two_rel_example()
    inst = PhpInstance((s,), s)
    with pytest.raises(NotAHomomorphismError):
        lift_hom_star(Homomorphism({}), inst)


def test_lift_hom_star_guards_the_starred_product():
    # 2^13 = 8192 product elements validate, but the starred product has
    # 3^13 = 1594323, past the default guard of 10^6
    edge = digraph(("a", "b"), (("a", "b"),))
    inst = PhpInstance((edge,) * 13, edge)
    hom = projection(product(inst.factors), 0)
    with pytest.raises(GuardExceededError):
        lift_hom_star(hom, inst)


def test_lift_hom_star_reads_the_guard_from_the_environment(monkeypatch):
    # the product of two edges has 4 elements; the starred product has 3 * 3
    # = 9, and 2 * 2 tuples in each of P and R, 17 in all
    edge = digraph(("a", "b"), (("a", "b"),))
    inst = PhpInstance((edge, edge), edge)
    hom = projection(product(inst.factors), 0)
    monkeypatch.setenv("HOMFORGE_GUARD", "16")
    with pytest.raises(GuardExceededError) as exc:
        lift_hom_star(hom, inst)
    assert exc.value.cardinality == 17
    assert str(exc.value) == "product would have 9 elements and 8 tuples (guard 16)"
    monkeypatch.setenv("HOMFORGE_GUARD", "17")
    assert len(lift_hom_star(hom, inst).mapping) == 9


def test_pad_first_coordinate_definition(monkeypatch):
    s = digraph(("a", "b"), (("a", "b"),))
    padded = pad_first_coordinate(s)
    assert padded.signature.relations == (("E", 3),)
    assert set(padded.relation("E")) == {("a", "a", "b"), ("b", "a", "b")}
    # first-coordinate projection is the full domain
    assert {t[0] for t in padded.relation("E")} == set(s.domain)
    # 2 padded tuples on 2 elements
    monkeypatch.setenv("HOMFORGE_GUARD", "4")
    assert pad_first_coordinate(s) == padded
    monkeypatch.setenv("HOMFORGE_GUARD", "3")
    with pytest.raises(GuardExceededError) as exc:
        pad_first_coordinate(s)
    assert exc.value.cardinality == 4
    assert str(exc.value) == "padded structure would have 2 elements and 2 tuples (guard 3)"


def test_merge_and_pad_guard_the_whole_structure_before_building(monkeypatch):
    # the tuples alone fit the guard, the elements with them do not: the
    # check comes before the relation the step reads its tuples from
    star = star_transform(two_rel_example())
    edge = digraph(("a", "b"), (("a", "b"),))

    def relation(self, name):
        raise AssertionError("a relation was read past the guard")

    monkeypatch.setattr(Structure, "relation", relation)
    for step, structure, tuples in ((merge_relations, star, 6), (pad_first_coordinate, edge, 2)):
        monkeypatch.setenv("HOMFORGE_GUARD", str(tuples))
        with pytest.raises(GuardExceededError) as exc:
            step(structure)
        assert exc.value.cardinality == tuples + len(structure.domain)


def test_pad_preserves_php():
    rng = random.Random(50)
    sig = Signature((("R", 2),))
    for _ in range(25):
        inst = helpers.random_php_instance(rng, sig)
        before = decide_php(inst).yes
        padded = PhpInstance(
            tuple(pad_first_coordinate(f) for f in inst.factors),
            pad_first_coordinate(inst.target),
        )
        assert decide_php(padded).yes == before


def test_gadget_digraph_r2_no_sinks():
    s = digraph(("a", "b"), (("a", "b"),))
    g = gadget_digraph(s)
    t = ("a", "b")
    expected_nodes = {
        base_node("a"),
        base_node("b"),
        tuple_node(t, 1),
        tuple_node(t, 2),
    }
    assert set(g.domain) == expected_nodes
    assert set(g.relation("E")) == {
        (tuple_node(t, 1), tuple_node(t, 2)),
        (base_node("a"), tuple_node(t, 1)),
        (base_node("b"), tuple_node(t, 2)),
    }


def test_gadget_digraph_with_sinks():
    s = digraph(("a", "b"), (("a", "b"),))
    g = gadget_digraph(s, with_sinks=True)
    assert sink_node(1) in g.domain
    assert (base_node("a"), sink_node(1)) in g.relation("E")
    assert (base_node("b"), sink_node(1)) in g.relation("E")


def test_gadget_node_count():
    rng = random.Random(60)
    for _ in range(10):
        sig = Signature((("R", rng.randint(2, 3)),))
        s = helpers.random_structure(rng, sig, nonempty_relations=True)
        name, r = sig.relations[0]
        g = gadget_digraph(s)
        assert len(g.domain) == len(s.domain) + r * len(s.relation("R"))
        gs = gadget_digraph(s, with_sinks=True)
        assert len(gs.domain) == len(s.domain) + r * len(s.relation("R")) + r - 1


def test_gadget_acyclic_with_exact_path_length():
    rng = random.Random(61)
    for _ in range(15):
        inst = helpers.random_single_relation_instance(rng)
        t = digraph_transform(inst)
        r = pad_first_coordinate(inst.target).signature.relations[0][1]
        for s in list(t.factors) + [t.target]:
            assert max_path_length(s) == r  # also proves acyclicity


def test_digraph_transform_signature_and_paths():
    inst = PhpInstance(
        (digraph(("a", "b"), (("a", "b"),)),),
        digraph(("u",), (("u", "u"),)),
    )
    t = digraph_transform(inst)
    assert t.target.signature.relations == (("E", 2),)
    # every base element has an outgoing path of exactly the padded arity
    for s in list(t.factors) + [t.target]:
        lengths = out_path_lengths(s)
        for node in s.domain:
            if node[0] == "elem":
                assert lengths[node] == 3


def test_digraph_transform_preserves_php():
    rng = random.Random(62)
    for _ in range(20):
        inst = helpers.random_single_relation_instance(rng)
        assert decide_php(inst).yes == decide_php(digraph_transform(inst)).yes


def test_lift_hom_digraph_types_and_round_trip():
    rng = random.Random(63)
    done = 0
    while done < 10:
        inst = helpers.random_single_relation_instance(rng, max_factors=1)
        padded = PhpInstance(
            tuple(pad_first_coordinate(f) for f in inst.factors),
            pad_first_coordinate(inst.target),
        )
        v = decide_php(padded)
        if not v.yes:
            continue
        lifted = lift_hom_digraph(v.witness, inst)
        t = digraph_transform(inst)
        lifted.validate(product(t.factors), t.target)
        back = restrict_hom_digraph(lifted, inst)
        assert back.mapping == v.witness.mapping
        done += 1


def test_lift_hom_digraph_mismatched_indices_hit_sink():
    # two factors, r = 2 post-padding; a product node pairing chain index 1
    # with chain index 2 must land on sink 1
    a = digraph(("a",), (("a", "a"),))
    inst = PhpInstance((a, a), a)
    padded = PhpInstance(
        tuple(pad_first_coordinate(f) for f in inst.factors),
        pad_first_coordinate(inst.target),
    )
    v = decide_php(padded)
    lifted = lift_hom_digraph(v.witness, inst)
    t = ("a", "a", "a")
    node = (tuple_node(t, 1), tuple_node(t, 2))
    assert lifted.mapping[node] == sink_node(1)


def test_lift_hom_digraph_guards_the_gadget_product():
    # four directed 4-cycles: 4^4 = 256 padded product elements, but each
    # gadget digraph has 4 + 16 * 3 = 52 nodes and 52^4 = 7311616 > 10^6
    cycle = digraph("abcd", (("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")))
    loop = digraph(("v",), (("v", "v"),))
    inst = PhpInstance((cycle,) * 4, loop)
    hom = Homomorphism({e: "v" for e in product(inst.factors).domain})
    with pytest.raises(GuardExceededError):
        lift_hom_digraph(hom, inst)


def test_restrict_validates_against_padded_instance():
    rng = random.Random(64)
    done = 0
    while done < 10:
        inst = helpers.random_single_relation_instance(rng, max_factors=1)
        t = digraph_transform(inst)
        v = decide_php(t)
        if not v.yes:
            continue
        back = restrict_hom_digraph(v.witness, inst)
        padded = PhpInstance(
            tuple(pad_first_coordinate(f) for f in inst.factors),
            pad_first_coordinate(inst.target),
        )
        back.validate(product(padded.factors), padded.target)
        done += 1


def test_restrict_rejects_a_base_element_sent_off_the_base():
    # an empty unary relation pads to an empty binary one, so the factor's
    # gadget digraph is one isolated base node, which a homomorphism of the
    # digraphs may send to the target's sink; no padded witness reads off it
    sig = Signature((("R", 1),))
    inst = PhpInstance((Structure(sig, ("a",), {}),), Structure(sig, ("u",), {"R": (("u",),)}))
    hom = Homomorphism({(base_node("a"),): sink_node(1)})
    with pytest.raises(NotAHomomorphismError) as caught:
        restrict_hom_digraph(hom, inst)
    message = "base product element ('a',) maps to non-base node ('sink', '1')"
    assert str(caught.value) == message


def test_padded_tuples_satisfy_path_fan_query():
    inst = PhpInstance(
        (digraph(("a", "b"), (("a", "b"),)),),
        digraph(("u",), (("u", "u"),)),
    )
    t = digraph_transform(inst)
    prod = product(t.factors)
    padded = product([pad_first_coordinate(f) for f in inst.factors])
    r = padded.signature.relations[0][1]
    answers = evaluate(path_fan_query(r), prod)
    for tup in padded.relation("E"):
        # the same tuple viewed inside the product of gadget digraphs
        wrapped = tuple(tuple(base_node(c) for c in e) for e in tup)
        assert wrapped in answers


def test_out_path_lengths_cycle_raises():
    cyc = digraph(("a", "b"), (("a", "b"), ("b", "a")))
    with pytest.raises(CyclicStructureError):
        out_path_lengths(cyc)


def test_out_path_lengths_of_a_long_path_under_default_recursion_limit():
    n = 5000
    nodes = tuple(f"v{i:04d}" for i in range(n))
    path = digraph(nodes, tuple(zip(nodes, nodes[1:])))
    assert max_path_length(path) == n - 1
    cycle = digraph(nodes, tuple(zip(nodes, nodes[1:] + nodes[:1])))
    with pytest.raises(CyclicStructureError):
        out_path_lengths(cycle)
