import importlib
import inspect
import itertools
import pkgutil
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import homforge
from homforge import core
from homforge.core import (
    Homomorphism,
    PhpInstance,
    PointedStructure,
    Signature,
    Structure,
    digraph,
    parse,
    product,
    serialize,
)
from homforge.errors import (
    CertificateError,
    GuardExceededError,
    InvalidStructureError,
    NotAHomomorphismError,
    SignatureMismatchError,
)
from homforge.cq import ConjunctiveQuery
from homforge.cqdef import CqDefReduction, Definable, NotDefinable
from homforge.homsolver import PhpVerdict, decide_php
from homforge.normalform import gadget_digraph, pad_first_coordinate, star_transform
from homforge.tiling import TileSystem, TilingInstance

import helpers
from paper_objects import binarize_unary, disjoint_union, projection


ONE_EDGE = digraph(("a", "b"), (("a", "b"),))
LOOP = digraph(("v",), (("v", "v"),))


def test_signature_rejects_duplicates_and_bad_arity():
    with pytest.raises(InvalidStructureError):
        Signature((("E", 2), ("E", 1)))
    with pytest.raises(InvalidStructureError):
        Signature((("E", 0),))


def test_declaration_order_changes_neither_equality_nor_bytes():
    rels = (("E", 2), ("P", 1), ("U", 1))
    interp = {"E": (("a", "b"),), "P": (("b",),), "U": (("a",),)}
    first = Structure(Signature(rels), ("a", "b"), interp)
    for declared in itertools.permutations(rels):
        s = Structure(Signature(declared), ("b", "a"), interp)
        assert s.signature.relations == rels
        assert s == first
        assert serialize(s) == serialize(first)


def test_structure_invariants():
    sig = Signature((("E", 2),))
    with pytest.raises(InvalidStructureError):
        Structure(sig, ("a", "a"), {})
    with pytest.raises(InvalidStructureError):
        Structure(sig, ("a",), {"E": (("a",),)})  # wrong length
    with pytest.raises(InvalidStructureError):
        Structure(sig, ("a",), {"E": (("a", "x"),)})  # unknown element
    s = Structure(sig, ("b", "a"), {})
    assert s.domain == ("a", "b")
    assert s.relation("E") == ()
    with pytest.raises(InvalidStructureError) as caught:
        PointedStructure(s, ("a", "x"))
    assert str(caught.value) == "distinguished element 'x' not in domain"


def _nested_element(rng, depth=2):
    if depth == 0 or rng.random() < 0.4:
        return rng.choice(["", "a", "b", "a2", "a10", "B"])
    return tuple(_nested_element(rng, depth - 1) for _ in range(rng.randint(0, 3)))


def _looped(rng, pool):
    """A binary and a ternary relation over pool, with repeated positions."""
    return Structure(
        Signature((("R", 2), ("T", 3))),
        tuple(pool),
        {
            "R": [(x, x) for x in rng.sample(pool, min(2, len(pool)))]
            + [(rng.choice(pool), rng.choice(pool)) for _ in range(3)],
            "T": [(x, rng.choice(pool), x) for x in pool[:2]],
        },
    )


def _small_digraph(rng):
    """At most two edges on at most two nodes, so eleven factors stay small."""
    nodes = ("a", "b")[: rng.randint(1, 2)]
    pairs = [(x, y) for x in nodes for y in nodes]
    return digraph(nodes, rng.sample(pairs, rng.randint(0, min(2, len(pairs)))))


def test_relations_follow_the_reference_order():
    rng = random.Random(20121215)
    for _ in range(40):
        sig = helpers.random_signature(rng, max_relations=2, max_arity=3)
        a = helpers.random_structure(rng, sig, max_dom=3)
        prod = product([a, helpers.random_structure(rng, sig, max_dom=2)])
        pool = list(dict.fromkeys(_nested_element(rng) for _ in range(6)))
        nested = Structure(
            Signature((("R", 2),)),
            tuple(pool),
            {"R": [(rng.choice(pool), rng.choice(pool)) for _ in range(8)]},
        )
        looped = _looped(rng, pool)
        empty = Structure(looped.signature, (), {})
        products = [
            prod,  # tuples
            product([a]),  # one factor: 1-tuples
            product([_small_digraph(rng) for _ in range(11)]),  # eleven factors
            product([looped, empty]),  # an empty factor domain
            product([looped, _looped(rng, ["b", "a", ("a",)])]),  # loops
            product([nested, nested]),  # nested elements
        ]
        samples = [
            a,  # strings
            *products,
            star_transform(prod),  # strings and tuples
            gadget_digraph(pad_first_coordinate(nested), with_sinks=True),
            nested,  # nested tuples of mixed lengths, strings and tuples inside
        ]
        for s in samples:
            domain = list(s.domain)
            rng.shuffle(domain)
            interp = {}
            for name in s.signature.names():
                tuples = list(s.relation(name))
                rng.shuffle(tuples)
                interp[name] = tuples + tuples[:2]
            rebuilt = Structure(s.signature, tuple(domain), interp)
            # a product, built without the checking constructor, has the
            # rank and rows that constructor gives
            assert rebuilt.rank == s.rank
            assert rebuilt.rows == s.rows
            assert rebuilt.domain == tuple(
                sorted(domain, key=helpers.reference_element_key)
            )
            # rank and rows are the same orders as domain indices
            assert rebuilt.rank == {e: i for i, e in enumerate(rebuilt.domain)}
            assert rebuilt == s
            for name in s.signature.names():
                assert rebuilt.relation(name) == tuple(
                    sorted(set(interp[name]), key=helpers.reference_tuple_key)
                )
                assert rebuilt.rows[name] == tuple(
                    tuple(rebuilt.domain.index(c) for c in t)
                    for t in rebuilt.relation(name)
                )


def test_single_factor_product_is_isomorphic_wrapping():
    p = product([ONE_EDGE])
    assert p.domain == (("a",), ("b",))
    assert p.relation("E") == (((("a",), ("b",)),))


def test_product_of_two_one_edge_digraphs():
    # derived by enumerating all 16 candidate pairs componentwise
    p = product([ONE_EDGE, ONE_EDGE])
    assert len(p.domain) == 4
    assert p.relation("E") == ((("a", "a"), ("b", "b")),)


def test_product_empty_relation_absorbs():
    empty = digraph(("x", "y"), ())
    p = product([ONE_EDGE, empty])
    assert p.relation("E") == ()


def test_product_signature_mismatch():
    other = Structure(Signature((("F", 2),)), ("a",), {})
    with pytest.raises(SignatureMismatchError):
        product([ONE_EDGE, other])


def test_product_guard_reports_cardinality(monkeypatch):
    big = digraph(tuple(f"v{i}" for i in range(10)), ())
    monkeypatch.setenv("HOMFORGE_GUARD", "50")
    with pytest.raises(GuardExceededError) as exc:
        product([big, big])
    assert exc.value.cardinality == 100
    assert str(exc.value) == "product would have 100 elements and 0 tuples (guard 50)"


def test_product_relation_guard_fires_before_the_domain_is_enumerated(monkeypatch):
    # the complete looped digraph on 4 nodes: its square has 16 elements, 256
    # edges, so 272 in all; the one guard check counts both together
    nodes = ("a", "b", "c", "d")
    complete = digraph(nodes, [(x, y) for x in nodes for y in nodes])
    enumerated = []
    for name in ("__iter__", "columns", "labels"):
        real = getattr(core.ProductDomain, name)

        def spy(*args, real=real, name=name):
            enumerated.append(name)
            return real(*args)

        monkeypatch.setattr(core.ProductDomain, name, spy)
    monkeypatch.setenv("HOMFORGE_GUARD", "272")
    p = product([complete, complete])
    assert len(p.domain) == 16 and p.tuple_count() == 256
    assert not enumerated  # counting enumerates nothing
    assert len(p.relation("E")) == 256
    assert enumerated  # the spy sees an enumeration once the rows are read
    enumerated.clear()
    monkeypatch.setenv("HOMFORGE_GUARD", "271")
    with pytest.raises(GuardExceededError) as exc:
        product([complete, complete])
    assert exc.value.cardinality == 272
    assert str(exc.value) == "product would have 16 elements and 256 tuples (guard 271)"
    assert not enumerated


def _reference_product(factors):
    """The direct product from its definition, through the checking constructor."""
    sig = factors[0].signature
    interp = {}
    for name in sig.names():
        combos = itertools.product(*(f.relation(name) for f in factors))
        interp[name] = [tuple(zip(*combo)) for combo in combos]
    return Structure(sig, itertools.product(*(f.domain for f in factors)), interp)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_lazy_product_equals_the_product_of_element_tuples(data):
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    sig = helpers.random_signature(rng, max_relations=3, max_arity=3)
    factors = [
        helpers.random_structure(rng, sig, max_dom=3, min_dom=0, density=rng.random())
        for _ in range(rng.randint(1, 3))
    ]
    p, ref = product(factors), _reference_product(factors)
    assert len(p.domain) == len(ref.domain) and p.tuple_count() == ref.tuple_count()
    assert [p.domain[i] for i in range(len(p.domain))] == list(p.domain) == list(ref.domain)
    assert all(p.rank[e] == i for i, e in enumerate(ref.domain))
    assert p.labels() == ref.labels() == [core.element_label(e) for e in ref.domain]
    for name in sig.names():
        rows = list(zip(*p.columns(name)))
        assert p.tuple_count(name) == len(rows) == len(set(rows))
        assert sorted(rows) == list(ref.rows[name])
    # read last: the rows the columns give, sorted, and the element tuples
    assert p.rows == ref.rows and p.domain == ref.domain and p == ref


def test_no_public_function_takes_a_guard():
    # check_guard reads the guard itself (size_guard), so none is passed down
    takes_guard = []
    for info in pkgutil.iter_modules(homforge.__path__):
        module = importlib.import_module(f"homforge.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            members = [(name, obj)]
            if inspect.isclass(obj):
                members = [(f"{name}.{n}", getattr(obj, n)) for n in vars(obj)]
            for qualname, fn in members:
                if inspect.isroutine(fn) and not qualname.rsplit(".", 1)[-1].startswith("_"):
                    if "guard" in inspect.signature(fn).parameters:
                        takes_guard.append(f"{module.__name__}.{qualname}")
    assert takes_guard == []


def test_projections_are_homomorphisms():
    rng = random.Random(7)
    for _ in range(25):
        sig = helpers.random_signature(rng)
        factors = [helpers.random_structure(rng, sig) for _ in range(rng.randint(1, 3))]
        p = product(factors)
        for i, f in enumerate(factors):
            projection(p, i).validate(p, f)


def test_product_associative_up_to_rebracketing():
    rng = random.Random(11)
    for _ in range(10):
        sig = helpers.random_signature(rng)
        a, b, c = (helpers.random_structure(rng, sig, max_dom=2) for _ in range(3))
        left = product([product([a, b]), c])
        right = product([a, product([b, c])])
        flat = product([a, b, c])

        def flatten_left(e):
            return (e[0][0], e[0][1], e[1])

        def flatten_right(e):
            return (e[0], e[1][0], e[1][1])

        for name in sig.names():
            assert {
                tuple(flatten_left(x) for x in t) for t in left.relation(name)
            } == set(flat.relation(name))
            assert {
                tuple(flatten_right(x) for x in t) for t in right.relation(name)
            } == set(flat.relation(name))


# nested elements, and a T row that repeats the element ()
NESTED_SIG = Signature((("R", 2), ("T", 3)))
NESTED = Structure(
    NESTED_SIG,
    ("a", ("a", ("b",)), ()),
    {"R": ((("a", ("b",)), "a"),), "T": (((), "a", ()),)},
)
NESTED_TARGET = Structure(
    NESTED_SIG,
    ("u", ("v",)),
    {"R": (("u", ("v",)), ("u", "u")), "T": ((("v",), "u", ("v",)),)},
)


@pytest.mark.parametrize(
    "mapping, message",
    [
        ({"a": "u", ("a", ("b",)): "u"}, "element () is unmapped"),
        (
            {"a": "u", (): ("w",), ("a", ("b",)): "u"},
            "() maps to ('w',), not a target element",
        ),
        (
            {"a": "u", (): ("v",), ("a", ("b",)): ("v",)},
            "tuple (('a', ('b',)), 'a') of 'R' maps to (('v',), 'u'), missing in target",
        ),
        (
            {"a": ("v",), (): ("v",), ("a", ("b",)): "u"},
            "tuple ((), 'a', ()) of 'T' maps to (('v',), ('v',), ('v',)), missing in target",
        ),
        (
            {"a": "u", (): "u", ("a", ("b",)): "u"},
            "tuple ((), 'a', ()) of 'T' maps to ('u', 'u', 'u'), missing in target",
        ),
        # the search's form, a list of target ranks by source rank: one too
        # short, one past the end of the target, one negative
        (
            core._RankMap(NESTED, NESTED_TARGET, [0, 0]),
            "the map is not a total map into the target",
        ),
        (
            core._RankMap(NESTED, NESTED_TARGET, [0, 0, 2]),
            "the map is not a total map into the target",
        ),
        (
            core._RankMap(NESTED, NESTED_TARGET, [0, -1, 0]),
            "the map is not a total map into the target",
        ),
    ],
)
def test_validate_raises_the_certificate_error(mapping, message):
    hom = Homomorphism(mapping)
    with pytest.raises(NotAHomomorphismError) as caught:
        hom.validate(NESTED, NESTED_TARGET)
    assert isinstance(caught.value, CertificateError)
    assert str(caught.value) == message


def test_validate_accepts_a_homomorphism_of_nested_elements():
    hom = Homomorphism({"a": "u", (): ("v",), ("a", ("b",)): "u"})
    hom.validate(NESTED, NESTED_TARGET)


def test_validate_agrees_with_the_oracle():
    rng = random.Random(3141)
    found = 0
    for _ in range(40):
        sig = helpers.random_signature(rng, max_relations=2, max_arity=3)
        source = helpers.random_structure(rng, sig, max_dom=2)
        if rng.random() < 0.5:
            source = product([source, helpers.random_structure(rng, sig, max_dom=2)])
        target = helpers.random_structure(rng, sig, max_dom=3, density=0.6)
        homs = helpers.exhaustive_homs(source, target)
        found += len(homs)
        for values in itertools.product(target.domain, repeat=len(source.domain)):
            mapping = dict(zip(source.domain, values))
            if mapping in homs:
                Homomorphism(mapping).validate(source, target)
            else:
                with pytest.raises(NotAHomomorphismError):
                    Homomorphism(mapping).validate(source, target)
    assert found > 0


def test_disjoint_union_counts():
    u = disjoint_union([ONE_EDGE, ONE_EDGE])
    assert len(u.domain) == 4
    assert len(u.relation("E")) == 2


def test_disjoint_union_preserves_hom_existence():
    isolated = digraph(("z",), ())
    u = disjoint_union([ONE_EDGE, isolated])
    before = helpers.exhaustive_hom_exists(ONE_EDGE, LOOP)
    after = helpers.exhaustive_hom_exists(u, LOOP)
    assert before and after


def test_binarize_unary_definition():
    sig = Signature((("P", 1), ("E", 2)))
    s = Structure(sig, ("a", "b"), {"P": (("a",),), "E": ()})
    b = binarize_unary(s)
    assert dict(b.signature.relations)["P"] == 2
    assert b.relation("P") == (("a", "a"),)
    # no unary relations: unchanged
    assert binarize_unary(ONE_EDGE) == ONE_EDGE


def test_binarize_preserves_php_verdicts():
    rng = random.Random(23)
    sig = Signature((("P", 1), ("E", 2)))
    for _ in range(30):
        inst = helpers.random_php_instance(rng, sig, max_dom=3)
        binst = PhpInstance(
            tuple(binarize_unary(f) for f in inst.factors),
            binarize_unary(inst.target),
        )
        assert decide_php(inst).yes == decide_php(binst).yes


def test_empty_domain_product_and_hom():
    empty = digraph((), ())
    p = product([empty, ONE_EDGE])
    assert p.domain == ()
    Homomorphism({}).validate(p, ONE_EDGE)


def test_serialize_parse_round_trips():
    s = Structure(
        Signature((("E", 2), ("P", 1))),
        ("b", "a"),
        {"E": (("a", "b"),), "P": (("b",),)},
    )
    text = serialize(s)
    again = parse(text)
    assert again == s
    assert serialize(again) == text  # byte-level fixpoint on canonical text


def test_parse_rejects_bad_files():
    with pytest.raises(InvalidStructureError):
        parse("not json")
    with pytest.raises(InvalidStructureError):
        parse('{"domain": ["a"]}')
    # the reader leaves domain and arity checks to Structure and Signature
    with pytest.raises(InvalidStructureError, match="^duplicate domain element 'a'$"):
        parse('{"domain": ["b", "a", "a"], "relations": {}}')
    with pytest.raises(InvalidStructureError, match="^arity of 'E' must be >= 1, got 0$"):
        parse('{"domain": ["a"], "relations": {"E": {"arity": 0, "tuples": []}}}')
    with pytest.raises(InvalidStructureError):
        parse(
            '{"domain": ["a"], "relations":'
            ' {"E": {"arity": 2, "tuples": [["a","a"],["a","a"]]}}}'
        )


def _query():
    return ConjunctiveQuery(("x",), ("y",), (("E", ("x", "y")),))


def _tiles():
    return TileSystem(("w", "k"), {("w", "k")}, {("k", "w")})


# each record class, a builder of a fresh instance, its fields in order, and
# whether it is hashable (a dict field, such as rows or mapping, makes it not)
RECORDS = [
    (Signature, lambda: Signature((("E", 2),)), "relations", True),
    (Structure, lambda: digraph(("a",), ()), "signature domain rows", False),
    (PointedStructure, lambda: PointedStructure(LOOP, ("v",)), "structure distinguished", False),
    (PhpInstance, lambda: PhpInstance((LOOP,), LOOP), "factors target", False),
    (Homomorphism, lambda: Homomorphism({"a": "v"}), "mapping", False),
    (PhpVerdict, lambda: PhpVerdict(False, None), "yes witness", True),
    (ConjunctiveQuery, _query, "free_vars bound_vars atoms", True),
    (Definable, lambda: Definable(_query()), "query", True),
    (
        NotDefinable,
        lambda: NotDefinable(None, None, isolated_position=0),
        "witness_tuple witness_hom isolated_position",
        True,
    ),
    (
        CqDefReduction,
        lambda: CqDefReduction(LOOP, (("v",),), ("v",), "b", 1),
        "structure s_tuples apexes target_apex path_length",
        False,
    ),
    (TileSystem, _tiles, "tiles hcompat vcompat", True),
    (TilingInstance, lambda: TilingInstance(_tiles(), ("w",)), "system prefix", True),
]


@pytest.mark.parametrize(
    "cls, build, fields, hashable", RECORDS, ids=[r[0].__name__ for r in RECORDS]
)
def test_records_are_frozen_values(cls, build, fields, hashable):
    first, second = build(), build()
    assert type(first) is cls and first is not second
    fields = fields.split()
    with pytest.raises(AttributeError):
        setattr(first, fields[0], None)
    with pytest.raises(AttributeError):
        first.extra = None
    with pytest.raises(AttributeError):
        delattr(first, fields[0])
    assert first == second and not first != second
    # only a record of the same class compares equal, not a tuple of its fields
    values = tuple(getattr(first, name) for name in fields)
    assert first != values
    if hashable:
        assert hash(first) == hash(second)
    else:
        with pytest.raises(TypeError):
            hash(first)
    fields_repr = ", ".join(f"{name}={value!r}" for name, value in zip(fields, values))
    assert repr(first) == f"{cls.__name__}({fields_repr})"


def test_record_arguments_and_defaults():
    assert NotDefinable(("a",), Homomorphism({})).isolated_position is None
    assert NotDefinable(None, None, 0) == NotDefinable(None, None, isolated_position=0)
    with pytest.raises(TypeError):
        Definable()
    with pytest.raises(TypeError):
        Definable(_query(), _query())
    with pytest.raises(TypeError):
        Definable(_query(), query=_query())


def test_structure_rank_is_outside_eq_and_repr():
    first = digraph(("a", "b"), (("a", "b"),))
    second = digraph(("a", "b"), (("a", "b"),))
    vars(second)["rank"] = {}
    assert first == second and first.rank != second.rank
    assert "rank" not in repr(first)
