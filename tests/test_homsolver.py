import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homforge.core import (
    Homomorphism,
    PhpInstance,
    PointedStructure,
    Signature,
    Structure,
    digraph,
    product,
)
from homforge import homsolver
from homforge.errors import NotAHomomorphismError, SignatureMismatchError, UsageError
from homforge.homsolver import (
    _Csp,
    decide_php,
    find_homomorphism,
    image_set,
    image_witnesses,
)
from homforge.tiling import TileSystem, TilingInstance, encode_tiling_php

import helpers
from paper_objects import compose, enumerate_homomorphisms


ONE_EDGE = digraph(("a", "b"), (("a", "b"),))
LOOP = digraph(("v",), (("v", "v"),))
PATH3 = digraph(("a", "b", "c"), (("a", "b"), ("b", "c")))


def test_identity_homomorphism_found():
    h = find_homomorphism(PATH3, PATH3)
    assert h is not None
    h.validate(PATH3, PATH3)


def test_path_into_self_loop():
    h = find_homomorphism(PATH3, LOOP)
    assert h.mapping == {"a": "v", "b": "v", "c": "v"}


def test_three_cycle_into_one_edge_has_none():
    cycle = digraph(("a", "b", "c"), (("a", "b"), ("b", "c"), ("c", "a")))
    assert find_homomorphism(cycle, ONE_EDGE) is None


def test_signature_mismatch_raises():
    other = Structure(Signature((("F", 2),)), ("a",), {})
    with pytest.raises(SignatureMismatchError):
        find_homomorphism(ONE_EDGE, other)


def test_enumerate_one_edge_into_one_edge():
    homs = list(enumerate_homomorphisms(ONE_EDGE, ONE_EDGE))
    assert len(homs) == 1
    assert homs[0].mapping == {"a": "a", "b": "b"}


def test_enumerate_one_edge_into_two_edges():
    two = digraph(("a", "b", "c", "d"), (("a", "b"), ("c", "d")))
    homs = list(enumerate_homomorphisms(ONE_EDGE, two))
    assert len(homs) == 2
    keys = [tuple(h.mapping[v] for v in ONE_EDGE.domain) for h in homs]
    assert keys == sorted(keys)


def test_enumerate_empty_source_gives_empty_map():
    empty = digraph((), ())
    homs = list(enumerate_homomorphisms(empty, ONE_EDGE))
    assert len(homs) == 1
    assert homs[0].mapping == {}


def test_enumeration_cap():
    # the maps come one at a time, so a caller caps the enumeration by
    # stopping: the first two of the 2^40 maps of 40 isolated points
    points = digraph(tuple(f"p{i:02d}" for i in range(40)), ())
    first, second = itertools.islice(enumerate_homomorphisms(points, ONE_EDGE), 2)
    assert first.mapping == dict.fromkeys(points.domain, "a")
    assert second.mapping == {**first.mapping, "p39": "b"}


def test_image_set_of_pointed_path_into_itself():
    # the only endomorphism of the path is the identity
    assert image_set(PointedStructure(PATH3, ("b",)), PATH3) == {("b",)}


def test_image_set_unconstrained_element():
    src = digraph(("x",), ())
    tgt = digraph(("p", "q"), (("p", "q"),))
    assert image_set(PointedStructure(src, ("x",)), tgt) == {("p",), ("q",)}


def test_image_set_no_constraints_is_whole_domain():
    src = digraph(("x", "y"), ())
    assert image_set(PointedStructure(src, ("x",)), PATH3) == {
        ("a",),
        ("b",),
        ("c",),
    }


def _check_image_witnesses(src, tgt, dist, known=()):
    """image_witnesses against the exhaustive oracle: keys, key order and witnesses.

    With known, the keys are the images outside known, and each keeps the
    witness the search without known finds for it.
    """
    witnesses = image_witnesses(PointedStructure(src, dist), tgt, known=known)
    images = {tuple(m[d] for d in dist) for m in helpers.exhaustive_homs(src, tgt)}
    assert list(witnesses) == sorted(
        images - set(known), key=lambda t: tuple(tgt.domain.index(c) for c in t)
    )
    full = image_witnesses(PointedStructure(src, dist), tgt) if known else witnesses
    for key, hom in witnesses.items():
        hom.validate(src, tgt)
        assert tuple(hom(d) for d in dist) == key
        assert hom.mapping == full[key].mapping
    return witnesses


def test_image_witnesses_match_the_oracle():
    rng = random.Random(23)
    for _ in range(60):
        sig = helpers.random_signature(rng)
        src = helpers.random_structure(rng, sig, max_dom=4)
        tgt = helpers.random_structure(rng, sig, max_dom=3)
        x, y = rng.choice(src.domain), rng.choice(src.domain)
        for dist in ((), (x,), (x, x), (y, x), (x, y, x)):
            images = list(_check_image_witnesses(src, tgt, dist))
            # known tuples: some images, and a tuple that may be no image
            known = set(rng.sample(images, rng.randint(0, len(images))))
            known.add(tuple(rng.choice(tgt.domain) for _ in dist))
            _check_image_witnesses(src, tgt, dist, known)


def test_image_witnesses_repeated_empty_and_wiped_out():
    # a repeated element is one variable: its image tuples repeat a value
    assert set(_check_image_witnesses(PATH3, LOOP, ("a", "a"))) == {("v", "v")}
    two = digraph(("p", "q"), (("p", "q"), ("q", "p")))
    src = digraph(("x", "y"), (("x", "y"),))
    assert list(_check_image_witnesses(src, two, ("x", "x", "y"))) == [
        ("p", "p", "q"),
        ("q", "q", "p"),
    ]
    # the empty tuple has the one image () when any homomorphism exists
    assert list(_check_image_witnesses(src, two, ())) == [()]
    # a loop into a loopless target wipes out at the root: no image at all
    looped = digraph(("x", "y"), (("x", "x"), ("x", "y")))
    for dist in ((), ("y",), ("x", "x")):
        assert _check_image_witnesses(looped, two, dist) == {}


def _shared_table_corpus(rng, count):
    """Random structures with unary, binary and ternary scopes into targets of 8 to 11 elements.

    The source's tuples include the scopes (x), (x, y), (x, x), (x, y, x),
    (x, x, y), (x, y, y), (x, x, x) and (x, y, z), so each target table is
    shared by scopes of several repeat patterns over equal domains.
    """
    sig = Signature((("E", 2), ("T", 3), ("U", 1)))
    patterns = ((0,), (0, 1), (0, 0), (0, 1, 0), (0, 0, 1), (0, 1, 1), (0, 0, 0), (0, 1, 2))
    for _ in range(count):
        src_dom = tuple(f"x{i}" for i in range(rng.randint(3, 6)))
        interp = {"E": [], "T": [], "U": []}
        for _ in range(rng.randint(3, 8)):
            pattern = rng.choice(patterns)
            picked = rng.sample(src_dom, 3)
            interp["UET"[len(pattern) - 1]].append(tuple(picked[i] for i in pattern))
        source = Structure(sig, src_dom, interp)
        n = rng.randint(8, 11)
        tgt_dom = tuple(f"v{i}" for i in range(n))
        target = Structure(
            sig,
            tgt_dom,
            {
                "E": [t for t in itertools.product(tgt_dom, repeat=2) if rng.random() < 0.4],
                "T": [t for t in itertools.product(tgt_dom, repeat=3) if rng.random() < 0.15],
                "U": [(v,) for v in tgt_dom if rng.random() < 0.7],
            },
        )
        yield source, target


def _domains(csp, source, target):
    return {
        x: {v for i, v in enumerate(target.domain) if csp.dom[r] >> i & 1}
        for r, x in enumerate(source.domain)
    }


def _cache_sizes(csp):
    """The entries of each image cache, then of each table's memo."""
    tables = {id(c[0]): c[0] for c in csp.cons}.values()
    return [len(cache) for _, cache in csp.directions] + [len(t.memo) for t in tables]


def test_memoized_revisions_reach_the_reference_fixpoint():
    # the memo is shared by every constraint on a table, so a key that left
    # out the repeat pattern would hand (x, y, x) the revision of (x, x, y);
    # an image cache is shared by every arc of one direction of a relation
    rng = random.Random(8)
    consistent = images = memoized = 0
    for source, target in _shared_table_corpus(rng, 80):
        csp = _Csp(source, target)
        ok = csp.root()
        expected = helpers.reference_gac(source, target)
        assert ok == (expected is not None)
        images += sum(len(cache) for _, cache in csp.directions)
        memoized += sum(len(c[0].memo) for c in csp.cons)
        if not ok:
            continue
        consistent += 1
        assert _domains(csp, source, target) == expected
        # one assignment more, propagated over the caches the root filled
        x = rng.choice(source.domain)
        value = rng.choice(sorted(expected[x], key=target.rank.get))
        pinned = csp.pin(source.rank[x], 1 << target.rank[value])
        expected = helpers.reference_gac(source, target, {**expected, x: {value}})
        assert pinned == (expected is not None)
        if pinned:
            assert _domains(csp, source, target) == expected
    assert consistent >= 20 and images > 0 and memoized > 0


def test_memo_stays_within_its_bound(monkeypatch):
    # both kinds of cache: the image cache of each direction of a binary
    # relation and the memo of each table
    monkeypatch.setattr(homsolver, "MEMO_LIMIT", 8)
    rng = random.Random(12)
    corpus = list(_shared_table_corpus(rng, 10))
    # dense digraphs into 8 to 11 values meet many more domains per direction
    sig = Signature((("E", 2),))
    for _ in range(4):
        source = helpers.random_structure(rng, sig, max_dom=7, min_dom=5, density=0.3)
        target = helpers.random_structure(rng, sig, max_dom=11, min_dom=8, density=0.5)
        corpus.append((source, target))
    emptied = [0, 0]
    for source, target in corpus:
        prefix = list(range(min(3, len(source.domain))))
        csp = _Csp(source, target)
        n_images = len(csp.directions)
        solutions = []
        sizes = _cache_sizes(csp)
        for value in csp.search(prefix):
            solutions.append(list(value))
            now = _cache_sizes(csp)
            assert max(now) <= homsolver.MEMO_LIMIT
            for i, (before, after) in enumerate(zip(sizes, now)):
                emptied[i >= n_images] += after < before
            sizes = now
        # the bound changes no answer
        with monkeypatch.context() as m:
            m.setattr(homsolver, "MEMO_LIMIT", 1 << 16)
            assert [list(v) for v in _Csp(source, target).search(prefix)] == solutions
    assert emptied[0] > 0 and emptied[1] > 0


def _random_instance(rng, max_source=5):
    """A source and target over relations of arity 1 to 3, any of them possibly empty.

    Random tuples over a few elements repeat variables, loops included.
    """
    sig = helpers.random_signature(rng, max_relations=3, max_arity=3)
    source = helpers.random_structure(rng, sig, max_dom=max_source, density=rng.random() / 2)
    target = helpers.random_structure(rng, sig, max_dom=4, density=rng.random())
    return source, target


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_fixpoint_equals_the_reference(data):
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    source, target = _random_instance(rng)
    csp = _Csp(source, target)
    expected = helpers.reference_gac(source, target)
    assert csp.root() == (expected is not None)
    # every assignment in turn, from the root fixpoint, as the search makes it
    while expected is not None:
        assert _domains(csp, source, target) == expected
        open_ = [x for x in source.domain if len(expected[x]) > 1]
        if not open_:
            break
        x = rng.choice(open_)
        value = rng.choice(sorted(expected[x], key=target.rank.get))
        pinned = csp.pin(source.rank[x], 1 << target.rank[value])
        expected = helpers.reference_gac(source, target, {**expected, x: {value}})
        assert pinned == (expected is not None)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data())
def test_decide_php_and_image_witnesses_match_the_oracle(data):
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    source, target = _random_instance(rng, max_source=3)
    factors = (source, helpers.random_structure(rng, source.signature, max_dom=2))
    prod = product(factors)
    homs = helpers.exhaustive_homs(prod, target)
    verdict = decide_php(PhpInstance(factors, target))
    assert verdict.yes == bool(homs)
    if verdict.yes:
        # the first map in the search order of an empty prefix is some map
        assert verdict.witness.mapping in homs
        verdict.witness.validate(prod, target)
    dist = tuple(rng.choice(prod.domain) for _ in range(rng.randint(0, 2))) if prod.domain else ()
    _check_image_witnesses(prod, target, dist)


def test_decide_php_memory_stays_below_half_of_a_materialized_product():
    # tracemalloc peak of decide_php on checkerboard m=6 (4096 product
    # elements, 8070 tuples), Python 3.11: 4,552,483 bytes while the product
    # was materialized (element tuples, rank dict, sorted rows, a record per
    # binary constraint, a witness dict keyed by element tuples), 1,370,985
    # bytes with the lazy product, neighbour lists and the value-list witness
    checker = TileSystem(("k", "w"), {("k", "w"), ("w", "k")}, {("k", "w"), ("w", "k")})
    inst = encode_tiling_php(TilingInstance(checker, ("w", "k", "w", "k", "w", "k")))
    tracemalloc.start()
    try:
        verdict = decide_php(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.yes
    assert peak < 4_552_483 // 2


def test_root_propagation_leaves_no_trail():
    # on the checkerboard of side 4 root arc consistency fixes every cell:
    # its changes are never undone, and no search step changes a domain
    checker = TileSystem(("k", "w"), {("k", "w"), ("w", "k")}, {("k", "w"), ("w", "k")})
    inst = encode_tiling_php(TilingInstance(checker, ("w", "k")))
    csp = _Csp(product(inst.factors), inst.target)
    next(csp.search())
    assert csp.trail == []


def test_decide_php_identity():
    v = decide_php(PhpInstance((PATH3,), PATH3))
    assert v.yes
    v.witness.validate(product([PATH3]), PATH3)


def test_decide_php_two_edges_into_edgeless_vertex():
    v = decide_php(PhpInstance((ONE_EDGE, ONE_EDGE), digraph(("v",), ())))
    assert not v.yes


def test_decide_php_two_edges_into_loop():
    v = decide_php(PhpInstance((ONE_EDGE, ONE_EDGE), LOOP))
    assert v.yes


def test_oracle_equivalence_small_corpus():
    rng = random.Random(99)
    for _ in range(80):
        sig = helpers.random_signature(rng)
        src = helpers.random_structure(rng, sig, max_dom=4)
        tgt = helpers.random_structure(rng, sig, max_dom=4)
        expected = helpers.exhaustive_homs(src, tgt)
        found = enumerate_homomorphisms(src, tgt)
        assert [h.mapping for h in found] == sorted(
            expected, key=lambda m: tuple(m[v] for v in src.domain)
        )


def test_decide_php_matches_oracle():
    rng = random.Random(5)
    for _ in range(25):
        sig = helpers.random_signature(rng)
        inst = helpers.random_php_instance(rng, sig)
        expected = helpers.exhaustive_hom_exists(product(inst.factors), inst.target)
        assert decide_php(inst).yes == expected


def test_product_witness_validates():
    rng = random.Random(31)
    for _ in range(20):
        sig = helpers.random_signature(rng)
        inst = helpers.random_php_instance(rng, sig)
        v = decide_php(inst)
        if v.yes:
            v.witness.validate(product(inst.factors), inst.target)


def test_composition_of_valid_homs_validates():
    rng = random.Random(17)
    done = 0
    while done < 10:
        sig = helpers.random_signature(rng)
        a = helpers.random_structure(rng, sig)
        b = helpers.random_structure(rng, sig)
        c = helpers.random_structure(rng, sig)
        h = find_homomorphism(a, b)
        g = find_homomorphism(b, c)
        if h is None or g is None:
            continue
        compose(g, h).validate(a, c)
        done += 1


def test_determinism_for_fixed_config():
    rng = random.Random(13)
    for _ in range(10):
        sig = helpers.random_signature(rng)
        src = helpers.random_structure(rng, sig)
        tgt = helpers.random_structure(rng, sig)
        first = find_homomorphism(src, tgt)
        second = find_homomorphism(src, tgt)
        assert (first is None) == (second is None)
        if first is not None:
            assert first.mapping == second.mapping


def test_search_deeper_than_default_recursion_limit():
    # a 3000-element path into a 2-cycle: one search frame per element
    nodes = tuple(f"v{i:04d}" for i in range(3000))
    path = digraph(nodes, tuple(zip(nodes, nodes[1:])))
    two_cycle = digraph(("u", "w"), (("u", "w"), ("w", "u")))
    h = find_homomorphism(path, two_cycle)
    assert h is not None
    h.validate(path, two_cycle)
    assert h.mapping[nodes[0]] == "u"


def test_decide_php_checks_the_witness_of_its_search(monkeypatch):
    # the search runs on the product decide_php built, with its prefix, and a
    # map from it that is no homomorphism raises instead of answering YES
    calls = []

    def wrong(source, target, prefix):
        calls.append((source.domain, list(prefix)))
        return Homomorphism({("a",): "a", ("b",): "a"})

    monkeypatch.setattr(homsolver, "find_homomorphism", wrong)
    with pytest.raises(NotAHomomorphismError, match="missing in target"):
        decide_php(PhpInstance((ONE_EDGE,), ONE_EDGE), [1])
    # the prefix is passed on as it is, a list of product ranks
    assert calls == [((("a",), ("b",)), [1])]


def test_decide_php_rejects_a_guard_that_is_not_a_number(monkeypatch):
    edge = digraph(("a", "b"), (("a", "b"),))
    monkeypatch.setenv("HOMFORGE_GUARD", "abc")
    with pytest.raises(UsageError) as exc:
        decide_php(PhpInstance((edge,), edge))
    assert str(exc.value) == "HOMFORGE_GUARD must be a positive integer, got 'abc'"
