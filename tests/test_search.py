"""The flat search against the reference copy of the loop it replaced.

The search keeps its frames and trail flat, orders its heap by one int per
entry and reads a solution off the domains when root propagation leaves
every variable a singleton or in no constraint.  None of that may change a
first solution, an image key or a witness: each is compared with
reference_search.ReferenceCsp.  A tuple image_witnesses already knows is
never pinned: a spy on _Csp.pin sees no assignment of the prefix to one.
"""

import heapq
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homforge.core import PhpInstance, PointedStructure, digraph, product
from homforge.cqdef import _pointed_product, reduce_php_to_nondefinability
from homforge.homsolver import _Csp, decide_php, find_homomorphism, image_witnesses
from homforge.normalform import digraph_transform
from homforge.tiling import TileSystem, TilingInstance, encode_tiling_php

import helpers
from reference_search import first_solution, image_solutions
from test_acceptance import _tiny_single_relation_corpus

CHECKER = TileSystem(("k", "w"), {("k", "w"), ("w", "k")}, {("k", "w"), ("w", "k")})


def _instance(rng):
    """A random source (a product of one to three factors, or a plain structure) and target."""
    sig = helpers.random_signature(rng, max_relations=3, max_arity=3)
    factors = [
        helpers.random_structure(rng, sig, max_dom=3, density=rng.random() / 2)
        for _ in range(rng.randint(1, 3))
    ]
    source = product(factors) if rng.random() < 0.7 else factors[0]
    target = helpers.random_structure(rng, sig, max_dom=4, density=rng.random())
    return source, target


def _prefixes(rng, n):
    """No prefix, every variable in a random order, and a short prefix with repeats."""
    every = list(range(n))
    rng.shuffle(every)
    short = [rng.randrange(n) for _ in range(rng.randint(1, 4))] if n else []
    return [(), every, short]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_first_solution_matches_the_reference_loop(data):
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    source, target = _instance(rng)
    for prefix in _prefixes(rng, len(source.domain)):
        hom = find_homomorphism(source, target, prefix)
        expected = first_solution(source, target, prefix)
        assert (hom is None) == (expected is None)
        if hom is not None:
            assert hom.mapping.images == expected


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_image_witnesses_match_the_reference_loop(data):
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    source, target = _instance(rng)
    n = len(source.domain)
    if not n:
        return
    dist = tuple(source.domain[rng.randrange(n)] for _ in range(rng.randint(0, 3)))
    pointed = PointedStructure(source, dist)
    expected = image_solutions(pointed, target)
    known = set(rng.sample(sorted(expected), rng.randint(0, len(expected))))
    known.add(tuple(rng.choice(target.domain) for _ in dist))
    for skip in ((), known):
        witnesses = image_witnesses(pointed, target, known=skip)
        reference = image_solutions(pointed, target, known=skip)
        assert list(witnesses) == list(reference)
        for key, hom in witnesses.items():
            assert hom.mapping.images == reference[key]


def _pin_spy(monkeypatch, pointed, skip):
    """Count pins that complete a prefix assignment, and collect those whose tuple is in skip.

    The last distinct distinguished variable is pinned only to complete an
    assignment of the prefix, after every earlier one has been pinned to a
    single value.
    """
    dist = [pointed.structure.rank[e] for e in pointed.distinguished]
    last = list(dict.fromkeys(dist))[-1] if dist else None
    completed, known = [0], []
    pin = _Csp.pin

    def spy(self, var, bit):
        if var == last:
            completed[0] += 1
            t = tuple((bit if v == var else self.dom[v]).bit_length() - 1 for v in dist)
            if t in skip:
                known.append(t)
        return pin(self, var, bit)

    monkeypatch.setattr(_Csp, "pin", spy)
    return completed, known


def _known_tuples_are_never_pinned(monkeypatch, pointed, target, known):
    """Run image_witnesses under the pin spy and compare it with the reference loop."""
    skip = {tuple([target.rank[c] for c in t]) for t in known}
    completed, pinned = _pin_spy(monkeypatch, pointed, skip)
    witnesses = image_witnesses(pointed, target, known=known)
    monkeypatch.undo()
    assert pinned == []
    reference = image_solutions(pointed, target, known=known)
    assert list(witnesses) == list(reference)
    for key, hom in witnesses.items():
        assert hom.mapping.images == reference[key]
    return completed[0]


def test_criterion_8_known_tuples_are_never_pinned(monkeypatch):
    # each pointed product of the criterion-8 chain, with S as its known
    # tuples: the projections already send the distinguished tuple onto S
    completed = 0
    for inst in _tiny_single_relation_corpus():
        red = reduce_php_to_nondefinability(digraph_transform(inst))
        s_set, pointed = _pointed_product(red.structure, red.s_tuples)
        completed += _known_tuples_are_never_pinned(monkeypatch, pointed, red.structure, s_set)
    assert completed > 0


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_known_tuples_are_never_pinned(data):
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    source, target = _instance(rng)
    n = len(source.domain)
    if not n:
        return
    dist = tuple(source.domain[rng.randrange(n)] for _ in range(rng.randint(1, 3)))
    pointed = PointedStructure(source, dist)
    images = sorted(image_solutions(pointed, target))
    known = set(rng.sample(images, rng.randint(0, len(images))))
    known.add(tuple(rng.choice(target.domain) for _ in dist))
    with pytest.MonkeyPatch.context() as monkeypatch:
        _known_tuples_are_never_pinned(monkeypatch, pointed, target, known)


def test_the_shortcut_and_the_descent_both_run():
    # the corpus above reaches both paths: a root that decides every source
    # variable, and one that leaves a search to do; a hidden variable's
    # domain, over its relation's rows, is never searched on
    rng = random.Random(5)
    decided = searched = 0
    for _ in range(200):
        source, target = _instance(rng)
        csp = _Csp(source, target)
        if csp.root():
            if max(map(int.bit_count, csp.dom[: len(source.domain)]), default=1) == 1:
                decided += 1
            else:
                searched += 1
    assert decided >= 10 and searched >= 10


def test_a_root_that_decides_every_variable_builds_no_heap(monkeypatch):
    # checkerboard m=3: root arc consistency fixes all 64 cells, so check-hom's
    # search and solve-tiling's search (y's factors first, every cell in its
    # prefix) both read the solution off the domains; so does a search whose
    # undecided variables are in no constraint, each taking its least value
    inst = encode_tiling_php(TilingInstance(CHECKER, ("w", "k", "w")))
    rows_first = PhpInstance(inst.factors[3:] + inst.factors[:3], inst.target)
    cases = [(inst, ()), (rows_first, range(64))]
    expected = [first_solution(product(php.factors), php.target) for php, _ in cases]

    def no_heap(heap):
        raise AssertionError("a heap was built")

    monkeypatch.setattr(heapq, "heapify", no_heap)
    for (php, prefix), images in zip(cases, expected):
        verdict = decide_php(php, prefix)
        assert verdict.yes and verdict.witness.mapping.images == images
    # c is in no edge: a and b are decided at the root, c takes x
    hom = find_homomorphism(digraph("abc", ["ab"]), digraph("xy", ["xy"]))
    assert hom.mapping.images == [0, 1, 0]
    # a search that must descend does build one
    with pytest.raises(AssertionError, match="a heap was built"):
        find_homomorphism(digraph("ab", ["ab"]), digraph("xy", ["xy", "yx"]))
