"""Seeded input generators for the three workloads.

Everything here is plain Python over plain data (lists, tuples, dicts); it
imports nothing from homforge, so the program under test only ever sees the
JSON files the bench writes from these values.

A tile system is ``{"tiles": [...], "hcompat": [[l, r], ...], "vcompat":
[[below, above], ...]}``, the CLI's own file format.  A structure is
``(domain, {relation: (arity, tuples)})``; ``structure_json`` turns it into
the CLI's structure file format.
"""

import itertools
import random

CHECKER = {
    "tiles": ["k", "w"],
    "hcompat": [["k", "w"], ["w", "k"]],
    "vcompat": [["k", "w"], ["w", "k"]],
}


def checker_prefix(m):
    """The prefix w, k, w, ... of length m; every checkerboard instance is YES."""
    return ["w" if i % 2 == 0 else "k" for i in range(m)]


def random_tile_system(rng):
    """A tile system with 2..4 tiles, each ordered pair compatible with probability 0.5."""
    names = [f"t{i}" for i in range(rng.randint(2, 4))]
    pairs = [list(p) for p in itertools.product(names, repeat=2)]
    return {
        "tiles": names,
        "hcompat": [p for p in pairs if rng.random() < 0.5],
        "vcompat": [p for p in pairs if rng.random() < 0.5],
    }


def random_prefix(rng, system, m):
    return [rng.choice(system["tiles"]) for _ in range(m)]


# --- criterion-8 corpus ------------------------------------------------------
#
# The PHP -> CQ-definability corpus of the acceptance suite: seven fixed
# digraph instances, then seeded single-relation instances.  The random draws
# repeat the acceptance suite's generator call for call, so seed 1008 gives
# exactly that suite's 30 instances.


def _digraph(domain, edges):
    return (tuple(domain), {"E": (2, tuple(edges))})


EDGE = _digraph("ab", [("a", "b")])
TWOCYCLE = _digraph("uv", [("u", "v"), ("v", "u")])
LOOP = _digraph("v", [("v", "v")])
THREECYCLE = _digraph("abc", [("a", "b"), ("b", "c"), ("c", "a")])

FIXED_CHAIN = [
    ((EDGE,), TWOCYCLE),
    ((TWOCYCLE,), EDGE),
    ((EDGE,), LOOP),
    ((THREECYCLE,), EDGE),
    ((THREECYCLE,), TWOCYCLE),
    ((LOOP, LOOP), LOOP),
    ((EDGE, EDGE), LOOP),
]


def _random_structure(rng, arity, max_dom, density=0.4):
    n = rng.randint(1, max_dom)
    dom = tuple(f"e{i}" for i in range(n))
    candidates = list(itertools.product(dom, repeat=arity))
    chosen = [t for t in candidates if rng.random() < density]
    if not chosen:
        chosen = [rng.choice(candidates)]
    return (dom, {"R": (arity, tuple(chosen))})


def _random_single_relation_instance(rng, max_factors):
    arity = rng.randint(1, 2)
    n = rng.randint(1, max_factors)
    factors = tuple(_random_structure(rng, arity, 2) for _ in range(n))
    return factors, _random_structure(rng, arity, 2)


def chain_corpus(seed, count):
    """The fixed instances, then seeded ones where every fourth may have two factors."""
    rng = random.Random(seed)
    corpus = list(FIXED_CHAIN[:count])
    while len(corpus) < count:
        corpus.append(
            _random_single_relation_instance(rng, 1 if len(corpus) % 4 else 2)
        )
    return corpus


def rename(structure, tag):
    """The same structure with every element name e replaced by e_tag."""
    domain, relations = structure
    new = {e: f"{e}_{tag}" for e in domain}
    return (
        tuple(new[e] for e in domain),
        {
            name: (arity, tuple(tuple(new[c] for c in t) for t in tuples))
            for name, (arity, tuples) in relations.items()
        },
    )


def structure_json(structure):
    domain, relations = structure
    return {
        "domain": list(domain),
        "relations": {
            name: {"arity": arity, "tuples": [list(t) for t in tuples]}
            for name, (arity, tuples) in relations.items()
        },
    }
