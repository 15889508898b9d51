"""Shared test utilities: random structure corpora, the exhaustive oracle and a peak-memory runner.

The oracle enumerates every |target|^|source| map directly from the
definition and never touches the backtracking solver, so solver tests check
against an independent implementation.
"""

import itertools
import random
import subprocess
import sys

from homforge.core import PhpInstance, Signature, Structure


def reference_element_key(e):
    """The canonical element order by its definition: strings before tuples, recursively.

    homforge.core sorts only the domain by element and orders relation
    tuples by domain ranks; this key is kept apart so tests can check both
    orders against the definition.
    """
    if isinstance(e, str):
        return (0, e)
    return (1, tuple(reference_element_key(c) for c in e))


def reference_tuple_key(t):
    return tuple(reference_element_key(c) for c in t)


def exhaustive_homs(source, target):
    """All homomorphisms by checking every possible total map."""
    rel_sets = {name: set(target.relation(name)) for name in target.signature.names()}
    out = []
    for values in itertools.product(target.domain, repeat=len(source.domain)):
        mapping = dict(zip(source.domain, values))
        ok = True
        for name in source.signature.names():
            for t in source.relation(name):
                if tuple(mapping[c] for c in t) not in rel_sets[name]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(mapping)
    return out


def reference_gac(source, target, domains=None):
    """The generalized arc-consistent domains of source into target, by the definition.

    domains maps every source element to its candidate target elements (all
    of them when None).  A target tuple supports a source tuple of the same
    relation when each position's value lies in that position's domain and
    positions holding one element hold one value.  Until nothing changes,
    every element keeps only the values that every source tuple holding it
    gets from a support, at the element's positions.  Returns the fixpoint
    as element -> set of values, or None once a domain is empty.
    """
    dom = {
        x: set(target.domain) if domains is None else set(domains[x])
        for x in source.domain
    }
    changed = True
    while changed:
        changed = False
        for name in source.signature.names():
            rows = target.relation(name)
            for scope in source.relation(name):
                supports = [
                    t
                    for t in rows
                    if all(t[p] in dom[x] for p, x in enumerate(scope))
                    and all(
                        t[p] == t[q]
                        for p, x in enumerate(scope)
                        for q, y in enumerate(scope)
                        if x == y
                    )
                ]
                for p, x in enumerate(scope):
                    kept = dom[x] & {t[p] for t in supports}
                    if kept != dom[x]:
                        dom[x] = kept
                        changed = True
                        if not kept:
                            return None
    return dom


def exhaustive_hom_exists(source, target):
    for _ in exhaustive_homs(source, target):
        return True
    return False


def random_structure(rng, sig, max_dom=3, min_dom=1, density=0.4, nonempty_relations=False):
    """A random structure over sig with a domain of size min_dom..max_dom."""
    n = rng.randint(min_dom, max_dom)
    dom = tuple(f"e{i}" for i in range(n))
    interp = {}
    for name, arity in sig.relations:
        candidates = list(itertools.product(dom, repeat=arity))
        chosen = [t for t in candidates if rng.random() < density]
        if nonempty_relations and not chosen and candidates:
            chosen = [rng.choice(candidates)]
        interp[name] = tuple(chosen)
    return Structure(sig, dom, interp)


def random_signature(rng, max_relations=2, max_arity=2):
    k = rng.randint(1, max_relations)
    return Signature(
        tuple((f"R{i}", rng.randint(1, max_arity)) for i in range(k))
    )


def random_php_instance(rng, sig, n_factors=None, max_dom=3, **kwargs):
    if n_factors is None:
        n_factors = rng.randint(1, 2)
    factors = tuple(
        random_structure(rng, sig, max_dom=max_dom, **kwargs) for _ in range(n_factors)
    )
    target = random_structure(rng, sig, max_dom=max_dom, **kwargs)
    return PhpInstance(factors, target)


def random_single_relation_instance(rng, max_arity=2, max_dom=3, max_factors=2):
    """Single-relation instance with nonempty relations (digraph pipeline corpus)."""
    sig = Signature((("R", rng.randint(1, max_arity)),))
    n = rng.randint(1, max_factors)
    dom = max_dom if n == 1 else 2
    return random_php_instance(
        rng, sig, n_factors=n, max_dom=dom, nonempty_relations=True
    )


# runs one command with its stdout written to a file, and prints its exit
# code and the peak RSS (KB on Linux) of its process alone
_PEAK = """
import resource, subprocess, sys
with open(sys.argv[1], "wb") as out:
    code = subprocess.run(sys.argv[2:], stdout=out).returncode
print(code, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


def peak_cli(out, *args):
    """Run `python -m homforge.cli *args` in a fresh process, its stdout written to out.

    Returns its exit code and the peak RSS of that process alone in MB, as
    ru_maxrss gives it on Linux.
    """
    cmd = [sys.executable, "-c", _PEAK, str(out), sys.executable, "-m", "homforge.cli", *args]
    result = subprocess.run(cmd, capture_output=True, text=True, check=True)
    code, peak_kb = map(int, result.stdout.split())
    return code, peak_kb / 1024
