"""CQ-definability via the pointed-product test, plus the reduction from PHP.

A relation S over an instance I is definable by a conjunctive query exactly
when the product of the pointed copies (I, s) for s in S cannot map its
distinguished tuple outside S.  When it can, that homomorphism is a
certificate of non-definability (conjunctive queries are preserved by
homomorphisms); when it cannot, the canonical query of the pointed product
is a defining query.
"""

from dataclasses import dataclass

from .core import (
    DEFAULT_PRODUCT_GUARD,
    Homomorphism,
    PointedStructure,
    Structure,
    element_key,
    product,
    tuple_key,
)
from .cq import ConjunctiveQuery, canonical_query
from .errors import InvalidStructureError, SignatureMismatchError
from .homsolver import image_witnesses
from .normalform import out_path_lengths


@dataclass(frozen=True)
class Definable:
    query: ConjunctiveQuery


@dataclass(frozen=True)
class NotDefinable:
    witness_tuple: tuple
    witness_hom: Homomorphism


def decide_cq_definability(instance, s_tuples, guard=DEFAULT_PRODUCT_GUARD):
    """Decide whether some conjunctive query q has q(instance) = s_tuples.

    Returns Definable with an unminimized defining query, or NotDefinable
    with the lexicographically least image tuple outside S and a validating
    homomorphism from the pointed product sending the distinguished tuple
    there.  A pointed product with more than guard elements or tuples per
    relation raises GuardExceededError.
    """
    s_tuples = sorted({tuple(t) for t in s_tuples}, key=tuple_key)
    if not s_tuples:
        raise InvalidStructureError("S must be nonempty")
    k = len(s_tuples[0])
    domset = set(instance.domain)
    for t in s_tuples:
        if len(t) != k:
            raise InvalidStructureError("all tuples of S must have the same length")
        if not set(t) <= domset:
            raise InvalidStructureError(f"tuple {t!r} uses elements outside the domain")

    pointed_product = product([instance] * len(s_tuples), guard=guard)
    distinguished = tuple(
        tuple(s[j] for s in s_tuples) for j in range(k)
    )
    pointed = PointedStructure(pointed_product, distinguished)
    witnesses = image_witnesses(pointed, instance)
    s_set = set(s_tuples)
    outside = sorted((t for t in witnesses if t not in s_set), key=tuple_key)
    if outside:
        least = outside[0]
        return NotDefinable(least, witnesses[least])
    # image always contains S (projection homomorphisms), so image == S here
    return Definable(canonical_query(pointed))


@dataclass(frozen=True)
class CqDefReduction:
    """Output of the PHP -> non-definability reduction."""

    structure: Structure
    s_tuples: tuple  # unary tuples naming the factor apexes
    apexes: tuple  # apex element per factor, in factor order
    target_apex: object
    path_length: int  # common max path length r of the input structures


def reduce_php_to_nondefinability(inst):
    """Disjoint union of factors and target, each topped with a fresh apex.

    Requires a single binary relation and a common maximum directed path
    length r across all structures (true for digraph_transform outputs); the
    apexes are then exactly the elements with outgoing path length r + 1.
    The PHP instance is a YES instance iff S = {factor apexes} is NOT
    CQ-definable in the combined structure.
    """
    structures = list(inst.factors) + [inst.target]
    sig = structures[0].signature
    if len(sig.relations) != 1 or sig.relations[0][1] != 2:
        raise SignatureMismatchError("reduction needs a single binary relation")
    name, _ = sig.relations[0]
    lengths = {max(out_path_lengths(s).values(), default=0) for s in structures}
    if len(lengths) != 1:
        raise InvalidStructureError(
            f"structures disagree on maximum path length: {sorted(lengths)}"
        )
    r = lengths.pop()

    n = len(inst.factors)
    apexes = tuple(("apex", str(i)) for i in range(n))
    target_apex = ("apex", "b")
    domain = list(apexes) + [target_apex]
    edges = []
    for i, s in enumerate(structures):
        tag = str(i)
        apex = apexes[i] if i < n else target_apex
        domain.extend((tag, e) for e in s.domain)
        edges.extend(((tag, a), (tag, b)) for a, b in s.relation(name))
        edges.extend((apex, (tag, e)) for e in s.domain)
    combined = Structure(sig, tuple(domain), {name: tuple(edges)})
    s_tuples = tuple((a,) for a in sorted(apexes, key=element_key))
    return CqDefReduction(combined, s_tuples, apexes, target_apex, r)


def audit_apex_paths(reduction):
    """True iff exactly the apexes have outgoing path length r + 1."""
    lengths = out_path_lengths(reduction.structure)
    expected = set(reduction.apexes) | {reduction.target_apex}
    long_ones = {e for e, d in lengths.items() if d == reduction.path_length + 1}
    over = {e for e, d in lengths.items() if d > reduction.path_length + 1}
    return long_ones == expected and not over
