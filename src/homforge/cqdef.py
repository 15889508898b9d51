"""CQ-definability via the pointed-product test, plus the reduction from PHP.

A relation S over an instance I is definable by a conjunctive query exactly
when the product of the pointed copies (I, s) for s in S cannot map its
distinguished tuple outside S.  When it can, that homomorphism is a
certificate of non-definability (conjunctive queries are preserved by
homomorphisms); when it cannot, the canonical query of the pointed product
is a defining query, unless a distinguished element occurs in no tuple.
The product's projections map its distinguished tuple onto every tuple of
S, so tuples of S never refute definability and the search never looks
below them: only images outside S are searched for.
Queries here are safe: every free variable occurs in an atom.  A safe q
with S within q(I) maps into the pointed product, its j-th free variable
going to the j-th distinguished element, which then lies in a tuple; so an
isolated distinguished element makes S not definable.
"""

from .core import Homomorphism, PointedStructure, Record, Structure, product
from .cq import ConjunctiveQuery, canonical_query
from .errors import (
    CertificateError,
    InvalidStructureError,
    SignatureMismatchError,
)
from .homsolver import image_witnesses
from .normalform import max_path_length


class Definable(Record):
    query: ConjunctiveQuery


class NotDefinable(Record):
    """A homomorphism certificate, or the position of an isolated distinguished element.

    Either witness_tuple and witness_hom are set, or isolated_position is
    the least j whose distinguished element occurs in no tuple of the
    pointed product, and the other two are None.
    """

    witness_tuple: tuple | None
    witness_hom: Homomorphism | None
    isolated_position: int | None = None


def _pointed_product(instance, s_tuples):
    """S as a set, and the product of the pointed copies (instance, s) for s in S.

    S is checked in input order, so the first bad tuple reported is fixed,
    then deduplicated and sorted by the instance's domain ranks, which fixes
    the factor order and so the distinguished tuple.
    """
    rank = instance.rank
    s_tuples = [tuple(t) for t in s_tuples]
    if not s_tuples:
        raise InvalidStructureError("S must be nonempty")
    k = len(s_tuples[0])
    for t in s_tuples:
        if len(t) != k:
            raise InvalidStructureError("all tuples of S must have the same length")
        if not all(c in rank for c in t):
            raise InvalidStructureError(f"tuple {t!r} uses elements outside the domain")
    s_set = set(s_tuples)
    s_sorted = sorted(s_set, key=lambda t: tuple(rank[c] for c in t))
    pointed_product = product([instance] * len(s_sorted))
    return s_set, PointedStructure(pointed_product, tuple(zip(*s_sorted)))


def decide_cq_definability(instance, s_tuples):
    """Decide whether some conjunctive query q has q(instance) = s_tuples.

    Returns Definable with an unminimized defining query, or NotDefinable
    with the least image tuple outside S, in the order of the instance's
    domain ranks, and a validating homomorphism from the pointed product
    sending the distinguished tuple there.  The search skips the tuples of
    S, which the projections already witness, so it only looks for images
    that can refute definability.  When the image is S but a
    distinguished element occurs in no tuple, NotDefinable names its
    position instead.  Each NotDefinable is checked against the pointed
    product the search ran on before it is returned.  A pointed product
    whose elements and tuples together outnumber the size guard, or more
    candidate image tuples than the guard, raises GuardExceededError.
    """
    s_set, pointed = _pointed_product(instance, s_tuples)
    # image_witnesses lists the images outside S in lexicographic order of their ranks
    outside = image_witnesses(pointed, instance, known=s_set)
    if outside:
        answer = NotDefinable(*next(iter(outside.items())))
    else:
        # image always contains S, so image == S here
        p = pointed.structure
        used = {v for name in p.signature.names() for col in p.columns(name) for v in col}
        ranks = map(p.rank.__getitem__, pointed.distinguished)
        isolated = [j for j, r in enumerate(ranks) if r not in used]
        if not isolated:
            return Definable(canonical_query(pointed))
        answer = NotDefinable(None, None, isolated_position=isolated[0])
    _check_not_definable(instance, s_set, pointed, answer)
    return answer


def _check_not_definable(instance, s_set, pointed, answer):
    """Check a NotDefinable answer for S over instance, independently of the search.

    s_set and pointed are S and its pointed product, as _pointed_product
    returns them.  A witness_hom must map the pointed product into the
    instance and send its distinguished tuple to witness_tuple, which must
    lie outside S; an isolated_position must name a distinguished element
    that lies in no tuple.  A failed check raises CertificateError
    (NotAHomomorphismError for a map that is not a homomorphism).
    """
    distinguished = pointed.distinguished
    j = answer.isolated_position
    if j is not None:
        if not 0 <= j < len(distinguished):
            raise CertificateError(f"isolated position {j} is not a position of S")
        d = distinguished[j]
        p = pointed.structure
        r = p.rank[d]
        for name in p.signature.names():
            if any(r in col for col in p.columns(name)):
                raise CertificateError(
                    f"distinguished element {d!r} lies in a tuple of {name!r}"
                )
        return
    if answer.witness_tuple in s_set:
        raise CertificateError(f"witness tuple {answer.witness_tuple!r} lies in S")
    answer.witness_hom.validate(pointed.structure, instance)
    image = tuple(answer.witness_hom(d) for d in distinguished)
    if image != answer.witness_tuple:
        raise CertificateError(
            f"the distinguished tuple maps to {image!r}, not {answer.witness_tuple!r}"
        )


class CqDefReduction(Record):
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
    lengths = {max_path_length(s) for s in structures}
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
    apex_set = set(apexes)
    s_tuples = tuple((e,) for e in combined.domain if e in apex_set)
    return CqDefReduction(combined, s_tuples, apexes, target_apex, r)
