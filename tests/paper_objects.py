"""Objects of the paper that the tests check and no command builds.

Projections, tagged unions and binarized unary relations of core
structures; composition of maps; the path-fan query; the starred instance
before the merge; the apex audit of the PHP -> non-definability reduction;
the bits of a grid coordinate, the product element of a grid cell, the
grid a map of those elements assigns, the tiling check over a grid keyed
by (x, y), which tiling.check_tiling over rows replaced, and the successor
relations of the tiling grid; the full-prefix search, which lists every
homomorphism; and the witness lifts of the paper's proofs, which extend a
PHP witness to the starred instance (lift_hom_star) and to the digraph
instance (lift_hom_digraph, with the chain-node readers is_tuple_node and
node_index).
"""

import itertools

from homforge.core import Homomorphism, PhpInstance, Signature, Structure, product
from homforge.cq import ConjunctiveQuery
from homforge.errors import InvalidStructureError
from homforge.homsolver import _Csp
from homforge.normalform import (
    ZERO,
    _single_relation,
    base_node,
    gadget_digraph,
    is_base,
    out_path_lengths,
    pad_instance,
    sink_node,
    star_transform,
    tuple_node,
)


def projection(product_structure, i):
    """The i-th projection map out of a product structure."""
    return Homomorphism({e: e[i] for e in product_structure.domain})


def disjoint_union(parts):
    """Tagged union: element e of part i becomes (str(i), e)."""
    sig = parts[0].signature
    domain = []
    interp = {name: [] for name in sig.names()}
    for i, part in enumerate(parts):
        tag = str(i)
        domain.extend((tag, e) for e in part.domain)
        for name in sig.names():
            interp[name].extend(tuple((tag, c) for c in t) for t in part.relation(name))
    return Structure(sig, tuple(domain), interp)


def binarize_unary(s):
    """Replace every unary relation P by the binary {(a, a) : a in P}."""
    rels = []
    interp = {}
    for name, arity in s.signature.relations:
        if arity == 1:
            rels.append((name, 2))
            interp[name] = tuple((t[0], t[0]) for t in s.relation(name))
        else:
            rels.append((name, arity))
            interp[name] = s.relation(name)
    return Structure(Signature(tuple(rels)), s.domain, interp)


def compose(g, h):
    """g after h: compose(g, h)(x) = g(h(x))."""
    return Homomorphism({k: g.mapping[v] for k, v in h.mapping.items()})


def path_fan_query(r):
    """q(x_1..x_r) = exists y_1..y_r: E(x_i, y_i) for all i, E(y_i, y_{i+1}) for i < r."""
    if r < 1:
        raise InvalidStructureError("path fan needs r >= 1")
    xs = tuple(f"x{i}" for i in range(1, r + 1))
    ys = tuple(f"y{i}" for i in range(1, r + 1))
    atoms = [("E", (x, y)) for x, y in zip(xs, ys)]
    atoms += [("E", (ys[i], ys[i + 1])) for i in range(r - 1)]
    return ConjunctiveQuery(xs, ys, tuple(atoms))


def star_instance(inst):
    """The intermediate two-relation instance (star applied, not yet merged)."""
    return PhpInstance(
        tuple(star_transform(f) for f in inst.factors), star_transform(inst.target)
    )


def audit_apex_paths(reduction):
    """True iff exactly the apexes have outgoing path length r + 1."""
    lengths = out_path_lengths(reduction.structure)
    expected = set(reduction.apexes) | {reduction.target_apex}
    long_ones = {e for e, d in lengths.items() if d == reduction.path_length + 1}
    over = {e for e, d in lengths.items() if d > reduction.path_length + 1}
    return long_ones == expected and not over


def bits(k, m):
    """Most-significant-first binary encoding of k as m bits."""
    if not 0 <= k < 2**m:
        raise InvalidStructureError(f"{k} is not in [0, 2^{m})")
    return tuple((k >> (m - 1 - i)) & 1 for i in range(m))


def coordinate_element(x, y, m):
    """The product element (bit tuple) encoding grid position (x, y): the bits of x, then of y."""
    for k in (x, y):
        if not 0 <= k < 2**m:
            raise InvalidStructureError(f"{k} is not in [0, 2^{m})")
    return tuple(format(x, f"0{m}b") + format(y, f"0{m}b"))


def decode_by_coordinates(hom, inst):
    """The grid a map of the encoded product's elements assigns, rows[y][x], read cell by cell."""
    m = inst.m
    return [[hom.mapping[coordinate_element(x, y, m)] for x in range(2**m)] for y in range(2**m)]


def check_tiling_by_coordinates(assignment, inst):
    """True iff the assignment {(x, y): tile} is total, compatible, and matches the prefix."""
    n = 2**inst.m
    sys = inst.system
    for x in range(n):
        for y in range(n):
            if (x, y) not in assignment:
                return False
    for k, tile in enumerate(inst.prefix):
        if assignment[(k, 0)] != tile:
            return False
    for x in range(n):
        for y in range(n):
            if x + 1 < n and (assignment[(x, y)], assignment[(x + 1, y)]) not in sys.hcompat:
                return False
            if y + 1 < n and (assignment[(x, y)], assignment[(x, y + 1)]) not in sys.vcompat:
                return False
    return True


def successor_relations(m):
    """The horizontal and vertical successor relations on 2m-bit coordinate pairs."""
    n = 2**m
    h = set()
    v = set()
    for x, y in itertools.product(range(n), repeat=2):
        if x + 1 < n:
            h.add((coordinate_element(x, y, m), coordinate_element(x + 1, y, m)))
        if y + 1 < n:
            v.add((coordinate_element(x, y, m), coordinate_element(x, y + 1, m)))
    return h, v


def enumerate_homomorphisms(source, target):
    """Every homomorphism, one at a time, in lexicographic order of the mappings.

    The search takes every source element as its prefix, in rank order.
    """
    csp = _Csp(source, target)
    for value in csp.search(range(len(source.domain))):
        yield csp.homomorphism(value)


def lift_hom_star(hom, inst):
    """Extend a PHP witness to the starred instance.

    Zero-free product elements keep their image; every element with a zero
    component is sent to the fresh zero.  The same mapping also validates for
    the merged (single-relation) instance, whose domains are unchanged.
    """
    elements = product([star_transform(f) for f in inst.factors]).domain
    hom.validate(product(inst.factors), inst.target)
    mapping = {}
    for e in elements:
        mapping[e] = ZERO if ZERO in e else hom.mapping[e]
    return Homomorphism(mapping)


def is_tuple_node(v):
    return isinstance(v, tuple) and len(v) == 3 and v[0] == "tup"


def node_index(v):
    return int(v[2]) if is_tuple_node(v) else int(v[1])


def lift_hom_digraph(hom, inst):
    """Build a transformed-instance witness from an original-instance witness.

    Padding is applied internally; the given map must validate for the padded
    instance (its domains equal the original ones).  Product nodes are
    classified into four types: all-base nodes follow the original map,
    aligned all-chain nodes follow the image tuple's chain, misaligned
    all-chain nodes go to the sink with the least index, and every remaining
    node borrows the image of a base node chosen so that all its edges into
    aligned chain nodes are preserved.
    """
    padded = pad_instance(inst)
    gadgets = [gadget_digraph(f, with_sinks=False) for f in padded.factors]
    elements = product(gadgets).domain
    hom.validate(product(padded.factors), padded.target)
    name, r = _single_relation(padded.target)

    least_base = tuple(f.domain[0] for f in padded.factors) if all(
        f.domain for f in padded.factors
    ) else None

    def image_tuple(tuples):
        # componentwise image of the product tuple assembled from factor tuples
        return tuple(hom.mapping[tuple(t[p] for t in tuples)] for p in range(r))

    mapping = {}
    for v in elements:
        if all(is_base(c) for c in v):
            mapping[v] = base_node(hom.mapping[tuple(c[1] for c in v)])
        elif all(is_tuple_node(c) for c in v):
            indices = {node_index(c) for c in v}
            if len(indices) == 1:
                j = indices.pop()
                mapping[v] = tuple_node(image_tuple([c[1] for c in v]), j)
            else:
                mapping[v] = sink_node(min(indices))
        else:
            # type 4: mixed base/chain components
            indices = {node_index(c) for c in v if is_tuple_node(c)}
            if len(indices) > 1 or r in indices:
                u = least_base
            else:
                j = indices.pop()
                u = tuple(
                    c[1] if is_base(c) else c[1][j] for c in v
                )  # t[j+1], 1-based
            mapping[v] = base_node(hom.mapping[u])
    return Homomorphism(mapping)
