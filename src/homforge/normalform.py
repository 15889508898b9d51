"""Reductions to few relations and to digraphs.

Two instance-level pipelines live here: the star/merge transform collapsing
any signature into a single relation (adding one fresh zero element per
structure), and the digraph transform encoding a single-relation instance as
digraphs built from per-tuple chain gadgets, with sink chains on the target
side.  restrict_hom_digraph reads an original witness back off a
transformed one.  The maps of the other direction, which the paper's proofs
build from an original witness, are test references (tests/paper_objects.py):
no command runs them.
"""

from .core import (
    Homomorphism,
    PhpInstance,
    Signature,
    Structure,
    check_guard,
    product,
)
from .errors import (
    CyclicStructureError,
    InvalidStructureError,
    NotAHomomorphismError,
)

# Reserved fresh element added by the star transform; namespaced to avoid
# collisions with user identifiers.
ZERO = "__zero__"

STAR_DOMAIN_RELATION = "P"
STAR_MERGED_RELATION = "R"


def star_transform(s):
    """Two-relation form: unary P = old domain, one wide relation R.

    R has arity sum of the old arities and contains the all-zeroes tuple plus,
    for each old tuple, its zero-padded embedding at the corresponding block.
    Blocks follow the canonical relation order, by name, in every structure.
    More elements plus R's components (its tuples times its arity) than the
    size guard raise GuardExceededError before any tuple is built.
    """
    if not s.signature.relations:
        raise InvalidStructureError("star transform needs at least one relation")
    if ZERO in s.domain:
        raise InvalidStructureError(f"domain already contains the reserved {ZERO!r}")
    arities = [a for _, a in s.signature.relations]
    total = sum(arities)
    size, count = len(s.domain) + 1, s.tuple_count() + 1
    check_guard(
        size + count * total,
        f"star structure would have {size} elements and {count} tuples of arity {total}",
    )
    tuples = [(ZERO,) * total]
    offset = 0
    for (name, arity) in s.signature.relations:
        for t in s.relation(name):
            padded = (ZERO,) * offset + t + (ZERO,) * (total - offset - arity)
            tuples.append(padded)
        offset += arity
    sig = Signature(((STAR_DOMAIN_RELATION, 1), (STAR_MERGED_RELATION, total)))
    interp = {
        STAR_DOMAIN_RELATION: tuple((e,) for e in s.domain),
        STAR_MERGED_RELATION: tuple(tuples),
    }
    return Structure(sig, (*s.domain, ZERO), interp)


def merge_relations(s):
    """Collapse a two-relation structure into one relation: cartesian product P x R.

    The relation first in the canonical order, by name (P after star_transform),
    gives each merged tuple its first block.  More elements and tuples
    together than the size guard raise GuardExceededError before any tuple
    is built.
    """
    if len(s.signature.relations) != 2:
        raise InvalidStructureError("merge needs exactly two relations")
    (n1, a1), (n2, a2) = s.signature.relations
    size, count = len(s.domain), len(s.rows[n1]) * len(s.rows[n2])
    check_guard(size + count, f"merged structure would have {size} elements and {count} tuples")
    rel2 = s.relation(n2)
    tuples = tuple(p + r for p in s.relation(n1) for r in rel2)
    sig = Signature(((STAR_MERGED_RELATION, a1 + a2),))
    return Structure(sig, s.domain, {STAR_MERGED_RELATION: tuples})


def single_relation_transform(inst):
    """Apply star then merge uniformly to every factor and the target."""
    convert = lambda s: merge_relations(star_transform(s))
    return PhpInstance(tuple(convert(f) for f in inst.factors), convert(inst.target))


def _single_relation(s):
    rels = s.signature.relations
    if len(rels) != 1:
        raise InvalidStructureError(f"expected a single relation, got {len(rels)}")
    return rels[0]


def pad_first_coordinate(s):
    """Raise the arity by one so the first coordinate projects onto the domain.

    More elements and tuples together than the size guard raise
    GuardExceededError before any tuple is built.
    """
    name, arity = _single_relation(s)
    size = len(s.domain)
    count = size * len(s.rows[name])
    check_guard(size + count, f"padded structure would have {size} elements and {count} tuples")
    rel = s.relation(name)
    tuples = tuple((c,) + t for c in s.domain for t in rel)
    return Structure(Signature(((name, arity + 1),)), s.domain, {name: tuples})


def pad_instance(inst):
    return PhpInstance(
        tuple(pad_first_coordinate(f) for f in inst.factors),
        pad_first_coordinate(inst.target),
    )


# --- gadget digraphs --------------------------------------------------------
#
# Nodes are tagged tuples so base elements, per-tuple chain nodes, and sink
# nodes can never collide: ("elem", x), ("tup", t, j), ("sink", j).  Chain
# indices j are stored as strings to keep all leaves strings.


def base_node(x):
    return ("elem", x)


def tuple_node(t, j):
    return ("tup", tuple(t), str(j))


def sink_node(j):
    return ("sink", str(j))


def is_base(v):
    return isinstance(v, tuple) and len(v) == 2 and v[0] == "elem"


def gadget_digraph(s, with_sinks=False):
    """Digraph encoding of a single-relation structure.

    Per tuple t of the r-ary relation: chain nodes t^1..t^r with edges
    t^j -> t^{j+1} and t[j] -> t^j.  With sinks: a chain s^1..s^{r-1} plus an
    edge from every base element to every sink node.  More elements and
    tuples together than the size guard raise GuardExceededError before any
    node is built; so do more tuple components than the guard repeated in
    node names, where each of a tuple's r chain nodes names the whole tuple.
    """
    name, r = _single_relation(s)
    if with_sinks and r < 2:
        raise InvalidStructureError("sink chain needs arity >= 2")
    n, count = len(s.domain), len(s.rows[name])
    size, tuples = n + r * count, (2 * r - 1) * count
    if with_sinks:
        size, tuples = size + r - 1, tuples + r - 2 + n * (r - 1)
    check_guard(size + tuples, f"gadget digraph would have {size} elements and {tuples} tuples")
    repeats = r * (r - 1) * count
    check_guard(repeats, f"gadget digraph node names would repeat {repeats} tuple components")
    nodes = [base_node(x) for x in s.domain]
    edges = []
    for t in s.relation(name):
        chain = [tuple_node(t, j) for j in range(1, r + 1)]
        nodes.extend(chain)
        edges.extend((chain[j], chain[j + 1]) for j in range(r - 1))
        edges.extend((base_node(t[j - 1]), tuple_node(t, j)) for j in range(1, r + 1))
    if with_sinks:
        sinks = [sink_node(j) for j in range(1, r)]
        nodes.extend(sinks)
        edges.extend((sinks[j], sinks[j + 1]) for j in range(r - 2))
        edges.extend((base_node(x), sk) for x in s.domain for sk in sinks)
    return Structure(Signature((("E", 2),)), tuple(nodes), {"E": tuple(edges)})


def digraph_transform(inst):
    """Pad then gadget every structure; only the target receives sink nodes."""
    padded = pad_instance(inst)
    return PhpInstance(
        tuple(gadget_digraph(f, with_sinks=False) for f in padded.factors),
        gadget_digraph(padded.target, with_sinks=True),
    )


def restrict_hom_digraph(hom, inst):
    """Read a padded-instance witness off a transformed-instance witness."""
    transformed = digraph_transform(inst)
    hom.validate(product(transformed.factors), transformed.target)
    padded = pad_instance(inst)
    mapping = {}
    for e in product(padded.factors).domain:
        v = tuple(base_node(c) for c in e)
        image = hom.mapping[v]
        if not is_base(image):
            raise NotAHomomorphismError(
                f"base product element {e!r} maps to non-base node {image!r}"
            )
        mapping[e] = image[1]
    return Homomorphism(mapping)


# --- path-length utilities --------------------------------------------------


def out_path_lengths(s):
    """Longest outgoing path length from each element of a single-binary digraph.

    Raises CyclicStructureError if the digraph has a directed cycle.
    """
    name, arity = _single_relation(s)
    if arity != 2:
        raise InvalidStructureError("path lengths are defined for binary relations")
    succ = {e: [] for e in s.domain}
    for a, b in s.relation(name):
        succ[a].append(b)
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {e: WHITE for e in s.domain}
    depth = {}
    for root in s.domain:
        if color[root] != WHITE:
            continue
        # depth-first on an explicit stack of (element, its unvisited successors)
        color[root] = GRAY
        stack = [(root, iter(succ[root]))]
        while stack:
            v, todo = stack[-1]
            for w in todo:
                if color[w] == GRAY:
                    raise CyclicStructureError(f"cycle through {w!r}")
                if color[w] == WHITE:
                    color[w] = GRAY
                    stack.append((w, iter(succ[w])))
                    break
            else:
                stack.pop()
                color[v] = BLACK
                depth[v] = max((1 + depth[w] for w in succ[v]), default=0)
    return depth


def max_path_length(s):
    lengths = out_path_lengths(s)
    return max(lengths.values(), default=0)
