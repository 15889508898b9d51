"""Homomorphism solver: generalized arc consistency and one iterative backtracking search.

One CSP variable per source element, one constraint per source tuple; the
constraint's allowed assignments are the target tuples of the same relation.

The interning is the one core.Structure keeps: a variable is a source
element's rank and a value is a target element's rank, so ascending value
index is the canonical value order.  The CSP is built from the source's
element count and its columns (Structure.columns), which a product computes
from its factors: no product element or sorted row is built for a search,
and a solution is the search's list of values, which the witness keeps
(Homomorphism._of_ranks).  A domain is a Python int used as a bitset over
values.  No constraint object is kept:

- a scope of one distinct variable (unary, a loop, or a wider scope that
  repeats one variable) narrows its domain once, when the CSP is built;
  nothing undoes that, so it never needs revising;
- any other binary scope (x, y) of a relation R puts (y, R forward) on x's
  neighbour list and (x, R backward) on y's.  A direction holds, per value,
  the bitset of the values R reaches from it, and the image of a domain is
  the union of those over its values.  A change of x's domain intersects
  each neighbour's domain with the image of x's through that neighbour's
  direction (AC-3, Mackworth 1977, with a queue of variables);
- any other scope of arity 3 or more becomes a hidden variable, numbered
  after the n source variables, whose values are its relation's rows: its
  domain starts as the rows that agree wherever the scope repeats a
  variable (every row when none repeats).  It is linked to each distinct
  variable of the scope at that variable's first position p, by the two
  directions of the relation at p: forward, a row reaches the bit of its
  value at p; backward, a value reaches the bitset of the rows that hold it
  at p.  So every arc, binary or hidden, is revised by the one rule above,
  and arc consistency on this hidden-variable encoding is generalized arc
  consistency on the scopes themselves (Rossi, Petrie & Dhar, ECAI 1990;
  Stergiou & Walsh, AAAI 1999): the source variables' domains at each
  fixpoint are those of GAC.  The search never assigns a hidden variable.
  These scopes times their rows' 64-bit words are checked against the
  size guard before the CSP is built.

In a product thousands of scopes share one relation and meet the same
domains, so each direction caches the image of a domain bitset, shared by
all of its arcs.  A cache of MEMO_LIMIT entries is emptied before it takes
another.  An image reads its domain's bits in one pass, so a domain of n
rows costs O(n).

There is one search, _Csp.search(prefix).  It propagates at the root, whose
changes nothing undoes and so leave no trail.  A root that leaves every
prefix variable a singleton, and every other source variable a singleton
or in no constraint, has found the first solution: each domain's least
value.
Otherwise it records every domain change on a flat trail of (variable, old
domain) pairs and undoes it on backtrack; a flat list of frames replaces
recursion, so depth is limited by memory.  Arc consistency is restored
after each assignment.  The distinct prefix variables are assigned first,
in the given order; then the most constrained variable, keyed on (domain
size, rank).  Values are tried in canonical order.  After each solution
the search backtracks to the last prefix variable, so every assignment of
the prefix yields its first solution only.  The callers differ only in the prefix:

- find_homomorphism, through decide_php: the first solution and nothing
  more.  Its prefix is given as source ranks.  check-hom passes none;
  solve-tiling searches the tiling encoding with y's factors first, so
  cell (x, y) is product rank y * 2^m + x and its prefix, every cell in
  row-major order, is range(4^m): the first solution is the least tiling
  in that order;
- image_witnesses: the distinguished elements, so one witness per
  achievable image tuple, in lexicographic order of the tuples; a tuple
  the caller already knows is never pinned: the search passes over it
  without propagating, searching or undoing anything for it.

Every choice point is fixed and the arc-consistent fixpoint is unique, so
results are deterministic, whatever order the queue revises in.
"""

import heapq
from itertools import islice

from .core import Homomorphism, Record, check_guard, product
from .errors import SignatureMismatchError

# entries an image cache holds before it is emptied
MEMO_LIMIT = 1 << 16


class PhpVerdict(Record):
    """Outcome of a PHP decision; the witness maps product elements to target elements."""

    yes: bool
    witness: Homomorphism | None


def _image(reach, d):
    """The values reached from any value of domain d, per value's bitset reach."""
    image = 0
    # bit i of d at index i: one pass over d, where taking its low bit off
    # step by step would copy the whole int at each step
    bits = bin(d)[:1:-1]
    i = bits.find("1")
    while i >= 0:
        image |= reach[i]
        i = bits.find("1", i + 1)
    return image


def _bitset(indices):
    """The int whose set bits are indices, a list.

    The bits are set byte by byte: or-ing them into an int one by one would
    copy the int once per index.
    """
    buf = bytearray(max(indices, default=-1) // 8 + 1)
    for i in indices:
        buf[i >> 3] |= 1 << (i & 7)
    return int.from_bytes(buf, "little")


class _Csp:
    """Bitset domains with a trail, and neighbour lists over binary and hidden-variable arcs.

    dom and arcs list the n source variables first, then one hidden
    variable per scope of arity 3 or more with two distinct variables or
    more; the search reads and assigns only the first n.
    """

    def __init__(self, source, target):
        if source.signature != target.signature:
            raise SignatureMismatchError("source and target must share a signature")
        self.source, self.target = source, target
        # a hidden variable holds a bitset over its relation's rows: every
        # scope of arity 3 or more counts its rows' 64-bit words
        words = sum(
            source.tuple_count(name) * -(-len(target.rows[name]) // 64)
            for name, arity in source.signature.relations
            if arity > 2
        )
        check_guard(words, f"hidden variables would hold {words} words of rows")
        n, n_values = len(source.domain), len(target.domain)
        dom = self.dom = [(1 << n_values) - 1] * n
        # per variable, flat: neighbour, direction, neighbour, direction, ...;
        # () until it has an arc
        self.arcs = arcs = [()] * n
        # one int object per variable, shared by every arc that names it (a
        # column holds a new int per tuple)
        ids = None
        # per direction of a relation: (what each value or row reaches, image cache)
        self.directions = []
        for name, arity in source.signature.relations:
            if not source.tuple_count(name):
                continue
            cols = source.columns(name)
            rows = target.rows[name]
            if arity == 1:
                allowed = sum(1 << a for a, in rows)
                for x in cols[0]:
                    dom[x] &= allowed
            elif arity == 2:
                ids = ids or list(range(n))
                forward, backward = [0] * n_values, [0] * n_values
                for a, b in rows:
                    forward[a] |= 1 << b
                    backward[b] |= 1 << a
                loops = sum(1 << a for a, b in rows if a == b)
                # what a full domain reaches in each direction: every arc is
                # revised here once, as if from a full domain, so root() starts
                # only from the domains this build narrows
                firsts, seconds = sum({1 << a for a, _ in rows}), sum({1 << b for _, b in rows})
                k = len(self.directions)
                self.directions += [(forward, {}), (backward, {})]
                for x, y in zip(*cols):
                    if x == y:
                        dom[x] &= loops
                        continue
                    dom[x] &= firsts
                    dom[y] &= seconds
                    x, y = ids[x], ids[y]
                    if arcs[x]:
                        arcs[x] += (y, k)
                    else:
                        arcs[x] = [y, k]
                    if arcs[y]:
                        arcs[y] += (x, k + 1)
                    else:
                        arcs[y] = [x, k + 1]
            else:
                ids = ids or list(range(n))
                self._add_scopes(rows, [map(ids.__getitem__, col) for col in cols], n_values)
        self.n = n
        self.trail = []  # flat: variable, its domain before the change, ...
        self._queued = bytearray(len(dom))

    def _add_scopes(self, rows, cols, n_values):
        """Add the scopes of a relation of arity 3 or more, each a hidden variable over its rows."""
        dom, arcs, arity = self.dom, self.arcs, len(cols)
        # per position p, directions k + 2p (row -> its value's bit) and
        # k + 2p + 1 (value -> the bitset of the rows holding it there)
        k = len(self.directions)
        every = (1 << len(rows)) - 1
        # one bit per value that occurs, shared by every row and position holding it
        bit = {}
        for p in range(arity):
            held = {}
            for r, row in enumerate(rows):
                held.setdefault(row[p], []).append(r)
            backward = [0] * n_values
            for v, held_rows in held.items():
                backward[v] = _bitset(held_rows)
                bit.setdefault(v, 1 << v)
            # the image of every row, which root() revises first, seeds the
            # cache from the values that occur, not from a walk of the rows
            image = {every: _bitset(list(held))}
            self.directions += [([bit[row[p]] for row in rows], image), (backward, {})]
        # per repeat pattern (None when no variable repeats): the rows that
        # agree on it, or, for one variable, the values it allows
        starts = {None: every}
        for scope in zip(*cols):
            first = {}
            for p, x in enumerate(scope):
                first.setdefault(x, p)
            pattern = None if len(first) == arity else tuple(map(first.get, scope))
            start = starts.get(pattern)
            if start is None:
                agree = [
                    r for r, row in enumerate(rows)
                    if all(row[p] == row[q] for p, q in enumerate(pattern))
                ]
                if len(first) == 1:
                    start = _bitset([rows[r][0] for r in agree])
                else:
                    start = _bitset(agree)
                starts[pattern] = start
            if len(first) == 1:
                dom[scope[0]] &= start
                continue
            h = len(dom)
            dom.append(start)
            link = []
            for x, p in first.items():
                link += (x, k + 2 * p)
                if arcs[x]:
                    arcs[x] += (h, k + 2 * p + 1)
                else:
                    arcs[x] = [h, k + 2 * p + 1]
            arcs.append(tuple(link))

    def pin(self, var, bit):
        """Restrict var to one value bit and propagate; False on a wipeout."""
        d = self.dom[var]
        if not d & bit:
            return False
        if d != bit:
            self.trail += (var, d)
            self.dom[var] = bit
            return self.propagate((var,), self.trail)
        return True

    def root(self):
        """Propagate to the root fixpoint; False when a domain is or becomes empty.

        The build already revised every arc from a full domain, so only the
        variables it narrowed, and the hidden ones, start the queue.
        """
        dom, n = self.dom, self.n
        full = (1 << len(self.target.domain)) - 1
        seeds = [v for v in range(n) if dom[v] != full] + list(range(n, len(dom)))
        return 0 not in dom and self.propagate(seeds)

    def propagate(self, seeds, trail=None):
        """Propagate from seeds to the fixpoint, recording on trail if given; False on a wipeout."""
        dom, arcs, directions = self.dom, self.arcs, self.directions
        queued = self._queued
        queue = []
        for x in seeds:
            if not queued[x]:
                queued[x] = 1
                queue.append(x)
        while queue:
            x = queue.pop()
            queued[x] = 0
            d = dom[x]
            it = iter(arcs[x])
            for y, k in zip(it, it):
                reach, cache = directions[k]
                image = cache.get(d)
                if image is None:
                    if len(cache) >= MEMO_LIMIT:
                        cache.clear()
                    image = cache[d] = _image(reach, d)
                e = dom[y]
                if e & image != e:
                    if not e & image:
                        for v in queue:
                            queued[v] = 0
                        return False
                    if trail is not None:
                        trail += (y, e)
                    dom[y] = e & image
                    if not queued[y]:
                        queued[y] = 1
                        queue.append(y)
        return True

    def search(self, prefix=(), skip=()):
        """Yield, per assignment of the prefix variables, its first solution.

        Root propagation runs first.  The distinct variables of prefix are
        assigned first, in the given order; the rest are picked most
        constrained first.  A solution is the list of value indices per
        variable, reused between solutions.  After each solution the search
        backtracks to the last prefix variable, so with an empty prefix it
        yields at most one solution and with every variable in the prefix it
        yields all of them, in lexicographic order.  A prefix assignment
        whose values, read along prefix, form a tuple in skip is passed over
        before its last variable is pinned, so nothing is propagated or
        undone for it and the other solutions do not change.
        """
        dom, n = self.dom, self.n
        if not self.root() or not prefix and () in skip:
            return
        if all(dom[v] & (dom[v] - 1) == 0 for v in prefix) and all(
            d & (d - 1) == 0 or not a for d, a in zip(islice(dom, n), self.arcs)
        ):
            # the first solution, which the descent reaches without a
            # backtrack: a variable in no constraint takes its least value
            value = [(d & -d).bit_length() - 1 for d in islice(dom, n)]
            if not skip or tuple([value[v] for v in prefix]) not in skip:
                yield value
            return
        trail, value = self.trail, [-1] * n
        order, seen = [], bytearray(n)
        for v in prefix:
            if not seen[v]:
                seen[v] = 1
                order.append(v)
        depth = len(order)
        # lazy heap of size * n + variable, which orders as (domain size, variable);
        # an entry is live while it matches an unassigned variable's domain size
        heap = [d.bit_count() * n + v for v, d in enumerate(islice(dom, n))]
        heapq.heapify(heap)

        def pick():
            nonlocal heap
            # checked before the prefix too: a search whose prefix is every
            # variable never pops the heap, only pushes to it
            if len(heap) > 4 * n:
                heap = [dom[v].bit_count() * n + v for v in range(n) if value[v] < 0]
                heapq.heapify(heap)
            if len(frames) < 3 * depth:
                return order[len(frames) // 3]
            while True:
                size, v = divmod(heapq.heappop(heap), n)
                if value[v] < 0 and dom[v].bit_count() == size:
                    return v

        # the frames, flat: variable, untried value bits, trail mark per frame
        frames = []
        var = pick()
        frames += (var, dom[var], 0)
        while frames:
            var, untried, mark = frames[-3:]
            while len(trail) > mark:
                d = trail.pop()
                v = trail.pop()
                dom[v] = d
                if v < n:
                    heapq.heappush(heap, d.bit_count() * n + v)
            if not untried:
                value[var] = -1
                heapq.heappush(heap, dom[var].bit_count() * n + var)
                del frames[-3:]
                continue
            low = untried & -untried
            frames[-2] = untried ^ low
            value[var] = low.bit_length() - 1
            if skip and len(frames) == 3 * depth and tuple([value[v] for v in prefix]) in skip:
                continue
            # an arc-consistent node has a support for every value, so
            # each fully assigned scope holds without checking it
            if not self.pin(var, low):
                continue
            # past var's own entry, which pin records first when it records any
            for v in trail[mark + 2 :: 2]:
                if v < n:
                    heapq.heappush(heap, dom[v].bit_count() * n + v)
            if len(frames) < 3 * n:
                var = pick()
                frames += (var, dom[var], len(trail))
                continue
            yield value
            for v in frames[3 * depth :: 3]:
                value[v] = -1
                heapq.heappush(heap, dom[v].bit_count() * n + v)
            del frames[3 * depth :]

    def homomorphism(self, value):
        return Homomorphism._of_ranks(self.source, self.target, list(value))


def find_homomorphism(source, target, prefix=()):
    """First homomorphism in the deterministic search order, or None.

    The source elements whose ranks prefix lists are assigned first, in the
    given order.
    """
    csp = _Csp(source, target)
    for value in csp.search(prefix):
        return csp.homomorphism(value)
    return None


def image_set(source, target):
    """All tuples the distinguished tuple of a pointed source can map to."""
    return set(image_witnesses(source, target))


def image_witnesses(source, target, known=()):
    """Map from each achievable image tuple outside known to one witnessing homomorphism.

    The search takes the distinguished elements as its prefix, so the
    candidate tuples are walked in lexicographic order of their target
    ranks, a prefix that wipes out skips all of its extensions, and each
    achievable tuple is keyed to its first solution.  known holds tuples of
    target elements the caller already has witnesses for: the search passes
    over an assignment of the distinguished elements to one of them without
    pinning it, so nothing is propagated for them, and the other keys and
    their witnesses are those of the full map.  More candidate tuples
    (|target|^k for k distinguished elements) than the size guard raise
    GuardExceededError before the search.
    """
    candidates = len(target.domain) ** len(source.distinguished)
    check_guard(candidates, f"image would have {candidates} candidate tuples")
    csp = _Csp(source.structure, target)
    dist = [source.structure.rank[e] for e in source.distinguished]
    rank = target.rank
    skip = {tuple([rank[c] for c in t]) for t in known}
    return {
        tuple(target.domain[value[v]] for v in dist): csp.homomorphism(value)
        for value in csp.search(dist, skip)
    }


def decide_php(inst, prefix=()):
    """Decide whether the direct product of the factors maps into the target.

    The product is made once, and never materialized: find_homomorphism
    searches it with prefix, a list of product ranks, and
    Homomorphism.validate, which shares no code with the search, checks the
    witness (the search's value list) against its columns before it is
    returned.  A product whose elements and tuples together outnumber the
    size guard raises GuardExceededError before the search.
    """
    prod = product(inst.factors)
    hom = find_homomorphism(prod, inst.target, prefix)
    if hom is not None:
        hom.validate(prod, inst.target)
    return PhpVerdict(hom is not None, hom)


__all__ = [
    "PhpVerdict",
    "find_homomorphism",
    "image_set",
    "image_witnesses",
    "decide_php",
]
