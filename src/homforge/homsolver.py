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
values.  No record is kept per binary constraint:

- a scope of one distinct variable (unary, a loop, or a wider scope that
  repeats one variable) narrows its domain once, when the CSP is built;
  nothing undoes that, so it never needs revising;
- any other binary scope (x, y) of a relation R puts (y, R forward) on x's
  neighbour list and (x, R backward) on y's.  A direction holds, per value,
  the bitset of the values R reaches from it, and the image of a domain is
  the union of those over its values, cached per domain bitset.  A change
  of x's domain intersects each neighbour's domain with the image of x's
  through that neighbour's direction (AC-3, Mackworth 1977, with a queue of
  variables);
- any other scope of arity 3 or more is a constraint on its distinct
  variables and on the _Table of its repeat pattern: the rows of its
  relation that agree wherever the scope repeats a variable (every row when
  none repeats), each variable read at its first position.  The tables of
  a relation share its support, for every (position, value) the bitset of
  the rows holding that value there, so a repeat pattern costs one bitset
  of rows.  Such a constraint is only (table, getter of its variables'
  domains, variables), and _Table.revise is its one revision: it
  intersects the rows each variable's domain still supports and keeps the
  values that meet a live row, in the manner of Compact-Table
  (Demeulenaere et al., CP 2016).

In a product thousands of scopes share one relation and meet the same
domains, so both kinds of revision are memoized: each direction caches the
image of a domain, and the tables of a relation share one memo keyed on
(table, its variables' domains) that holds the revised domains, True when
none narrows or False for a wipeout.  A cache or memo of MEMO_LIMIT
entries is emptied before it takes another.

There is one search, _Csp.search(prefix).  It propagates at the root, whose
changes nothing undoes and so leave no trail.  A root that leaves every
prefix variable a singleton, and every other variable a singleton or in no
constraint, has found the first solution: each domain's least value.
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
  achievable image tuple, in lexicographic order of the tuples; the tuples
  the caller already knows are backtracked from as soon as they are
  assigned, without a search below them.

Every choice point is fixed and the arc-consistent fixpoint is unique, so
results are deterministic, whatever order the queue revises in.
"""

import heapq
from operator import itemgetter

from .core import Homomorphism, Record, check_guard, product
from .errors import SignatureMismatchError

# entries an image cache or a relation's table memo holds before it is emptied
MEMO_LIMIT = 1 << 16


class PhpVerdict(Record):
    """Outcome of a PHP decision; the witness maps product elements to target elements."""

    yes: bool
    witness: Homomorphism | None


def _image(reach, d):
    """The values reached from any value of domain d, per value's bitset reach."""
    image = 0
    while d:
        low = d & -d
        image |= reach[low.bit_length() - 1]
        d ^= low
    return image


class _Table:
    """A relation's rows that agree where a scope repeats a variable: revision data and memo."""

    def __init__(self, shared, live, positions):
        # shared by the relation's tables: support[p][val], the bitset of the
        # rows with value val at position p; per position, domain bitset ->
        # (rows it supports, ((value bit, rows), ...)); (table, the domains of
        # its variables) -> the revised domains, True when none narrows,
        # False for a wipeout
        self.support, self.cache, self.memo = shared
        # the rows that agree, and the first position of each variable
        self.live, self.positions = live, positions

    def entry(self, p, dom):
        """The cache entry of domain dom at position p, computed on first use."""
        support = self.support[p]
        rows = 0
        pairs = []
        rest = dom
        while rest:
            low = rest & -rest
            s = support[low.bit_length() - 1]
            if s:
                rows |= s
                pairs.append((low, s))
            rest ^= low
        entry = self.cache[p][dom] = (rows, tuple(pairs))
        return entry

    def revise(self, doms):
        """A memo entry: the revision of a scope whose distinct variables hold doms."""
        cache = self.cache
        live = self.live
        for p, d in zip(self.positions, doms):
            live &= (cache[p].get(d) or self.entry(p, d))[0]
            if not live:
                return False
        revised = []
        narrowed = False
        # every live row agrees on repeats, so a variable's first position suffices
        for p, d in zip(self.positions, doms):
            nd = 0
            for bit, s in cache[p][d][1]:
                if live & s:
                    nd |= bit
            revised.append(nd)
            narrowed = narrowed or nd != d
        return tuple(revised) if narrowed else True


class _Csp:
    """Bitset domains with a trail; neighbour lists for binary scopes, tables for wider ones."""

    def __init__(self, source, target):
        if source.signature != target.signature:
            raise SignatureMismatchError("source and target must share a signature")
        self.source, self.target = source, target
        n, n_values = len(source.domain), len(target.domain)
        dom = self.dom = [(1 << n_values) - 1] * n
        # per variable, flat: neighbour, direction, neighbour, direction, ...;
        # () until it has an arc
        self.arcs = arcs = [()] * n
        # one int object per variable, shared by every arc that names it (a
        # column holds a new int per tuple)
        ids = None
        # per direction of a binary relation: (the values each value reaches, image cache)
        self.directions = []
        # arity 3 and more: (table, getter of the domains of the scope's
        # distinct variables, those variables in order of first position)
        self.cons = []
        # per variable, its table constraints; () until it has one
        self.var_cons = [()] * n
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
                self._add_scopes(rows, cols, n_values)
        self.trail = []  # flat: variable, its domain before the change, ...
        self._queued = bytearray(n)

    def _add_scopes(self, rows, cols, n_values):
        """Add the scopes of a relation of arity 3 or more, each on its distinct variables."""
        arity = len(cols)
        support = [[0] * n_values for _ in range(arity)]
        for r, row in enumerate(rows):
            bit = 1 << r
            for p, val in enumerate(row):
                support[p][val] |= bit
        shared = (support, [{} for _ in range(arity)], {})
        # per repeat pattern (None when no variable repeats): its _Table, or,
        # for one variable, the values it allows
        tables = {None: _Table(shared, (1 << len(rows)) - 1, tuple(range(arity)))}
        for scope in zip(*cols):
            if len(set(scope)) == arity:
                pattern, variables = None, scope
            else:
                # the first position of each position's variable
                pattern = tuple(map(scope.index, scope))
                variables = tuple(dict.fromkeys(scope))
            table = tables.get(pattern)
            if table is None:
                agree = [
                    r for r, row in enumerate(rows)
                    if all(row[p] == row[q] for p, q in enumerate(pattern))
                ]
                if len(variables) == 1:
                    table = sum(1 << rows[r][0] for r in agree)
                else:
                    firsts = tuple(dict.fromkeys(pattern))
                    table = _Table(shared, sum(1 << r for r in agree), firsts)
                tables[pattern] = table
            if len(variables) == 1:
                self.dom[scope[0]] &= table
                continue
            ci = len(self.cons)
            self.cons.append((table, itemgetter(*variables), variables))
            for v in variables:
                if not self.var_cons[v]:
                    self.var_cons[v] = []
                self.var_cons[v].append(ci)

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
        variables it narrowed, and those of the tables, start the queue.
        """
        full = (1 << len(self.target.domain)) - 1
        seeds = [v for v, (d, cs) in enumerate(zip(self.dom, self.var_cons)) if d != full or cs]
        return 0 not in self.dom and self.propagate(seeds)

    def propagate(self, seeds, trail=None):
        """Propagate from seeds to the fixpoint, recording on trail if given; False on a wipeout."""
        dom, arcs, directions = self.dom, self.arcs, self.directions
        cons, var_cons, queued = self.cons, self.var_cons, self._queued
        queue = []
        for x in seeds:
            if not queued[x]:
                queued[x] = 1
                queue.append(x)
        changed = []
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
                    changed.append((y, e & image))
            for ci in var_cons[x]:
                table, doms, variables = cons[ci]
                memo = table.memo
                key = (table, doms(dom))
                revised = memo.get(key)
                if revised is None:
                    if len(memo) >= MEMO_LIMIT:
                        memo.clear()
                    revised = memo[key] = table.revise(key[1])
                if revised is False:
                    changed.append((variables[0], 0))
                elif revised is not True:
                    changed.extend(zip(variables, revised))
            for y, nd in changed:
                e = dom[y]
                if nd & e != e:
                    nd &= e
                    if not nd:
                        for v in queue:
                            queued[v] = 0
                        return False
                    if trail is not None:
                        trail += (y, e)
                    dom[y] = nd
                    if not queued[y]:
                        queued[y] = 1
                        queue.append(y)
            changed.clear()
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
        whose values, read along prefix, form a tuple in skip is backtracked
        from as soon as it is made; undoing it restores the state its
        successors start from, so the other solutions do not change.
        """
        dom, n = self.dom, len(self.dom)
        if not self.root() or not prefix and () in skip:
            return
        if all(dom[v] & (dom[v] - 1) == 0 for v in prefix) and all(
            d & (d - 1) == 0 or not (a or c) for d, a, c in zip(dom, self.arcs, self.var_cons)
        ):
            # the first solution, which the descent reaches without a
            # backtrack: a variable in no constraint takes its least value
            value = [(d & -d).bit_length() - 1 for d in dom]
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
        heap = [d.bit_count() * n + v for v, d in enumerate(dom)]
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
                heapq.heappush(heap, d.bit_count() * n + v)
            if not untried:
                value[var] = -1
                heapq.heappush(heap, dom[var].bit_count() * n + var)
                del frames[-3:]
                continue
            low = untried & -untried
            frames[-2] = untried ^ low
            value[var] = low.bit_length() - 1
            # an arc-consistent node has a support for every value, so
            # each fully assigned scope holds without checking it
            if not self.pin(var, low):
                continue
            if skip and len(frames) == 3 * depth and tuple([value[v] for v in prefix]) in skip:
                continue
            # past var's own entry, which pin records first when it records any
            for v in trail[mark + 2 :: 2]:
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
    target elements the caller already has witnesses for: the search
    backtracks as soon as the distinguished elements are assigned one of
    them, so they are never searched below, and the other keys and their
    witnesses are those of the full map.  More candidate tuples
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
