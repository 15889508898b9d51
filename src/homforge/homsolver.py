"""Homomorphism solver: generalized arc consistency and an iterative backtracking search.

One CSP variable per source element, one constraint per source tuple; the
constraint's allowed assignments are the target tuples of the same relation.
This keeps the solver independent of arity.

Source elements are interned as ints 0..n-1 and target elements as ints
0..|B|-1, both in canonical order, so a variable's index is its rank and
ascending value index is the canonical value order; elements come back only
when a solution is emitted.  A domain is a Python int used as a bitset over
values.  Each target relation becomes one support table shared by all its
constraints: for every (position, value) the bitset of the rows holding that
value there, plus, for scopes that repeat a variable, the mask of rows that
agree on the repeated positions.  Revising a constraint intersects the rows
each position's domain still supports and keeps the values that meet a live
row, in the manner of Compact-Table (Demeulenaere et al., CP 2016) under an
AC-3 queue (Mackworth 1977).

The search keeps a single domain list, records every domain change on a
trail and undoes it on backtrack; an explicit stack replaces recursion, so
depth is limited by memory rather than by the interpreter.  Every search
starts from the arc-consistent root and restores arc consistency after each
assignment.  The variable picked is the most constrained one keyed on
(domain size, rank); values are tried in canonical order.  Every choice
point is fixed and the arc-consistent fixpoint is unique, so results are
deterministic.
"""

import heapq
from collections import deque
from dataclasses import dataclass

from .core import DEFAULT_PRODUCT_GUARD, Homomorphism, product
from .errors import EnumerationCapError, GuardExceededError, SignatureMismatchError


@dataclass(frozen=True)
class PhpVerdict:
    """Outcome of a PHP decision; the witness maps product elements to target elements."""

    yes: bool
    witness: Homomorphism | None


class _Table:
    """One target relation over interned values, shared by every constraint on it."""

    def __init__(self, rows, arity, n_values):
        self.rows = rows
        self.full = (1 << len(rows)) - 1
        # support[p][val]: bitset of the rows with value val at position p
        self.support = [[0] * n_values for _ in range(arity)]
        for r, row in enumerate(rows):
            bit = 1 << r
            for p, val in enumerate(row):
                self.support[p][val] |= bit
        # per position, domain bitset -> (rows it supports, ((value bit, rows), ...))
        self.cache = [{} for _ in range(arity)]
        self._eq = {}

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

    def agreeing(self, pattern):
        """Rows whose positions agree wherever pattern (first position per variable) does."""
        mask = self._eq.get(pattern)
        if mask is None:
            mask = 0
            for r, row in enumerate(self.rows):
                if all(row[p] == row[q] for p, q in enumerate(pattern)):
                    mask |= 1 << r
            self._eq[pattern] = mask
        return mask


class _Csp:
    """Interned variables and values, bitset domains with a trail, shared-table constraints."""

    def __init__(self, source, target):
        if not source.signature.same_as(target.signature):
            raise SignatureMismatchError("source and target must share a signature")
        self.source_domain = source.domain
        self.values = target.domain
        self.index = {e: i for i, e in enumerate(source.domain)}
        value_index = {e: i for i, e in enumerate(target.domain)}
        # constraint: (table, scope of variables, rows allowed by the scope's
        # repeats, ((variable, its first position), ...))
        self.cons = []
        self.var_cons = [[] for _ in source.domain]
        for name, arity in source.signature.relations:
            if not source.relation(name):
                continue
            rows = [tuple(value_index[c] for c in t) for t in target.relation(name)]
            table = _Table(rows, arity, len(target.domain))
            for t in source.relation(name):
                scope = tuple(self.index[c] for c in t)
                first = {}
                for p, v in enumerate(scope):
                    first.setdefault(v, p)
                if len(first) == arity:
                    eq = table.full
                else:
                    eq = table.agreeing(tuple(first[v] for v in scope))
                ci = len(self.cons)
                self.cons.append((table, scope, eq, tuple(first.items())))
                for v in first:
                    self.var_cons[v].append(ci)
        self.dom = [(1 << len(target.domain)) - 1] * len(source.domain)
        self.trail = []  # (variable, domain before the change)
        self._queued = bytearray(len(self.cons))

    def undo(self, mark):
        trail, dom = self.trail, self.dom
        while len(trail) > mark:
            v, d = trail.pop()
            dom[v] = d

    def pin(self, var, bit):
        """Restrict var to one value bit and propagate; False on a wipeout."""
        d = self.dom[var]
        if not d & bit:
            return False
        if d != bit:
            self.trail.append((var, d))
            self.dom[var] = bit
            return self.propagate(self.var_cons[var])
        return True

    def propagate(self, seeds):
        """Revise constraints until the arc-consistent fixpoint; False on a wipeout."""
        cons, dom, trail, var_cons = self.cons, self.dom, self.trail, self.var_cons
        queued = self._queued
        queue = deque(seeds)
        for ci in queue:
            queued[ci] = 1
        while queue:
            ci = queue.popleft()
            queued[ci] = 0
            table, scope, live, first = cons[ci]
            cache = table.cache
            for p, v in enumerate(scope):
                d = dom[v]
                entry = cache[p].get(d)
                if entry is None:
                    entry = table.entry(p, d)
                live &= entry[0]
                if not live:
                    for cj in queue:
                        queued[cj] = 0
                    return False
            # every live row agrees on repeats, so a variable's first position suffices
            for v, p in first:
                d = dom[v]
                nd = 0
                for bit, s in cache[p][d][1]:
                    if live & s:
                        nd |= bit
                if nd != d:
                    trail.append((v, d))
                    dom[v] = nd
                    for cj in var_cons[v]:
                        if not queued[cj] and cj != ci:
                            queued[cj] = 1
                            queue.append(cj)
        return True

    def search(self):
        """Yield each solution as the list of value indices per variable.

        The domains must be arc consistent on entry.  The list is reused
        between solutions.  Domain changes stay on the trail; a caller that
        needs the domains back undoes to its own mark.
        """
        dom, trail = self.dom, self.trail
        n = len(dom)
        value = [-1] * n
        if n == 0:
            yield value
            return
        # lazy heap of (domain size, variable); an entry is live while it
        # matches an unassigned variable's current domain size
        heap = [(d.bit_count(), v) for v, d in enumerate(dom)]
        heapq.heapify(heap)

        def pick():
            nonlocal heap
            if len(heap) > 4 * n:
                heap = [(dom[v].bit_count(), v) for v in range(n) if value[v] < 0]
                heapq.heapify(heap)
            while True:
                size, v = heapq.heappop(heap)
                if value[v] < 0 and dom[v].bit_count() == size:
                    return v

        stack = []  # frames [variable, untried value bits, trail mark]
        var = pick()
        stack.append([var, dom[var], len(trail)])
        while stack:
            frame = stack[-1]
            var, untried, mark = frame
            while len(trail) > mark:
                v, d = trail.pop()
                dom[v] = d
                heapq.heappush(heap, (d.bit_count(), v))
            if not untried:
                value[var] = -1
                heapq.heappush(heap, (dom[var].bit_count(), var))
                stack.pop()
                continue
            low = untried & -untried
            frame[1] = untried ^ low
            value[var] = low.bit_length() - 1
            # an arc-consistent node has a support for every value, so
            # each fully assigned scope holds without checking it
            if not self.pin(var, low):
                continue
            for i in range(mark, len(trail)):
                v = trail[i][0]
                heapq.heappush(heap, (dom[v].bit_count(), v))
            if len(stack) == n:
                yield value
                continue
            var = pick()
            stack.append([var, dom[var], len(trail)])

    def solutions(self):
        """Root propagation, then the search."""
        if not self.propagate(range(len(self.cons))):
            return iter(())
        return self.search()

    def homomorphism(self, value):
        values = self.values
        return Homomorphism(
            {e: values[val] for e, val in zip(self.source_domain, value)}
        )


def find_homomorphism(source, target):
    """First homomorphism in the deterministic search order, or None."""
    csp = _Csp(source, target)
    for value in csp.solutions():
        return csp.homomorphism(value)
    return None


def enumerate_homomorphisms(source, target, cap=None):
    """All homomorphisms, in lexicographic order of their mappings.

    With a cap, finding more than cap of them raises EnumerationCapError.
    """
    csp = _Csp(source, target)
    results = []
    for value in csp.solutions():
        results.append(tuple(value))
        if cap is not None and len(results) > cap:
            raise EnumerationCapError(f"more than {cap} homomorphisms exist")
    # value indices follow the canonical order, so this sorts the mappings
    results.sort()
    return [csp.homomorphism(value) for value in results]


def image_set(source, target, guard=DEFAULT_PRODUCT_GUARD):
    """All tuples the distinguished tuple of a pointed source can map to."""
    return set(image_witnesses(source, target, guard))


def image_witnesses(source, target, guard=DEFAULT_PRODUCT_GUARD):
    """Map from each achievable image tuple to one witnessing homomorphism.

    One arc-consistency pass at the root; the candidate tuples are then
    walked in lexicographic order as a depth-first search over the pins of
    the distinguished elements, propagating from each pinned variable, so a
    prefix that wipes out skips all of its extensions.  More than guard
    candidate tuples (|target|^k for k distinguished elements) raise
    GuardExceededError before the search.
    """
    candidates = len(target.domain) ** len(source.distinguished)
    if candidates > guard:
        raise GuardExceededError(
            f"image would have {candidates} candidate tuples (guard {guard})", candidates
        )
    csp = _Csp(source.structure, target)
    out = {}
    if not csp.propagate(range(len(csp.cons))):
        return out
    dist = [csp.index[e] for e in source.distinguished]
    if not dist:
        for value in csp.search():
            out[()] = csp.homomorphism(value)
            break
        return out
    k = len(dist)
    n_values = len(target.domain)
    pins = [0] * k  # per level, the next value index to pin
    marks = [len(csp.trail)] * k  # per level, the trail before its pin
    level = 0
    while level >= 0:
        csp.undo(marks[level])
        val = pins[level]
        if val == n_values:
            level -= 1
            continue
        pins[level] = val + 1
        if not csp.pin(dist[level], 1 << val):
            continue
        if level + 1 < k:
            level += 1
            pins[level] = 0
            marks[level] = len(csp.trail)
            continue
        for value in csp.search():
            cand = tuple(target.domain[pins[i] - 1] for i in range(k))
            out[cand] = csp.homomorphism(value)
            break
    return out


def decide_php(inst, guard=DEFAULT_PRODUCT_GUARD):
    """Decide whether the direct product of the factors maps into the target.

    A product with more than guard elements or tuples per relation raises
    GuardExceededError before the search.
    """
    prod = product(inst.factors, guard=guard)
    hom = find_homomorphism(prod, inst.target)
    return PhpVerdict(hom is not None, hom)


__all__ = [
    "PhpVerdict",
    "find_homomorphism",
    "enumerate_homomorphisms",
    "image_set",
    "image_witnesses",
    "decide_php",
]
