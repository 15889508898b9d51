"""The search as it stood before its state was made flat, and table GAC: the reference of test_search.py.

ReferenceCsp shares _Csp's build of domains and of the neighbour lists of
binary scopes.  It replaces pin, root, propagate and search with the
earlier loop: a trail of (variable, domain) tuples that root propagation
fills too, a 3-slot list per frame, a heap of (domain size, variable)
tuples and no shortcut for a root that leaves every domain a singleton.
A scope of arity 3 or more is not a hidden variable here but a constraint
on its distinct variables and the _Table of its repeat pattern, revised
by the table's own intersection of supports under a memo (_Table and
_add_scopes are the solver's code from before the hidden-variable
encoding).  All of it is kept verbatim, so a change of the search's order,
its first solutions, its witnesses or its propagation shows up as a
difference from it.
"""

import heapq
from operator import itemgetter

from homforge import homsolver
from homforge.homsolver import _Csp, _image


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


class ReferenceCsp(_Csp):
    def __init__(self, source, target):
        # arity 3 and more: (table, getter of the domains of the scope's
        # distinct variables, those variables in order of first position)
        self.cons = []
        # per variable, its table constraints; () until it has one
        self.var_cons = [()] * len(source.domain)
        super().__init__(source, target)

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
            self.trail.append((var, d))
            self.dom[var] = bit
            return self.propagate((var,))
        return True

    def root(self):
        """Propagate to the root fixpoint; False when a domain is or becomes empty.

        The build already revised every arc from a full domain, so only the
        variables it narrowed, and those of the tables, start the queue.
        """
        full = (1 << len(self.target.domain)) - 1
        seeds = [v for v, (d, cs) in enumerate(zip(self.dom, self.var_cons)) if d != full or cs]
        return 0 not in self.dom and self.propagate(seeds)

    def propagate(self, seeds):
        """Revise from the variables in seeds to the arc-consistent fixpoint; False on a wipeout."""
        dom, trail, arcs, directions = self.dom, self.trail, self.arcs, self.directions
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
                    if len(cache) >= homsolver.MEMO_LIMIT:
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
                    if len(memo) >= homsolver.MEMO_LIMIT:
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
                    trail.append((y, e))
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
        dom, trail = self.dom, self.trail
        n = len(dom)
        value = [-1] * n
        if not self.root():
            return
        # nothing undoes the root's changes, so they leave no trail
        trail.clear()
        if not prefix and () in skip:
            return
        if n == 0:
            yield value
            return
        order = list(dict.fromkeys(prefix))
        depth = len(order)
        # lazy heap of (domain size, variable); an entry is live while it
        # matches an unassigned variable's current domain size
        heap = [(d.bit_count(), v) for v, d in enumerate(dom)]
        heapq.heapify(heap)

        def pick():
            nonlocal heap
            # checked before the prefix too: a search whose prefix is every
            # variable never pops the heap, only pushes to it
            if len(heap) > 4 * n:
                heap = [(dom[v].bit_count(), v) for v in range(n) if value[v] < 0]
                heapq.heapify(heap)
            if len(stack) < depth:
                return order[len(stack)]
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
            if skip and len(stack) == depth and tuple([value[v] for v in prefix]) in skip:
                continue
            for i in range(mark, len(trail)):
                v = trail[i][0]
                heapq.heappush(heap, (dom[v].bit_count(), v))
            if len(stack) < n:
                var = pick()
                stack.append([var, dom[var], len(trail)])
                continue
            yield value
            for v, _, _ in stack[depth:]:
                value[v] = -1
                heapq.heappush(heap, (dom[v].bit_count(), v))
            del stack[depth:]


def first_solution(source, target, prefix=()):
    """The value list of the first solution of the reference loop, or None."""
    csp = ReferenceCsp(source, target)
    for value in csp.search(prefix):
        return list(value)
    return None


def image_solutions(pointed, target, known=()):
    """Image tuple -> value list, as image_witnesses keys its witnesses, by the reference loop."""
    csp = ReferenceCsp(pointed.structure, target)
    dist = [pointed.structure.rank[e] for e in pointed.distinguished]
    skip = {tuple([target.rank[c] for c in t]) for t in known}
    return {
        tuple(target.domain[value[v]] for v in dist): list(value)
        for value in csp.search(dist, skip)
    }
