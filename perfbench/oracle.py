"""Reference verdicts and certificate checks that never call homforge.

The bench decides every instance itself before it is timed and checks every
certificate the program prints after the op, outside the timed region.  All
searches here are iterative, so they neither need nor change the
interpreter's recursion limit.
"""

import itertools
import json

# --- tilings -----------------------------------------------------------------


class Undecided(Exception):
    """The reference search ran out of its node budget."""


def grid_tiling(system, prefix, budget=20000):
    """A valid tiling of the 2^m-by-2^m grid as {(x, y): tile}, or None.

    Row-major backtracking over the cells from the bottom row (y = 0, which
    holds the prefix at x = 0..m-1).  Each cell's candidate tiles are a bit
    mask kept arc consistent with its four neighbours (hcompat left to
    right, vcompat bottom to top) after every choice.  Raises Undecided after
    budget choices.
    """
    m = len(prefix)
    n = 2**m
    tiles = list(system["tiles"])
    bit = {t: 1 << i for i, t in enumerate(tiles)}
    full = (1 << len(tiles)) - 1

    def support_table(pairs, forward):
        # support[mask] = tiles related to some tile in mask
        step = [0] * len(tiles)
        for a, b in pairs:
            src, dst = (a, b) if forward else (b, a)
            step[tiles.index(src)] |= bit[dst]
        table = [0] * (full + 1)
        for mask in range(1, full + 1):
            low = mask & -mask
            table[mask] = table[mask ^ low] | step[low.bit_length() - 1]
        return table

    right = support_table(system["hcompat"], True)
    left = support_table(system["hcompat"], False)
    up = support_table(system["vcompat"], True)
    down = support_table(system["vcompat"], False)

    def neighbours(c):
        x, y = c % n, c // n
        if x + 1 < n:
            yield c + 1, right
        if x > 0:
            yield c - 1, left
        if y + 1 < n:
            yield c + n, up
        if y > 0:
            yield c - n, down

    def propagate(dom, queue):
        while queue:
            c = queue.pop()
            for d, table in neighbours(c):
                narrowed = dom[d] & table[dom[c]]
                if narrowed != dom[d]:
                    if not narrowed:
                        return False
                    dom[d] = narrowed
                    queue.append(d)
        return True

    dom = [full] * (n * n)
    for x, t in enumerate(prefix):
        dom[x] = bit[t]
    if not propagate(dom, list(range(n * n))):
        return None
    nodes = 0
    stack = [(dom, 0, dom[0])]
    while stack:
        dom, c, untried = stack.pop()
        if not untried:
            continue
        choice = untried & -untried
        stack.append((dom, c, untried ^ choice))
        nodes += 1
        if nodes > budget:
            raise Undecided(f"no verdict within {budget} choices")
        child = list(dom)
        child[c] = choice
        if not propagate(child, [c]):
            continue
        nxt = next((i for i in range(c + 1, n * n) if child[i] & (child[i] - 1)), None)
        if nxt is None:
            return {
                (i % n, i // n): tiles[child[i].bit_length() - 1] for i in range(n * n)
            }
        stack.append((child, nxt, child[nxt]))
    return None


def check_grid(system, prefix, grid):
    """None if grid tiles the whole 2^m-by-2^m grid under the system, else the first fault."""
    m = len(prefix)
    n = 2**m
    hcompat = {tuple(p) for p in system["hcompat"]}
    vcompat = {tuple(p) for p in system["vcompat"]}
    if set(grid) != {(x, y) for x in range(n) for y in range(n)}:
        return "witness does not cover the grid exactly"
    for x, tile in enumerate(prefix):
        if grid[(x, 0)] != tile:
            return f"cell ({x}, 0) holds {grid[(x, 0)]!r}, prefix says {tile!r}"
    for (x, y), tile in grid.items():
        if x + 1 < n and (tile, grid[(x + 1, y)]) not in hcompat:
            return f"cells ({x}, {y}) and ({x + 1}, {y}) break hcompat"
        if y + 1 < n and (tile, grid[(x, y + 1)]) not in vcompat:
            return f"cells ({x}, {y}) and ({x}, {y + 1}) break vcompat"
    return None


def decode_tiling_witness(witness, m):
    """Read a check-hom witness over the 2m-bit product back as {(x, y): tile}.

    Each key is the label of a product element, a JSON list of 2m bits: the
    m bits of x (most significant first), then the m bits of y.  This holds
    only when the factors were passed in the order reduce tiling numbers them.
    """
    grid = {}
    for label, tile in witness.items():
        element = json.loads(label)
        if len(element) != 2 * m or not set(element) <= {"0", "1"}:
            raise ValueError(f"witness key {label!r} is not a {2 * m}-bit element")
        bits = "".join(element)
        grid[(int(bits[:m], 2), int(bits[m:], 2))] = tile
    return grid


# --- structures and products -------------------------------------------------
#
# A structure is (domain, {relation: (arity, tuples)}), as in corpus.py.


def product(structures):
    """Direct product: elements are tuples of factor elements, in factor order."""
    domain = list(itertools.product(*(s[0] for s in structures)))
    relations = {}
    for name, (arity, _) in structures[0][1].items():
        combos = itertools.product(*(s[1][name][1] for s in structures))
        relations[name] = (
            arity,
            [tuple(tuple(t[p] for t in combo) for p in range(arity)) for combo in combos],
        )
    return domain, relations


def is_homomorphism(mapping, source, target):
    """True iff mapping is total on source and sends every tuple to a target tuple."""
    if any(e not in mapping for e in source[0]):
        return False
    for name, (_, tuples) in source[1].items():
        allowed = {tuple(t) for t in target[1][name][1]}
        if any(tuple(mapping[c] for c in t) not in allowed for t in tuples):
            return False
    return True


def php_exists(factors, target):
    """Exhaustive PHP oracle: does the product of the factors map into the target?

    Tries every map from the product to the target, so it is meant for the
    tiny chain instances (at most 16 maps).
    """
    prod = product(factors)
    for values in itertools.product(target[0], repeat=len(prod[0])):
        if is_homomorphism(dict(zip(prod[0], values)), prod, target):
            return True
    return False


def load_structure_file(path):
    """Read a structure file the program wrote into the bench's structure form."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    return (
        tuple(data["domain"]),
        {
            name: (spec["arity"], [tuple(t) for t in spec["tuples"]])
            for name, spec in data["relations"].items()
        },
    )


def label(element):
    """The CLI's label of a product element: a compact JSON list of its coordinates."""
    return json.dumps(list(element), separators=(",", ":"))


def check_not_definable(payload, instance, s_tuples):
    """None if a NotDefinable certificate holds, else the first fault.

    The certificate is a homomorphism from the |S|-fold product of the
    instance (pointed at the tuple of S's columns) back into the instance
    that sends the distinguished tuple to witness_tuple, a tuple outside S.
    """
    s_tuples = sorted({tuple(t) for t in s_tuples})
    witness_tuple = tuple(payload["witness_tuple"])
    if len(witness_tuple) != len(s_tuples[0]):
        return f"witness tuple {witness_tuple!r} has the wrong length"
    if witness_tuple in s_tuples:
        return f"witness tuple {witness_tuple!r} lies in S"
    prod = product([instance] * len(s_tuples))
    hom = {}
    for element in prod[0]:
        key = label(element)
        if key not in payload["witness_hom"]:
            return f"product element {key} is unmapped"
        hom[element] = payload["witness_hom"][key]
    if len(hom) != len(payload["witness_hom"]):
        return "witness maps elements outside the product"
    domain = set(instance[0])
    if any(v not in domain for v in hom.values()):
        return "witness maps into elements outside the instance"
    for name, (_, tuples) in prod[1].items():
        allowed = set(instance[1][name][1])
        for t in tuples:
            if tuple(hom[c] for c in t) not in allowed:
                return f"product tuple {t!r} of {name!r} is not preserved"
    distinguished = tuple(
        tuple(s[j] for s in s_tuples) for j in range(len(witness_tuple))
    )
    if tuple(hom[d] for d in distinguished) != witness_tuple:
        return "distinguished tuple does not map to the witness tuple"
    return None
