"""Finite relational structures: signatures, products, and the JSON file format.

Element identifiers are strings; composite elements (products, unions, gadget
nodes) are nested tuples of strings.  Every Structure keeps its relations,
its domain and its tuples in one canonical order, so equal structures compare
equal and every traversal is deterministic.  The order is decided here and
only here: a Signature lists its relations sorted by name, whatever order
they were declared in; the domain is sorted with element_key (strings before
tuples, recursively); and each relation lists its tuples in lexicographic
order of their components' ranks in that sorted domain.  That interning is
kept on the structure as rank (element -> its index in the domain) and rows
(relation name -> its tuples as rank tuples, in that order).  Rows are the
only stored form of a relation: relation(name) reads its element tuples off
them on each call.  Other modules read rank and rows rather than sorting
elements or building their own index maps.

Structure._canonical is the one way around that work, for output that is
canonical by construction; product is its only caller.  It sorts, ranks and
checks nothing, so its caller guarantees the invariants the checking
constructor would establish: the domain is in element_key order without
duplicates, and for every relation of the signature rows[name] lists
distinct rank tuples of the relation's arity in ascending order.  Every
other builder, and every file read, goes through the checking constructor.

Every value record of the package (Signature, Structure, PointedStructure,
PhpInstance and Homomorphism here; the verdicts, queries, reductions and
tiling instances of the other modules) subclasses Record, which does for
them what a frozen dataclass would, without importing dataclasses and the
inspect, ast and dis modules it pulls in.  A record lists its fields as
class annotations, in order, and a field's class attribute, when set, is
its default.  Record gives the __init__ that takes the fields by position or
name and then calls __post_init__; __eq__ (same class, equal fields),
__hash__ and __repr__ over the fields; and a __setattr__ and __delattr__
that raise.  __post_init__ or a custom __init__ stores a normalized value
past them, with object.__setattr__ or vars(self).update.

Homomorphism.validate is the one certificate check.  Each decider calls it
on the structure its own search ran on, so no check builds a product again.

Every step that multiplies sizes calls check_guard before it builds
anything, and check_guard reads the guard itself from size_guard, the one
reader of HOMFORGE_GUARD; no function takes the guard as an argument.

Files are written as json.dumps(..., sort_keys=True, indent=2) writes them,
byte for byte, but the text is joined here from the C string encoder that
json.dumps itself uses (json's indenting encoder is pure Python), and each
domain element is labelled once.
"""

import itertools
import json
import math
import os

from .errors import (
    GuardExceededError,
    InvalidStructureError,
    NotAHomomorphismError,
    SignatureMismatchError,
    UsageError,
)

DEFAULT_PRODUCT_GUARD = 10**6

# the C function json.dumps quotes every string with (ensure_ascii, the default)
_quote = json.encoder.encode_basestring_ascii


def element_key(e):
    """Total order on elements: plain strings before tuples, recursively."""
    if isinstance(e, str):
        return (0, e)
    return (1, tuple(element_key(c) for c in e))


def element_label(e):
    """Canonical string form of an element, for serialization and CLI output.

    A string is its own label; a tuple's is its compact JSON text, the bytes
    of json.dumps(e, separators=(",", ":")).
    """
    if isinstance(e, str):
        return e
    return "[" + ",".join([_quote(c) if isinstance(c, str) else element_label(c) for c in e]) + "]"


class Record:
    """Base of the package's frozen value records (see the module docstring)."""

    _fields = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls._fields = tuple(cls.__annotations__)

    def __init__(self, *args, **kwargs):
        cls, fields = type(self), self._fields
        values = dict(zip(fields, args))
        for name in fields[len(args):]:
            if name in kwargs:
                values[name] = kwargs.pop(name)
            elif name in vars(cls):
                values[name] = vars(cls)[name]
        if len(args) > len(fields) or kwargs or len(values) < len(fields):
            raise TypeError(f"{cls.__name__}() takes the fields {', '.join(fields)}")
        vars(self).update(values)
        self.__post_init__()

    def __post_init__(self):
        """Check and normalize the fields; records with invariants override it."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__name__} is frozen")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is frozen")

    def _values(self):
        return tuple(map(vars(self).__getitem__, self._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"


class Signature(Record):
    """(relation name, arity) pairs, sorted by name; declaration order is not kept."""

    relations: tuple

    def __post_init__(self):
        rels = tuple((str(n), int(a)) for n, a in self.relations)
        names = [n for n, _ in rels]
        if len(set(names)) != len(names):
            raise InvalidStructureError("relation names must be pairwise distinct")
        for n, a in rels:
            if a < 1:
                raise InvalidStructureError(f"arity of {n!r} must be >= 1, got {a}")
        object.__setattr__(self, "relations", tuple(sorted(rels)))

    def names(self):
        return [n for n, _ in self.relations]


class Structure(Record):
    """A finite relational structure with canonically sorted domain and relations.

    Built as Structure(signature, domain, interp), where interp maps relation
    names to tuples of elements; the tuples are checked and kept as rows.
    rank is kept beside the fields, outside eq, hash and repr.
    """

    signature: Signature
    domain: tuple
    rows: dict

    def __init__(self, signature, domain, interp):
        dom = tuple(sorted(domain, key=element_key))
        for a, b in zip(dom, dom[1:]):
            if a == b:
                raise InvalidStructureError(f"duplicate domain element {a!r}")
        rank = {e: i for i, e in enumerate(dom)}
        unknown = set(interp) - set(signature.names())
        if unknown:
            raise InvalidStructureError(f"relations not in signature: {sorted(unknown)}")
        rows = {}
        for name, arity in signature.relations:
            # checked in input order, so the first bad tuple reported is fixed
            keys = set()
            for t in interp.get(name, ()):
                t = tuple(t)
                if len(t) != arity:
                    raise InvalidStructureError(
                        f"tuple {t!r} in {name!r} has length {len(t)}, arity is {arity}"
                    )
                for c in t:
                    if c not in rank:
                        raise InvalidStructureError(
                            f"tuple {t!r} in {name!r} uses unknown element {c!r}"
                        )
                keys.add(tuple(rank[c] for c in t))
            rows[name] = tuple(sorted(keys))
        # the instance is frozen, so its fields are set past __setattr__
        vars(self).update(signature=signature, domain=dom, rows=rows, rank=rank)

    @classmethod
    def _canonical(cls, signature, domain, rows):
        """A Structure from canonical parts, taken as they are (see the module docstring)."""
        s = object.__new__(cls)
        rank = dict(zip(domain, range(len(domain))))
        vars(s).update(signature=signature, domain=domain, rows=rows, rank=rank)
        return s

    def relation(self, name):
        """The tuples of a relation as element tuples, in canonical order."""
        cols = zip(*self.rows[name])
        return tuple(zip(*(map(self.domain.__getitem__, col) for col in cols)))

    def tuple_count(self):
        return sum(len(rows) for rows in self.rows.values())


class PointedStructure(Record):
    """A structure together with a distinguished tuple of its elements."""

    structure: Structure
    distinguished: tuple

    def __post_init__(self):
        object.__setattr__(self, "distinguished", tuple(self.distinguished))
        for e in self.distinguished:
            if e not in self.structure.rank:
                raise InvalidStructureError(f"distinguished element {e!r} not in domain")


class PhpInstance(Record):
    """Factors A_1..A_n and a target B over one shared signature."""

    factors: tuple
    target: Structure

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))
        if not self.factors:
            raise InvalidStructureError("a PHP instance needs at least one factor")
        for f in self.factors:
            if f.signature != self.target.signature:
                raise SignatureMismatchError("factors and target must share a signature")


class Homomorphism(Record):
    """A total element map; validity is checked explicitly, never assumed."""

    mapping: dict

    def __call__(self, e):
        return self.mapping[e]

    def is_valid(self, source, target):
        try:
            self.validate(source, target)
        except NotAHomomorphismError:
            return False
        return True

    def validate(self, source, target):
        """Raise NotAHomomorphismError describing the first violation found.

        The check runs in rank space: each source element's image is taken
        as its target rank, and each source row must map to a target row.
        """
        images = []
        for e in source.domain:
            if e not in self.mapping:
                raise NotAHomomorphismError(f"element {e!r} is unmapped")
            v = self.mapping[e]
            if v not in target.rank:
                raise NotAHomomorphismError(f"{e!r} maps to {v!r}, not a target element")
            images.append(target.rank[v])
        for name, _ in source.signature.relations:
            trows = set(target.rows[name])
            for row in source.rows[name]:
                if tuple(map(images.__getitem__, row)) not in trows:
                    t = tuple(map(source.domain.__getitem__, row))
                    image = tuple(self.mapping[c] for c in t)
                    raise NotAHomomorphismError(
                        f"tuple {t!r} of {name!r} maps to {image!r}, missing in target"
                    )


def digraph(domain, edges):
    """Convenience constructor for a structure with a single binary relation E."""
    return Structure(Signature((("E", 2),)), tuple(domain), {"E": tuple(edges)})


def size_guard():
    """The product size guard; HOMFORGE_GUARD, when set, must be a positive integer."""
    raw = os.environ.get("HOMFORGE_GUARD")
    if raw is None:
        return DEFAULT_PRODUCT_GUARD
    digits = raw.strip()
    # int() alone would also take "+5", "1_000" and non-ASCII digits, and it
    # refuses more digits than its conversion limit of 4300
    ok = digits.isascii() and digits.isdigit() and len(digits) < 4300
    guard = int(digits) if ok else 0
    if guard < 1:
        raise UsageError(f"HOMFORGE_GUARD must be a positive integer, got {raw!r}")
    return guard


def check_guard(count, what):
    """Raise GuardExceededError when count exceeds size_guard(); what describes the count.

    The one place that compares a size with the guard: every step that
    multiplies sizes calls it before it builds anything.
    """
    guard = size_guard()
    if count > guard:
        raise GuardExceededError(f"{what} (guard {guard})", count)


def _require_shared_signature(structures):
    sig = structures[0].signature
    for s in structures[1:]:
        if s.signature != sig:
            raise SignatureMismatchError("structures do not share a signature")
    return sig


def product_domain(factors):
    """Iterator over the n-tuples of factor elements, in canonical order.

    The size check comes first: more than size_guard() elements raise
    GuardExceededError before any tuple is built.
    """
    size = math.prod(len(f.domain) for f in factors)
    check_guard(size, f"product domain would have {size} elements")
    return itertools.product(*(f.domain for f in factors))


def product(factors):
    """Direct product: domain is the cartesian product, tuples hold componentwise.

    Elements are n-tuples of factor elements in factor order.  A hard size
    guard, on the domain and on each relation's tuples, rejects blowups
    before anything is enumerated instead of truncating.

    The product is built in rank space.  The n-tuples of the sorted factor
    domains, last factor fastest, are already in canonical order, so the rank
    of an element is the mixed-radix number of its factor ranks.  Position p
    of the row of a combination (t_1, ..., t_n) of factor rows is that
    number over t_1[p], ..., t_n[p].  Distinct combinations give distinct
    rows, so a relation needs only a sort of its rank tuples.
    """
    factors = list(factors)
    if not factors:
        raise InvalidStructureError("product of zero factors is undefined")
    sig = _require_shared_signature(factors)
    elements = product_domain(factors)
    for name in sig.names():
        combos = math.prod(len(f.rows[name]) for f in factors)
        check_guard(combos, f"product relation {name!r} would have {combos} tuples")
    domain = tuple(elements)
    rows = {}
    for name, arity in sig.relations:
        # per position, the ranks over every combination of the factors so
        # far, in one shared combination order, extended by Horner's rule
        cols = [[0]] * arity
        for f in factors:
            size = len(f.domain)
            fcols = tuple(zip(*f.rows[name])) or ((),) * arity
            cols = [[r * size + c for r in col for c in fcol] for col, fcol in zip(cols, fcols)]
        rows[name] = tuple(sorted(zip(*cols)))
    return Structure._canonical(sig, domain, rows)


# --- JSON file format -------------------------------------------------------
#
# {"domain": ["a", "b"], "relations": {"E": {"arity": 2, "tuples": [["a","b"]]}}}
#
# Serialization keeps the structure's canonical order: relation names, the
# domain and the tuples.


def structure_to_dict(s):
    labels = [element_label(e) for e in s.domain]
    return {
        "domain": labels,
        "relations": {
            name: {
                "arity": arity,
                "tuples": [[labels[r] for r in row] for row in s.rows[name]],
            }
            for name, arity in s.signature.relations
        },
    }


def _block(items, indent, brackets="[]"):
    """JSON text of an array (or object) of encoded items, as indent=2 lays it out at indent."""
    if not items:
        return brackets
    pad = "\n" + " " * (indent + 2)
    return brackets[0] + pad + ("," + pad).join(items) + "\n" + " " * indent + brackets[1]


def _rows(rows, indent):
    """JSON text of an array of arrays of encoded labels, as indent=2 lays it out at indent."""
    return _block([_block(row, indent + 2) for row in rows], indent)


def serialize(s):
    """Canonical JSON text for a structure (stable byte-for-byte).

    The text is json.dumps(structure_to_dict(s), sort_keys=True, indent=2)
    plus a newline, byte for byte.
    """
    labels = [_quote(element_label(e)) for e in s.domain]
    relations = []
    for name, arity in s.signature.relations:
        tuples = _rows([[labels[r] for r in row] for row in s.rows[name]], 6)
        relation = _block([f'"arity": {arity}', f'"tuples": {tuples}'], 4, "{}")
        relations.append(f"{_quote(name)}: {relation}")
    fields = ['"domain": ' + _block(labels, 2), '"relations": ' + _block(relations, 2, "{}")]
    return _block(fields, 0, "{}") + "\n"


def string_list(value, what):
    """value as a tuple, provided it is a JSON array of strings."""
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise InvalidStructureError(f"{what} must be a list of strings")
    return tuple(value)


def string_rows(value, what):
    """value as a list of string tuples, provided it is a JSON array of such arrays."""
    if not isinstance(value, list):
        raise InvalidStructureError(f"{what} must be a list of lists of strings")
    return [string_list(row, f"each entry of {what}") for row in value]


def structure_from_dict(data):
    if not isinstance(data, dict) or "domain" not in data or "relations" not in data:
        raise InvalidStructureError("structure file needs 'domain' and 'relations'")
    domain = string_list(data["domain"], "'domain'")
    relations = data["relations"]
    if not isinstance(relations, dict):
        raise InvalidStructureError("'relations' must be an object")
    sig = []
    interp = {}
    for name in sorted(relations):
        spec = relations[name]
        if not isinstance(spec, dict) or "arity" not in spec or "tuples" not in spec:
            raise InvalidStructureError(f"relation {name!r} needs 'arity' and 'tuples'")
        arity = spec["arity"]
        if not isinstance(arity, int) or isinstance(arity, bool):
            raise InvalidStructureError(f"relation {name!r} has bad arity {arity!r}")
        tuples = string_rows(spec["tuples"], f"the tuples of {name!r}")
        seen = set()
        for t in tuples:
            if t in seen:
                raise InvalidStructureError(f"duplicate tuple {list(t)!r} in {name!r}")
            seen.add(t)
        sig.append((name, arity))
        interp[name] = tuple(tuples)
    return Structure(Signature(tuple(sig)), domain, interp)


def parse(text):
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise InvalidStructureError(f"not valid JSON: {exc}") from exc
    return structure_from_dict(data)


def load_json(path):
    """The JSON value stored in a file.

    Bytes that are not UTF-8, text that is not JSON and nesting too deep to
    decode raise InvalidStructureError rather than crash.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            raise InvalidStructureError(f"not valid JSON: {exc}") from exc


def load_structure(path):
    return structure_from_dict(load_json(path))


def save_structure(s, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize(s))


def save_rows(rows, path):
    """Write tuples of elements as the relation file: an indented JSON array of label arrays.

    The text is json.dumps(rows as lists of labels, indent=2) plus a newline,
    byte for byte.
    """
    text = _rows([[_quote(element_label(c)) for c in t] for t in rows], 0)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
