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

product is the one way around that work.  Its domain, a ProductDomain, is
in element_key order without duplicates, and its rows, a _ProductRows,
list each relation's distinct rank tuples in ascending order, so product
sets a Structure's fields itself and sorts, ranks and checks nothing.  Every
other builder, and every file read, goes through the checking constructor.

A product is not materialized.  Its domain is a ProductDomain, which reads
everything off the factors by mixed-radix arithmetic: len(domain), rank[e],
domain[r], tuple_count(), each relation's columns (Structure.columns: the
ranks at each position, in the factors' combination order) and the element
labels.  The element tuples and the sorted rows are built only when a
caller reads them (domain iteration, rows, relation, serialization); the
solver and the certificate check read only counts, ranks and columns.

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

Homomorphism.validate is the one certificate check, and no subclass
overrides it.  Each decider calls it on the structure its own search ran
on, so no check builds a product again.  A map the search found keeps the
search's value list (Homomorphism._of_ranks), which validate reads as it
is, checking each source tuple from the source's columns against the
target's rows; its mapping is a view of that list, not a dict.

Every step that multiplies sizes calls check_guard before it builds
anything, and check_guard reads the guard itself from size_guard, the one
reader of HOMFORGE_GUARD; no function takes the guard as an argument.

Files are written as json.dumps(..., sort_keys=True, indent=2) writes them,
byte for byte, but the text is joined here from the C string encoder that
json.dumps itself uses (json's indenting encoder is pure Python), and each
domain element is labelled once.  serialize also lays out the compact form,
which the CLI prints for a structure.
"""

import itertools
import json
import math
import os
from collections.abc import Mapping

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
    return "[" + ",".join(map(_part, e)) + "]"


def _part(c):
    """The text element c shows inside the label of a tuple that holds it."""
    return _quote(c) if isinstance(c, str) else element_label(c)


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
    """(relation name, arity) pairs, sorted by name; declaration order is not kept.

    The name -> arity map is built once and kept beside the field, outside
    eq, hash and repr.
    """

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
        object.__setattr__(self, "_arity", dict(rels))

    def names(self):
        return [n for n, _ in self.relations]

    def arity(self, name):
        return self._arity[name]


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

    def relation(self, name):
        """The tuples of a relation as element tuples, in canonical order."""
        cols = zip(*self.rows[name])
        domain = tuple(self.domain)
        return tuple(zip(*(map(domain.__getitem__, col) for col in cols)))

    def columns(self, name):
        """The ranks at each position of a relation's tuples, all listed in one tuple order.

        That order is canonical, except in a product, whose columns are
        computed from the factors' columns in their combination order, so
        its rows need not be built or sorted.  A relation with no tuples has
        no columns, whatever its arity.
        """
        if isinstance(self.domain, ProductDomain):
            return self.domain.columns(name, self.signature.arity(name))
        return list(zip(*self.rows[name]))

    def tuple_count(self, name=None):
        """The number of tuples of relation name, or of all relations when name is None."""
        if name is None:
            return sum(map(self.tuple_count, self.signature.names()))
        if isinstance(self.domain, ProductDomain):
            return self.domain.counts[name]
        return len(self.rows[name])

    def labels(self):
        """The element_label of each domain element, in domain order."""
        if isinstance(self.domain, ProductDomain):
            return self.domain.labels()
        return [element_label(e) for e in self.domain]


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
    """A total element map; validity is checked explicitly, never assumed.

    A map the search found has a _RankMap as its mapping: the search's list
    of the target rank of each source element, read as a mapping without
    building one.
    """

    mapping: dict

    @classmethod
    def _of_ranks(cls, source, target, images):
        """The map sending the source element of rank r to the target element of rank images[r]."""
        return cls(_RankMap(source, target, images))

    def __call__(self, e):
        return self.mapping[e]

    def label_batches(self):
        """Yield a search's map on a product as label lists (keys, values), keys ascending.

        No _part text is a proper prefix of another, so product labels sort
        as the tuples of their factors' texts: each combination of the first
        half of the factors is one batch, read off each factor sorted once.
        """

        def combinations(factors):
            # sorted (texts, rank): each element's _part text + ",", and its rank
            out = [("", 0)]
            for f in factors:
                pairs = sorted(zip(map(_part, f.domain), itertools.count()))
                out = [(t + u + ",", r * len(pairs) + q) for t, r in out for u, q in pairs]
            return out

        m = self.mapping
        targets, images, factors = m.target.labels(), m.images, m.source.domain.factors
        inner = combinations(factors[len(factors) // 2 :])
        suffixes = [t[:-1] + "]" for t, _ in inner]
        for t, r in combinations(factors[: len(factors) // 2]):
            prefix, base = "[" + t, r * len(inner)
            yield [prefix + s for s in suffixes], [targets[images[base + o]] for _, o in inner]

    def validate(self, source, target):
        """Raise NotAHomomorphismError describing the first violation found.

        The check runs in rank space: each source element's image is taken
        as its target rank (the search's own list, for a map it found on
        this source and target), and each source tuple, read off the
        source's columns, must map to a target row.  A violation is
        reported for the least source row that has one.
        """
        m = self.mapping
        if isinstance(m, _RankMap) and m.source is source and m.target is target:
            images = m.images
            in_range = not images or 0 <= min(images) <= max(images) < len(target.domain)
            if len(images) != len(source.domain) or not in_range:
                raise NotAHomomorphismError("the map is not a total map into the target")
        else:
            images = []
            for e in source.domain:
                if e not in self.mapping:
                    raise NotAHomomorphismError(f"element {e!r} is unmapped")
                v = self.mapping[e]
                if v not in target.rank:
                    raise NotAHomomorphismError(f"{e!r} maps to {v!r}, not a target element")
                images.append(target.rank[v])
        image = images.__getitem__
        for name, _ in source.signature.relations:
            trows = set(target.rows[name])
            cols = source.columns(name)
            if all(map(trows.__contains__, zip(*[map(image, col) for col in cols]))):
                continue
            row = min(r for r in zip(*cols) if tuple(map(image, r)) not in trows)
            t = tuple(map(source.domain.__getitem__, row))
            mapped = tuple(target.domain[image(c)] for c in row)
            raise NotAHomomorphismError(
                f"tuple {t!r} of {name!r} maps to {mapped!r}, missing in target"
            )


class _RankMap(Mapping):
    """Source element -> target element, as the search's list images of target ranks by source rank."""

    def __init__(self, source, target, images):
        self.source, self.target, self.images = source, target, images

    def __getitem__(self, e):
        return self.target.domain[self.images[self.source.rank[e]]]

    def __iter__(self):
        return iter(self.source.domain)

    def __len__(self):
        return len(self.images)

    def __repr__(self):
        return repr(dict(self))


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


class ProductDomain:
    """The domain of a direct product, in canonical order, with no element stored.

    The n-tuples of the sorted factor domains, last factor fastest, are
    already in canonical order, so the element of rank r is read off the
    mixed-radix digits of r, and rank maps an element back to that number
    by Horner's rule over its factor ranks.  Iterating yields the tuples one
    at a time.  The product's relations are computed from the factors too:
    their tuple counts (counts), their columns and the element labels.
    """

    def __init__(self, factors):
        self.factors = tuple(factors)
        self.sizes = tuple(len(f.domain) for f in self.factors)
        self.size = math.prod(self.sizes)
        self.rank = _ProductRank(self)
        # relation name -> tuple count: one tuple per combination of factor tuples
        self.counts = {
            name: math.prod(f.tuple_count(name) for f in self.factors)
            for name in self.factors[0].signature.names()
        }

    def __len__(self):
        return self.size

    def __iter__(self):
        return itertools.product(*(f.domain for f in self.factors))

    def __getitem__(self, i):
        r = range(self.size)[i]
        parts = []
        for f, size in zip(reversed(self.factors), reversed(self.sizes)):
            r, c = divmod(r, size)
            parts.append(f.domain[c])
        return tuple(reversed(parts))

    def __contains__(self, e):
        return e in self.rank

    def __eq__(self, other):
        if not isinstance(other, (tuple, ProductDomain)):
            return NotImplemented
        return len(self) == len(other) and tuple(self) == tuple(other)

    def __repr__(self):
        return repr(tuple(self))

    def columns(self, name, arity):
        """Per position p, the rank at p of the tuple of each combination of factor tuples.

        That rank is the mixed-radix number over the factor tuples' ranks at
        p, extended one factor at a time by Horner's rule; every position is
        listed in one shared combination order.  Distinct combinations give
        distinct tuples.  A relation with no tuples has no columns.
        """
        if not self.counts[name]:
            return []
        cols = [[0]] * arity
        for f, size in zip(self.factors, self.sizes):
            fcols = f.columns(name)
            cols = [[r * size + c for r in col for c in fcol] for col, fcol in zip(cols, fcols)]
        return cols

    def labels(self):
        """The element_label of each element, joined from the factors' element labels."""
        parts = [list(map(_part, f.domain)) for f in self.factors]
        return ["[" + label + "]" for label in map(",".join, itertools.product(*parts))]


class _ProductRows(Mapping):
    """A product's rows: relation name -> its rank tuples, sorted from the columns on first read."""

    def __init__(self, signature, domain):
        self.signature, self.domain, self.built = signature, domain, {}

    def __getitem__(self, name):
        rows = self.built.get(name)
        if rows is None:
            arity = self.signature.arity(name)
            rows = self.built[name] = tuple(sorted(zip(*self.domain.columns(name, arity))))
        return rows

    def __iter__(self):
        return iter(self.signature.names())

    def __len__(self):
        return len(self.signature.relations)

    def __repr__(self):
        return repr(dict(self))


class _ProductRank:
    """A ProductDomain's rank: element -> index, by Horner's rule over the factor ranks."""

    def __init__(self, domain):
        self.domain = domain

    def __getitem__(self, e):
        domain = self.domain
        if not isinstance(e, tuple) or len(e) != len(domain.factors):
            raise KeyError(e)
        r = 0
        for f, size, c in zip(domain.factors, domain.sizes, e):
            r = r * size + f.rank[c]
        return r

    def __contains__(self, e):
        try:
            self[e]
        except (KeyError, TypeError):
            return False
        return True

    def __eq__(self, other):
        if isinstance(other, _ProductRank):
            other = dict(zip(other.domain, range(len(other.domain))))
        return dict(zip(self.domain, range(len(self.domain)))) == other


def product(factors):
    """Direct product: domain is the cartesian product, tuples hold componentwise.

    Elements are n-tuples of factor elements in factor order.  A hard size
    guard rejects blowups before anything is enumerated instead of
    truncating: one check, on the element count plus the tuple count of all
    relations together, the product's whole size.

    Nothing is enumerated here at all: the domain is a ProductDomain, which
    computes the element count, the ranks, each relation's columns and the
    element labels from the factors.  A relation's sorted rows, and the
    element tuples, are built only when a caller reads them.
    """
    factors = list(factors)
    if not factors:
        raise InvalidStructureError("product of zero factors is undefined")
    sig = _require_shared_signature(factors)
    domain = ProductDomain(factors)
    elements = len(domain)
    tuples = sum(domain.counts.values())
    check_guard(elements + tuples, f"product would have {elements} elements and {tuples} tuples")
    # canonical by construction: rank is the domain's, and the rows a
    # _ProductRows, which sorts a relation's rows when they are first read
    s = object.__new__(Structure)
    vars(s).update(signature=sig, domain=domain, rows=_ProductRows(sig, domain), rank=domain.rank)
    return s


# --- JSON file format -------------------------------------------------------
#
# {"domain": ["a", "b"], "relations": {"E": {"arity": 2, "tuples": [["a","b"]]}}}
#
# Serialization keeps the structure's canonical order: relation names, the
# domain and the tuples.


def _block(items, pad, brackets="[]"):
    """JSON text of an array (or object) of encoded items whose lines start with pad.

    pad is "\n" plus indent=2's spaces at the array's depth, or "" for the
    compact form.
    """
    if not items:
        return brackets
    inner = pad and pad + "  "
    return brackets[0] + inner + ("," + inner).join(items) + pad + brackets[1]


def _rows(rows, pad):
    """JSON text of an array of arrays of encoded labels whose lines start with pad."""
    return _block([_block(row, pad and pad + "  ") for row in rows], pad)


def serialize(s, pretty=True):
    """Canonical JSON text for a structure (stable byte-for-byte), ending in a newline.

    The text is json.dumps(d, sort_keys=True, indent=2) plus a newline, byte
    for byte, where d maps "domain" to the element labels and "relations" to
    each relation's arity and tuples of labels; with pretty false it is
    json.dumps's compact form of d, separators "," and ":", plus a newline.
    """
    pad, colon = ("\n", ": ") if pretty else ("", ":")
    at = [pad and pad + " " * k for k in (2, 4, 6)]
    labels = list(map(_quote, s.labels()))
    relations = []
    for name, arity in s.signature.relations:
        tuples = _rows([[labels[r] for r in row] for row in s.rows[name]], at[2])
        relation = _block([f'"arity"{colon}{arity}', f'"tuples"{colon}{tuples}'], at[1], "{}")
        relations.append(_quote(name) + colon + relation)
    domain, relations = _block(labels, at[0]), _block(relations, at[0], "{}")
    return _block([f'"domain"{colon}{domain}', f'"relations"{colon}{relations}'], pad, "{}") + "\n"


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
    text = _rows([[_quote(element_label(c)) for c in t] for t in rows], "\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
