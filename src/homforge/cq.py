"""Conjunctive queries, canonical structures/queries, and evaluation.

Evaluation goes through the homomorphism solver: the answers of a query on a
structure are exactly the images of the canonical structure's distinguished
tuple (the Chandra-Merlin correspondence).  Boolean queries are ordinary
queries with an empty free-variable tuple.
"""

from .core import (
    PointedStructure,
    Record,
    Structure,
    element_label,
    load_json,
    string_list,
)
from .errors import InvalidStructureError, UnsafeQueryError
from .homsolver import image_set


class ConjunctiveQuery(Record):
    free_vars: tuple
    bound_vars: tuple
    atoms: tuple  # of (relation name, variable tuple)

    def __post_init__(self):
        object.__setattr__(self, "free_vars", tuple(self.free_vars))
        object.__setattr__(self, "bound_vars", tuple(self.bound_vars))
        object.__setattr__(
            self, "atoms", tuple((name, tuple(vs)) for name, vs in self.atoms)
        )
        free = set(self.free_vars)
        bound = set(self.bound_vars)
        if free & bound:
            raise InvalidStructureError("free and bound variables must be disjoint")
        declared = free | bound
        used = set()
        for name, vs in self.atoms:
            for v in vs:
                if v not in declared:
                    raise InvalidStructureError(f"atom uses undeclared variable {v!r}")
                used.add(v)
        missing = free - used
        if missing:
            raise UnsafeQueryError(
                f"free variables occur in no atom: {sorted(missing)}"
            )

    def variables(self):
        return self.free_vars + self.bound_vars


def canonical_structure(q, sig):
    """One element per variable, one tuple per atom, pointed at the free tuple.

    Structure rejects an atom whose relation is not in sig or whose arity is wrong.
    """
    interp = {}
    for name, vs in q.atoms:
        interp.setdefault(name, []).append(vs)
    s = Structure(sig, tuple(set(q.variables())), interp)
    return PointedStructure(s, q.free_vars)


def canonical_query(p):
    """One variable per element, one atom per tuple, free at the distinguished tuple.

    Raises UnsafeQueryError when a distinguished element occurs in no tuple,
    since its free variable would occur in no atom.
    """
    s = p.structure
    names = {e: element_label(e) for e in s.domain}
    free = tuple(names[e] for e in p.distinguished)
    distinguished = set(p.distinguished)
    bound = tuple(names[e] for e in s.domain if e not in distinguished)
    atoms = []
    for name, _ in s.signature.relations:
        for t in s.relation(name):
            atoms.append((name, tuple(names[c] for c in t)))
    return ConjunctiveQuery(free, bound, tuple(atoms))


def evaluate(q, s):
    """The set of answer tuples of q on s; {()} or set() for Boolean q.

    More candidate answers (|s|^k for k free variables) than the size guard
    raise GuardExceededError before any search.
    """
    pointed = canonical_structure(q, s.signature)
    return image_set(pointed, s)


# --- JSON file format -------------------------------------------------------
#
# {"free": ["x"], "bound": ["y"], "atoms": [["E", ["x","y"]]]}


def query_to_dict(q):
    return {
        "free": list(q.free_vars),
        "bound": list(q.bound_vars),
        "atoms": [[name, list(vs)] for name, vs in q.atoms],
    }


def query_from_dict(data):
    if not isinstance(data, dict) or not {"free", "bound", "atoms"} <= set(data):
        raise InvalidStructureError("query file needs 'free', 'bound', and 'atoms'")
    if not isinstance(data["atoms"], list):
        raise InvalidStructureError("'atoms' must be a list")
    atoms = []
    for atom in data["atoms"]:
        if not isinstance(atom, list) or len(atom) != 2 or not isinstance(atom[0], str):
            raise InvalidStructureError(f"malformed atom {atom!r}")
        variables = string_list(atom[1], f"the variables of atom {atom[0]!r}")
        atoms.append((atom[0], variables))
    return ConjunctiveQuery(
        string_list(data["free"], "'free'"),
        string_list(data["bound"], "'bound'"),
        tuple(atoms),
    )


def load_query(path):
    return query_from_dict(load_json(path))
