"""The hand-joined JSON writers against the json.dumps texts they replace.

serialize (indented and compact), save_rows and element_label build their
text from json's C string encoder; these properties pin it to json.dumps
byte for byte, over elements and relation names that need escaping, nested
tuples, empty domains and relations, and unary to ternary relations.
"""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from homforge.core import (
    Signature,
    Structure,
    element_label,
    save_rows,
    save_structure,
    serialize,
)

DIFF = settings(derandomize=True, database=None, deadline=None, max_examples=100)

# quotes, backslashes, control characters, DEL, non-ASCII, astral and a lone
# surrogate, which ensure_ascii writes as a \u escape
TEXT = st.text(
    st.sampled_from('ab"\\/\n\t\x00\x1f\x7f\xe9☃\U0001d11e\ud800') | st.characters(),
    max_size=4,
)
ELEMENT = st.recursive(TEXT, lambda inner: st.lists(inner, max_size=3).map(tuple), max_leaves=6)


@st.composite
def structures(draw):
    domain = draw(st.lists(ELEMENT, unique=True, max_size=6))
    relation = st.tuples(TEXT, st.integers(1, 3))
    relations = draw(st.lists(relation, unique_by=lambda r: r[0], max_size=3))
    interp = {}
    if domain:
        for name, arity in relations:
            row = st.tuples(*[st.sampled_from(domain)] * arity)
            interp[name] = draw(st.lists(row, max_size=5))
    return Structure(Signature(tuple(relations)), tuple(domain), interp)


@pytest.fixture(scope="module")
def out(tmp_path_factory):
    return tmp_path_factory.mktemp("written") / "out.json"


def _written(save, value, path):
    save(value, path)
    return path.read_bytes()


@DIFF
@given(ELEMENT)
@example(())
@example(("a", ("b", ("☃", "")), '"\\'))
def test_element_label_is_compact_json(e):
    expected = e if isinstance(e, str) else json.dumps(e, separators=(",", ":"))
    assert element_label(e) == expected


@DIFF
@given(structures())
@example(Structure(Signature(()), (), {}))
@example(Structure(Signature((("E", 2),)), (), {}))
@example(
    Structure(
        Signature((("P", 1), ("T", 3), ('n"\\é', 2), ("empty", 1))),
        ("a", ("a", "b"), "☃"),
        {"P": (("a",),), "T": (("a", ("a", "b"), "☃"),), 'n"\\é': (("☃", "a"),)},
    )
)
def test_serialize_is_the_json_dumps_text(out, s):
    # the structure as a dict of labels, built from the element tuples label by label
    reference = {
        "domain": [element_label(e) for e in s.domain],
        "relations": {
            name: {
                "arity": dict(s.signature.relations)[name],
                "tuples": [[element_label(c) for c in t] for t in s.relation(name)],
            }
            for name in sorted(s.signature.names())
        },
    }
    compact = json.dumps(reference, sort_keys=True, separators=(",", ":")) + "\n"
    assert serialize(s, pretty=False) == compact
    expected = json.dumps(reference, sort_keys=True, indent=2) + "\n"
    assert serialize(s) == expected
    assert _written(save_structure, s, out) == expected.encode()


@DIFF
@given(st.lists(st.lists(ELEMENT, max_size=3).map(tuple), max_size=4))
@example([])
@example([()])
def test_save_rows_is_the_json_dumps_text(out, rows):
    labels = [[element_label(c) for c in t] for t in rows]
    expected = json.dumps(labels, sort_keys=True, indent=2) + "\n"
    assert _written(save_rows, rows, out) == expected.encode()
