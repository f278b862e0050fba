"""Property test of the JSON readers: any one mutation of a valid topology,
preorder or atom-structure document either parses or is refused with a
ValueError or a WorkbenchError, never a TypeError or KeyError."""

import copy

from hypothesis import given, settings
from hypothesis import strategies as st

from topocyl import bao as B
from topocyl import setalg as S
from topocyl import topology as T
from topocyl.errors import WorkbenchError

# Integers stay small: a size is a bit width and a length, so a size of
# 10^12 is a resource question, not a shape error.
LEAVES = st.one_of(st.none(), st.booleans(), st.integers(-3, 9),
                   st.text(alphabet="0123456789,-x ", max_size=4))
VALUES = st.recursive(LEAVES, lambda kids: st.one_of(
    st.lists(kids, max_size=3), st.dictionaries(LEAVES.map(str), kids, max_size=3)),
    max_leaves=6)
KEYS = st.one_of(st.sampled_from(["x", "-1", "9", "0,5", "1,1", "", "size", "T"]),
                 st.text(alphabet="0123456789,", max_size=4))


def _documents():
    sierpinski = T.make_topology(3, [[], [0], [0, 1], [0, 1, 2]])
    docs = [(T.FiniteTopology.from_json, t.to_json())
            for t in (sierpinski, T.make_topology(2, preset="discrete"))]
    docs += [(T.Preorder.from_json, p.to_json()) for p in list(T.enumerate_preorders(3))[::7]]
    for space in (S.SetAlgebraSpace(2, 2, T.make_topology(2, preset="indiscrete")),
                  S.SetAlgebraSpace(2, 3, sierpinski)):
        docs.append((B.AtomStructure.from_json, B.atom_structure_of(space).to_json()))
    return docs


DOCUMENTS = _documents()


def _mutate(data, doc):
    """doc with one node replaced by an arbitrary JSON value, one entry
    dropped, or one object key renamed."""
    if isinstance(doc, (dict, list)) and doc and data.draw(st.booleans()):
        key = data.draw(st.sampled_from(sorted(doc) if isinstance(doc, dict) else range(len(doc))))
        out = copy.copy(doc)
        action = data.draw(st.sampled_from(["descend", "drop", "rename"]))
        if action == "drop":
            del out[key]
        elif action == "rename" and isinstance(doc, dict):
            out[data.draw(KEYS)] = out.pop(key)
        else:
            out[key] = _mutate(data, doc[key])
        return out
    return data.draw(VALUES)


def test_documents_parse_unmutated():
    for reader, doc in DOCUMENTS:
        assert reader(doc).to_json() == doc


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_mutated_documents_parse_or_raise_value_errors(data):
    reader, doc = data.draw(st.sampled_from(DOCUMENTS))
    try:
        reader(_mutate(data, doc))
    except (ValueError, WorkbenchError):
        pass
