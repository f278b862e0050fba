"""Property test of the JSON readers: any one mutation of a valid topology,
preorder or atom-structure document either parses or is refused with a
ValueError or a WorkbenchError, never a TypeError or KeyError."""

import copy
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topocyl import bao as B
from topocyl import games as G
from topocyl import rainbow as R
from topocyl import setalg as S
from topocyl import topology as T
from topocyl.errors import WorkbenchError, json_ints

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


def test_json_booleans_are_not_integers():
    """JSON true and false are not integers to any reader: a genuine play
    with one integer field turned into a boolean no longer replays, and
    neither a topology, a coloured graph nor json_ints takes them (Python
    counts a bool as the integer 0 or 1)."""
    s = B.atom_structure_of(S.SetAlgebraSpace(2, 2, T.make_topology(2, preset="discrete")))
    play = G.solve_bounded(s, 3, 1, "F")
    assert G.verify_transcript(s, play) == {"ok": True, "rounds_checked": 1}
    records = play["principal_play"]
    assert records[0]["forall"]["initial_atom"] == 0 and records[1]["forall"]["k"] == 1
    assert play["rounds"] == 1
    for path, value in ((["principal_play", 0, "forall", "initial_atom"], False),
                        (["principal_play", 1, "forall", "k"], True),
                        (["principal_play", 1, "exists", "network", "labels", "(0,0)"], False),
                        (["rounds"], True)):
        forged = json.loads(json.dumps(play))
        node = forged
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        chk = G.verify_transcript(s, forged)
        assert not chk["ok"] and repr(value) in chk["reason"], path
    with pytest.raises(ValueError, match=r"opens\[1\] must be a list of integers"):
        T.FiniteTopology.from_json({"size": 2, "opens": [[], [True], [0, 1]]})
    with pytest.raises(ValueError, match="graph nodes must be a list of integers"):
        R.ColouredGraph.from_json({"nodes": True}, R.signature(3))
    with pytest.raises(ValueError, match="x must be a list of integers"):
        json_ints([True, False], "x")
