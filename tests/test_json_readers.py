"""Property tests of the JSON readers: any one mutation of a valid topology,
preorder, atom-structure or tuple-set document either parses or is refused
with a ValueError or a WorkbenchError, never a TypeError or KeyError; and a
node key, colour code or shade code is read only in the one spelling its
writer writes."""

import copy
import json
import re

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


def _rewrite(cls):
    """Read a document with cls.from_json and write it back."""
    return lambda doc: cls.from_json(doc).to_json()


def _rewrite_tuple_set(doc):
    space, bits = S.SetAlgebraSpace.from_json(doc)
    return space.to_json(bits)


def _documents():
    sierpinski = T.make_topology(3, [[], [0], [0, 1], [0, 1, 2]])
    docs = [(_rewrite(T.FiniteTopology), t.to_json())
            for t in (sierpinski, T.make_topology(2, preset="discrete"))]
    docs += [(_rewrite(T.Preorder), p.to_json()) for p in list(T.enumerate_preorders(3))[::7]]
    for space in (S.SetAlgebraSpace(2, 2, T.make_topology(2, preset="indiscrete")),
                  S.SetAlgebraSpace(2, 3, sierpinski)):
        docs.append((_rewrite(B.AtomStructure), B.atom_structure_of(space).to_json()))
    for space, codes in ((S.SetAlgebraSpace(2, 2, T.make_topology(2, preset="indiscrete")), [2, 3]),
                         (S.SetAlgebraSpace(2, 3, sierpinski), [0, 4, 8]),
                         (S.SetAlgebraSpace(3, 2), [])):
        docs.append((_rewrite_tuple_set, space.to_json(space.from_codes(codes))))
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
    for rewrite, doc in DOCUMENTS:
        assert rewrite(doc) == doc


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_mutated_documents_parse_or_raise_value_errors(data):
    rewrite, doc = data.draw(st.sampled_from(DOCUMENTS))
    try:
        rewrite(_mutate(data, doc))
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


# Documents whose every token is canonical: multi-digit nodes, every kind of
# colour code, and shades with no, some and all members.
SIG = R.signature(3)
GRAPH = {"nodes": [0, 3, 10, 12],
         "edges": {"(0,3)": "r01", "(0,10)": "g0^2", "(0,12)": "w1", "(3,10)": "g1",
                   "(3,12)": "r21", "(10,12)": "w0"},
         "yellows": {"(0,3)": "yS:{0,3}", "(0,12)": "yS:{}", "(10,12)": "yS:{0,1,2,3,4}"}}
NETWORK = {"nodes": [0, 10], "labels": {"(0,0)": 0, "(0,10)": 1, "(10,0)": 2, "(10,10)": 3}}
FULLSET = G.GenericBackend(B.atom_structure_of(
    S.SetAlgebraSpace(2, 2, T.make_topology(2, preset="discrete"))))
# name: (canonical document, reader, writer)
CANONICAL = {"graph": (GRAPH, lambda doc: R.ColouredGraph.from_json(doc, SIG),
                       lambda g: g.to_json()),
             "network": (NETWORK, FULLSET.net_from_json, FULLSET.net_to_json)}
OUTSIDE = {"node key": ["(0,99)", "(0,3,10)", "()", "(0,3"],
           "colour code": ["g7", "w5", "r33", "g0^9", "g0", "r3", "y"],
           "shade code": ["yS:{5}", "yS:{0,9}", "yS:{-1}", "yS:{0,}", "yS:0"]}
NON_STRINGS = {"node key": [3, None, (0, 3)], "colour code": [3, ["w0"], None],
               "shade code": [3, ["yS:{}"], None]}


def _mutate_token(data, kind, token):
    """token with a space, a + or a 0 inserted, with a shade member repeated
    or the members reordered, or replaced by a token outside the signature
    or by a value that is not a string."""
    ways = ["space", "plus", "zero", "outside", "non-string"]
    how = data.draw(st.sampled_from(ways + ["repeat", "reorder"] * (kind == "shade code")))
    if how in ("space", "plus", "zero"):
        at = data.draw(st.integers(0, len(token)))
        return token[:at] + {"space": " ", "plus": "+", "zero": "0"}[how] + token[at:]
    if how in ("outside", "non-string"):
        return data.draw(st.sampled_from((OUTSIDE if how == "outside" else NON_STRINGS)[kind]))
    members = token[4:-1].split(",") if token != "yS:{}" else ["0"]
    if how == "repeat":
        members.insert(data.draw(st.integers(0, len(members))),
                       data.draw(st.sampled_from(members)))
    else:
        members = data.draw(st.permutations(members))
    return "yS:{" + ",".join(members) + "}"


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_mutated_tokens_are_refused_unless_they_rewrite_to_themselves(data):
    """A mutated token is refused with a ValueError, or the document is read
    to an object that writes it back."""
    kind = data.draw(st.sampled_from(["node key", "colour code", "shade code"]))
    if kind == "node key":
        name, field = data.draw(st.sampled_from(
            [("graph", "edges"), ("graph", "yellows"), ("network", "labels")]))
    else:
        name, field = "graph", "edges" if kind == "colour code" else "yellows"
    canonical, reader, writer = CANONICAL[name]
    doc = copy.deepcopy(canonical)
    key = data.draw(st.sampled_from(sorted(doc[field])))
    if kind == "node key":
        doc[field][_mutate_token(data, kind, key)] = doc[field].pop(key)
    else:
        doc[field][key] = _mutate_token(data, kind, doc[field][key])
    try:
        out = reader(doc)
    except ValueError:
        return
    assert writer(out) == doc


def test_second_spellings_and_outside_tokens_are_refused():
    """The spellings int() and the old prefix readers accepted, each read
    before as the token it resembles, are refused naming the field: the
    later of two spellings of (0,1) no longer overrides the first."""
    for doc, reader, writer in CANONICAL.values():
        assert writer(reader(doc)) == doc
    labels = {"(0,0)": 0, "(0,1)": 1, "(1,0)": 2, "(1,1)": 3}
    with pytest.raises(ValueError, match=r"^network label key '\( 0,\+01\)'"):
        FULLSET.net_from_json({"nodes": [0, 1], "labels": dict(labels, **{"( 0,+01)": 2})})
    graph = {"nodes": 3, "edges": {"(0,1)": "w0", "(0,2)": "g1", "(1,2)": "g0^1"},
             "yellows": {"(0,1)": "yS:{1,2}"}}
    assert R.ColouredGraph.from_json(graph, SIG).to_json() == graph
    for field, key, token, reason in (
            ("edges", "(0,01)", "w1", "graph edge key '(0,01)'"),
            ("edges", "(0,2)", "g0^01", "bad colour code 'g0^01' on graph edge '(0,2)'"),
            ("edges", "(0,2)", "r0+1", "bad colour code 'r0+1'"),
            ("edges", "(0,2)", "g7", "bad colour code 'g7'"),
            ("edges", "(0,2)", ["w0"], "bad colour code ['w0']"),
            ("yellows", "(0,1)", "yS:{1,1, 2}", "bad yellow code 'yS:{1,1, 2}' on graph yellow"),
            ("yellows", "(0,1)", "yS:{2,1}", "bad yellow code 'yS:{2,1}'"),
            ("yellows", "(1,0)", "yS:{1,2}", "graph yellow key '(1,0)' is not a sorted")):
        bad = copy.deepcopy(graph)
        bad[field][key] = token
        with pytest.raises(ValueError, match="^" + re.escape(reason)):
            R.ColouredGraph.from_json(bad, SIG)
    with pytest.raises(ValueError, match="graph nodes must be a non-negative integer, got -3"):
        R.ColouredGraph.from_json({"nodes": -3}, SIG)


def test_node_lists_have_one_spelling():
    """A node list is strictly increasing: a list out of order or with a
    repeat, which both readers once read as its sorted set and wrote back
    as a count or as that set, is refused naming the field."""
    for nodes in ([1, 0], [0, 0, 1], [0, 3, 3]):
        with pytest.raises(ValueError, match=re.escape(
                f"graph nodes must be strictly increasing, got {nodes}")):
            R.ColouredGraph.from_json({"nodes": nodes}, SIG)
        with pytest.raises(ValueError, match=re.escape(
                f"network nodes must be strictly increasing, got {nodes}")):
            FULLSET.net_from_json({"nodes": nodes, "labels": {}})
    for doc, reader, writer in CANONICAL.values():
        assert writer(reader(doc)) == doc


def test_contiguous_graph_nodes_are_written_as_a_count():
    """A graph's node list 0..k-1, which the reader once read and wrote back
    as the count k, is refused naming the count to write; any other node
    list is still read and written back as a list."""
    for nodes in ([], [0], [0, 1], [0, 1, 2]):
        with pytest.raises(ValueError, match=re.escape(
                f'graph nodes: a list 0..k-1 is written as the count k, here "nodes": {len(nodes)}')):
            R.ColouredGraph.from_json({"nodes": nodes, "edges": {"(0,1)": "w0"}}, SIG)
    graph = {"nodes": 2, "edges": {"(0,1)": "w0"}, "yellows": {}}
    assert R.ColouredGraph.from_json(graph, SIG).to_json() == graph
    assert R.ColouredGraph.from_json({"nodes": [1, 2], "edges": {"(1,2)": "w0"}},
                                     SIG).to_json()["nodes"] == [1, 2]


def test_structures_past_the_cube_cap_are_refused_before_any_table():
    """An atom-structure document of dim by atoms table entries beyond
    setalg.CODE_CAP, the largest cube the workbench builds, is refused
    naming "atoms" before any table is built (10^12 atoms once ended in a
    MemoryError); a document at the cap reaches the fields after it, and
    the documents above still load."""
    for dim, k in ((1, 10**12), (0, S.CODE_CAP + 1), (2, S.CODE_CAP // 2 + 1)):
        doc = {"dim": dim, "atoms": k, "T": [[]] * dim,
               "D": {f"{i},{j}": [] for i in range(dim) for j in range(dim)}}
        with pytest.raises(ValueError, match=re.escape(f'"atoms": {k} atoms in dimension {dim}')):
            B.AtomStructure.from_json(doc)
    for dim, k in ((1, S.CODE_CAP), (2, S.CODE_CAP // 2)):
        with pytest.raises(ValueError, match="D key 'x'"):
            B.AtomStructure.from_json({"dim": dim, "atoms": k, "T": [[]] * dim, "D": {"x": []}})
    for rewrite, doc in DOCUMENTS:
        assert rewrite(doc) == doc
