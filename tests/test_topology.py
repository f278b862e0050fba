import pytest

from topocyl import topology as T
from topocyl.errors import (
    MissingEmptyOrFull,
    NotClosedUnderIntersection,
    NotClosedUnderUnion,
    NotPreorder,
    OutOfRangePoint,
    SizeTooLarge,
)


def brute_interior(t, a):
    """Independent oracle: scan every open contained in a."""
    out = 0
    for o in t.opens:
        if o & ~a == 0:
            out |= o
    return out


def test_presets():
    d = T.make_topology(2, preset="discrete")
    assert len(d.opens) == 4
    i = T.make_topology(2, preset="indiscrete")
    assert [sorted(T.set_of(o)) for o in i.opens] == [[], [0, 1]]


def test_documents_hold_no_fewer_entries_than_their_size():
    """A topology lists its full base among its opens and a preorder lists
    (x, x) for every point, so a larger "size" is refused before anything
    of that size is built."""
    with pytest.raises(MissingEmptyOrFull, match="full base of size 1000000000"):
        T.FiniteTopology.from_json({"size": 10**9, "opens": [[], [0]]})
    with pytest.raises(ValueError, match='"size" 1000000000 exceeds the 1 pairs of "leq"'):
        T.Preorder.from_json({"size": 10**9, "leq": [[0, 0]]})
    assert T.FiniteTopology.from_json({"size": 0, "opens": [[]]}).size == 0
    assert T.Preorder.from_json({"size": 0, "leq": []}).size == 0


def test_make_topology_validates():
    t = T.make_topology(3, [[], [0], [0, 1], [0, 1, 2]])
    assert len(t.opens) == 4
    with pytest.raises(MissingEmptyOrFull):
        T.make_topology(2, [[], [0]])
    with pytest.raises((NotClosedUnderUnion, NotClosedUnderIntersection)):
        T.make_topology(3, [[], [0], [1], [0, 1, 2]])
    with pytest.raises(NotClosedUnderIntersection):
        T.make_topology(3, [[], [0, 1], [1, 2], [0, 1, 2]])
    with pytest.raises(OutOfRangePoint):
        T.make_topology(2, [[], [0, 5], [0, 1]])


def test_interior_examples():
    assert T.interior(T.make_topology(2, preset="discrete"), [0]) == {0}
    assert T.interior(T.make_topology(2, preset="indiscrete"), [0]) == frozenset()
    t = T.make_topology(3, [[], [0], [0, 1], [0, 1, 2]])
    assert T.interior(t, [1, 2]) == frozenset()
    for a in range(8):
        assert t.interior_bits(a) == brute_interior(t, a)


def test_closure_examples_and_duality():
    assert T.closure(T.make_topology(2, preset="discrete"), [0]) == {0}
    assert T.closure(T.make_topology(2, preset="indiscrete"), [0]) == {0, 1}
    t = T.make_topology(3, [[], [0], [0, 1], [0, 1, 2]])
    assert T.closure(t, [1]) == {1, 2}
    for top in T.enumerate_topologies(3):
        full = (1 << 3) - 1
        for a in range(8):
            assert top.closure_bits(a) == full & ~top.interior_bits(full & ~a)


def test_interior_laws():
    for top in T.enumerate_topologies(3):
        for a in range(8):
            ia = top.interior_bits(a)
            assert ia & ~a == 0
            assert top.interior_bits(ia) == ia
            for b in range(8):
                assert top.interior_bits(a & b) == ia & top.interior_bits(b)


def test_almost_discrete():
    assert T.is_almost_discrete(T.make_topology(3, preset="discrete"))
    assert T.is_almost_discrete(T.make_topology(3, preset="indiscrete"))
    # fixture: verdict of the exhaustive scan on the 3-point example
    assert T.is_almost_discrete(T.make_topology(3, [[], [0], [0, 1], [0, 1, 2]]))
    # cl({1}) = {0,1} is not open here, so the identity fails on the open {1}
    t = T.make_topology(3, [[], [1], [2], [1, 2], [0, 1, 2]])
    assert not T.is_almost_discrete(t)


def test_preorder_validation():
    with pytest.raises(NotPreorder):
        T.Preorder(2, [(0, 0)])
    with pytest.raises(NotPreorder):
        T.Preorder(3, [(0, 0), (1, 1), (2, 2), (0, 1), (1, 2)])


def test_alexandrov_examples():
    ident = T.Preorder(2, [(0, 0), (1, 1)])
    assert T.alexandrov(ident) == T.make_topology(2, preset="discrete")
    total = T.Preorder(2, [(0, 0), (1, 1), (0, 1), (1, 0)])
    assert T.alexandrov(total) == T.make_topology(2, preset="indiscrete")
    chain = T.Preorder(2, [(0, 0), (1, 1), (0, 1)])
    assert T.alexandrov(chain) == T.make_topology(2, [[], [1], [0, 1]])


def test_specialization_examples():
    assert T.specialization_preorder(T.make_topology(2, preset="discrete")) == \
        T.Preorder(2, [(0, 0), (1, 1)])
    assert T.specialization_preorder(T.make_topology(2, preset="indiscrete")) == \
        T.Preorder(2, [(0, 0), (0, 1), (1, 0), (1, 1)])
    assert T.specialization_preorder(T.make_topology(2, [[], [1], [0, 1]])) == \
        T.Preorder(2, [(0, 0), (0, 1), (1, 1)])


def test_round_trips_exhaustive():
    for size in (0, 1, 2, 3):
        for p in T.enumerate_preorders(size):
            assert T.specialization_preorder(T.alexandrov(p)) == p
        for t in T.enumerate_topologies(size):
            assert T.alexandrov(T.specialization_preorder(t)) == t


def test_coproduct():
    d1 = T.make_topology(1, preset="discrete")
    assert T.coproduct([d1, d1]) == T.make_topology(2, preset="discrete")
    i2 = T.make_topology(2, preset="indiscrete")
    co = T.coproduct([i2, i2])
    assert len(co.opens) == 4
    for o in co.opens:
        assert (o & 3) in i2.opens and (o >> 2) in i2.opens
    with pytest.raises(Exception):
        T.coproduct([])


def test_coproduct_injections_continuous():
    parts = [T.make_topology(2, preset="indiscrete"),
             T.make_topology(2, preset="discrete")]
    co = T.coproduct(parts)
    offsets = [0, 2]
    for t, off in zip(parts, offsets):
        for o in co.opens:
            assert t.is_open_bits((o >> off) & ((1 << t.size) - 1))


def test_subspace():
    assert T.subspace(T.make_topology(3, preset="discrete"), [0, 1]) == \
        T.make_topology(2, preset="discrete")
    assert T.subspace(T.make_topology(3, preset="indiscrete"), [0, 1]) == \
        T.make_topology(2, preset="indiscrete")
    t = T.make_topology(3, [[], [0], [0, 1], [0, 1, 2]])
    assert T.subspace(t, [1, 2]) == T.make_topology(2, [[], [0], [0, 1]])


def test_enumeration_counts():
    assert sum(1 for _ in T.enumerate_topologies(0)) == 1
    assert sum(1 for _ in T.enumerate_topologies(1)) == 1
    assert sum(1 for _ in T.enumerate_topologies(2)) == 4
    assert sum(1 for _ in T.enumerate_topologies(3)) == 29
    with pytest.raises(SizeTooLarge):
        list(T.enumerate_topologies(5))


def test_enumeration_refuses_negative_sizes():
    for enumerate_ in (T.enumerate_topologies, T.enumerate_preorders):
        with pytest.raises(ValueError, match="size -1 is negative"):
            list(enumerate_(-1))


def test_enumeration_distinct():
    tops = list(T.enumerate_topologies(3))
    assert len({t.opens for t in tops}) == len(tops)


def test_json_round_trip():
    t = T.make_topology(3, [[], [0], [0, 1], [0, 1, 2]])
    doc = t.to_json()
    assert doc == {"size": 3, "opens": [[], [0], [0, 1], [0, 1, 2]]}
    assert T.FiniteTopology.from_json(doc) == t
    p = T.Preorder(2, [(0, 0), (1, 1), (0, 1)])
    assert T.Preorder.from_json(p.to_json()) == p
