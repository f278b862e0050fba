import random

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


# labelled topologies on n points, equally the labelled preorders: OEIS A000798
A000798 = (1, 1, 4, 29, 355, 6942)


def test_enumeration_counts():
    """Both enumerations give the labelled counts of OEIS A000798 up to the
    one frame-size cap, with no repeats, and refuse the next size."""
    assert T.FRAME_SIZE_CAP == len(A000798) - 1
    for size, count in enumerate(A000798):
        preorders = [p.up for p in T.enumerate_preorders(size)]
        assert len(preorders) == len(set(preorders)) == count
        topologies = [t.opens for t in T.enumerate_topologies(size)]
        assert len(topologies) == len(set(topologies)) == count
    for enumerate_ in (T.enumerate_topologies, T.enumerate_preorders):
        with pytest.raises(SizeTooLarge, match="capped at size 5"):
            list(enumerate_(T.FRAME_SIZE_CAP + 1))


def test_enumeration_refuses_negative_sizes():
    for enumerate_ in (T.enumerate_topologies, T.enumerate_preorders):
        with pytest.raises(ValueError, match="size -1 is negative"):
            list(enumerate_(-1))


def test_enumeration_distinct():
    tops = list(T.enumerate_topologies(3))
    assert len({t.opens for t in tops}) == len(tops)


def brute_topologies(size):
    """Independent oracle: every family of the sets other than {} and the
    base that, with those two, is closed under union and intersection, in
    the order of a counter over the families (set m is bit m - 1)."""
    full = (1 << size) - 1
    out = []
    for picks in range(1 << max(full - 1, 0)):
        fam = {0, full} | {m for m in range(1, full) if picks >> (m - 1) & 1}
        if all(a | b in fam and a & b in fam for a in fam for b in fam):
            out.append(tuple(sorted(fam)))
    return out


def test_enumerate_topologies_equals_the_family_search():
    for size in range(5):
        assert [t.opens for t in T.enumerate_topologies(size)] == brute_topologies(size)


def test_coproduct_opens_are_the_sets_with_open_traces():
    """Brute force over all subsets of the disjoint union: a set is open
    iff its trace on every summand is open there."""
    rng = random.Random(30)
    tops = {size: list(T.enumerate_topologies(size)) for size in range(4)}
    for _ in range(40):
        parts, offsets, total = [], [], 0
        for _ in range(rng.randint(1, 4)):
            t = rng.choice(tops[rng.randint(0, min(3, 6 - total))])
            parts.append(t)
            offsets.append(total)
            total += t.size
        expect = tuple(m for m in range(1 << total)
                       if all((m >> off) & ((1 << t.size) - 1) in t.opens
                              for t, off in zip(parts, offsets)))
        assert T.coproduct(parts).opens == expect


def test_specialization_preorder_is_the_closure_order():
    """x <= y iff x lies in the closure of {y}, the closure taken through
    the interior of the complement."""
    for size in range(5):
        for t in T.enumerate_topologies(size):
            p = T.specialization_preorder(t)
            for x in range(size):
                for y in range(size):
                    assert p.leq(x, y) == bool(t.closure_bits(1 << y) >> x & 1)


def test_json_round_trip():
    t = T.make_topology(3, [[], [0], [0, 1], [0, 1, 2]])
    doc = t.to_json()
    assert doc == {"size": 3, "opens": [[], [0], [0, 1], [0, 1, 2]]}
    assert T.FiniteTopology.from_json(doc) == t
    p = T.Preorder(2, [(0, 0), (1, 1), (0, 1)])
    assert T.Preorder.from_json(p.to_json()) == p
