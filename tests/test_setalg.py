import random
import re

import pytest

from topocyl import setalg as S
from topocyl import topology as T
from topocyl.errors import IndexOutOfRange, NoChangSystem, NoTopology, NotSubsetOfUnit, TooLarge


def space(n, u, preset=None):
    topo = T.make_topology(u, preset=preset) if preset else None
    return S.SetAlgebraSpace(n, u, topo)


def brute_cyl(sp, i, x):
    """Oracle straight from the defining formula."""
    out = set()
    members = set(sp.members(x))
    for s in sp.tuples():
        for t in members:
            if all(s[j] == t[j] for j in range(sp.dim) if j != i):
                out.add(s)
                break
    return sp.element(out)


def _fiber(sp, k, s, members):
    """Bitmask of the a with s[k := a] in members."""
    return sum(1 << a for a in range(sp.base_size)
               if s[:k] + (a,) + s[k + 1:] in members)


def brute_interior(sp, k, x):
    """Oracle: the interior of the base taken on each k-fiber."""
    members = set(sp.members(x))
    return sp.element(s for s in sp.tuples()
                      if sp.topology.interior_bits(_fiber(sp, k, s, members)) >> s[k] & 1)


def brute_box(sp, k, x):
    """Oracle: s is in the box iff its k-fiber belongs to V(s_k)."""
    members = set(sp.members(x))
    return sp.element(s for s in sp.tuples()
                      if _fiber(sp, k, s, members) in sp.chang.families[s[k]])


def _samples(sp, rng, count):
    return [0, sp.full_bits] + [rng.getrandbits(sp.ncodes) for _ in range(count)]


def test_interior_and_box_match_definitions():
    rng = random.Random(3)
    for n, u in ((2, 3), (3, 2), (3, 3)):
        for topo in T.enumerate_topologies(u):
            sp = S.SetAlgebraSpace(n, u, topo, S.chang_from_topology(topo))
            for x in _samples(sp, rng, 4 if n * u == 9 else 8):
                for k in range(n):
                    assert S.interior_op(sp, k, x) == brute_interior(sp, k, x)
                    assert S.box_op(sp, k, x) == brute_box(sp, k, x)
    # neither topological nor upward closed, and V(1) is empty
    ch = S.ChangSystem(3, [[[0, 1], [2]], [], [[], [1, 2]]])
    for n in (2, 3):
        sp = S.SetAlgebraSpace(n, 3, None, ch)
        for x in _samples(sp, rng, 12):
            for k in range(n):
                assert S.box_op(sp, k, x) == brute_box(sp, k, x)


def test_base_must_be_nonempty():
    for u in (0, -1):
        with pytest.raises(ValueError, match="base size"):
            S.SetAlgebraSpace(2, u)


def test_encoding_is_little_endian():
    sp = space(3, 3)
    assert sp.encode((1, 2, 0)) == 1 + 2 * 3
    assert sp.decode(7) == (1, 2, 0)
    for s in sp.tuples():
        assert sp.decode(sp.encode(s)) == s


def test_cyl_examples():
    sp = space(2, 2)
    x = sp.element([(0, 0)])
    assert list(sp.members(S.cyl(sp, 0, x))) == [(0, 0), (1, 0)]
    assert S.cyl(sp, 0, S.cyl(sp, 0, x)) == S.cyl(sp, 0, x)
    assert S.cyl(sp, 1, 0) == 0
    with pytest.raises(IndexOutOfRange):
        S.cyl(sp, 2, x)
    rng = random.Random(0)
    for n, u in ((2, 2), (2, 3), (3, 2)):
        sp = space(n, u)
        for _ in range(8):
            x = rng.getrandbits(sp.ncodes)
            for i in range(n):
                assert S.cyl(sp, i, x) == brute_cyl(sp, i, x)


def test_diag_examples():
    sp = space(2, 2)
    assert list(sp.members(S.diag(sp, 0, 1))) == [(0, 0), (1, 1)]
    assert S.diag(sp, 0, 0) == sp.full_bits
    with pytest.raises(IndexOutOfRange):
        S.diag(sp, 0, 2)
    sp3 = space(3, 2)
    got = sorted(sp3.members(S.diag(sp3, 0, 2)))
    assert got == [(0, 0, 0), (0, 1, 0), (1, 0, 1), (1, 1, 1)]


def test_interior_examples():
    ind = space(2, 2, "indiscrete")
    assert S.interior_op(ind, 0, ind.element([(0, 0)])) == 0
    both = ind.element([(0, 0), (1, 0)])
    assert S.interior_op(ind, 0, both) == both
    dis = space(2, 2, "discrete")
    for b in range(16):
        assert S.interior_op(dis, 0, b) == b
    plain = space(2, 2)
    with pytest.raises(NoTopology):
        S.interior_op(plain, 0, plain.full_bits)


def closure(sp, k, x):
    """Cl_k X = -I_k -X, complements taken in the unit."""
    return sp.full_bits ^ S.interior_op(sp, k, sp.full_bits ^ x)


def test_closure_is_cyl_on_indiscrete():
    ind = space(2, 2, "indiscrete")
    for x in range(16):
        assert closure(ind, 0, x) == S.cyl(ind, 0, x)
        assert closure(ind, 1, x) == S.cyl(ind, 1, x)


def test_interior_below_identity():
    rng = random.Random(1)
    for u in (2, 3):
        for topo in T.enumerate_topologies(u):
            sp = S.SetAlgebraSpace(2, u, topo)
            for _ in range(12):
                x = rng.getrandbits(sp.ncodes)
                for k in range(2):
                    assert S.interior_op(sp, k, x) & ~x == 0


def test_box_examples():
    ind2 = T.make_topology(2, preset="indiscrete")
    sp = S.SetAlgebraSpace(2, 2, ind2, S.chang_from_topology(ind2))
    assert S.box_op(sp, 0, sp.element([(0, 0)])) == 0
    ind = space(2, 2, "indiscrete")
    with pytest.raises(NoChangSystem):
        S.box_op(ind, 0, ind.full_bits)
    # a one-off Chang system: only the full base counts as a neighbourhood
    ch = S.ChangSystem(2, [[[0, 1]], [[0, 1]]])
    spc = S.SetAlgebraSpace(2, 2, None, ch)
    for x in range(16):
        got = S.box_op(spc, 0, x)
        expect = {s for s in spc.tuples()
                  if all((a,) + s[1:] in set(spc.members(x)) for a in (0, 1))}
        assert set(spc.members(got)) == expect


def test_box_equals_interior_for_topological_chang_systems():
    for u in (2, 3):
        for topo in T.enumerate_topologies(u):
            ch = S.chang_from_topology(topo)
            sp = S.SetAlgebraSpace(2, u, topo, ch)
            rng = random.Random(u)
            sample = range(sp.full_bits + 1) if sp.ncodes <= 4 else \
                [rng.getrandbits(sp.ncodes) for _ in range(64)]
            for x in sample:
                for k in range(2):
                    assert S.box_op(sp, k, x) == S.interior_op(sp, k, x)


def test_subst_examples():
    sp = space(2, 2)
    x = sp.element([(0, 1)])
    assert S.subst(sp, S.replacement(0, 1, 2), x) == 0
    x = sp.element([(1, 1)])
    got = S.subst(sp, S.replacement(0, 1, 2), x)
    assert list(sp.members(got)) == [(0, 1), (1, 1)]
    assert got == S.cyl(sp, 0, S.diag(sp, 0, 1) & x)
    for b in range(16):
        assert S.subst(sp, (0, 1), b) == b


def test_subst_agrees_with_term_form():
    rng = random.Random(7)
    for n, u in ((2, 2), (2, 3), (3, 2), (3, 3)):
        sp = space(n, u)
        exhaustive = sp.ncodes <= 4
        bits = range(sp.full_bits + 1) if exhaustive else \
            [rng.getrandbits(sp.ncodes) for _ in range(50)]
        for x in bits:
            for i in range(n):
                for j in range(n):
                    if i == j:
                        continue
                    assert S.subst(sp, S.replacement(i, j, n), x) == \
                        S.cyl(sp, i, S.diag(sp, i, j) & x)


def test_neat_lift():
    ind = space(2, 2, "indiscrete")
    big2 = S.lifted(ind, 2)
    assert big2.dim == 4 and big2.topology == ind.topology
    assert S.neat_lift(ind, ind.full_bits, big2) == big2.full_bits
    with pytest.raises(ValueError, match="extra"):
        S.lifted(ind, 0)
    big = S.lifted(ind, 1)
    rng = random.Random(9)
    for _ in range(20):
        x = rng.getrandbits(4)
        lift = S.neat_lift(ind, x, big)
        for k in range(2):
            assert S.neat_lift(ind, S.interior_op(ind, k, x), big) == \
                S.interior_op(big, k, lift)
            assert S.neat_lift(ind, S.cyl(ind, k, x), big) == S.cyl(big, k, lift)
            assert S.neat_lift(ind, S.diag(ind, 0, 1) & x, big) == S.diag(big, 0, 1) & lift


def test_neat_lift_of_a_generalized_element_stays_in_the_lifted_unit():
    """Over two one-point summands only (0,0,0) of the cylinder over
    {(0,0)} lies in the union of the summand cubes; lifting commutes with
    c_k and I_k on every element of a two-summand space."""
    points = S.GeneralizedSpace([space(2, 1, "discrete"), space(2, 1, "discrete")])
    big = S.lifted(points, 1)
    assert isinstance(big, S.GeneralizedSpace)
    lift = S.neat_lift(points, points.element([(0, 0)]), big)
    assert list(big.members(lift)) == [(0, 0, 0)]
    assert S.neat_lift(points, points.full_bits, big) == big.full_bits
    g = S.GeneralizedSpace([space(2, 2, "indiscrete"), space(2, 1, "discrete")])
    big = S.lifted(g, 1)
    for x in g.all_elements():
        lift = S.neat_lift(g, x, big)
        for k in range(2):
            assert S.neat_lift(g, S.cyl(g, k, x), big) == S.cyl(big, k, lift)
            assert S.neat_lift(g, S.interior_op(g, k, x), big) == S.interior_op(big, k, lift)


def test_dimension_set():
    sp = space(2, 2)
    assert S.dimension_set(sp, sp.full_bits) == frozenset()
    assert S.dimension_set(sp, S.diag(sp, 0, 1)) == {0, 1}
    assert S.dimension_set(sp, sp.element([(0, 0), (1, 0)])) == {1}


def test_nonadditivity_witness():
    ind = space(2, 2, "indiscrete")
    a = ind.element([(0, 0)])
    b = ind.element([(1, 0)])
    assert S.interior_op(ind, 0, a) | S.interior_op(ind, 0, b) == 0
    assert S.interior_op(ind, 0, a | b) == a | b


def test_non_term_definability_witness():
    dis = space(2, 2, "discrete")
    ind = space(2, 2, "indiscrete")
    x = [(0, 0)]
    assert S.interior_op(dis, 0, dis.element(x)) != S.interior_op(ind, 0, ind.element(x))
    for b in range(16):
        for i in range(2):
            assert S.cyl(dis, i, b) == S.cyl(ind, i, b)
        for j in range(2):
            assert S.diag(dis, 0, j) == S.diag(ind, 0, j)


def test_generalized_space():
    ind1 = T.make_topology(1, preset="indiscrete")
    ind2 = T.make_topology(2, preset="indiscrete")
    g = S.GeneralizedSpace([S.SetAlgebraSpace(2, 1, ind1), S.SetAlgebraSpace(2, 2, ind2)])
    assert S.decompose_generalized(g, g.full_bits)[0] == 1
    single = S.GeneralizedSpace([S.SetAlgebraSpace(2, 2, ind2)])
    x = single.element([(0, 1)])
    assert S.decompose_generalized(single, x)[0] == single.summands[0].element([(0, 1)])
    with pytest.raises(NotSubsetOfUnit):
        g.element([(0, 1)])  # mixes the two summand bases
    with pytest.raises(NotSubsetOfUnit):
        S.decompose_generalized(g, g.outside)


def _embed(g, parts):
    """The element of g whose part in summand i is parts[i], shifted by hand."""
    return g.element(tuple(v + off for v in t)
                     for sp, p, off in zip(g.summands, parts, g.offsets) for t in sp.members(p))


def test_generalized_space_relativizes_the_summand_operations():
    """c_i, I_i, Cl_i, d_ij, [i|j] substitutions and complement on the union
    of the summand cubes agree with the summand-wise operations on seeded
    random elements."""
    rng = random.Random(12)
    tops = {u: list(T.enumerate_topologies(u)) for u in (1, 2, 3)}
    checked = 0
    for dim in (2, 3):
        for nsum in (1, 2, 3):
            for _ in range(6):
                summands = [S.SetAlgebraSpace(dim, u, rng.choice(tops[u]))
                            for u in (rng.randint(1, 5 - dim) for _ in range(nsum))]
                g = S.GeneralizedSpace(summands)
                assert g.topology == T.coproduct([sp.topology for sp in summands])
                # the unit is part of the space: only one summand gives the cube
                assert (g == S.SetAlgebraSpace(dim, g.base_size, g.topology)) == (nsum == 1)
                assert g.outside == ((1 << g.ncodes) - 1) ^ g.full_bits
                for _ in range(8):
                    parts = [rng.randrange(sp.full_bits + 1) for sp in summands]
                    x = _embed(g, parts)
                    assert S.decompose_generalized(g, x) == tuple(parts)
                    assert g.full_bits ^ x == \
                        _embed(g, [sp.full_bits ^ p for sp, p in zip(summands, parts)])
                    for i in range(dim):
                        assert S.cyl(g, i, x) == \
                            _embed(g, [S.cyl(sp, i, p) for sp, p in zip(summands, parts)])
                        for op in (S.interior_op, closure):
                            assert op(g, i, x) == \
                                _embed(g, [op(sp, i, p) for sp, p in zip(summands, parts)])
                        for j in range(dim):
                            assert S.diag(g, i, j) == \
                                _embed(g, [S.diag(sp, i, j) for sp in summands])
                            tau = S.replacement(i, j, dim)
                            assert S.subst(g, tau, x) == \
                                _embed(g, [S.subst(sp, tau, p) for sp, p in zip(summands, parts)])
                    checked += 1
    assert checked == 2 * 3 * 6 * 8


def test_generalized_space_without_topology_or_below_dimension_2():
    g = S.GeneralizedSpace([space(2, 2, "discrete"), space(2, 1)])
    assert g.topology is None
    x = g.element([(2, 2)])
    assert S.cyl(g, 0, x) == x
    with pytest.raises(NoTopology):
        S.interior_op(g, 0, x)
    with pytest.raises(ValueError, match="dimension at least 2"):
        S.GeneralizedSpace([space(1, 1, "discrete"), space(1, 2, "discrete")])


def test_element_json():
    sp = space(2, 2, "indiscrete")
    x = sp.element([(0, 1), (1, 1)])
    doc = sp.to_json(x)
    assert doc["dim"] == 2 and doc["base"] == 2
    assert doc["members"] == [2, 3]
    assert doc["topology"]["opens"] == [[], [0, 1]]
    assert S.SetAlgebraSpace.from_json(doc) == (sp, x)
    for codes in ([4], [-1]):
        with pytest.raises(ValueError, match="outside the unit"):
            S.SetAlgebraSpace.from_json(dict(doc, members=codes))
    # documents of the wrong shape are refused naming the field
    no_members = {k: v for k, v in doc.items() if k != "members"}
    for bad, reason in (([doc], "a tuple set must be an object"),
                        (no_members, '"members" must be a list of integers, got None'),
                        (dict(doc, members=["2"]), '"members" must be a list of integers'),
                        (dict(doc, members=[2.0]), '"members" must be a list of integers'),
                        (dict(doc, dim=True), '"dim" must be a non-negative integer, got True'),
                        (dict(doc, topology=[]), "a topology must be an object")):
        with pytest.raises(ValueError, match="^" + re.escape(reason)):
            S.SetAlgebraSpace.from_json(bad)
    # a dimension past the cap is refused without building u^n
    with pytest.raises(TooLarge, match=r"u\^n = 3\^100000000 exceeds the cap"):
        S.SetAlgebraSpace.from_json(dict(doc, dim=10**8, base=3, topology=None))
    # the document names the cube, so a generalized unit cannot round-trip:
    # the complement of {(0,0)} would gain (0,1) and (1,0)
    g = S.GeneralizedSpace([space(2, 1, "discrete"), space(2, 1, "discrete")])
    with pytest.raises(ValueError, match="generalized space has no JSON form"):
        g.to_json(g.element([(0, 0)]))
