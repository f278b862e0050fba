import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from topocyl import bao as B
from topocyl import setalg as S
from topocyl import topology as T
from topocyl.errors import (
    IndexOutOfRange,
    SizeTooLarge,
    TooLarge,
    TooLargeForExhaustive,
    TooManyAtoms,
    UnboundVariable,
)


def full_algebra(n, u, preset="discrete"):
    sp = S.SetAlgebraSpace(n, u, T.make_topology(u, preset=preset))
    return sp, B.atom_structure_of(sp)


def trivial_structure():
    """One atom, c_i identity, d_ij everything, identity interiors."""
    return B.AtomStructure.from_pairs(
        2, 1, [[(0, 0)], [(0, 0)]],
        {(0, 0): [0], (0, 1): [0], (1, 0): [0], (1, 1): [0]})


def test_cm_matches_set_algebra():
    for preset in ("discrete", "indiscrete"):
        sp, s = full_algebra(2, 2, preset)
        alg = B.cm(s)
        salg = B.SetAlgebra(sp)
        for b in range(16):
            for i in range(2):
                assert alg.cyl(i, b) == salg.cyl(i, b)
                assert alg.interior(i, b) == salg.interior(i, b)
            assert alg.minus(b) == salg.minus(b)
        for i in range(2):
            for j in range(2):
                assert alg.dg(i, j) == salg.dg(i, j)


def test_cm_identity_interior():
    alg = B.cm(trivial_structure())
    for x in alg.carrier_list():
        assert alg.interior(0, x) == x


def test_structure_json_round_trip():
    s = trivial_structure()
    doc = s.to_json()
    assert doc["dim"] == 2 and doc["atoms"] == 1
    assert doc["interior"] == ["identity", "identity"]
    s2 = B.AtomStructure.from_json(doc)
    assert s2.T == s.T and s2.D == s.D


def test_eval_term():
    sp, s = full_algebra(2, 2)
    alg = B.cm(s)
    x = 0b0001  # {(0,0)}
    assert B.eval_term(alg, ("var", 0), {0: x}) == x
    got = B.eval_term(alg, ("subst", 0, 1, ("var", 0)), {0: x})
    assert got == alg.cyl(0, alg.times(alg.dg(0, 1), x))
    assert B.eval_term(alg, ("q", 0, ("var", 0)), {0: x}) == \
        alg.minus(alg.cyl(0, alg.minus(x)))
    # q_0 of a single point is empty in the full algebra
    assert B.eval_term(alg, ("q", 0, ("var", 0)), {0: x}) == 0
    with pytest.raises(UnboundVariable):
        B.eval_term(alg, ("var", 3), {})
    with pytest.raises(IndexOutOfRange):
        B.eval_term(alg, ("cyl", 7, ("one",)), {})


def test_check_equation_modes():
    sp, s = full_algebra(2, 2)
    alg = B.cm(s)
    eq = B.Equation(("cyl", 0, ("zero",)), ("zero",))
    assert B.check_equation(alg, eq, mode="exhaustive")["verdict"] == "holds"
    eq = B.Equation(("diag", 0, 0), ("one",))
    assert B.check_equation(alg, eq)["verdict"] == "holds"
    bad = B.Equation(("cyl", 0, ("var", 0)), ("var", 0))
    res = B.check_equation(alg, bad, mode="exhaustive")
    assert res["verdict"] == "fails" and "counterexample" in res
    res = B.check_equation(alg, bad, mode="sampled", samples=200, seed=1)
    assert res["verdict"] == "fails"
    with pytest.raises(ValueError):
        B.check_equation(alg, bad, mode="exhuastive")


def test_auto_mode_builds_the_carrier_once():
    """mode="auto" sizes the search with the carrier and, when it picks
    exhaustive, enumerates that same list: one carrier_list call."""
    calls = []

    class Counting(B.SetAlgebra):
        def carrier_list(self):
            calls.append(1)
            return super().carrier_list()

    alg = Counting(S.SetAlgebraSpace(2, 4, T.make_topology(4, preset="discrete")))
    x = ("var", 0)
    idem = B.Equation(("cyl", 0, ("cyl", 0, x)), ("cyl", 0, x))
    assert B.check_equation(alg, idem) == {"verdict": "holds", "mode": "exhaustive",
                                           "tested": 65536}
    assert len(calls) == 1
    del calls[:]
    comm = B.Equation(("cyl", 0, ("cyl", 1, x)), ("cyl", 1, ("cyl", 0, ("var", 1))))
    assert B.check_equation(alg, comm, samples=10)["mode"] == "sampled"
    assert len(calls) == 1


def test_nonadditivity_imported_as_equation():
    sp = S.SetAlgebraSpace(2, 2, T.make_topology(2, preset="indiscrete"))
    alg = B.SetAlgebra(sp)
    eq = B.Equation(
        ("plus", ("interior", 0, ("var", 0)), ("interior", 0, ("var", 1))),
        ("interior", 0, ("plus", ("var", 0), ("var", 1))))
    res = B.check_equation(alg, eq, mode="exhaustive")
    assert res["verdict"] == "fails"
    a = sp.element([(0, 0)])
    b = sp.element([(1, 0)])
    env = {0: a, 1: b}
    assert not alg.eq(B.eval_term(alg, eq.lhs, env), B.eval_term(alg, eq.rhs, env))


def test_axiom_suites_on_sound_algebras():
    for n, u in ((2, 2), (2, 3), (3, 2)):
        for preset in ("discrete", "indiscrete"):
            sp = S.SetAlgebraSpace(n, u, T.make_topology(u, preset=preset))
            alg = B.SetAlgebra(sp)
            for suite in ("CA", "TCA"):
                rep = B.check_axiom_suite(alg, suite, mode="sampled",
                                          samples=120, seed=5)
                assert rep["all_pass"], (n, u, preset, suite, rep)


def test_axiom_suites_on_a_generalized_space():
    """Over disjoint bases of sizes 1 and 2 the set algebra of the union of
    the summand cubes is the product of the two summand algebras, so both
    suites hold, checked exhaustively over its 32 elements; random draws
    stay below the unit too."""
    for preset in ("discrete", "indiscrete"):
        g = S.GeneralizedSpace([S.SetAlgebraSpace(2, u, T.make_topology(u, preset=preset))
                                for u in (1, 2)])
        alg = B.SetAlgebra(g)
        assert alg.carrier_list() == list(g.all_elements())
        rng = random.Random(3)
        assert all(alg.random_element(rng) & ~g.full_bits == 0 for _ in range(50))
        for suite in ("CA", "TCA"):
            rep = B.check_axiom_suite(alg, suite, mode="exhaustive")
            assert rep["all_pass"], (preset, suite, rep)


def test_atom_structure_of_a_generalized_space():
    """The atoms of a generalized space are the codes of its unit V in
    ascending order: over bases 1 and 2 at dimension 2 that is 5 of the 9
    codes of the union cube. Renumbering the codes of V maps every c_i,
    I_i and d_ij of the set algebra onto the complex algebra, and both
    suites hold there, checked exhaustively."""
    for preset in ("discrete", "indiscrete"):
        g = S.GeneralizedSpace([S.SetAlgebraSpace(2, u, T.make_topology(u, preset=preset))
                                for u in (1, 2)])
        s = B.atom_structure_of(g)
        codes = sorted(T.set_of(g.full_bits))
        assert s.num_atoms == len(codes) == 5 and g.ncodes == 9
        assert s.interior_flags == ["validated", "validated"]

        def renumber(bits):
            return sum(1 << a for a, code in enumerate(codes) if bits >> code & 1)

        alg, salg = B.cm(s), B.SetAlgebra(g)
        carrier = salg.carrier_list()
        assert sorted(map(renumber, carrier)) == alg.carrier_list()
        for x in carrier:
            for i in range(2):
                assert renumber(salg.cyl(i, x)) == alg.cyl(i, renumber(x))
                assert renumber(salg.interior(i, x)) == alg.interior(i, renumber(x))
        for i in range(2):
            for j in range(2):
                assert renumber(salg.dg(i, j)) == alg.dg(i, j)
        for suite in ("CA", "TCA"):
            rep = B.check_axiom_suite(alg, suite, mode="exhaustive")
            assert rep["all_pass"], (preset, suite, rep)


def _differential_spaces(rng):
    """Cubes of dimension 2 and 3 over bases 1 to 3, under every topology
    at base <= 2 and a seeded sample of three at base 3, then seeded
    generalized spaces of 2 or 3 summands over bases 1 and 2."""
    tops = {u: list(T.enumerate_topologies(u)) for u in (1, 2, 3)}
    for dim in (2, 3):
        for u in (1, 2, 3):
            for topo in rng.sample(tops[u], 3) if u == 3 else tops[u]:
                yield S.SetAlgebraSpace(dim, u, topo)
    for _ in range(8):
        dim = rng.choice((2, 3))
        bases = [rng.choice((1, 2)) for _ in range(rng.choice((2, 3)))]
        yield S.GeneralizedSpace([S.SetAlgebraSpace(dim, u, rng.choice(tops[u])) for u in bases])


def test_complex_algebra_of_a_space_matches_its_set_algebra():
    """Renumbering the codes of the unit maps +, ., -, c_i, I_i and d_ij of
    SetAlgebra(sp) onto those of cm(atom_structure_of(sp)), on 20 seeded
    elements of each space of the corpus. The complex algebra builds each
    operator from its images of single atoms, so this checks the set
    algebra's operators against their additive (or, for I_i, dual
    additive) extension from singletons."""
    rng = random.Random(23)
    for sp in _differential_spaces(rng):
        codes = sorted(T.set_of(sp.full_bits))

        def renumber(bits):
            return sum(1 << a for a, code in enumerate(codes) if bits >> code & 1)

        salg, alg = B.SetAlgebra(sp), B.cm(B.atom_structure_of(sp))
        assert renumber(salg.one) == alg.one
        for i, j in itertools.product(range(sp.dim), repeat=2):
            assert renumber(salg.dg(i, j)) == alg.dg(i, j), (sp, i, j)
        xs = [salg.random_element(rng) for _ in range(20)]
        for x, y in zip(xs, xs[1:] + xs[:1]):
            a, b = renumber(x), renumber(y)
            assert renumber(salg.plus(x, y)) == alg.plus(a, b)
            assert renumber(salg.times(x, y)) == alg.times(a, b)
            assert renumber(salg.minus(x)) == alg.minus(a)
            for i in range(sp.dim):
                assert renumber(salg.cyl(i, x)) == alg.cyl(i, a), (sp, i, x)
                assert renumber(salg.interior(i, x)) == alg.interior(i, a), (sp, i, x)


def test_axiom_suites_at_three_by_three():
    """(n,u) = (3,3) rounds out the {2,3} x {2,3} soundness grid; the carrier
    is 2^27, so elements are sampled."""
    rng = random.Random(8)
    topos = [T.make_topology(3, preset="discrete"),
             T.make_topology(3, preset="indiscrete"),
             T.make_topology(3, [[], [0], [0, 1], [0, 1, 2]])]
    for topo in topos:
        alg = B.SetAlgebra(S.SetAlgebraSpace(3, 3, topo))
        for suite in ("CA", "TCA"):
            rep = B.check_axiom_suite(alg, suite, mode="sampled",
                                      samples=80, seed=rng.randrange(1 << 16))
            assert rep["all_pass"], (topo.to_json(), suite)


def test_s5_suite_on_discrete():
    topo = T.make_topology(2, preset="discrete")
    sp = S.SetAlgebraSpace(2, 2, topo, S.chang_from_topology(topo))
    alg = B.SetAlgebra(sp, boxes="chang")
    rep = B.check_axiom_suite(alg, "S5Chang", mode="exhaustive")
    assert rep["all_pass"]


def test_broken_interior_reports_axiom():
    class Broken(B.SetAlgebra):
        def interior(self, i, x):
            return 0

    alg = Broken(S.SetAlgebraSpace(2, 2, T.make_topology(2, preset="discrete")))
    rep = B.check_axiom_suite(alg, "TCA", mode="exhaustive")
    failed = {a["axiom"] for a in rep["axioms"] if a["verdict"] == "fails"}
    assert any("I01=1" in name or "I11=1" in name for name in failed)


def test_broken_cylindrifier_reports_axiom():
    s = B.AtomStructure.from_pairs(
        2, 1, [[], [(0, 0)]],
        {(0, 0): [0], (0, 1): [0], (1, 0): [0], (1, 1): [0]})
    rep = B.check_axiom_suite(B.cm(s), "CA", mode="exhaustive")
    failed = {a["axiom"] for a in rep["axioms"] if a["verdict"] == "fails"}
    assert "CA3[x<=c0x]" in failed


def test_guard_vacuity_reported():
    # a 1-dimensional algebra has no k != i instances at all; fabricate a
    # dim-2 algebra where every element depends on every index, so the
    # guarded axioms run on guard-passing environments only
    sp, s = full_algebra(2, 2)
    alg = B.cm(s)
    rep = B.check_axiom_suite(alg, "TCA", mode="exhaustive")
    for a in rep["axioms"]:
        assert a["verdict"] in ("holds", "vacuous")
        if "not in dim(p)" in a["axiom"]:
            assert a["tested"] > 0


def test_dimension_set_abs():
    sp, s = full_algebra(2, 2)
    alg = B.cm(s)
    assert B.dimension_set_abs(alg, alg.one) == frozenset()
    assert B.dimension_set_abs(alg, alg.dg(0, 1)) == {0, 1}
    for x in alg.carrier_list():
        assert 0 not in B.dimension_set_abs(alg, alg.cyl(0, x))


def test_nr():
    topo = T.make_topology(2, preset="indiscrete")
    alg3 = B.SetAlgebra(S.SetAlgebraSpace(3, 2, topo))
    sub = B.nr(2, alg3)
    assert sub.dim == 2
    assert len(sub.carrier_list()) == 16
    with pytest.raises(IndexOutOfRange):
        sub.cyl(2, sub.one)
    alg2 = B.SetAlgebra(S.SetAlgebraSpace(2, 2, topo))
    assert set(B.nr(2, alg2).carrier_list()) == set(range(16))
    # nr commutes with neat_lift: the lift closure of the dim-2 algebra is
    # exactly the neat 2-reduct, and the bijection preserves the operations
    sp2 = S.SetAlgebraSpace(2, 2, topo)
    lift = {b: S.neat_lift(sp2, b, alg3.space) for b in range(16)}
    assert set(lift.values()) == set(sub.carrier_list())
    for b in range(16):
        for i in range(2):
            assert lift[S.cyl(sp2, i, b)] == sub.cyl(i, lift[b])
            assert lift[S.interior_op(sp2, i, b)] == sub.interior(i, lift[b])


def test_nr_not_closed_signals_invalid_input():
    from topocyl.errors import NotClosed
    sp, s = full_algebra(2, 2)
    parent = B.cm(s)
    # {codes 0,2} has dimension set {0} but its cylinder escapes the carrier
    mangled = B.SubAlgebra(parent, [0b0101])
    with pytest.raises(NotClosed):
        B.nr(1, mangled)


def test_nr_excludes_high_dimension_sets():
    topo = T.make_topology(2, preset="discrete")
    alg3 = B.SetAlgebra(S.SetAlgebraSpace(3, 2, topo))
    sub = B.nr(2, alg3)
    sp3 = S.SetAlgebraSpace(3, 2, topo)
    x = S.diag(sp3, 0, 2)
    assert B.dimension_set_abs(alg3, x) == {0, 2}
    assert x not in set(sub.carrier_list())


def test_sg():
    sp, s = full_algebra(2, 2)
    alg = B.cm(s)
    minimal = B.sg(alg, [])
    assert set(minimal.carrier_list()) == set(B.sg(alg, [alg.one]).carrier_list())
    everything = B.sg(alg, alg.atoms())
    assert len(everything.carrier_list()) == 16
    # monotone and idempotent
    bigger = B.sg(alg, [alg.atoms()[0]])
    assert set(minimal.carrier_list()) <= set(bigger.carrier_list())
    again = B.sg(bigger, [])
    assert set(again.carrier_list()) <= set(bigger.carrier_list())
    rep = B.check_axiom_suite(B.sg(alg, [alg.atoms()[0]]), "CA",
                              mode="sampled", samples=150, seed=2)
    assert rep["all_pass"]


def test_try_represent_identity_case():
    sp, s = full_algebra(2, 2, "discrete")
    res = B.try_represent(s, max_base=2)
    assert res["found"]
    rep = res["representation"]
    assert rep.space.base_size == 2
    assert sum(rep.atom_images) == rep.space.full_bits


def test_try_represent_two_element_algebra():
    s = trivial_structure()
    res = B.try_represent(s, max_base=3)
    assert res["found"]
    assert res["representation"].space.base_size == 1


def test_try_represent_fails_fast_on_ca_violation():
    s = B.AtomStructure.from_pairs(
        2, 1, [[], [(0, 0)]],
        {(0, 0): [0], (0, 1): [0], (1, 0): [0], (1, 1): [0]})
    res = B.try_represent(s, max_base=2)
    assert not res["found"]
    assert res["reason"] == "CA axiom fails"
    assert any("CA3" in v for v in res["violated"])


def orbit_structure(n, u, gens):
    """Atom structure of the subalgebra of the discrete base-u cube fixed by
    the permutation group that `gens` generate on the base: one atom per
    orbit of n-tuples, numbered by least member; identity interiors."""
    tuples = list(itertools.product(range(u), repeat=n))
    orbit = {}
    for t in tuples:
        atom, frontier = len(set(orbit.values())), [t]
        while frontier:
            s = frontier.pop()
            if s not in orbit:
                orbit[s] = atom
                frontier += [tuple(g[x] for x in s) for g in gens]
    k = len(set(orbit.values()))
    cyl = [[0] * k for _ in range(n)]
    for t, i, x in itertools.product(tuples, range(n), range(u)):
        cyl[i][orbit[t]] |= 1 << orbit[t[:i] + (x,) + t[i + 1:]]
    D = {(i, j): sum({1 << orbit[t] for t in tuples if t[i] == t[j]})
         for i in range(n) for j in range(n)}
    return B.AtomStructure(n, k, cyl, D)


# the 3-cycles (0 1 2) and (1 2 3) generate the alternating group A_4
A4 = [(1, 2, 0, 3), (0, 2, 3, 1)]


def product_of_one_point_cubes():
    """Two atoms, each its own c_i-class and on every diagonal."""
    return B.AtomStructure(2, 2, [[1, 2], [1, 2]], {(i, j): 3 for i in range(2) for j in range(2)})


def represent_corpus():
    """(structure, max_base): every full set algebra of at most 4 atoms
    under every topology, seeded orbit structures of at most 6 atoms, the
    product of two one-point cubes and the structure with no atoms."""
    cases = [(B.atom_structure_of(S.SetAlgebraSpace(n, u, topo)), u)
             for n, u in ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1))
             for topo in T.enumerate_topologies(u)]
    rng, seen = random.Random(0), set()
    for _ in range(60):
        n, u = rng.choice((2, 3)), rng.choice((2, 3, 4))
        s = orbit_structure(n, u, [rng.sample(range(u), u) for _ in range(rng.choice((1, 2)))])
        key = json.dumps(s.to_json())
        if s.num_atoms <= 6 and key not in seen:
            seen.add(key)
            cases.append((s, 3))
    empty = B.AtomStructure(2, 0, [[], []], {(i, j): 0 for i in range(2) for j in range(2)})
    return cases + [(product_of_one_point_cubes(), 3), (empty, 1)]


def is_embedding(structure, rep):
    """Whether x -> union of rep's atom images is an injective homomorphism
    of cm(structure) into the set algebra on rep.space, checked on every
    element and every pair of elements."""
    alg, salg = B.cm(structure), B.SetAlgebra(rep.space)
    carrier = alg.carrier_list()
    h = {x: sum(img for a, img in enumerate(rep.atom_images) if x >> a & 1) for x in carrier}
    return (len(set(h.values())) == len(carrier)
            and all(h[alg.minus(x)] == salg.minus(h[x])
                    and all(h[alg.cyl(i, x)] == salg.cyl(i, h[x])
                            and h[alg.interior(i, x)] == salg.interior(i, h[x])
                            for i in range(alg.dim))
                    for x in carrier)
            and all(h[x | y] == h[x] | h[y] for x in carrier for y in carrier)
            and all(h[alg.dg(i, j)] == salg.dg(i, j)
                    for i in range(alg.dim) for j in range(alg.dim)))


def test_try_represent_outputs_pinned():
    """sha1 of the try_represent reports over represent_corpus(), recorded
    while the search still ran on the materialized complex algebra; every
    representation found is an embedding on the whole carrier."""
    digest = hashlib.sha1()
    for structure, max_base in represent_corpus():
        res = B.try_represent(structure, max_base=max_base)
        if res["found"]:
            assert is_embedding(structure, res["representation"])
            res = dict(res, representation=res["representation"].to_json())
        digest.update(json.dumps(res, sort_keys=True).encode() + b"\n")
    assert digest.hexdigest() == "abc2ffc639bea3e2a599c508ddf32ed192ea382d"


def test_try_represent_exhausts_on_a_product_of_one_point_cubes():
    """The CA suite passes, but no square unit holds two atoms that are each
    their own c_i-class and on every diagonal: the search backtracks over
    every base up to the bound and says so."""
    assert B.try_represent(product_of_one_point_cubes(), max_base=3) == {
        "found": False, "reason": "bounded search exhausted", "max_base": 3}


def test_try_represent_finds_the_a4_orbit_structure_at_base_4():
    """The connected 6-atom structure of the triples over 4 points up to A_4
    (constants, the three patterns with two equal coordinates, and the
    distinct triples split by orientation) is represented on the discrete
    base-4 cube within 30 s."""
    s = orbit_structure(3, 4, A4)
    assert s.num_atoms == 6
    start = time.perf_counter()
    res = B.try_represent(s, max_base=4)
    assert time.perf_counter() - start < 30
    rep = res["representation"]
    assert rep.space.base_size == 4 and rep.space.topology == T.make_topology(4, preset="discrete")
    assert is_embedding(s, rep)


def test_try_represent_refuses_more_than_eight_atoms():
    for k in (9, 24):
        s = B.AtomStructure(2, k, [[1 << a for a in range(k)]] * 2,
                            {(i, j): (1 << k) - 1 for i in range(2) for j in range(2)})
        with pytest.raises(TooLarge, match="capped at 8 atoms"):
            B.try_represent(s)


def latin_structure(k, interior=None):
    """G_k: dimension 2, k atoms, T_0 = T_1 the full relation, atom 0 alone
    on d_01 and d_10 and every atom on d_00 and d_11. Each of atoms 1..k-1
    needs an image with full projections, so u(u - 1) >= (k - 1)u on base u,
    and the table of a group of order k, a Latin square, represents it on
    base k: its least base is exactly k."""
    full = (1 << k) - 1
    return B.AtomStructure(2, k, [[full] * k] * 2,
                           {(0, 0): full, (1, 1): full, (0, 1): 1, (1, 0): 1}, interior)


def test_latin_structures_are_found_on_their_least_base():
    for k in range(2, 9):
        start = time.perf_counter()
        res = B.try_represent(latin_structure(k), max_base=k)
        assert time.perf_counter() - start < 5, k
        rep = res["representation"]
        assert rep.space.base_size == k, k
        assert k > 5 or is_embedding(latin_structure(k), rep), k


def test_latin_structures_have_no_representation_below_their_least_base():
    """The fiber cut empties the search below base k; try_represent then
    runs the exhaustive CA check (k <= 6), and the discrete search alone
    is asked on bases 1..k-1 for k = 7 and 8."""
    for k in range(2, 7):
        assert B.try_represent(latin_structure(k), max_base=k - 1) == {
            "found": False, "reason": "bounded search exhausted", "max_base": k - 1}
    for k in (7, 8):
        for u in range(1, k):
            space = S.SetAlgebraSpace(2, u, T.make_topology(u, preset="discrete"))
            assert B._search_assignment(latin_structure(k), space) is None, (k, u)


def test_identity_interiors_search_the_discrete_topology_only(monkeypatch):
    calls = []
    monkeypatch.setattr(B, "enumerate_topologies",
                        lambda u, enum=T.enumerate_topologies: calls.append(u) or enum(u))
    assert B.try_represent(latin_structure(5), max_base=5)["found"]
    assert not B.try_represent(latin_structure(4), max_base=3)["found"]
    assert calls == []
    # an interior table searches the other topologies too
    assert not B.try_represent(latin_structure(3, [[7] * 3] * 2), max_base=2)["found"]
    assert calls == [1, 2]


def test_closed_fibers_meet_the_closure_condition(monkeypatch):
    """With an interior table, each fiber is checked against the closure
    condition as it closes, so every labelling that reaches _embeds is
    accepted: G_4 with a chain as interior relation on both axes is
    exhausted on bases 1 to 4, over every topology, without one call."""
    calls = []
    embeds = B._embeds
    monkeypatch.setattr(B, "_embeds", lambda *args: calls.append(args) or embeds(*args))
    s = latin_structure(4, [[15 >> a << a for a in range(4)]] * 2)
    assert B.try_represent(s, max_base=4)["reason"] == "bounded search exhausted"
    assert calls == []


def test_interior_tables_are_refused_past_the_frame_size_cap(monkeypatch):
    """A structure with an interior table is searched on every topology of
    each base up to FRAME_SIZE_CAP and refused past it, before the discrete
    search there. The cap is patched to 2 to keep the test short; the one
    atom is off d_01 while the code (0, 0) is on every diagonal, so no base
    represents it."""
    s = B.AtomStructure(2, 1, [[1], [1]], {(0, 0): 1, (1, 1): 1, (0, 1): 0, (1, 0): 0},
                        [[1], [1]])
    monkeypatch.setattr(B, "FRAME_SIZE_CAP", 2)
    assert B.try_represent(s, max_base=2)["reason"] == "CA axiom fails"
    searched = []
    monkeypatch.setattr(B, "_search_assignment", lambda s, space: searched.append(space))
    with pytest.raises(SizeTooLarge, match="searched on bases up to 2"):
        B.try_represent(s, max_base=3)
    assert [space.base_size for space in searched] == [1, 2, 2, 2, 2]


def test_interior_refuses_an_index_outside_the_dimension():
    """interior refuses an index outside 0..n-1 naming it, as cyl and dg
    do, instead of answering the last axis for index -1."""
    for s in (full_algebra(2, 2, "indiscrete")[1], trivial_structure()):
        alg = B.cm(s)
        for i in (-1, 2):
            with pytest.raises(IndexOutOfRange, match=f"index {i} outside"):
                alg.interior(i, 1)


def test_ca_consequences_rederived():
    """x <= c_i x plus additivity and idempotence of c_i on suite-passing
    algebras, asserted directly."""
    rng = random.Random(11)
    sp, s = full_algebra(2, 3, "indiscrete")
    alg = B.cm(s)
    for _ in range(60):
        x = alg.random_element(rng)
        y = alg.random_element(rng)
        for i in range(2):
            cx = alg.cyl(i, x)
            assert alg.times(x, cx) == x
            assert alg.cyl(i, cx) == cx
            assert alg.cyl(i, alg.plus(x, y)) == alg.plus(cx, alg.cyl(i, y))


def test_exhaustive_cap():
    sp, s = full_algebra(2, 2)
    alg = B.cm(s)
    t = ("var", 0)
    for v in range(1, 7):
        t = ("plus", ("var", v), t)
    with pytest.raises(TooLargeForExhaustive):
        B.check_equation(alg, B.Equation(t, ("one",)), mode="exhaustive")


def test_interior_tables_validated_or_flagged():
    sp, s = full_algebra(2, 2, "indiscrete")
    assert s.interior_flags == ["validated", "validated"]
    assert trivial_structure().interior_flags == ["identity", "identity"]
    # an irreflexive relation induces a box that is not below the identity
    bad = B.AtomStructure.from_pairs(
        2, 2, [[(0, 0), (1, 1)], [(0, 0), (1, 1)]],
        {(0, 0): [0, 1], (0, 1): [0, 1], (1, 0): [0, 1], (1, 1): [0, 1]},
        interior=[[0b10, 0b01], None])
    assert bad.interior_flags == ["flagged", "identity"]


def test_materialization_cap():
    s = B.AtomStructure(2, 24, [[0] * 24, [0] * 24],
                        {(i, j): 0 for i in range(2) for j in range(2)})
    alg = B.ComplexAlgebra(s)
    with pytest.raises(TooManyAtoms):
        alg.carrier_list()


def _power_cases():
    sierpinski = T.make_topology(3, [[], [0], [0, 1], [0, 1, 2]])
    chang = S.ChangSystem(3, [[[0, 1], [2]], [], [[], [1, 2]]])
    yield B.SetAlgebra(S.SetAlgebraSpace(2, 3, sierpinski))
    yield B.SetAlgebra(S.SetAlgebraSpace(3, 2, T.make_topology(2, [[], [0], [0, 1]])))
    yield B.SetAlgebra(S.SetAlgebraSpace(2, 3, None, chang), boxes="chang")
    yield B.cm(B.atom_structure_of(S.SetAlgebraSpace(2, 3, sierpinski)))
    flagged = B.AtomStructure.from_pairs(
        2, 3, [[(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)], [(0, 0), (1, 1), (2, 2)]],
        {(0, 0): [0, 1, 2], (0, 1): [0], (1, 0): [0], (1, 1): [0, 1, 2]},
        interior=[[0b010, 0b100, 0b001], None])
    assert flagged.interior_flags == ["flagged", "identity"]
    yield B.cm(flagged)


def test_direct_power_is_rowwise():
    """Every operation of the direct power acts on each row on its own, and
    rows_differ marks the rows that differ at any bit, for every width up
    to 81 bits."""
    rng = random.Random(12)
    for alg in _power_cases():
        p = alg.power(5)
        xs = [alg.random_element(rng) for _ in range(5)]
        ys = [alg.random_element(rng) for _ in range(5)]
        xs[1], ys[3] = alg.zero, alg.one
        x, y = p.pack(xs), p.pack(ys)

        def rowwise(f, *cols):
            return p.pack([f(*args) for args in zip(*cols)])

        assert p.zero == p.pack([alg.zero] * 5) and p.one == p.pack([alg.one] * 5)
        assert p.plus(x, y) == rowwise(alg.plus, xs, ys)
        assert p.times(x, y) == rowwise(alg.times, xs, ys)
        assert p.minus(x) == rowwise(alg.minus, xs)
        assert p.xnor(x, y) == rowwise(alg.xnor, xs, ys)
        for i in range(alg.dim):
            assert p.cyl(i, x) == rowwise(lambda v: alg.cyl(i, v), xs)
            assert p.interior(i, x) == rowwise(lambda v: alg.interior(i, v), xs)
            assert p.q(i, x) == rowwise(lambda v: alg.q(i, v), xs)
            for j in range(alg.dim):
                assert p.dg(i, j) == p.pack([alg.dg(i, j)] * 5)
                assert p.s(i, j, x) == rowwise(lambda v: alg.s(i, j, v), xs)
        assert [p.row(x, r) for r in range(5)] == xs
        ys[0], ys[2] = xs[0], xs[2]
        want = sum(1 << r for r in range(5) if xs[r] != ys[r])
        assert p.rows_differ(x, p.pack(ys)) == want
    for width in range(82):
        alg = B.BitmaskAlgebra(width)
        for rows in (1, 2, 3, 9, 40):
            p = alg.power(rows)
            for _ in range(4):
                xs = [alg.random_element(rng) for _ in range(rows)]
                # equal rows, rows one bit apart at any bit, unrelated rows
                ys = [rng.choice([x, x ^ 1 << rng.randrange(width) if width else x,
                                  alg.random_element(rng)]) for x in xs]
                want = sum(1 << r for r in range(rows) if xs[r] != ys[r])
                assert p.rows_differ(p.pack(xs), p.pack(ys)) == want, (width, rows)


def _generalized_space():
    return S.GeneralizedSpace([S.SetAlgebraSpace(2, u, T.make_topology(u, preset="indiscrete"))
                               for u in (1, 2)])


def _column_cases():
    """Bare bitmask algebras of the widths around each byte and word edge,
    a complex algebra, a cube and a generalized space."""
    indiscrete = T.make_topology(2, preset="indiscrete")
    yield from map(B.BitmaskAlgebra, (0, 1, 7, 8, 9, 16, 17, 27, 32, 33, 64))
    yield B.cm(B.atom_structure_of(S.SetAlgebraSpace(2, 2, indiscrete)))
    yield B.SetAlgebra(S.SetAlgebraSpace(3, 2, indiscrete))
    yield B.SetAlgebra(_generalized_space())


def _reference_batches(alg, envs):
    """envs in batches of rows_per_batch, each variable's values packed."""
    out = []
    for start in range(0, len(envs), alg.rows_per_batch):
        batch = envs[start:start + alg.rows_per_batch]
        p = alg.power(len(batch))
        out.append((len(batch), [p.pack(col) for col in zip(*batch)]))
    return out


def test_draws_are_successive_random_elements():
    """Sampled batches hold successive random_element(rng) calls, variable
    by variable, environment by environment, each column packed as `pack`
    packs it, for every width around a byte and word edge (one getrandbits
    per batch up to 32 bits, one per element beyond), 0 to 3 variables and
    sample counts that end mid-batch and cross batches. Every value stays
    below the unit."""
    for alg in _column_cases():
        for rows_per_batch in (alg.rows_per_batch, 5):
            alg.rows_per_batch = rows_per_batch
            for nvars, samples in itertools.product(range(4), (1, 12, rows_per_batch + 3)):
                seed = samples + 10 * nvars
                rng = random.Random(seed)
                draws = [alg.random_element(rng) for _ in range(samples * nvars)]
                envs = [tuple(draws[e * nvars:(e + 1) * nvars]) for e in range(samples)]
                got = list(alg.sampled_batches(random.Random(seed), samples, nvars))
                assert got == _reference_batches(alg, envs), (alg.width, nvars, samples)
                assert all(x & ~alg.one == 0 for x in draws)


def test_enumerated_batches_are_the_product():
    """Exhaustive batches are itertools.product over the carrier, the last
    variable fastest, packed: for plain ranges and a generalized space's
    carrier, 0 to 3 variables, and batches shorter and longer than a
    variable's run of equal values."""
    cases = [(B.BitmaskAlgebra(w), list(range(1 << w))) for w in (0, 1, 2, 3, 9)]
    g = B.SetAlgebra(_generalized_space())
    cases.append((g, g.carrier_list()))
    for alg, carrier in cases:
        for rows_per_batch in (alg.rows_per_batch, 1, 5, 7, 64):
            alg.rows_per_batch = rows_per_batch
            for nvars in range(4):
                if len(carrier) ** nvars > 1 << 15:
                    continue
                envs = list(itertools.product(carrier, repeat=nvars))
                assert list(alg.enumerated_batches(carrier, nvars)) == \
                    _reference_batches(alg, envs), (alg.width, rows_per_batch, nvars)


def _reference_check(alg, eq, envs, guards):
    """check_equation's verdict, one environment of alg at a time."""
    tested = 0
    for env in envs:
        env = dict(zip(eq.vars, env))
        if any(alg.cyl(k, env[v]) != env[v] for v, k in guards):
            continue
        tested += 1
        a, b = B.eval_term(alg, eq.lhs, env), B.eval_term(alg, eq.rhs, env)
        if (alg.times(a, b) if eq.rel == "le" else b) != a:
            return {"verdict": "fails", "tested": tested, "counterexample": env}
    return {"verdict": "holds" if tested else "vacuous", "tested": tested}


def test_batched_checks_match_one_environment_at_a_time():
    """Verdicts, counts and counterexamples of the batched check, guards
    included, equal those of checking each environment on its own, sampled
    and exhaustive, with batches short enough that failures and skipped
    rows fall in later batches."""
    sierpinski = T.make_topology(2, [[], [0], [0, 1]])
    chang = S.SetAlgebraSpace(2, 2, sierpinski, S.chang_from_topology(sierpinski))
    algebras = [B.SetAlgebra(chang, boxes="chang"),
                B.SetAlgebra(_generalized_space()),
                *itertools.islice(_power_cases(), 3, 5)]
    checks = [(name, eq, guards) for suite in ("TCA", "S5Chang", "CA")
              for name, eq, guards in B.axioms_for(suite, 2)]
    checks.append(("c0(x.y)=x", B.Equation(("cyl", 0, ("times", B.var(0), B.var(1))), B.var(0)),
                   ((1, 0), (0, 1))))
    for alg in algebras:
        for rows_per_batch in (alg.rows_per_batch, 3):
            alg.rows_per_batch = rows_per_batch
            for idx, (name, eq, guards) in enumerate(checks):
                nvars = len(eq.vars)
                rng = random.Random(idx)
                draws = [alg.random_element(rng) for _ in range(40 * nvars)]
                sampled = [draws[e * nvars:(e + 1) * nvars] for e in range(40)]
                runs = [("sampled", sampled)]
                if len(alg.carrier_list()) ** nvars <= 1 << 10:
                    runs.append(("exhaustive", itertools.product(alg.carrier_list(), repeat=nvars)))
                for mode, envs in runs:
                    got = B.check_equation(alg, eq, mode=mode, samples=40, seed=idx,
                                           guards=guards)
                    assert got.pop("mode") == mode
                    assert got == _reference_check(alg, eq, envs, guards), (name, mode)


def test_powers_are_built_once_per_algebra():
    """A power is cached on the algebra it was taken of; a power of a power
    is cached on that power and is not the algebra's own power."""
    alg = B.SetAlgebra(S.SetAlgebraSpace(2, 2, T.make_topology(2, preset="discrete")))
    p3 = alg.power(3)
    assert alg.power(3) is p3 and alg.power(2) is not p3
    pp = p3.power(2)
    assert p3.power(2) is pp and pp is not alg.power(2)
    assert pp.one == p3.one * alg.power(2).rep


def _pin(res, tested, counterexample):
    assert (res["verdict"], res["tested"], res["counterexample"]) == \
        ("fails", tested, counterexample)


def test_check_equation_results_pinned():
    """Verdicts, counts and counterexamples of one-environment-at-a-time
    checking, recorded before environments were batched."""
    def space(n, u, preset):
        return S.SetAlgebraSpace(n, u, T.make_topology(u, preset=preset))

    v0, v1 = B.var(0), B.var(1)
    alg = B.SetAlgebra(space(3, 3, "discrete"))
    eq = B.Equation(("cyl", 0, ("cyl", 1, ("cyl", 2, ("times", v0, v1)))), ("one",))
    _pin(B.check_equation(alg, eq, mode="sampled", samples=20000, seed=0),
         1819, {0: 0x54a280e, 1: 0x28141b0})
    _pin(B.check_equation(alg, eq, mode="sampled", samples=20000, seed=4),
         196, {0: 0x4601d0, 1: 0x5903c04})
    # the failing environment lies in the fifth batch
    assert alg.rows_per_batch * 4 < 8244 <= alg.rows_per_batch * 5
    _pin(B.check_equation(alg, eq, mode="sampled", samples=20000, seed=9),
         8244, {0: 0x6bb0f69, 1: 0x140b006})

    alg = B.SetAlgebra(space(2, 3, "indiscrete"))
    eq = B.Equation(("interior", 0, v0), v0)
    _pin(B.check_equation(alg, eq, mode="sampled", samples=5000, seed=0, guards=((0, 1),)),
         5, {0: 438})
    _pin(B.check_equation(alg, eq, mode="exhaustive", guards=((0, 1),)), 2, {0: 73})

    alg = B.cm(B.atom_structure_of(space(2, 2, "discrete")))
    _pin(B.check_equation(alg, B.Equation(("cyl", 0, v0), v0), mode="exhaustive"),
         2, {0: 1})

    # guards skip three quarters of the environments; the failing one is
    # environment 14774 (from 0), in the second batch of 8192
    alg = B.SetAlgebra(space(2, 2, "discrete"))
    assert alg.rows_per_batch == 8192
    all3 = ("times", B.var(1), ("times", B.var(2), B.var(3)))
    eq = B.Equation(("times", v0, ("q", 0, ("q", 1, all3))), ("zero",), "le")
    _pin(B.check_equation(alg, eq, mode="sampled", samples=60000, seed=0, guards=((0, 1),)),
         3683, {0: 15, 1: 15, 2: 15, 3: 15})

    topo = T.make_topology(2, [[], [0], [0, 1]])
    sp = S.SetAlgebraSpace(2, 2, topo, S.chang_from_topology(topo))
    rep = B.check_axiom_suite(B.SetAlgebra(sp, boxes="chang"), "S5Chang", mode="exhaustive")
    failed = [(a["axiom"], a["tested"], a["counterexample"])
              for a in rep["axioms"] if a["verdict"] != "holds"]
    assert failed == [("S5Chang6[-B0-p<=B0-B0-p]", 3, {"v0": "2"}),
                      ("S5Chang6[-B1-p<=B1-B1-p]", 5, {"v0": "4"})]


def test_three_variable_axiom_checked_exhaustively_on_fullset_three_two():
    """auto mode checks a three-variable CA axiom of the 256-element cm of
    fullset:3,2 on all 256^3 environments, the exhaustive cap exactly."""
    alg = B.cm(B.atom_structure_of(S.SetAlgebraSpace(
        3, 2, T.make_topology(2, preset="discrete"))))
    _, eq, guards = next(a for a in B.axioms_for("CA", 3) if a[0] == "BA distr")
    assert B.check_equation(alg, eq, guards=guards) == {
        "verdict": "holds", "mode": "exhaustive", "tested": 16777216}


def test_set_algebra_modules_do_not_import_numpy():
    code = "import sys, topocyl.bao, topocyl.setalg; print('numpy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(B.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "False"


# sha1 over (name, lhs, rhs, rel, guards) of every axiom at dims 1-4 in
# order, and the suite sizes, recorded while each box schema was still
# written out once per suite
AXIOM_PINS = {
    "CA": ("60a0047ea6d32854c8c671d2259dd63f5196334f", [13, 22, 42, 79]),
    "TCA": ("bf3e427bee903102fdea0ca0798cc135313dab20", [5, 14, 27, 44]),
    "Chang": ("9470bb9d18aba3f647c983795cae167b0439ffbf", [1, 4, 9, 16]),
    "S4Chang": ("8a671e9f4d95a7baba05bca43ec5050e19bbdbb0", [5, 14, 27, 44]),
    "S5Chang": ("1074a1e89b399d24dd54a8ddd18bede5997e7c9b", [6, 16, 30, 48]),
}


def test_axioms_for_pinned():
    assert set(AXIOM_PINS) == set(B.SUITES)
    for suite, (digest, sizes) in AXIOM_PINS.items():
        h = hashlib.sha1()
        for dim in range(1, 5):
            for name, eq, guards in B.axioms_for(suite, dim):
                h.update(repr((name, eq.lhs, eq.rhs, eq.rel, guards)).encode())
        assert (h.hexdigest(), [len(B.axioms_for(suite, d)) for d in range(1, 5)]) == \
            (digest, sizes), suite


def test_axioms_for_is_built_once():
    for suite in B.SUITES:
        axioms = B.axioms_for(suite, 3)
        assert type(axioms) is tuple and B.axioms_for(suite, 3) is axioms


def test_suite_reports_on_sweep_shapes_pinned():
    """All five suites on every topology of the four sweep shapes, sampled:
    a sha1 over the 330 reports (130 failed axioms, with counterexamples),
    recorded before draws and powers were cached."""
    h = hashlib.sha1()
    failures = 0
    for n, u in ((2, 2), (2, 3), (3, 2), (3, 3)):
        for t_idx, topo in enumerate(T.enumerate_topologies(u)):
            space = S.SetAlgebraSpace(n, u, topo, S.chang_from_topology(topo))
            for s_idx, suite in enumerate(B.SUITES):
                alg = B.SetAlgebra(space, "topology" if suite in ("CA", "TCA") else "chang")
                rep = B.check_axiom_suite(alg, suite, mode="sampled", samples=24,
                                          seed=1000 * t_idx + 10 * s_idx + n * u)
                h.update(json.dumps(rep, sort_keys=True).encode())
                failures += rep["failures"]
    assert (failures, h.hexdigest()) == (130, "eb12a51454633d8f4543edce819c88db706a5a98")


def test_atom_structure_refuses_a_diagonal_key_outside_the_dimension():
    diag = {"0,0": [0], "0,1": [], "1,0": [], "1,1": [0], "5,7": [0]}
    doc = {"dim": 2, "atoms": 1, "T": [[[0, 0]], [[0, 0]]], "D": diag}
    with pytest.raises(ValueError, match='D key "5,7" names an index outside 0..1'):
        B.AtomStructure.from_json(doc)
    D = {(i, j): 1 for i in range(2) for j in range(2)}
    with pytest.raises(ValueError, match='D key "0,2"'):
        B.AtomStructure(2, 1, [[1], [1]], {**D, (0, 2): 1})


def test_atom_structure_tables_are_checked_in_linear_time():
    """Each table entry is range-checked without building an int as wide
    as the atom count, so a large structure is read in linear time."""
    start = time.perf_counter()
    s = B.AtomStructure.from_json({"dim": 1, "atoms": 400_000, "T": [[]], "D": {"0,0": []}})
    assert s.num_atoms == 400_000 and time.perf_counter() - start < 5
    with pytest.raises(ValueError, match="a relation table must map every atom"):
        B.AtomStructure(1, 2, [[0, 0b100]], {(0, 0): 0})
    with pytest.raises(ValueError, match="a relation table must map every atom"):
        B.AtomStructure(1, 2, [[0, -1]], {(0, 0): 0})


def test_atom_structure_json_round_trip():
    def fullset(n, u, preset):
        return B.atom_structure_of(S.SetAlgebraSpace(n, u, T.make_topology(u, preset=preset)))

    # atom 0 sees atom 1 but atom 1 does not see itself: not reflexive
    flagged = B.AtomStructure(1, 2, [[0b11, 0b11]], {(0, 0): 0b11}, [[0b10, 0b10]])
    assert flagged.interior_flags == ["flagged"]
    for s in (fullset(2, 2, "discrete"), fullset(2, 2, "indiscrete"),
              fullset(3, 2, "discrete"), flagged):
        doc = s.to_json()
        back = B.AtomStructure.from_json(doc)
        assert (back.T, back.D, back.interior, back.interior_flags) == \
            (s.T, s.D, s.interior, s.interior_flags)
        assert back.to_json() == doc
