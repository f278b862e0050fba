import itertools
import random

import numpy as np
import pytest

from topocyl import rainbow as R
from topocyl.errors import DimTooSmall, DimUnsupported

# frozen by running the exhaustive enumeration against the validity oracle
ATOM_COUNT_N3 = 10894256


@pytest.fixture(scope="module")
def sig():
    return R.signature(3)


@pytest.fixture(scope="module")
def table(sig):
    return R.enumerate_atoms(sig)


@pytest.fixture(scope="module")
def structure(table):
    return R.RainbowStructure(table)


def test_signature_inventories(sig):
    assert sig.summary() == {"n": 3, "greens": 5, "whites": 2, "reds": 3,
                             "yellows": 32}
    # at n=4 the lists give g_i for 1<=i<=2 plus g_0^i for 1<=i<=5
    assert R.signature(4).summary()["greens"] == 7
    with pytest.raises(DimTooSmall):
        R.signature(2)


def test_colour_codes(sig):
    for c in sig.edge_colours():
        assert R.parse_colour(R.colour_code(c)) == c
    assert R.colour_code(("g0", 2)) == "g0^2"
    assert R.colour_code(("r", 1, 0)) == "r10"
    S = frozenset({0, 2})
    assert R.parse_yellow(R.yellow_codeword(S)) == S


def graph(sig, edges, yellows=None, nodes=3):
    return R.ColouredGraph(sig, range(nodes), edges, yellows or {})


def test_forbidden_triangles(sig):
    y = {(0, 1): frozenset({0})}
    g = graph(sig, {(0, 1): ("g0", 1), (0, 2): ("g0", 2), (1, 2): ("w", 0)})
    v = R.is_valid_coloured_graph(g)
    assert not v and v.kind == "two-g0-with-w0"
    g = graph(sig, {(0, 1): ("g", 1), (0, 2): ("g", 1), (1, 2): ("w", 1)})
    assert R.is_valid_coloured_graph(g).kind == "gi-gi-wi"
    g = graph(sig, {(0, 1): ("g", 1), (0, 2): ("g0", 1), (1, 2): ("g0", 3)})
    assert R.is_valid_coloured_graph(g).kind == "green-triangle"


def test_red_triangles(sig):
    full = frozenset(range(5))
    ys = {(0, 1): full, (0, 2): full, (1, 2): full}
    ok = graph(sig, {(0, 1): ("r", 0, 1), (1, 2): ("r", 1, 2), (0, 2): ("r", 0, 2)}, ys)
    assert R.is_valid_coloured_graph(ok)
    bad = graph(sig, {(0, 1): ("r", 0, 1), (1, 2): ("r", 0, 2), (0, 2): ("r", 0, 2)}, ys)
    v = R.is_valid_coloured_graph(bad)
    assert not v and v.kind == "red-inconsistent"
    # every arrangement of the symbol multiset {r01, r02, r02} is inconsistent
    for perm in itertools.permutations([("r", 0, 1), ("r", 0, 2), ("r", 0, 2)]):
        assert R.triangle_violation(*perm) == "red-inconsistent"


def test_red_cliques_need_global_injections(sig):
    """A red K4 is consistent only through an injective map of its nodes
    into the three red indices, which cannot exist; in particular the
    perfect-matching colouring (which every triangle-by-triangle unoriented
    reading accepts) is rejected."""
    full = frozenset(range(5))
    pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    m = graph(sig, {(0, 1): ("r", 0, 1), (2, 3): ("r", 0, 1),
                    (0, 2): ("r", 0, 2), (1, 3): ("r", 0, 2),
                    (0, 3): ("r", 1, 2), (1, 2): ("r", 1, 2)},
              {k: full for k in pairs}, nodes=4)
    assert not R.is_valid_coloured_graph(m)
    # any oriented labelling of K4 must fail some triangle
    reds = list(sig.oriented_reds)
    rng = random.Random(21)
    for _ in range(300):
        edges = {p: reds[rng.randrange(6)] for p in pairs}
        g = graph(sig, edges, {k: full for k in pairs}, nodes=4)
        assert not R.is_valid_coloured_graph(g)
    # while an injectively generated red K3 is fine
    g = graph(sig, {(0, 1): ("r", 2, 0), (0, 2): ("r", 2, 1), (1, 2): ("r", 0, 1)},
              {(0, 1): full, (0, 2): full, (1, 2): full})
    assert R.is_valid_coloured_graph(g)


def test_yellow_placement(sig):
    full = frozenset(range(5))
    g = graph(sig, {(0, 1): ("w", 0), (0, 2): ("g", 1), (1, 2): ("g0", 1)})
    v = R.is_valid_coloured_graph(g)
    assert v.kind == "missing-yellow" and tuple(v.witness) == (0, 1)
    g = graph(sig, {(0, 1): ("g", 1), (0, 2): ("g", 1), (1, 2): ("w", 0)},
              {(0, 1): full, (1, 2): full})
    v = R.is_valid_coloured_graph(g)
    assert v.kind == "yellow-on-green-tuple"


def test_cone_clause(sig):
    """The cone helper yields a valid graph iff the base shade holds the tint."""
    for tint in (1, 2, 3, 4):
        for S in (frozenset({tint}), frozenset({0}), frozenset(range(5))):
            g = graph(sig, {(0, 1): ("w", 0), (0, 2): ("g0", tint), (1, 2): ("g", 1)},
                      {(0, 1): S})
            v = R.is_valid_coloured_graph(g)
            if tint in S:
                assert v, (tint, S)
            else:
                assert not v and v.kind == "cone-tint-outside-shade"
    cones = list(R.cones_in(graph(
        sig, {(0, 1): ("w", 0), (0, 2): ("g0", 2), (1, 2): ("g", 1)},
        {(0, 1): frozenset({2})})))
    assert cones == [(2, (0, 1), 2)]


def test_strict_mode_orders_tuples(sig):
    full = frozenset(range(5))
    edges = {(0, 1): ("w", 0), (0, 2): ("g0", 1), (1, 2): ("g", 1)}
    g = R.ColouredGraph(sig, range(3), edges, {(0, 1): full}, strict_yellows=True)
    v = R.is_valid_coloured_graph(g)
    assert v.kind == "missing-yellow" and tuple(v.witness) == (1, 0)
    g = R.ColouredGraph(sig, range(3), edges, {(0, 1): full, (1, 0): full},
                        strict_yellows=True)
    assert R.is_valid_coloured_graph(g)


def test_graph_json_round_trip(sig):
    g = graph(sig, {(0, 1): ("r", 1, 0), (0, 2): ("g0", 3), (1, 2): ("g", 1)},
              {(0, 1): frozenset({0, 3})})
    doc = g.to_json()
    assert doc["edges"]["(0,1)"] == "r10"
    assert doc["yellows"]["(0,1)"] == "yS:{0,3}"
    g2 = R.ColouredGraph.from_json(doc, sig)
    assert g2.edges == g.edges and g2.yellows == g.yellows


def test_atom_count_fixture(table):
    assert table.count == ATOM_COUNT_N3
    # strictly increasing codes are distinct (and in canonical order)
    assert (np.diff(table.codes) > 0).all()


def test_atom_count_independent_formula(sig):
    """Recompute the census from scratch: one size-1 atom; size-2 kernels
    carry one quotient edge each; size-3 graphs multiply yellow choices per
    valid edge colouring, halved per cone constraint."""
    greens = 5
    nongreen = 2 + 6
    per_kernel = greens + nongreen * 32
    total = 1 + 3 * per_kernel
    colours = list(sig.edge_colours())
    for trio in itertools.product(colours, repeat=3):
        e01, e02, e12 = trio
        if R.triangle_violation(e01, e12, e02):
            continue
        ways = 1
        for pair, edge in (((0, 1), e01), ((0, 2), e02), ((1, 2), e12)):
            if R.is_green(edge):
                continue
            a, b = pair
            apex = 3 - a - b
            tints = set()
            for d0, d1 in ((a, b), (b, a)):
                c0 = _seen(trio, d0, apex)
                c1 = _seen(trio, d1, apex)
                if c0[0] == "g0" and c1 == ("g", 1):
                    tints.add(c0[1])
            count = 32
            for _ in tints:
                count //= 2
            ways *= count
        total += ways
    assert total == ATOM_COUNT_N3


def _seen(trio, u, v):
    e01, e02, e12 = trio
    table = {(0, 1): e01, (0, 2): e02, (1, 2): e12}
    c = table[(min(u, v), max(u, v))]
    return c if u < v else R.reverse_colour(c)


def test_small_atoms_all_valid(table):
    """Exhaustive oracle pass over every atom whose graph has at most two
    nodes (the three-node stratum is covered vectorized in acceptance)."""
    kid = table.codes // (R.PAIR_SLOTS ** 3)
    small = table.codes[kid < 4]
    assert small.shape[0] == 1 + 3 * 261
    for code in small:
        assert table.valid_atom(int(code))


def test_sampled_atoms_valid(table):
    rng = random.Random(13)
    for idx in rng.sample(range(table.count), 800):
        assert table.valid_atom(int(table.codes[idx]))


def test_pullback_round_trip(table):
    rng = random.Random(14)
    for idx in rng.sample(range(table.count), 200):
        code = int(table.codes[idx])
        blocks, g = table.graph_of(code)
        node_of = {}
        for b, block in enumerate(blocks):
            for i in block:
                node_of[i] = b
        delta = tuple(node_of[i] for i in range(3))
        assert table.atom_of_tuple(g, delta) == code


def test_equivalence_invariance_under_relabelling(table):
    """Surjections onto isomorphic graphs with equal pullbacks are the same
    atom: relabelling nodes and composing the tuple accordingly is a no-op."""
    sig = table.sig
    rng = random.Random(15)
    kid4 = table.codes[table.codes // (R.PAIR_SLOTS ** 3) == 4]
    for idx in rng.sample(range(kid4.shape[0]), 100):
        code = int(kid4[idx])
        _, g = table.graph_of(code)
        for perm in itertools.permutations(range(3)):
            relabel = dict(zip(range(3), perm))
            edges = {}
            for (u, v), c in g.edges.items():
                ru, rv = relabel[u], relabel[v]
                if ru > rv:
                    ru, rv, c = rv, ru, R.reverse_colour(c)
                edges[(ru, rv)] = c
            yellows = {tuple(sorted(relabel[x] for x in k)): S
                       for k, S in g.yellows.items()}
            g2 = R.ColouredGraph(sig, range(3), edges, yellows)
            delta = tuple(relabel[i] for i in range(3))
            assert table.atom_of_tuple(g2, delta) == code


def test_structure_relations(structure):
    s = structure
    # interior relation is the identity on atoms
    alg = s.cm()
    x = alg.random_element(random.Random(4))
    assert alg.eq(alg.interior(0, x), x)
    # E_ij matches kernels: atoms below d_01 identify 0 and 1
    kid = s.kid_field()
    d01 = s.diag_mask(0, 1)
    assert (d01 == np.isin(kid, (0, 1))).all()
    assert s.diag_mask(0, 0).all()
    # T_i is an equivalence grouped by the away-from-i pair data
    code = int(s.codes[12345])
    assert s.ti_related(0, code, code)
    assert s.key_of_code(0, code) == R.unpack_atom(code)[1][(1, 2)]


def test_enumeration_refuses_other_dims():
    with pytest.raises(DimUnsupported):
        R.enumerate_atoms(R.signature(4))


def test_cylindrifier_oracle_and_random_elements(structure):
    """c_i x is the set of atoms whose pair data away from i is met by x.

    The pair field is re-derived here by shifting the packed codes (pair
    slots are 9 bits wide), independently of RainbowStructure.key_field.
    Random elements are seeded packed bits, one per atom.
    """
    s = structure
    alg = s.cm()
    x = alg.random_element(random.Random(3))
    assert (x == alg.random_element(random.Random(3))).all()
    assert not (x == alg.random_element(random.Random(4))).all()
    assert x.dtype == np.bool_ and x.flags.c_contiguous
    assert x.shape == (s.num_atoms,)
    assert 0.49 <= x.mean() <= 0.51
    rng = random.Random(11)
    elements = [alg.zero, alg.one,
                alg.random_element(rng), alg.random_element(rng)]
    for idx in (0, s.num_atoms - 1):   # first block and the partial last one
        elements.append(alg.atom_singleton(int(s.codes[idx])))
    for i in range(3):
        # axis i is opposite the pair (1,2), (0,2), (0,1): slot 0, 1, 2
        f = (s.codes >> (9 * i)) & (R.PAIR_SLOTS - 1)
        for x in elements:
            assert (alg.cyl(i, x) == np.isin(f, f[x], kind="table")).all()
