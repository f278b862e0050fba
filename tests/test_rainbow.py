import collections
import functools
import hashlib
import itertools
import json
import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topocyl import rainbow as R
from topocyl.errors import DimTooSmall, DimUnsupported, IndexOutOfRange

# frozen by running the exhaustive enumeration against the validity oracle
ATOM_COUNT_N3 = 10894256
# sha1 of the code table in canonical order, each code widened to int64
# (the table itself is int32), which pins each atom
ATOM_CODES_SHA1_N3 = "c7177f7d9b975b7846ba7fe94ed361c7aecd10b5"


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
    for c in sig.colours:
        assert sig.colour_codes[R.colour_code(c)] == c
    assert R.colour_code(("g0", 2)) == "g0^2"
    assert R.colour_code(("r", 1, 0)) == "r10"
    S = frozenset({0, 2})
    assert sig.shade_codes[R.yellow_codeword(S)] == S


def test_colour_codes_are_one_per_colour():
    """A red with a two-digit index has its indices separated, so each
    colour of n = 3..20 has its own code; every code of n <= 10 is r{i}{j},
    and a graph holding every red of n = 12 reads back."""
    for n in range(3, 21):
        sig = R.signature(n)
        assert len(sig.colour_codes) == len(sig.colours), n
    assert [R.colour_code(c) for c in R.signature(10).oriented_reds][-3:] == ["r96", "r97", "r98"]
    assert R.colour_code(("r", 1, 10)) == "r1,10" and R.colour_code(("r", 11, 0)) == "r11,0"
    sig = R.signature(12)
    pairs = list(itertools.combinations(range(17), 2))
    reds = list(sig.oriented_reds) + [("w", 0)] * (len(pairs) - len(sig.oriented_reds))
    g = R.ColouredGraph(sig, range(17), dict(zip(pairs, reds)), {})
    doc = g.to_json()
    assert doc["edges"]["(0,10)"] == "r0,10" and doc["edges"]["(13,15)"] == "r11,10"
    assert R.ColouredGraph.from_json(doc, sig).edges == g.edges


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


# sha1 of the JSON verdicts of the seeded corpus below, which pins each
# verdict's kind and witness
VERDICT_CORPUS_SHA1 = "11ee04d7689e6deed86904bbff3dce673583afc6"
VERDICT_KINDS = {None, "incomplete", "unknown-colour", "green-triangle", "two-g0-with-w0",
                 "gi-gi-wi", "red-inconsistent", "missing-yellow", "yellow-on-green-tuple",
                 "yellow-out-of-range", "bad-yellow-key", "cone-tint-outside-shade"}


def _verdict_corpus(n, count, rng):
    """Random graphs on n-1 .. n+2 nodes, mostly white, half with a planted
    cone, a shade on each green-free (n-1)-set, then up to two damages: an
    edge dropped or given a colour outside the signature, a yellow dropped,
    put on any (n-1)-set, given an index past the universe or a bad key."""
    sig = R.signature(n)
    whites = [c for c in sig.colours if c[0] == "w"]
    greens = [c for c in sig.colours if c[0] in ("g", "g0")]
    reds = list(sig.oriented_reds)
    outside = [("g", 0), ("g", 7), ("w", 9)]
    for _ in range(count):
        nodes = range(rng.randrange(n - 1, n + 3))
        pairs = list(itertools.combinations(nodes, 2))
        edges = {p: rng.choice(rng.choices((whites, greens, reds), (6, 3, 2))[0]) for p in pairs}
        if len(nodes) >= n and rng.random() < 0.5:
            apex, *base = rng.sample(nodes, n)
            spokes = [("g0", rng.choice(sig.tints))] + [("g", j) for j in range(1, n - 1)]
            for v, c in zip(base, spokes):
                edges[(min(v, apex), max(v, apex))] = c
            for u, v in itertools.combinations(sorted(base), 2):
                edges[(u, v)] = rng.choice(whites)
        g = R.ColouredGraph(sig, nodes, edges, {})
        for K in itertools.combinations(nodes, n - 1):
            if all(g.edge(u, v)[0] not in ("g", "g0") for u, v in itertools.combinations(K, 2)):
                g.yellows[K] = sig.full_shade if rng.random() < 0.5 else \
                    frozenset(rng.sample(sorted(sig.full_shade), rng.randrange(n + 3)))
        damages = ["edge", "colour", "yellow", "green", "range", "key"]
        for how in rng.sample(damages, rng.randrange(3)):
            if how == "edge" and pairs and rng.random() < 0.3:
                del g.edges[rng.choice(pairs)]
            elif how == "colour" and pairs and rng.random() < 0.3:
                g.edges[rng.choice(pairs)] = rng.choice(outside)
            elif how == "yellow" and g.yellows:
                del g.yellows[rng.choice(sorted(g.yellows))]
            elif how == "green" and len(nodes) >= n - 1:
                g.yellows[tuple(sorted(rng.sample(nodes, n - 1)))] = sig.full_shade
            elif how == "range" and g.yellows:
                g.yellows[rng.choice(sorted(g.yellows))] = frozenset({0, n + 2 + rng.randrange(3)})
            elif how == "key":
                key = rng.sample(range(len(nodes) + 2), rng.choice((n - 2, n - 1, n)))
                g.yellows[tuple(key)] = frozenset()
        yield g


def test_verdicts_on_a_seeded_corpus_pinned():
    """2,400 graphs at n = 3 and 4, valid ones and invalid ones of every
    verdict kind: each verdict, kind and witness is pinned."""
    rng = random.Random(27)
    verdicts = [R.is_valid_coloured_graph(g).to_json()
                for n in (3, 4) for g in _verdict_corpus(n, 1200, rng)]
    kinds = collections.Counter(v["kind"] for v in verdicts)
    assert set(kinds) == VERDICT_KINDS and min(kinds.values()) >= 20 and kinds[None] >= 500
    assert hashlib.sha1(json.dumps(verdicts).encode()).hexdigest() == VERDICT_CORPUS_SHA1


def _cones_by_definition(g, n):
    """Every (apex, base, tint) of g read from the definition: an n-set D
    and an apex in it, in the order of the sorted nodes, whose base D - apex
    has every pair labelled and none green, and whose base lists, in some
    order, the nodes whose spoke to the apex is g_0^tint, g_1, .., g_{n-2}."""
    def label(u, v):
        return g.edges.get((min(u, v), max(u, v)))

    out = []
    for D in itertools.combinations(sorted(g.nodes), n):
        for apex in D:
            base = [v for v in D if v != apex]
            if any(label(u, v) is None or label(u, v)[0] in ("g", "g0")
                   for u, v in itertools.combinations(base, 2)):
                continue
            for order in itertools.permutations(base):
                first = label(order[0], apex)
                if first is not None and first[0] == "g0" and all(
                        label(order[j], apex) == ("g", j) for j in range(1, n - 1)):
                    out.append((apex, order, first[1]))
    return out


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_cones_in_agrees_with_the_definition(data):
    """cones_in yields the cones of the definition in the same order, on
    graphs at n = 3, 4 and 5 with missing edges, greens outside the
    signature and planted cones."""
    n = data.draw(st.sampled_from([3, 4, 5]))
    sig = R.signature(n)
    nodes = range(data.draw(st.integers(n - 1, n + 1)))
    greens = [c for c in sig.colours if c[0] in ("g", "g0")]
    palette = [None, ("g", 0), ("g", 7)] + greens * 2 + list(sig.colours)
    edges = {p: data.draw(st.sampled_from(palette)) for p in itertools.combinations(nodes, 2)}
    if len(nodes) >= n and data.draw(st.integers(0, 3)):
        apex, *base = data.draw(st.permutations(nodes))[:n]
        spokes = [("g0", data.draw(st.sampled_from([0, *sig.tints, 9])))]
        for v, c in zip(base, spokes + [("g", j) for j in range(1, n - 1)]):
            edges[(min(v, apex), max(v, apex))] = c
        base_pairs = list(itertools.combinations(sorted(base), 2))
        for p in base_pairs:
            edges[p] = data.draw(st.sampled_from([("w", 0), ("w", 1), ("r", 0, 1)]))
        if data.draw(st.booleans()):
            edges[data.draw(st.sampled_from(base_pairs))] = data.draw(
                st.sampled_from([None, ("g", 0), ("g", 7), ("g0", 1)]))
    edges = {p: c for p, c in edges.items() if c is not None}
    g = R.ColouredGraph(sig, nodes, edges, {})
    assert list(R.cones_in(g)) == _cones_by_definition(g, n)


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
    # a count and an order do not rule out swapping one atom for another
    widened = table.codes.astype(np.int64)
    assert hashlib.sha1(widened.tobytes()).hexdigest() == ATOM_CODES_SHA1_N3


def test_table_holds_exactly_the_valid_quotient_graphs(sig, structure):
    """A seeded random quotient graph of a kernel, a signature colour on each
    pair and a shade on each non-green pair, pulls back to an atom of the
    table exactly when the validator accepts it."""
    rng = random.Random(27)
    outcomes = collections.Counter()
    for _ in range(20000):
        blocks = rng.choice(R.KERNELS)
        delta = [b for i in range(3) for b, block in enumerate(blocks) if i in block]
        nodes = range(len(blocks))
        edges = {p: rng.choice(sig.colours) for p in itertools.combinations(nodes, 2)}
        yellows = {p: rng.choice(sig.shades) for p, c in edges.items() if c[0] not in ("g", "g0")}
        g = R.ColouredGraph(sig, nodes, edges, yellows)
        valid = bool(R.is_valid_coloured_graph(g))
        assert structure.is_atom(structure.table.atom_of_tuple(g, delta)) == valid, (edges, yellows)
        outcomes[valid] += 1
    assert outcomes[True] >= 500 and outcomes[False] >= 500


def test_atom_count_independent_formula(sig):
    """Recompute the census from scratch: one size-1 atom; size-2 kernels
    carry one quotient edge each; size-3 graphs multiply yellow choices per
    valid edge colouring, halved per cone constraint."""
    greens = 5
    nongreen = 2 + 6
    per_kernel = greens + nongreen * 32
    total = 1 + 3 * per_kernel
    colours = list(sig.colours)
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


def test_codec_constants_and_rules(table):
    """The packed code's widths are derived from the n = 3 signature and
    PAIRS; a code round-trips through unpack_atom, and the key, group and
    kernel rules read the code array as they read each code."""
    assert (R.EDGE_NONE, R.YELLOW_NONE, R.PAIR_BASE, R.IDENT_PAIR, R.PAIR_SLOTS,
            R.TAIL_BITS) == (13, 32, 33, 461, 512, 6)
    assert R.pair_parts(R.pair_value(12, 31)) == (12, 31)
    codes = table.codes
    rng = random.Random(35)
    idx = [0, *sorted(rng.sample(range(1, table.count - 1), 300)), table.count - 1]
    sample = codes[idx].tolist()
    for code in sample:
        kid, pairs = R.unpack_atom(code)
        assert R.pack_atom(kid, pairs) == code
        # an identified pair is the default, exactly where the kernel says
        assert [pairs[p] == R.IDENT_PAIR for p in R.PAIRS] == list(R.KERNEL_EQ[kid])
        assert R.pack_atom(kid, {p: v for p, v in pairs.items() if v != R.IDENT_PAIR}) == code
        assert [R.key_of(i, code) for i in range(3)] == [pairs[p] for p in R.PAIRS[::-1]]
        assert R.slot(1, R.group_of(code)) + R.key_of(0, code) == code
    for rule in [functools.partial(R.key_of, i) for i in range(3)] + [R.group_of, R.kernel_of]:
        assert rule(codes)[idx].tolist() == [rule(code) for code in sample]
    # the kernels ascend over five runs, in KERNELS order
    kids = R.kernel_of(codes)
    assert (np.diff(kids) >= 0).all()
    assert kids[np.r_[0, np.flatnonzero(np.diff(kids)) + 1]].tolist() == \
        list(range(len(R.KERNELS)))


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
    # E_ij matches kernels: atoms below d_ij identify i and j; the kernel
    # id is re-derived from the top code slot
    kid = s.codes >> 27
    for i, j in itertools.product(range(3), repeat=2):
        same = [k for k, blocks in enumerate(R.KERNELS)
                if any(i in b and j in b for b in blocks)]
        assert (s.diag_mask(i, j) == np.isin(kid, same)).all(), (i, j)
    assert s.diag_mask(0, 0).all()
    # T_i is an equivalence grouped by the away-from-i pair data
    code = int(s.codes[12345])
    assert s.ti_related(0, code, code)
    assert s.key_of_code(0, code) == R.unpack_atom(code)[1][(1, 2)]


def test_indices_outside_the_dimension_are_refused(structure):
    """d_ij, c_i and I_i refuse an index outside 0..2 naming it, as the
    other algebras do, instead of answering d_77 with every atom."""
    alg = structure.cm()
    for call, index in ((lambda: structure.diag_mask(7, 7), "(7,7)"),
                        (lambda: structure.diag_mask(0, 5), "(0,5)"),
                        (lambda: alg.dg(0, 5), "(0,5)"),
                        (lambda: alg.cyl(5, alg.zero), "index 5"),
                        (lambda: alg.cyl(-1, alg.zero), "index -1"),
                        (lambda: alg.interior(5, alg.zero), "index 5"),
                        (lambda: alg.interior(-1, alg.zero), "index -1")):
        with pytest.raises(IndexOutOfRange, match=re.escape(index)):
            call()


def test_lookups_refuse_codes_outside_the_table_dtype(structure):
    """The table is int32: a code outside 0 <= code < 2**31 is no atom, and
    is refused before it is taken to the table's dtype, so an atom plus
    2**32 is not read as the atom."""
    s = structure
    code = int(s.codes[12345])
    assert s.is_atom(code) is True and s.index_of(code) == 12345
    assert s.is_atom(np.int64(code)) is True and s.is_atom(code + 0.5) is False
    for bad in (-1, 2**31, 2**63, 2**70, code + 2**32):
        assert s.is_atom(bad) is False, bad
        with pytest.raises(KeyError):
            s.index_of(bad)
    assert s.ti_related(0, np.int32(code), code) is True


def test_lookups_do_not_widen_the_table(table):
    """Searching the int32 table for a Python int would make numpy copy all
    of it to int64 (87 MB) on every call. Traced by tracemalloc, which
    counts numpy's data buffers, each lookup allocates under 1 MB, and a
    fresh diagonal mask under 1 MB beyond the mask itself."""
    s = R.RainbowStructure(table)
    code = int(s.codes[-1])
    calls = [(lambda: s.is_atom(code), 0), (lambda: s.index_of(code), 0),
             (lambda: s.ti_related(1, code, code), 0), (lambda: s.diag_mask(0, 1), s.num_atoms)]
    tracemalloc.start()
    try:
        for k, (call, result_bytes) in enumerate(calls):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            call()
            assert tracemalloc.get_traced_memory()[1] - before < result_bytes + (1 << 20), k
    finally:
        tracemalloc.stop()


def test_derived_tables_are_read_only(table):
    """The codes, every cached derived table, zero, one and the diagonals
    refuse writes, so a caller writing into a diagonal cannot change later
    verdicts; the three d_ii are one shared element, one."""
    s = R.RainbowStructure(table)
    alg = s.cm()
    d01 = alg.dg(0, 1)
    expected = d01.copy()
    layout = s.rows()
    tables = [s.codes, s.key_field(0), layout.bounds, layout.order, layout.one,
              layout.block_rows, layout.by_key, layout.key_cuts, layout.key_row, layout.keys,
              s.row_keys(1), s.row_keys(2), *s.blocks(), alg.zero, alg.one, d01, alg.dg(1, 1)]
    for k, a in enumerate(tables):
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0
        assert not a.flags.writeable, k
    with pytest.raises(ValueError):
        d01 |= alg.one
    assert (alg.dg(1, 0) == expected).all()
    assert alg.dg(0, 0) is alg.dg(1, 1) is alg.dg(2, 2) is alg.one


def test_cm_builds_no_layout_table(table, monkeypatch):
    """cm() reads no table, so a caller that never takes c_i (the
    benchmark's set-up among them) does not pay for the layout. zero and
    one build the element layout, once per structure; the first c_i on
    axis 1 or 2 builds that axis' row keys once per structure, c_0 reads
    the layout and the table's own blocks, and no c_i expands a key
    field."""
    s = R.RainbowStructure(table)
    alg = s.cm()
    assert s._rows is None and not s._row_keys
    alg.zero, alg.one
    layout = s.rows()
    assert not s._row_keys and alg.one.base is layout.one
    x = alg.atom_singleton(int(s.codes[-1]))

    def no_key_field(self, i):
        raise AssertionError(f"c_i expanded the key field of axis {i}")

    monkeypatch.setattr(R.RainbowStructure, "key_field", no_key_field)
    tables = []
    for i in range(3):
        alg.cyl(i, x)
        tables.append(s.blocks() if i == 0 else s.row_keys(i))
    again = s.cm()
    for i in range(3):
        assert again.cyl(i, again.one).layout is layout
    assert s.rows() is layout and s.blocks() is tables[0] is table.blocks
    assert s.row_keys(1) is tables[1] and s.row_keys(2) is tables[2]
    assert sorted(s._row_keys) == [1, 2]


def test_structure_retains_nothing_per_atom(table):
    """The key fields, groups and diagonal masks are expanded on each call
    and kept by the caller: once the cached rows and row keys are built,
    every groups(i) and diag_mask(i, j) of a fresh structure, results
    dropped, leaves tracemalloc's current size (which counts numpy's data
    buffers) within 1 MB of where it was; caching them kept about 104 MiB."""
    s = R.RainbowStructure(table)
    s.rows(), s.row_keys(1), s.row_keys(2)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(3):
            s.groups(i)
        for i, j in itertools.product(range(3), repeat=2):
            s.diag_mask(i, j)
        assert tracemalloc.get_traced_memory()[0] - before < 1 << 20
    finally:
        tracemalloc.stop()


# tracemalloc's peak while enumerate_atoms(signature(3)) builds a table,
# less the table's codes, with the signature's own tables already built:
# 320,008 bytes when the codes were filled colouring by colouring and then
# sorted in place
BUILD_PEAK_BEYOND_CODES = 320008


def test_build_peak_stays_near_the_codes(table):
    """The emission holds one span's entries at a time and frees them, and
    the layout it keeps is small, before the codes are allocated: traced
    by tracemalloc (which counts numpy's data buffers), a build peaks
    within 1 MB of BUILD_PEAK_BEYOND_CODES above its codes."""
    tracemalloc.start()
    try:
        again = R.enumerate_atoms(table.sig)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(again.codes, table.codes)
    assert peak - again.codes.nbytes <= BUILD_PEAK_BEYOND_CODES + (1 << 20)


def test_enumeration_refuses_other_dims():
    with pytest.raises(DimUnsupported):
        R.enumerate_atoms(R.signature(4))


# the words of an n = 3 element: each of the 68,905 groups in as many
# words as its atoms need (784 of 1 word, 36,872 of 2, 149 of 4 and 31,100
# of 5); every group in 5 words took 344,525
ELEMENT_WORDS_N3 = 230624


def test_random_element_pinned(structure):
    """A seeded random element is its sub-seed's raw PCG64 words, one
    (5 x groups) matrix, with each group's bits read from its own column:
    a sha1 of its canonical atoms, packed, recorded from the element the
    (groups x 5) word matrix held. The conversion to canonical atoms agrees
    with x[p] and with atom_singleton, which do not go through it, and
    inverts `element`."""
    s = structure
    alg = s.cm()
    x = alg.random_element(random.Random(5))
    flags = alg.flags(x)
    assert flags.dtype == bool and flags.shape == (s.num_atoms,)
    assert hashlib.sha1(np.packbits(flags).tobytes()).hexdigest() == \
        "99176f194f2a894fe0d783375dd13c36484fff12"
    assert alg.eq(alg.element(flags), x)
    positions = random.Random(6).sample(range(s.num_atoms), 2000) + [0, s.num_atoms - 1]
    assert all(x[p] is bool(flags[p]) for p in positions)
    for p in positions[:16] + positions[-2:]:
        single = alg.flags(alg.atom_singleton(int(s.codes[p])))
        assert np.flatnonzero(single).tolist() == [p]


def test_cylindrifier_oracle_and_random_elements(structure):
    """c_i x is the set of atoms whose pair data away from i is met by x.

    The pair field is re-derived here by shifting the packed codes (pair
    slots are 9 bits wide), independently of RainbowStructure.key_field and
    of the layout tables, and compared on each element's canonical atoms,
    read and written through the algebra's conversion (`flags`,
    `element`). Inputs include singletons at both ends of a run of equal
    keys on axes 1 and 2, one atom at every axis-2 run start, singletons at
    the first and last atom, at the first and last atom of a many-group
    axis-0 block, of a one-group block and of the last block, and one atom
    at every block start. Random elements are seeded words, one bit per
    atom.
    """
    s = structure
    alg = s.cm()
    x = alg.flags(alg.random_element(random.Random(3)))
    assert (x == alg.flags(alg.random_element(random.Random(3)))).all()
    assert not (x == alg.flags(alg.random_element(random.Random(4)))).all()
    assert x.shape == (s.num_atoms,)
    assert 0.49 <= x.mean() <= 0.51
    rng = random.Random(11)
    elements = [alg.zero, alg.one,
                alg.random_element(rng), alg.random_element(rng)]
    # axis i is opposite the pair (1,2), (0,2), (0,1): slot 0, 1, 2
    fields = [(s.codes >> (9 * i)) & (R.PAIR_SLOTS - 1) for i in range(3)]
    run_starts = {i: np.flatnonzero(fields[i][1:] != fields[i][:-1]) + 1 for i in (1, 2)}
    ends = [0, s.num_atoms - 1]
    for starts in run_starts.values():
        mid = len(starts) // 2
        ends += [int(starts[mid]), int(starts[mid + 1]) - 1]
    bounds = s.table.bounds
    first_groups = np.append(s.blocks()[0], len(bounds) - 1)
    block_starts = bounds[first_groups[:-1]]
    groups = np.diff(first_groups)
    tall = int(np.flatnonzero(groups > 1)[len(groups) // 4])
    flat = int(np.flatnonzero(groups == 1)[-1])
    for b in (tall, flat, len(groups) - 1):
        ends += [int(bounds[first_groups[b]]), int(bounds[first_groups[b + 1]]) - 1]
    for idx in ends:
        elements.append(alg.atom_singleton(int(s.codes[idx])))
    for starts in (np.r_[0, run_starts[2]], block_starts):
        sparse = np.zeros(s.num_atoms, dtype=bool)
        sparse[starts] = True
        elements.append(alg.element(sparse))
    # each element's canonical atoms, packed
    held = [np.packbits(alg.flags(x)) for x in elements]
    for i, f in enumerate(fields):
        key_field = s.key_field(i)
        assert key_field.dtype == np.uint16 and np.array_equal(key_field, f)
        if i:
            # f is constant on each of its runs in code order: 68,645 on
            # axis 1 and 784 on axis 2
            starts = np.r_[0, run_starts[i]]
            keys, lens = f[starts], np.diff(starts, append=s.num_atoms)
        else:
            # nearly every atom is a run of its own, so each atom is looked
            # up alone; the field is widened to intp once, not by each take
            f = f.astype(np.intp)
        for x, packed in zip(elements, held):
            atoms = np.unpackbits(packed, count=s.num_atoms).view(bool)
            # the keys x meets, as a PAIR_SLOTS-entry membership table
            met = np.zeros(R.PAIR_SLOTS, dtype=bool)
            if i:
                met[keys[np.logical_or.reduceat(atoms, starts)]] = True
                expected = np.repeat(met[keys], lens)
            else:
                met[f.take(np.flatnonzero(atoms))] = True
                expected = met.take(f)
            assert alg.eq(alg.cyl(i, x), alg.element(expected))


def test_element_layout_covers_the_atoms_in_code_order(table, monkeypatch):
    """The layout of a fresh structure: the groups cover atom 0 to the last
    atom in code order, one group (code >> 9) each; each group is one row
    of as many words as its atoms need, and the panels hold the rows of one
    word count each, in code order, ELEMENT_WORDS_N3 words in all; `one`
    sets exactly each row's atoms; every row of an axis-0 block lists the
    block's key row (the lowest pair slot, re-derived here from the
    codes), adjacent blocks list different key rows, and a block's rows
    are one run of one panel; no operation sets a padding bit; x[p] reads
    canonical atom p at both ends of a group in every panel; and no c_i
    expands a key field."""

    def no_key_field(self, i):
        raise AssertionError(f"the key field of axis {i} was expanded")

    monkeypatch.setattr(R.RainbowStructure, "key_field", no_key_field)
    s = R.RainbowStructure(table)
    alg = s.cm()
    layout = s.rows()
    bounds = layout.bounds
    widths = np.diff(bounds)
    assert bounds[0] == 0 and bounds[-1] == s.num_atoms and (widths > 0).all()
    group = s.codes >> 9
    assert np.array_equal(np.flatnonzero(group[1:] != group[:-1]) + 1, bounds[1:-1])
    words = -(-widths // 64)
    assert layout.size == ELEMENT_WORDS_N3 == words.sum()
    assert alg.one.dtype == alg.zero.dtype == np.uint64
    assert alg.one.shape == alg.zero.shape == (ELEMENT_WORDS_N3,)
    assert [w for w, *_ in layout.panels] == [1, 2, 4, 5]
    assert sorted(layout.order.tolist()) == list(range(len(widths)))
    row = 0
    for (w, lo, hi, off), view in zip(layout.panels, layout.split(alg.one)):
        rows = layout.order[lo:hi]
        assert lo == row and (words[rows] == w).all() and (np.diff(rows) > 0).all()
        assert view.shape == (w, hi - lo) and np.shares_memory(view, alg.one[off:off + 1])
        bits = np.unpackbits(np.ascontiguousarray(view.T).view(np.uint8), axis=1,
                             bitorder="little").view(bool)
        assert np.array_equal(bits, np.arange(64 * w) < widths[rows][:, None])
        row = hi
    assert row == len(widths)
    starts, rows, keys = s.blocks()
    field = s.codes & (R.PAIR_SLOTS - 1)
    assert starts[0] == 0 and (np.diff(starts) > 0).all() and (rows[1:] != rows[:-1]).all()
    assert len({k.tobytes() for k in keys}) == len(keys) == rows.max() + 1
    for a, b, r in zip(starts.tolist(), np.append(starts[1:], len(widths)).tolist(),
                       rows.tolist()):
        m, L = b - a, int(widths[a])
        assert (widths[a:b] == L).all() and (keys[r, L:] == R.PAIR_SLOTS).all()
        assert (field[bounds[a]:bounds[b]].reshape(m, L) == keys[r, :L]).all()
        first = int(np.flatnonzero(layout.order == a)[0])
        assert np.array_equal(layout.order[first:first + m], np.arange(a, b))
        assert first in layout.block_rows and (layout.key_row[first:first + m] == r).all()
        assert any(lo <= first and first + m <= hi for _, lo, hi, _ in layout.panels)
    x = alg.random_element(random.Random(7))
    padded = [alg.minus(x), x, alg.dg(0, 1), alg.dg(1, 2), alg.zero, alg.one,
              alg.atom_singleton(int(s.codes[-1]))]
    padded += [alg.cyl(i, y) for i in range(3) for y in (x, padded[-1])]
    padded += [alg.times(x, alg.one), alg.plus(x, alg.zero)]
    for k, y in enumerate(padded):
        assert not (y & ~alg.one).any(), k
    flags = alg.flags(x)
    positions = random.Random(8).sample(range(s.num_atoms), 1000) + [-1]
    for _, lo, hi, _ in layout.panels:
        for g in (layout.order[lo], layout.order[hi - 1]):
            positions += [int(bounds[g]), int(bounds[g + 1]) - 1]
    for y, canon in ((x, flags), (alg.minus(x), ~flags)):
        assert all(y[p] is bool(canon[p]) for p in positions)
    for p in (s.num_atoms, -s.num_atoms - 1):
        with pytest.raises(IndexError):
            x[p]
    assert x[np.int64(-1)] is bool(flags[-1])
    assert x[1:3].shape == (2,) and x[True].shape == (1, ELEMENT_WORDS_N3)
    assert alg.cyl(0, padded[6])[s.num_atoms - 1] is True
