"""Acceptance suite: one test per criterion, each at its stated tolerance,
with a pass/fail line in the terminal summary."""

import random
import time

import numpy as np
import pytest

from conftest import record_acceptance

from topocyl import bao as B
from topocyl import games as G
from topocyl import modal as M
from topocyl import rainbow as R
from topocyl import setalg as S
from topocyl import topology as T

SEED = 20260809
ATOM_COUNT_N3 = 10894256


@pytest.fixture(scope="module")
def rainbow_structure():
    return R.build_atom_structure(R.signature(3))


def test_criterion_1_kripke_alexandrov_equivalence():
    """Preorders of size <= 4 (exhaustive through 3, sampled at 4), all
    valuations over two atoms, >= 500 seeded formulas of modal depth <= 3;
    satisfaction sets must agree pointwise, exactly, within 60 s."""
    t0 = time.time()
    rng = random.Random(SEED)
    formulas = [M.random_formula(rng, 2, 3) for _ in range(520)]
    assert len(formulas) >= 500

    frames = []
    for size in (1, 2, 3):
        frames.extend(T.enumerate_preorders(size))
    pool4 = list(T.enumerate_preorders(4))
    frames.extend(rng.sample(pool4, 24))

    checked = 0
    for p in frames:
        size = p.size
        topo = T.alexandrov(p)
        V = 1 << size
        vals = {a: np.zeros((V * V, size), dtype=bool) for a in (0, 1)}
        row = 0
        for v0 in range(V):
            for v1 in range(V):
                for x in range(size):
                    vals[0][row, x] = v0 >> x & 1
                    vals[1][row, x] = v1 >> x & 1
                row += 1
        for f in formulas:
            a = M.eval_kripke_batch(p, vals, f)
            b = M.eval_topo_batch(topo, vals, f)
            assert np.array_equal(a, b), (p, M.unparse(f))
            checked += a.shape[0]
    elapsed = time.time() - t0
    ok = elapsed < 60
    record_acceptance(
        1, "Kripke/Alexandrov equivalence", ok,
        f"{len(frames)} frames x {len(formulas)} formulas, "
        f"{checked} pointwise set comparisons, {elapsed:.1f}s (< 60s)")
    assert ok


def test_criterion_2_axiom_soundness():
    """Full topological set algebras for (n,u) in {(2,2),(2,3),(3,2)} under
    every topology on u points pass the CA and TCA suites on >= 10,000
    seeded environments each, zero violations, under 5 minutes total."""
    t0 = time.time()
    configs = 0
    for n, u in ((2, 2), (2, 3), (3, 2)):
        for topo in T.enumerate_topologies(u):
            sp = S.SetAlgebraSpace(n, u, topo)
            alg = B.SetAlgebra(sp)
            for suite in ("CA", "TCA"):
                # guarded axioms only count guard-passing environments, so
                # oversample enough that the tested total still clears 10k
                rep = B.check_axiom_suite(alg, suite, mode="sampled",
                                          samples=1200, seed=SEED)
                assert rep["all_pass"], (n, u, topo.to_json(), suite, [
                    a for a in rep["axioms"] if a["verdict"] == "fails"])
                total_envs = sum(a["tested"] for a in rep["axioms"])
                assert total_envs >= 10000, (n, u, suite, total_envs)
            configs += 1
    elapsed = time.time() - t0
    ok = elapsed < 300
    record_acceptance(
        2, "CA+TCA soundness", ok,
        f"{configs} (dimension, base, topology) configs, both suites, "
        f">=10k seeded environments each, zero violations, {elapsed:.1f}s (< 300s)")
    assert ok


def test_criterion_3_witness_fixtures():
    """Non-additivity and non-term-definability witnesses, exact fixtures."""
    ind = S.SetAlgebraSpace(2, 2, T.make_topology(2, preset="indiscrete"))
    a = ind.element([(0, 0)])
    b = ind.element([(1, 0)])
    union = a | b
    lhs = S.interior_op(ind, 0, a) | S.interior_op(ind, 0, b)
    rhs = S.interior_op(ind, 0, union)
    assert lhs == 0
    assert rhs == union and list(ind.members(rhs)) == [(0, 0), (1, 0)]

    dis = S.SetAlgebraSpace(2, 2, T.make_topology(2, preset="discrete"))
    named = [(0, 0)]
    x_d, x_i = dis.element(named), ind.element(named)
    assert S.interior_op(dis, 0, x_d) == x_d
    assert S.interior_op(ind, 0, x_i) == 0
    for bits in range(16):
        for i in range(2):
            assert S.cyl(dis, i, bits) == S.cyl(ind, i, bits)
            for j in range(2):
                assert S.diag(dis, i, j) == S.diag(ind, i, j)
    record_acceptance(
        3, "non-additivity + non-term-definability witnesses", True,
        "indiscrete u=2 n=2: I0{(0,0)} | I0{(1,0)} = {} != {(0,0),(1,0)}; "
        "discrete vs indiscrete interiors differ on {(0,0)} with equal "
        "cylindric reducts, exact")
    assert True


def test_criterion_4_lemma_box():
    """On (2,2) under every topology on two points: I_k(x) <= x for all 16
    elements, and the neat lift into dimension 3 commutes with I_k and c_i."""
    t0 = time.time()
    checked = 0
    for topo in T.enumerate_topologies(2):
        sp = S.SetAlgebraSpace(2, 2, topo)
        big = S.lifted(sp, 1)
        for x in range(16):
            lift = S.neat_lift(sp, x, big)
            for k in range(2):
                assert S.interior_op(sp, k, x) & ~x == 0
                assert S.neat_lift(sp, S.interior_op(sp, k, x), big) == \
                    S.interior_op(big, k, lift)
                assert S.neat_lift(sp, S.cyl(sp, k, x), big) == S.cyl(big, k, lift)
                checked += 1
    elapsed = time.time() - t0
    record_acceptance(
        4, "box lemma: I below identity, neat lift commutes", True,
        f"{checked} exact checks over 4 topologies x 16 elements x 2 axes, "
        f"{elapsed:.1f}s")
    assert True


def test_criterion_5_subdirect_decomposition():
    """Two indiscrete summands of sizes 1 and 2 at n=2: the decomposition
    map is a bijective homomorphism for every operation including interior,
    exhaustively over all 32 elements. Each operation of the generalized
    space (relativized to the union of the summand cubes) is checked
    against the same operation computed on the parts by each summand's own
    space."""
    ind1 = T.make_topology(1, preset="indiscrete")
    ind2 = T.make_topology(2, preset="indiscrete")
    summands = [S.SetAlgebraSpace(2, 1, ind1), S.SetAlgebraSpace(2, 2, ind2)]
    g = S.GeneralizedSpace(summands)
    assert g.topology == T.coproduct([ind1, ind2])

    def dec(x):
        return S.decompose_generalized(g, x)

    def parts_of(op, parts):
        return tuple(op(sp, p) for sp, p in zip(summands, parts))

    seen = set()
    elements = list(g.all_elements())
    assert len(elements) == 32
    for x in elements:
        parts = dec(x)
        assert parts not in seen
        seen.add(parts)
        for i in range(2):
            assert dec(S.cyl(g, i, x)) == parts_of(lambda sp, p: S.cyl(sp, i, p), parts)
            assert dec(S.interior_op(g, i, x)) == \
                parts_of(lambda sp, p: S.interior_op(sp, i, p), parts)
        for y in elements:
            assert dec(x | y) == tuple(p | q for p, q in zip(parts, dec(y)))
            assert dec(x & y) == tuple(p & q for p, q in zip(parts, dec(y)))
        assert dec(g.full_bits ^ x) == parts_of(lambda sp, p: sp.full_bits ^ p, parts)
    # onto the product: every pair of summand elements is hit
    assert len(seen) == 2 ** 1 * 2 ** 4
    for i in range(2):
        for j in range(2):
            assert dec(S.diag(g, i, j)) == tuple(S.diag(sp, i, j) for sp in summands)
    record_acceptance(
        5, "subdirect decomposition", True,
        "32/32 elements: componentwise map is a bijective homomorphism for "
        "Boolean ops, c_i, d_ij and interior, against each summand's own "
        "space, exact")
    assert True


# -- criterion 6: the independent vectorized validity oracle -----------------

GREEN_MAX = 4          # codes 0..4: g1, g0^1..g0^4
WHITE0, WHITE1 = 5, 6  # w0, w1
ORIENT = [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]  # codes 7..12
IDENT, Y_NONE = 13, 32


def _trio_tables():
    """Validity and cone requirements for a 3-node graph with edge codes
    (e01, e02, e12), derived from the forbidden-configuration rules from
    scratch (independent of the enumerator's helpers)."""

    def is_g(e):
        return e <= GREEN_MAX

    def is_g0(e):
        return 1 <= e <= 4

    def is_r(e):
        return e >= 7

    def ends(e, u, v):
        a, b = ORIENT[e - 7]
        return (a, b) if u < v else (b, a)

    valid = np.zeros(13 ** 3, dtype=bool)
    req = np.zeros((13 ** 3, 3), dtype=np.int64)  # tint bits per pair 01,02,12
    pair_index = {(0, 1): 0, (0, 2): 1, (1, 2): 2}
    for e01 in range(13):
        for e02 in range(13):
            for e12 in range(13):
                code = (e01 * 13 + e02) * 13 + e12
                edges = {(0, 1): e01, (0, 2): e02, (1, 2): e12}
                greens = sum(is_g(e) for e in edges.values())
                bad = greens == 3
                if not bad and greens == 2:
                    w = next(e for e in edges.values() if not is_g(e))
                    gs = [e for e in edges.values() if is_g(e)]
                    if w == WHITE0 and all(is_g0(e) for e in gs):
                        bad = True
                    if w == WHITE1 and gs[0] == gs[1] == 0:
                        bad = True
                if not bad and all(is_r(e) for e in edges.values()):
                    f0, f1 = ends(e01, 0, 1)
                    f1b, f2 = ends(e12, 1, 2)
                    f0b, f2b = ends(e02, 0, 2)
                    bad = not (f1 == f1b and f0 == f0b and f2 == f2b)
                if bad:
                    continue
                valid[code] = True
                for apex in (0, 1, 2):
                    a, b = sorted(set((0, 1, 2)) - {apex})
                    ea = edges[tuple(sorted((a, apex)))]
                    eb = edges[tuple(sorted((b, apex)))]
                    base = edges[(a, b)]
                    if is_g(base):
                        continue
                    tint = None
                    if is_g0(ea) and eb == 0:
                        tint = ea  # g0^i has code i
                    elif is_g0(eb) and ea == 0:
                        tint = eb
                    if tint is not None:
                        req[code, pair_index[(a, b)]] |= 1 << tint
    return valid, req


def test_criterion_6_rainbow_construction(rainbow_structure):
    """Atom enumeration completes; every atom passes graph validity (full
    vectorized pass with an oracle re-derived from the colour rules, plus
    scalar graph-oracle agreement on a seeded sample and the whole small
    stratum); cm passes the CA suite exhaustively on the per-atom frame
    conditions and sampled on elements; the atom count is the regression
    fixture 10894256 [derived by exhaustive enumeration]."""
    t0 = time.time()
    s = rainbow_structure
    codes = s.codes
    assert s.num_atoms == ATOM_COUNT_N3
    assert (np.diff(codes) > 0).all()  # canonical order, no duplicates

    p12 = codes % R.PAIR_SLOTS
    rest = codes // R.PAIR_SLOTS
    p02 = rest % R.PAIR_SLOTS
    rest //= R.PAIR_SLOTS
    p01 = rest % R.PAIR_SLOTS
    kid = rest // R.PAIR_SLOTS
    pairs = [p01, p02, p12]
    edges = [p // 33 for p in pairs]
    yellows = [p % 33 for p in pairs]

    assert (kid <= 4).all()
    ident_pattern = np.array([
        [True, True, True],    # all identified
        [True, False, False],  # 0~1
        [False, True, False],  # 0~2
        [False, False, True],  # 1~2
        [False, False, False],
    ])
    for slot in range(3):
        ident = ident_pattern[kid, slot]
        assert ((edges[slot] == IDENT) == ident).all()
        assert ((yellows[slot] == Y_NONE) | ~ident).all()
        live = ~ident
        e, y = edges[slot][live], yellows[slot][live]
        assert (e < 13).all()
        green = e <= GREEN_MAX
        assert ((y == Y_NONE) == green).all()
        assert (y[~green] < 32).all()

    # two-node kernels: both live slots must carry the same quotient edge
    flip = np.arange(14)
    for idx, (a, b) in enumerate(ORIENT):
        flip[7 + idx] = 7 + ORIENT.index((b, a))
    m = kid == 1
    assert (p02[m] == p12[m]).all()
    m = kid == 3
    assert (p01[m] == p02[m]).all()
    m = kid == 2
    assert (flip[edges[0][m]] == edges[2][m]).all()
    assert (yellows[0][m] == yellows[2][m]).all()

    # three-node kernels: triangle validity and cone clause, re-derived
    valid, req = _trio_tables()
    m = kid == 4
    trio = (edges[0][m] * 13 + edges[1][m]) * 13 + edges[2][m]
    assert valid[trio].all()
    for slot in range(3):
        need = req[trio, slot]
        have = yellows[slot][m].astype(np.int64)
        assert ((have & need) == need).all()
    vec_time = time.time() - t0

    # scalar graph-oracle agreement: whole small stratum plus a seeded sample
    small = codes[kid < 4]
    for code in small:
        assert s.table.valid_atom(int(code))
    rng = random.Random(SEED)
    for idx in rng.sample(range(s.num_atoms), 2500):
        assert s.table.valid_atom(int(codes[idx]))

    # CA suite: frame conditions exhaustively on atoms
    for i in range(3):
        assert s.diag_mask(i, i).all()                       # d_ii = 1
        inv = s.groups(i)
        ngroups = int(inv.max()) + 1
        for j in range(3):
            if i == j:
                continue
            counts = np.bincount(inv[s.diag_mask(i, j)], minlength=ngroups)
            assert counts.max(initial=0) <= 1                # CA8 frame shape
    alg = s.cm()
    zero = alg.zero
    for i in range(3):
        assert alg.eq(alg.cyl(i, zero), zero)                # c_i 0 = 0
    for i in range(3):
        for j in range(3):
            for k in range(3):
                if k != i and k != j:
                    lhs = alg.dg(i, j)
                    rhs = alg.cyl(k, alg.times(alg.dg(i, k), alg.dg(j, k)))
                    assert alg.eq(lhs, rhs)                  # CA7, exact
    # commuting cylindrifiers and CA3/CA4 on sampled atom singletons
    for idx in rng.sample(range(s.num_atoms), 40):
        code = int(codes[idx])
        x = alg.atom_singleton(code)
        for i in range(3):
            cx = alg.cyl(i, x)
            assert bool(cx[s.index_of(code)])                # x <= c_i x
            for j in range(i + 1, 3):
                assert alg.eq(alg.cyl(i, alg.cyl(j, x)), alg.cyl(j, alg.cyl(i, x)))
    # element-level CA suite, sampled
    rep = B.check_axiom_suite(alg, "CA", mode="sampled", samples=4, seed=SEED)
    assert rep["all_pass"], [a for a in rep["axioms"] if a["verdict"] == "fails"]
    elapsed = time.time() - t0
    record_acceptance(
        6, "rainbow construction at n=3", True,
        f"{ATOM_COUNT_N3} atoms enumerated and revalidated (vectorized full "
        f"pass {vec_time:.1f}s + scalar oracle on the small stratum and a "
        f"2500-atom sample); CA frame conditions exhaustive on atoms, "
        f"element suite sampled; total {elapsed:.1f}s")
    assert True


def test_criterion_7_forall_scripted_win(rainbow_structure):
    """verify_forall_script(n=3): a complete tree in which every Exists line
    dies within 5 rounds on at most 6 nodes, replayable with status 0,
    within 10 minutes."""
    t0 = time.time()
    proof = G.verify_forall_script(rainbow_structure)
    assert proof["all_lines_dead"]
    assert proof["stats"]["max_depth"] <= 5
    assert proof["node_budget"] == 6
    max_nodes = 0

    def walk(node):
        nonlocal max_nodes
        max_nodes = max(max_nodes, node["forall"]["k"] + 1)
        if node["responses"] == "dead-end":
            return
        for rec in node["responses"]:
            raw = rec["network"]["graph"]["nodes"]
            count = raw if isinstance(raw, int) else len(raw)
            max_nodes = max(max_nodes, count)
            walk(rec["subtree"])

    walk(proof["tree"])
    assert max_nodes <= 6
    replay = G.verify_transcript(rainbow_structure, proof)
    assert replay["ok"]
    elapsed = time.time() - t0
    ok = elapsed < 600
    record_acceptance(
        7, "Forall scripted win (n+2 rounds, n+3 nodes)", ok,
        f"{proof['stats']['dead_ends']} Exists lines all dead by round "
        f"{proof['stats']['max_depth']} (<=5) on <= {max_nodes} nodes (<=6), "
        f"replay ok, {elapsed:.1f}s (< 600s)")
    assert ok


def test_criterion_8_exists_wins_on_representable_fixture():
    """solve_bounded on the (2,2) full-set-algebra structure, m=5, r=3:
    Exists wins with a verifiable certificate; exact winner match."""
    sp = S.SetAlgebraSpace(2, 2, T.make_topology(2, preset="discrete"))
    s = B.atom_structure_of(sp)
    res = G.solve_bounded(s, 5, 3, "F")
    assert res["winner"] == "exists"
    chk = G.verify_transcript(s, res)
    assert chk["ok"], chk
    record_acceptance(
        8, "Exists wins on the representable fixture", True,
        f"winner=exists at m=5, r=3 ({res['states_explored']} states), "
        "certificate replays with status 0")
    assert True


def test_criterion_9_round_trips():
    """Topology/preorder round trips exhaustive through size 3 and the
    substitution-term agreement on (2,2), all exact."""
    for size in (0, 1, 2, 3):
        for p in T.enumerate_preorders(size):
            assert T.specialization_preorder(T.alexandrov(p)) == p
        for t in T.enumerate_topologies(size):
            assert T.alexandrov(T.specialization_preorder(t)) == t
    sp = S.SetAlgebraSpace(2, 2)
    for x in range(16):
        for i in range(2):
            for j in range(2):
                if i != j:
                    assert S.subst(sp, S.replacement(i, j, 2), x) == \
                        S.cyl(sp, i, S.diag(sp, i, j) & x)
    record_acceptance(
        9, "round trips", True,
        "preorder<->topology identities exhaustive to size 3; "
        "s_i^j = c_i(d_ij . x) exhaustive on (2,2), exact")
    assert True
