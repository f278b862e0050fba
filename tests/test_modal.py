import random

import numpy as np
import pytest

from topocyl import modal as M
from topocyl import topology as T
from topocyl.errors import NotContinuous, SizeTooLarge


def test_parser_and_json():
    f = M.parse("I p0 -> (p1 & ~p0) | X p2")
    assert M.from_json(M.to_json(f)) == f
    assert M.parse(M.unparse(f)) == f
    assert M.parse("~~p0") == M.neg(M.neg(M.atom(0)))
    assert M.parse("p0 -> p1 -> p2") == M.implies(M.atom(0), M.implies(M.atom(1), M.atom(2)))
    with pytest.raises(SyntaxError):
        M.parse("p0 &")
    with pytest.raises(SyntaxError):
        M.parse("q0")


def test_depth_counts_modal_operators_only():
    assert M.modal_depth(M.parse("p0 & p1 | ~p0")) == 0
    assert M.modal_depth(M.parse("I(p0 & I p1)")) == 2
    assert M.modal_depth(M.parse("X I p0")) == 2


def test_eval_topo_examples():
    ind = T.make_topology(2, preset="indiscrete")
    dis = T.make_topology(2, preset="discrete")
    assert M.eval_topo(M.TopoModel(ind, {0: [0]}), M.parse("I p0")) == frozenset()
    assert M.eval_topo(M.TopoModel(dis, {0: [0]}), M.parse("I p0")) == {0}
    # interior preserves meets
    rng = random.Random(1)
    for t in T.enumerate_topologies(3):
        for _ in range(10):
            val = {0: rng.randrange(8), 1: rng.randrange(8)}
            m = M.TopoModel(t, val)
            assert M.eval_topo(m, M.parse("I(p0 & p1)")) == \
                M.eval_topo(m, M.parse("I p0 & I p1"))


def test_eval_kripke_examples():
    chain = T.Preorder(2, [(0, 0), (1, 1), (0, 1)])
    assert M.eval_kripke(M.KripkeModel(chain, {0: [1]}), M.parse("I p0")) == {1}
    ident = T.Preorder(2, [(0, 0), (1, 1)])
    for bits in range(4):
        got = M.eval_kripke(M.KripkeModel(ident, {0: bits}), M.parse("I p0"))
        assert got == T.set_of(bits)
    total = T.Preorder(2, [(0, 0), (0, 1), (1, 0), (1, 1)])
    assert M.eval_kripke(M.KripkeModel(total, {0: [0]}), M.parse("I p0")) == frozenset()


def test_missing_atoms_default_empty():
    dis = T.make_topology(2, preset="discrete")
    assert M.eval_topo(M.TopoModel(dis, {}), M.parse("p5")) == frozenset()
    assert M.eval_topo(M.TopoModel(dis, {}), M.parse("~p5")) == {0, 1}


def test_dynamic_examples():
    dis = T.make_topology(2, preset="discrete")
    ind = T.make_topology(2, preset="indiscrete")
    swap = M.DynamicModel(dis, [1, 0], {0: [0]})
    assert M.eval_dynamic(swap, M.parse("X p0")) == {1}
    const = M.DynamicModel(ind, [0, 0], {0: [0]})
    assert M.eval_dynamic(const, M.parse("X p0")) == {0, 1}
    # identity map: NEXT is a no-op and dynamic evaluation matches topo
    rng = random.Random(2)
    for t in T.enumerate_topologies(3):
        ident = M.DynamicModel(t, [0, 1, 2], {0: rng.randrange(8)})
        f = M.random_formula(rng, 1, 2, allow_next=True)
        stripped = _strip_next(f)
        assert M.eval_dynamic(ident, f) == \
            M.eval_topo(M.TopoModel(t, ident.valuation), stripped)


def _strip_next(f):
    if f[0] == "atom":
        return f
    if f[0] == "X":
        return _strip_next(f[1])
    return (f[0],) + tuple(_strip_next(g) for g in f[1:])


def test_continuity():
    t = T.make_topology(3, [[], [0], [0, 1], [0, 1, 2]])
    assert M.is_continuous(t, [0, 1, 2])
    assert not M.is_continuous(t, [1, 0, 2])
    assert M.is_continuous(T.make_topology(3, preset="discrete"), [2, 0, 1])
    with pytest.raises(NotContinuous):
        M.DynamicModel(t, [1, 0, 2], {})


def test_countermodels():
    assert M.find_countermodel(M.parse("I p0 -> p0"), 3, "topo") is None
    hit = M.find_countermodel(M.parse("p0 -> I p0"), 3, "topo")
    assert hit is not None
    m, pt = hit["model"], hit["point"]
    full = (1 << m.topology.size) - 1
    sat = M.eval_topo(m, M.parse("p0 -> I p0"))
    assert pt not in sat
    assert M.find_countermodel(M.parse("(I I p0 -> I p0) & (I p0 -> I I p0)"),
                               3, "topo") is None
    assert M.find_countermodel(M.parse("I p0 -> p0"), 4, "kripke") is None
    with pytest.raises(SizeTooLarge):
        M.find_countermodel(M.parse("p0"), 5, "topo")
    # the search order is part of the contract: the same formula, mode and
    # seed give the same frame, valuation and point (3 atoms are sampled,
    # up to 2 are enumerated)
    split = "I(p0 | p1 | p2) -> I p0 | I p1 | I p2"
    mckinsey = "~I~I p0 -> I~I~p0"
    pinned = [
        (split, "topo", 3, {"size": 2, "opens": [[], [0, 1]]}, {0: 1, 1: 1, 2: 2}, 1),
        (split, "kripke", 3, {"size": 2, "leq": [[0, 0], [1, 0], [1, 1]]},
         {0: 1, 1: 1, 2: 2}, 1),
        (mckinsey, "topo", 0, {"size": 3, "opens": [[], [0], [0, 1], [0, 1, 2], [1]]},
         {0: 1}, 2),
        (mckinsey, "kripke", 0,
         {"size": 3, "leq": [[0, 0], [1, 1], [2, 0], [2, 1], [2, 2]]}, {0: 1}, 2),
        ("(p0 & ~p1) | (p2 -> I p0)", "topo", 11, {"size": 1, "opens": [[], [0]]},
         {0: 0, 1: 0, 2: 1}, 0),
    ]
    for text, mode, seed, frame, valuation, point in pinned:
        hit = M.find_countermodel(M.parse(text), 4, mode, seed=seed)
        m = hit["model"]
        got = m.topology if mode == "topo" else m.preorder
        assert (got.to_json(), m.valuation, hit["point"], hit["mode"]) == \
            (frame, valuation, point, mode), (text, mode)


def test_s4_axioms_hold_topologically():
    rng = random.Random(3)
    k_axiom = M.parse("I(p0 & p1) -> (I p0 & I p1)")
    t_axiom = M.parse("I p0 -> p0")
    four = M.parse("I p0 -> I I p0")
    for t in T.enumerate_topologies(3):
        full = frozenset(range(3))
        for _ in range(12):
            val = {0: rng.randrange(8), 1: rng.randrange(8)}
            m = M.TopoModel(t, val)
            for ax in (k_axiom, t_axiom, four):
                assert M.eval_topo(m, ax) == full
            # necessitation: a valid formula stays valid under I
            assert M.eval_topo(m, M.parse("I(p0 | ~p0)")) == full


def test_kripke_alexandrov_transfer_sampled():
    rng = random.Random(4)
    for p in T.enumerate_preorders(3):
        t = T.alexandrov(p)
        for _ in range(15):
            f = M.random_formula(rng, 2, 3)
            val = {0: rng.randrange(8), 1: rng.randrange(8)}
            assert M.eval_kripke(M.KripkeModel(p, val), f) == \
                M.eval_topo(M.TopoModel(t, val), f)


def test_kripke_alexandrov_transfer_size_five():
    """Sampled frames of size 5 with three atoms, per the module invariant."""
    rng = random.Random(5)
    pool = list(T.enumerate_preorders(5))
    for p in rng.sample(pool, 12):
        t = T.alexandrov(p)
        for _ in range(10):
            f = M.random_formula(rng, 3, 3)
            val = {a: rng.randrange(32) for a in range(3)}
            assert M.eval_kripke(M.KripkeModel(p, val), f) == \
                M.eval_topo(M.TopoModel(t, val), f)


def test_batches_match_single_models_on_nine_points():
    """On n points a point lies in up to 2^(n-1) opens, which overflowed a
    uint8 count in the batched topological interior from n = 9 on."""
    t = T.make_topology(9, preset="discrete")
    p = T.specialization_preorder(t)
    assert M.eval_topo_batch(t, {0: np.ones((1, 9), bool)}, M.parse("I p0")).all()
    rng = random.Random(9)
    rows = [511, 0, 255] + [rng.randrange(512) for _ in range(13)]
    vals = {a: np.array([[bits >> (x + a) & 1 for x in range(9)] for bits in rows], bool)
            for a in (0, 1)}
    for text in ("I p0", "~I~p0", "I(p0 -> I p1) | ~p1", "p5 | ~I p5"):
        f = M.parse(text)
        topo = M.eval_topo_batch(t, vals, f)
        kripke = M.eval_kripke_batch(p, vals, f)
        for r, bits in enumerate(rows):
            val = {a: [x for x in range(9) if vals[a][r, x]] for a in (0, 1)}
            want = M.eval_topo(M.TopoModel(t, val), f)
            assert set(np.flatnonzero(topo[r])) == want, (text, bits)
            assert set(np.flatnonzero(kripke[r])) == want, (text, bits)
            assert M.eval_kripke(M.KripkeModel(p, val), f) == want, (text, bits)
