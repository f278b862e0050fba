import hashlib
import itertools
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
    assert M.parse("p0 -> p1 -> p2") == ("imp", ("atom", 0), ("imp", ("atom", 1), ("atom", 2)))
    with pytest.raises(SyntaxError):
        M.parse("p0 &")
    with pytest.raises(SyntaxError):
        M.parse("q0")


def test_connectives_bind_and_group_as_documented():
    """Prefixes bind tightest, then &, then |, then ->; & and | group to
    the left and -> to the right."""
    assert M.unparse(M.parse("p0 & p1 | p2 -> p0")) == "(((p0 & p1) | p2) -> p0)"
    assert M.parse("p0 & p1 & p2") == ("and", ("and", ("atom", 0), ("atom", 1)), ("atom", 2))
    assert M.parse("p0 | p1 | p2") == ("or", ("or", ("atom", 0), ("atom", 1)), ("atom", 2))
    assert M.parse("p0 -> p1 -> p2") == ("imp", ("atom", 0), ("imp", ("atom", 1), ("atom", 2)))
    assert M.unparse(M.parse("~I X p0 & p1")) == "(~IXp0 & p1)"
    assert M.parse("p01") == ("atom", 1)
    assert M.to_json(M.parse("p0 -> p1"))["op"] == "implies"


@pytest.mark.parametrize("text, message", [
    ("", "unexpected token None in ''"),
    ("p", "atom needs an index at 0 in 'p'"),
    ("q0", "bad character 'q' in 'q0'"),
    ("p0 &", "unexpected token None in 'p0 &'"),
    ("(p0", "expected ')', got None in '(p0'"),
    ("(p0 p1", "expected ')', got 'p1' in '(p0 p1'"),
    ("p0)", "trailing tokens in 'p0)'"),
    ("p0 p1", "trailing tokens in 'p0 p1'"),
    ("-> p0", "unexpected token '->' in '-> p0'"),
    ("p0 - > p1", "bad character '-' in 'p0 - > p1'"),
])
def test_malformed_formulas_raise_syntax_errors(text, message):
    with pytest.raises(SyntaxError) as err:
        M.parse(text)
    assert str(err.value) == message


def test_parse_inverts_unparse():
    rng = random.Random(4)
    for _ in range(500):
        f = M.random_formula(rng, 3, 3, allow_next=True)
        text = M.unparse(f)
        assert M.parse(text) == f and M.parse(text.replace(" ", "")) == f
        assert M.from_json(M.to_json(f)) == f


def test_syntax_corpus_pinned():
    """Random token strings and damaged printed formulas, each mapped to
    its reprint or to SyntaxError; the digest was recorded before the
    parser was rebuilt on the connective table."""
    rng = random.Random(18)
    pieces = ["p0", "p1", "p12", "p", " ", "~", "&", "|", "->", "-", ">", "(", ")", "I", "X",
              "q", "0"]
    texts = ["".join(rng.choice(pieces) for _ in range(rng.randint(0, 9)))
             for _ in range(10_000)]
    for _ in range(4_000):
        text = M.unparse(M.random_formula(rng, 3, 3, allow_next=True))
        if rng.random() < 0.5:
            text = text.replace(" ", "")
        if rng.random() < 0.5:
            k = rng.randrange(len(text))
            text = text[:k] + text[k + 1:]
        texts.append(text)
    lines = []
    for text in texts:
        try:
            lines.append(M.unparse(M.parse(text)))
        except SyntaxError:
            lines.append("SyntaxError")
    assert sum(line != "SyntaxError" for line in lines) == 2_684
    digest = hashlib.sha1("\n".join(lines).encode()).hexdigest()
    assert digest == "08b0102c345bab9851cd527c7935bac2eeb0e01d"


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


def test_valuations_accept_integer_bitmasks_and_point_lists():
    t = T.make_topology(2, [[], [0], [0, 1]])
    f = M.parse("I p0")
    want = M.eval_topo(M.TopoModel(t, {0: 1}), f)
    for value in (np.int64(1), [0], (np.int64(0),)):
        assert M.eval_topo(M.TopoModel(t, {0: value}), f) == want
    for value in ("ab", None, [0, "x"], 1.0):
        with pytest.raises(ValueError, match="p0"):
            M.TopoModel(t, {0: value})


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
    for mode in ("topo", "kripke"):
        with pytest.raises(SizeTooLarge, match=f"{mode} search capped at size 5"):
            M.find_countermodel(M.parse("p0"), T.FRAME_SIZE_CAP + 1, mode)
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


def _search_frame_by_frame(f, max_size, mode, seed, samples):
    """find_countermodel's contract as a plain loop: frames in enumeration
    order, each on every valuation (up to two atoms) or on `samples` draws
    taken for that frame, evaluated one model at a time."""
    topo = mode == "topo"
    alphabet = sorted(M.atoms_of(f))
    rng = random.Random(seed)
    for size in range(1, max_size + 1):
        for frame in T.enumerate_topologies(size) if topo else T.enumerate_preorders(size):
            if len(alphabet) <= 2:
                rows = list(itertools.product(range(1 << size), repeat=len(alphabet)))
            else:
                draws = [rng.randrange(1 << size) for _ in range(samples * len(alphabet))]
                rows = [draws[i:i + len(alphabet)] for i in range(0, len(draws), len(alphabet))]
            for row in rows:
                val = dict(zip(alphabet, row))
                if topo:
                    sat = M.eval_topo(M.TopoModel(frame, val), f)
                else:
                    sat = M.eval_kripke(M.KripkeModel(frame, val), f)
                refuted = set(range(size)) - sat
                if refuted:
                    return frame, val, max(refuted)
    return None


def test_batched_search_matches_a_per_frame_loop():
    # theorems (the whole bound is searched), and refutations on 1 to 3
    # points; sampled 3-atom formulas draw across every frame before a hit
    formulas = [M.parse(text) for text in (
        "I p0 -> p0", "p0 -> I p0", "~I p0 -> I~I p0", "~I~I p0 -> I~I~p0",
        "I(p0 & p1) -> I p0 & I p1", "I(I p0 -> p1) | I(I p1 -> p0)",
        "(p0 & ~p1) | (p2 -> I p0)", "I(p0 | p1 | p2) -> I p0 | I p1 | I p2",
        "~I~I(p0 & p1 & p2) -> I~I~(p0 & p1 & p2)", "I(p0 -> p1) -> (I p0 -> I p1) | p2",
        "I(I p0 -> p1) | I(I p1 -> p2) | I(I p2 -> p0)")]
    for f, mode, seed, samples in itertools.product(
            formulas, ("topo", "kripke"), (0, 5), (200, 7)):
        if len(M.atoms_of(f)) <= 2 and (seed, samples) != (0, 200):
            continue  # enumerated valuations use neither
        hit = M.find_countermodel(f, 3, mode, seed=seed, samples=samples)
        got = hit and (hit["model"].topology if mode == "topo" else hit["model"].preorder,
                       hit["model"].valuation, hit["point"])
        assert got == _search_frame_by_frame(f, 3, mode, seed, samples), \
            (M.unparse(f), mode, seed, samples)


def test_frame_tables_are_built_once_per_size_and_mode(monkeypatch):
    calls = []
    for name in ("enumerate_topologies", "enumerate_preorders"):
        enum = getattr(T, name)
        monkeypatch.setattr(M, name, lambda size, enum=enum: calls.append(size) or enum(size))
    M._frame_table.cache_clear()
    f = M.parse("I p0 -> p0")
    for mode in ("topo", "kripke"):
        assert M.find_countermodel(f, 3, mode) is None
    assert calls == [1, 2, 3, 1, 2, 3]
    for mode in ("topo", "kripke"):
        assert M.find_countermodel(f, 3, mode) is None
        assert M.find_countermodel(M.parse("p0 -> I p0"), 3, mode) is not None
    assert calls == [1, 2, 3, 1, 2, 3]
    assert not M._frame_table(3, "topo")[1].flags.writeable


def test_s4_schemes_have_no_countermodel_within_the_bound():
    """Bounded search only: no Kripke or topological countermodel on up to
    FRAME_SIZE_CAP points. This is not a validity proof."""
    for text in ("I(p0 -> p1) -> (I p0 -> I p1)", "I p0 -> p0", "I p0 -> I I p0"):
        f = M.parse(text)
        for mode in ("kripke", "topo"):
            assert M.find_countermodel(f, T.FRAME_SIZE_CAP, mode) is None, (text, mode)


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


def test_batches_match_single_models_on_every_small_frame():
    """Every preorder on 0 to 3 points and its Alexandrov topology, every
    valuation of p0 and p1, seeded formulas that also name p2 and p3, which
    have no valuation: each batch row is the single model's satisfaction
    set on that row's valuation, in each semantics."""
    rng = random.Random(31)
    formulas = [M.random_formula(rng, 4, 3) for _ in range(10)] + [M.parse("I p3 | ~I~p2")]
    for size in (0, 1, 2, 3):
        grid = list(itertools.product(range(1 << size), repeat=2))
        vals = {a: np.array([[row[a] >> x & 1 for x in range(size)] for row in grid], bool)
                for a in (0, 1)}
        for p in T.enumerate_preorders(size):
            t = T.alexandrov(p)
            for f in formulas:
                kripke = M.eval_kripke_batch(p, vals, f)
                topo = M.eval_topo_batch(t, vals, f)
                assert kripke.shape == topo.shape == (len(grid), size)
                for row, val in enumerate(grid):
                    val = dict(enumerate(val))
                    assert set(np.flatnonzero(kripke[row])) == \
                        M.eval_kripke(M.KripkeModel(p, val), f), (p, val, M.unparse(f))
                    assert set(np.flatnonzero(topo[row])) == \
                        M.eval_topo(M.TopoModel(t, val), f), (t, val, M.unparse(f))


def test_kripke_frame_tables_match_the_scalar_rows():
    """The array-built Kripke interior tables are byte-identical to rows of
    scalar `_kripke_interior_bits` calls, sizes 1 to 5."""
    for size in range(1, 6):
        rows = [[M._kripke_interior_bits(p.up, s) for s in range(1 << size)]
                for p in T.enumerate_preorders(size)]
        _, table = M._frame_table(size, "kripke")
        assert table.dtype == np.uint8 and table.shape == (len(rows), 1 << size)
        assert table.tobytes() == np.array(rows, dtype=np.uint8).tobytes(), size
