import hashlib
import itertools
import json
import random

import pytest

from topocyl import bao as B
from topocyl import games as G
from topocyl import rainbow as R
from topocyl import setalg as S
from topocyl import topology as T
from topocyl.errors import BudgetExceeded, ScriptRefuted


def fullset_structure(n=2, u=2, preset="discrete"):
    sp = S.SetAlgebraSpace(n, u, T.make_topology(u, preset=preset))
    return B.atom_structure_of(sp)


@pytest.fixture(scope="module")
def rainbow_structure():
    return R.build_atom_structure(R.signature(3))


def test_validate_network_examples():
    s = fullset_structure()
    # single node labelled by a diagonal atom
    net = G.AtomicNetwork((0,), (0,))
    assert G.validate_network(s, net)["ok"]
    # same-node tuple labelled outside d_01
    bad = G.AtomicNetwork((0,), (1,))
    res = G.validate_network(s, bad)
    assert not res["ok"] and res["kind"] == "diagonal"
    # cylindrifier condition violation: labels do not cohere along axis 1;
    # atoms over (0,0), (0,1), (1,0), (1,1)
    bad = G.AtomicNetwork((0, 1), (0, 3, 2, 3))
    res = G.validate_network(s, bad)
    assert not res["ok"] and res["kind"] == "cylindrifier"
    # a document that leaves a tuple unlabelled is refused while it is read
    with pytest.raises(ValueError, match=r"network labels leave \(0,1\) unlabelled"):
        G.GenericBackend(s).net_from_json({"nodes": [0, 1], "labels": {"(0,0)": 0}})


def test_rainbow_network_is_a_valid_coloured_graph(rainbow_structure):
    s = rainbow_structure
    sig = s.sig
    full = frozenset(range(5))
    g = R.ColouredGraph(sig, range(3),
                        {(0, 1): ("w", 0), (0, 2): ("g0", 1), (1, 2): ("g", 1)},
                        {(0, 1): full})
    backend = G.RainbowBackend(s)
    assert backend.validate(g)["ok"]
    for t in itertools.product(range(3), repeat=3):
        assert s.is_atom(s.table.atom_of_tuple(g, t))


def test_one_atom_structure_has_moves():
    s = B.AtomStructure.from_pairs(
        2, 1, [[(0, 0)], [(0, 0)]],
        {(0, 0): [0], (0, 1): [0], (1, 0): [0], (1, 1): [0]})
    backend = G.backend_for(s)
    net = backend.initial_networks(0, 3)[0]
    assert backend.forall_moves([net], 3, set(net.nodes), "F")


def test_legal_forall_moves_nonempty_and_sorted():
    s = fullset_structure()
    backend = G.backend_for(s)
    nets = backend.initial_networks(0, 4)
    assert nets
    net = nets[0]
    moves = backend.forall_moves([net], 4, set(net.nodes), "F")
    assert moves
    assert moves == sorted(moves)
    # every offered atom satisfies the side condition b <= c_l N(face tuple)
    for m in moves[:25]:
        base = _labels(net, 2)[G.insert_at(m.face, m.l, net.nodes[0])]
        assert backend.ti_rel(m.l, base, m.atom)


def test_g_mode_requires_fresh_nodes():
    s = fullset_structure()
    backend = G.backend_for(s)
    net0 = backend.initial_networks(1, 2)[0]  # atom (1,0): two nodes
    used = set(net0.nodes)
    # both budget nodes are used and reuse is forbidden
    assert backend.forall_moves([net0], 2, used, "G") == []
    assert backend.forall_moves([net0], 2, used, "F")  # F-mode may reuse nodes


def test_exists_responses_meet_demand():
    s = fullset_structure()
    backend = G.backend_for(s)
    net0 = backend.initial_networks(1, 3)[0]
    moves = backend.forall_moves([net0], 3, set(net0.nodes), "F")
    move = next(m for m in moves if m.k not in net0.nodes)
    resps = backend.responses(net0, move)
    assert resps
    for net in resps:
        assert G.validate_network(s, net)["ok"]
        assert backend.atom_of(net, G.insert_at(move.face, move.l, move.k)) == move.atom
        assert set(net.nodes) == set(net0.nodes) | {move.k}


def test_impossible_demand_has_no_responses():
    # an atom structure where the demanded b is not actually reachable
    s = fullset_structure()
    backend = G.backend_for(s)
    net0 = backend.initial_networks(0, 3)[0]
    # demand an atom violating the diagonal pattern at a repeated node: face
    # (0,) with k=0 is illegal anyway, so fabricate a contradictory move
    # instead: demand at (1,0) the atom code 3=(1,1)
    bad = G.Move(0, (0,), 1, 3, 0)
    assert backend.responses(net0, bad) == []


def test_solver_exists_wins_on_representable_fixture():
    s = fullset_structure(2, 2)
    res = G.solve_bounded(s, 5, 3, "F")
    assert res["winner"] == "exists"
    assert res["truncation"] == "3-round truncation"
    chk = G.verify_transcript(s, res)
    assert chk["ok"], chk


def test_solver_round_zero_vacuous():
    s = fullset_structure(2, 2)
    res = G.solve_bounded(s, 4, 0, "F")
    assert res["winner"] == "exists"


def test_solver_monotone_in_budget():
    s = fullset_structure(2, 2)
    for m in (3, 4, 5):
        assert G.solve_bounded(s, m, 2, "F")["winner"] == "exists"


def test_solver_deterministic():
    s = fullset_structure(2, 2)
    a = G.solve_bounded(s, 4, 2, "F")
    b = G.solve_bounded(s, 4, 2, "F")
    a.pop("states_explored"), b.pop("states_explored")
    assert a == b


def broken_structure():
    """The (2,2) structure without the atom (1,1)."""
    sp = S.SetAlgebraSpace(2, 2, T.make_topology(2, preset="discrete"))
    full = B.atom_structure_of(sp)
    keep = [0, 1, 2]  # atoms (0,0), (1,0), (0,1); drop (1,1)
    remap = {a: i for i, a in enumerate(keep)}
    T_rel, D = [], {}
    for i in range(2):
        img = []
        for a in keep:
            bits = 0
            m = full.T[i][a]
            for b in keep:
                if m >> b & 1:
                    bits |= 1 << remap[b]
            img.append(bits)
        T_rel.append(img)
    for key, m in full.D.items():
        D[key] = sum(1 << remap[a] for a in keep if m >> a & 1)
    return B.AtomStructure(2, 3, T_rel, D)


def test_solver_forall_wins_on_broken_structure():
    """Remove the atom (1,1) from the (2,2) structure: Exists cannot even
    label the diagonal tuple of a second node consistently once Forall
    demands the right extension."""
    s = broken_structure()
    res = G.solve_bounded(s, 4, 2, "F")
    assert res["winner"] == "forall"
    assert res["principal_play"][-1]["exists"] == "dead-end"
    chk = G.verify_transcript(s, res)
    assert chk["ok"], chk


def _all_networks(s, nodes, pinned):
    """Every total labelling of nodes^n extending `pinned` that
    validate_network accepts, by brute force. A free tuple ranges over the
    atoms on every diagonal it lies on, a condition validate_network checks
    of each tuple on its own, so no labelling it accepts is skipped."""
    tuples = list(itertools.product(nodes, repeat=s.dim))
    free = [t for t in tuples if t not in pinned]
    found = set()
    pairs = list(itertools.product(range(s.dim), repeat=2))
    on_diagonals = [[a for a in range(s.num_atoms)
                     if all(s.D[(i, j)] >> a & 1 for i, j in pairs if t[i] == t[j])]
                    for t in free]
    for labels in itertools.product(*on_diagonals):
        full = {**pinned, **dict(zip(free, labels))}
        net = G.AtomicNetwork(nodes, tuple(full[t] for t in tuples))
        if G.validate_network(s, net)["ok"]:
            found.add(frozenset(full.items()))
    return found


def loose_structure():
    """Three atoms: T_0 relates everything, T_1 is reflexive plus 0-1 both
    ways and 1-2 one way, and only atoms 0 and 1 lie on the 0-1 diagonal.
    Networks on three nodes number in the hundreds."""
    return B.AtomStructure.from_pairs(
        2, 3, [[(a, b) for a in range(3) for b in range(3)],
               [(0, 0), (1, 1), (2, 2), (0, 1), (1, 0), (1, 2)]],
        {(0, 0): [0, 1, 2], (1, 1): [0, 1, 2], (0, 1): [0, 1], (1, 0): [0, 1]})


def nonreflexive_structure():
    """Two atoms where T_0 lacks (1, 1): atom 1 is its own 0-neighbour in
    any tuple it labels, so only atom 0 can label a network."""
    return B.AtomStructure.from_pairs(
        2, 2, [[(0, 0), (0, 1), (1, 0)], [(0, 0), (1, 1), (0, 1), (1, 0)]],
        {key: [0, 1] for key in itertools.product(range(2), repeat=2)})


def _structure(spec):
    if spec[0] == "broken":
        return broken_structure()
    if spec[0] == "loose":
        return loose_structure()
    if spec[0] == "nonreflexive":
        return nonreflexive_structure()
    return fullset_structure(*spec[1:])


def _complete(s, nodes, pinned):
    """The search on the label vector of tuple-keyed pins: each pinned
    atom at its tuple's position, None elsewhere."""
    labels = [pinned.get(t) for t in itertools.product(nodes, repeat=s.dim)]
    return G.GenericBackend(s)._complete(nodes, labels)


@pytest.mark.parametrize("structure, nodes, pinned", [
    (("fullset", 2, 2, "discrete"), (0, 1), {}),
    (("fullset", 2, 2, "discrete"), (0, 2, 3), {(2, 3): 1}),
    (("fullset", 2, 2, "discrete"), (0, 1), {(0, 0): 1}),
    (("fullset", 2, 2, "indiscrete"), (0, 1, 2), {(0, 1): 2}),
    (("fullset", 3, 2, "discrete"), (0, 1), {(0, 0, 0): 0, (0, 0, 1): 4, (1, 1, 0): 3}),
    (("broken",), (0, 1, 2), {}),
    (("loose",), (0, 1, 2), {}),
    (("loose",), (0, 2, 5), {(2, 5): 1, (5, 5): 0}),
    (("nonreflexive",), (0, 1), {}),
])
def test_complete_matches_brute_force(structure, nodes, pinned):
    s = _structure(structure)
    nets = _complete(s, nodes, pinned)
    found = [frozenset(_labels(net, s.dim).items()) for net in nets]
    assert len(set(found)) == len(found)
    assert set(found) == _all_networks(s, nodes, pinned)
    assert all(net.nodes == nodes for net in nets)


def test_complete_order_pinned():
    """The search order (first tuple with the smallest domain, atoms
    ascending) fixes the order of the networks, which principal plays
    depend on; the digests were recorded before the domains were bitmasks."""
    pins = [
        (("loose",), (0, 1, 2), {}, 512, "c0f9cd56e66883cfc919bd2d149d8d906a964722"),
        (("loose",), (0, 2, 5), {(2, 5): 1, (5, 5): 0}, 128,
         "c0d462c20befe5e9190c9da5afd49186fbd7ff74"),
        (("fullset", 2, 3, "discrete"), (0, 1, 2), {(0, 1): 3}, 3,
         "3f5378d0df5ae288daed7f2d4813c17bf9774490"),
    ]
    for spec, nodes, pinned, count, digest in pins:
        s = _structure(spec)
        nets = _complete(s, nodes, pinned)
        doc = [sorted(_labels(net, s.dim).items()) for net in nets]
        assert len(nets) == count
        assert hashlib.sha1(json.dumps(doc).encode()).hexdigest() == digest, spec


# per structure, the number of seeded networks per shape and the shapes
# (nodes, budget) whose every legal Forall move is answered: on (1, 3) with
# budget 5 a fresh k falls below, between and above the nodes, or k reuses
# one; on (1,) with budget 3 a fresh k falls below or above, and (0, 1) with
# budget 2 allows reused ones only. Networks on (0, 1) are drawn from those
# the brute force found for earlier moves; the others from every network.
POSITION_CASES = [
    (("fullset", 2, 2), 2, [((1, 3), 5)]),
    (("fullset", 2, 3), 2, [((1,), 3), ((0, 1), 2)]),
    (("fullset", 3, 2), 1, [((1,), 3), ((0, 1), 2)]),
    (("loose",), 2, [((1, 3), 5)]),
    (("broken",), 2, [((1, 3), 5)]),
    (("nonreflexive",), 2, [((1, 3), 5)]),
]


def test_responses_match_brute_force_on_every_move():
    """Exists' responses are exactly the networks on net's nodes and k that
    validate_network accepts, keep every tuple avoiding k and meet the
    demand, each once, on every legal Forall move of seeded networks. Both
    presets of a full set algebra give the same T and D (they differ in
    interiors, which no network reads) and the same responses. The order of
    all responses is pinned by a digest recorded before the search read
    label vectors."""
    rng = random.Random(36)
    doc, where = [], set()
    for spec, seeds, shapes in POSITION_CASES:
        s = _structure(spec + ("discrete",) if spec[0] == "fullset" else spec)
        twin = _structure(spec + ("indiscrete",)) if spec[0] == "fullset" else s
        assert (twin.T, twin.D) == (s.T, s.D)
        gb, tb = G.GenericBackend(s), G.GenericBackend(twin)
        found = {}  # the networks the brute force found, by node tuple
        for nodes, budget in shapes:
            if nodes not in found:
                found[nodes] = _all_networks(s, nodes, {})
            tuples = list(itertools.product(nodes, repeat=s.dim))
            nets = sorted(G.AtomicNetwork(nodes, tuple(dict(f)[t] for t in tuples))
                          for f in found[nodes])
            for net in rng.sample(nets, min(seeds, len(nets))):
                for move in gb.forall_moves([net], budget, set(), "F"):
                    k = move.k
                    pinned = {t: a for t, a in _labels(net, s.dim).items() if k not in t}
                    pinned[G.insert_at(move.face, move.l, k)] = move.atom
                    new = tuple(sorted(set(nodes) | {k}))
                    expected = _all_networks(s, new, pinned)
                    found.setdefault(new, set()).update(expected)
                    resps = gb.responses(net, move)
                    got = [frozenset(_labels(r, s.dim).items()) for r in resps]
                    assert len(set(got)) == len(got), (spec, net, move)
                    assert set(got) == expected, (spec, net, move)
                    assert all(r.nodes == new for r in resps)
                    assert tb.responses(net, move) == resps
                    where.add((s.dim, "reused" if k in nodes else
                               ("below", "between", "above")[(k > nodes[0]) + (k > nodes[-1])]))
                    doc.append([list(r.atoms) for r in resps])
    assert where == {(2, "below"), (2, "between"), (2, "above"), (2, "reused"),
                     (3, "below"), (3, "above"), (3, "reused")}
    assert (len(doc), sum(map(len, doc))) == (292, 1000)
    assert hashlib.sha1(json.dumps(doc).encode()).hexdigest() == \
        "1a5881891b71a59639a93744c8aa8ef39159724b"


def _labels(net, n):
    """The atoms of a generic network keyed by its node n-tuples."""
    return dict(zip(itertools.product(net.nodes, repeat=n), net.atoms))


def _relabel_atomic(net, f, n=2):
    labels = {tuple(f[x] for x in t): a for t, a in _labels(net, n).items()}
    nodes = tuple(sorted(f[v] for v in net.nodes))
    return G.AtomicNetwork(nodes, tuple(labels[t] for t in itertools.product(nodes, repeat=n)))


def _relabel_graph(g, f):
    h = R.ColouredGraph(g.sig, [f[v] for v in g.nodes], {}, {})
    for (u, v), c in g.edges.items():
        h.set_edge(f[u], f[v], c)
    for key, shade in g.yellows.items():
        h.set_yellow(tuple(f[x] for x in key), shade)
    return h


def test_canonical_invariant_under_node_relabelling(rainbow_structure):
    rng = random.Random(5)
    s = fullset_structure(2, 3, "indiscrete")
    gb = G.GenericBackend(s)
    net0 = gb.initial_networks(1, 4)[0]
    nets = [net0] + [r for mv in gb.forall_moves([net0], 4, set(net0.nodes), "F")[::7]
                     for r in gb.responses(net0, mv)]
    assert len({gb.canonical(net) for net in nets}) > 1
    for net in nets:
        f = dict(zip(net.nodes, rng.sample(range(10), len(net.nodes))))
        assert gb.canonical(_relabel_atomic(net, f)) == gb.canonical(net)
    rb = G.RainbowBackend(rainbow_structure, yellow_mode="dominant")
    proof = G.verify_forall_script(rainbow_structure)
    graphs = [R.ColouredGraph.from_json(proof["zeroth_graph"], rainbow_structure.sig)]
    graphs += [R.ColouredGraph.from_json(rec["network"]["graph"], rainbow_structure.sig)
               for rec in proof["tree"]["responses"]]
    assert len({rb.canonical(net) for net in graphs}) > 1
    for net in graphs:
        f = dict(zip(net.nodes, rng.sample(range(10), len(net.nodes))))
        assert rb.canonical(_relabel_graph(net, f)) == rb.canonical(net)


def _isomorphic_graphs(g, h):
    """Some node bijection carries every edge and yellow of g onto h's."""
    if len(g.nodes) != len(h.nodes) or len(g.yellows) != len(h.yellows):
        return False
    for image in itertools.permutations(h.nodes):
        p = dict(zip(g.nodes, image))
        if all(h.edge(p[u], p[v]) == c for (u, v), c in g.edges.items()) and all(
                h.yellow([p[x] for x in key]) == shade for key, shade in g.yellows.items()):
            return True
    return False


def _isomorphic_networks(a, b, n=2):
    """Some node bijection carries every label of a onto b's."""
    if len(a.nodes) != len(b.nodes):
        return False
    la, lb = _labels(a, n), _labels(b, n)
    for image in itertools.permutations(b.nodes):
        p = dict(zip(a.nodes, image))
        if all(lb[tuple(p[x] for x in t)] == atom for t, atom in la.items()):
            return True
    return False


def _separated_pairs(backend, nets, isomorphic, bucket):
    """Assert that equal canonical forms mean isomorphic networks and back,
    on every pair with the same bucket; the number of classes and of
    compared pairs with different forms."""
    groups = {}
    for net in nets:
        groups.setdefault(bucket(net), []).append(net)
    classes = distinct = 0
    for group in groups.values():
        forms = [backend.canonical(net) for net in group]
        for (x, fx), (y, fy) in itertools.combinations(zip(group, forms), 2):
            assert (fx == fy) == isomorphic(x, y), (x.nodes, y.nodes)
            distinct += fx != fy
        classes += len(set(forms))
    return classes, distinct


def test_canonical_form_separates_non_isomorphic_networks(rainbow_structure):
    """Equal canonical forms hold exactly for isomorphic networks, checked
    against a brute-force isomorphism test on pairs with equal node count
    and equal edge-colour (or label) multiset. Rainbow corpus: the script
    trees of all 24 tint orders, the initial networks of 300 sampled atoms,
    and relabelled copies; generic corpus: principal-play networks of
    bounded solves, responses to some of their moves, and relabelled
    copies."""
    rng = random.Random(22)
    rs = rainbow_structure
    rb = G.RainbowBackend(rs, yellow_mode="dominant")
    graphs = []

    def collect(node):
        if node["responses"] != "dead-end":
            for rec in node["responses"]:
                graphs.append(R.ColouredGraph.from_json(rec["network"]["graph"], rs.sig))
                collect(rec["subtree"])

    for tints in itertools.permutations(range(1, 5)):
        proof = G.verify_forall_script(rs, tints)
        graphs.append(R.ColouredGraph.from_json(proof["zeroth_graph"], rs.sig))
        collect(proof["tree"])
    graphs += [rb.initial_networks(int(rs.codes[rng.randrange(len(rs.codes))]), 6)[0]
               for _ in range(300)]
    graphs += [_relabel_graph(g, dict(zip(g.nodes, rng.sample(range(10), len(g.nodes)))))
               for g in graphs]

    def colours(g):
        return tuple(sorted(min(R.colour_code(c), R.colour_code(R.reverse_colour(c)))
                            for c in g.edges.values()))

    classes, distinct = _separated_pairs(rb, graphs, _isomorphic_graphs,
                                         lambda g: (len(g.nodes), colours(g)))
    assert len(graphs) == 1224 and classes == 364 and distinct > 1000

    nets = []
    for s in [loose_structure(), fullset_structure(2, 3, "indiscrete"),
              *_random_equivalence_structures(4)]:
        gb = G.GenericBackend(s)
        for m, r, mode in ((4, 2, "F"), (4, 3, "G")):
            for rec in G.solve_bounded(s, m, r, mode)["principal_play"]:
                if rec["exists"] != "dead-end":
                    net = gb.net_from_json(rec["exists"]["network"])
                    nets.append(net)
                    for move in gb.forall_moves([net], m, set(), "F")[::6]:
                        nets += gb.responses(net, move)[:12]
    nets += [_relabel_atomic(net, dict(zip(net.nodes, rng.sample(range(10), len(net.nodes)))))
             for net in nets]
    classes, distinct = _separated_pairs(
        G.GenericBackend(loose_structure()), nets, _isomorphic_networks,
        lambda net: (len(net.nodes), tuple(sorted(net.atoms))))
    assert classes > 20 and distinct > 1000


# (structure, nodes, rounds, mode) -> (states_explored, sha1 of the sorted
# JSON report), recorded before the generic search used bitmask domains
SOLVER_PINS = {
    (("fullset", 2, 2, "discrete"), 3, 2, "F"): (135, "4de9d1c41ed5a5e9c030ba874b1041373369f5cf"),
    (("fullset", 2, 2, "discrete"), 4, 2, "G"): (183, "d5a74a9d465a75cee28ebbc568df11bd5c595c27"),
    (("fullset", 2, 2, "indiscrete"), 4, 2, "F"): (199, "d79c443b4a86d129f5d32eb5d0e39ebe751f0259"),
    (("fullset", 2, 2, "indiscrete"), 3, 3, "G"): (79, "ab4dab4f66c13c690dc2e171ac6ad12ebece16ec"),
    (("fullset", 2, 3, "discrete"), 3, 2, "F"): (516, "8c6285bf229e85fcd38fa4b73093fd3e71cc51b8"),
    (("fullset", 2, 3, "indiscrete"), 3, 2, "G"): (246, "8a59c1af06eeff7796edf28c6810c06ccfd8ed0b"),
    (("fullset", 3, 2, "discrete"), 3, 1, "F"): (70, "468e24bd6c2cf593b93a3e96e7048a437685b33a"),
    (("fullset", 3, 2, "indiscrete"), 3, 1, "G"): (58, "2e0a05c4e79db1111d21a53bd09e2051dde0300b"),
    (("broken",), 4, 2, "F"): (4, "741427b6343a2242a7aa1d1a7aa5e503378ba7e3"),
    (("broken",), 3, 2, "G"): (4, "c776e3e108b6a1f99603abab074f9388f5455761"),
}


def test_solver_results_pinned():
    for (structure, m, r, mode), (states, digest) in SOLVER_PINS.items():
        s = _structure(structure)
        res = G.solve_bounded(s, m, r, mode)
        assert res["states_explored"] == states, (structure, m, r, mode)
        got = hashlib.sha1(json.dumps(res, sort_keys=True).encode()).hexdigest()
        assert got == digest, (structure, m, r, mode)


def _random_equivalence_structures(count=12):
    """Seeded dim-2 structures of 2-4 atoms: each T_i is "same label" for a
    random labelling of the atoms, D[0,0] = D[1,1] is every atom and
    D[0,1] = D[1,0] a random atom set."""
    rng = random.Random(0)
    for _ in range(count):
        k = rng.choice((2, 3, 4))
        T = []
        for _ in range(2):
            labels = [rng.randrange(k) for _ in range(k)]
            T.append([sum(1 << b for b in range(k) if labels[b] == labels[a])
                      for a in range(k)])
        d = rng.getrandbits(k)
        full = (1 << k) - 1
        yield B.AtomStructure(2, k, T, {(0, 0): full, (1, 1): full, (0, 1): d, (1, 0): d})


def test_random_structure_plays_replay_and_are_pinned():
    """Every principal play, for either winner, replays through
    verify_transcript; the reports are pinned by a digest recorded before
    the solver memo held booleans only."""
    reports = []
    for s in _random_equivalence_structures():
        for m, r, mode in itertools.product((3, 4), (1, 2, 3), ("F", "G")):
            res = G.solve_bounded(s, m, r, mode)
            chk = G.verify_transcript(s, res)
            assert chk["ok"], (m, r, mode, chk)
            reports.append(res)
    assert len(reports) == 144
    assert sum(res["winner"] == "forall" and len(res["principal_play"]) >= 3
               for res in reports) >= 20
    digest = hashlib.sha1(json.dumps(reports, sort_keys=True).encode()).hexdigest()
    assert digest == "d58413556ba2efe0f94df92b75decaaaf8c5d342"


def test_forall_script_trees_pinned(rainbow_structure):
    pins = {
        (1, 3, 4, 2): "ae9ce4fd9d13189e7009954a457e20bb4b931d41",
        (2, 1, 4, 3): "bbe79088f88c9fdcf7d46ebfcf0422d29328ffb1",
        (4, 3, 2, 1): "3215779f83c289b75d98d8e9f68f8eeb27acadc3",
        # the other tint orders, recorded before the response search read
        # the triangle table
        (1, 2, 3, 4): "7904cff235791370f6a7774b5565174c5efd128e",
        (1, 2, 4, 3): "5948329673a88a882924ecb721c9c80ea348ccd0",
        (1, 3, 2, 4): "18e0d3ac07e83d0fbe8c87810403e7eea9db39ea",
        (1, 4, 2, 3): "9359ebc83b60cabbd51cc90f5379ab70b745abd8",
        (1, 4, 3, 2): "71cb34dcb9f7a6cb5cc69654a070e1103f5291b9",
        (2, 1, 3, 4): "f950a13090b23ab5b8877c8a2de4aae61a86ff70",
        (2, 3, 1, 4): "a4499619f89d51023a2017937d810b9976007de8",
        (2, 3, 4, 1): "cbd2040040107a51ad57feee6318622a8e3d1ebd",
        (2, 4, 1, 3): "7ab5ce713b994a9f9bfae99143504c3f62dc99ec",
        (2, 4, 3, 1): "dcaa688ae648d58c45c806d32cd6496dd2ac5b26",
        (3, 1, 2, 4): "a554c47ef593541cf8cd57b31fd324c02842748f",
        (3, 1, 4, 2): "1d3bf64c1304281ad9bace5a60b4b06078b8d0f0",
        (3, 2, 1, 4): "152403f1321ab3b0755180f862d57a094e562083",
        (3, 2, 4, 1): "93621a409805c26b101930c44b1828e944ceb4c0",
        (3, 4, 1, 2): "a6f38902f9ff68e52f4e818a320e1008df0e4a1c",
        (3, 4, 2, 1): "21109cbe43368188c659be838e2bbad9be6f1fd6",
        (4, 1, 2, 3): "24fc384cd808ac27b0e4c643afb51bf370f8c988",
        (4, 1, 3, 2): "cea3f4fe3e6eb212ac47ebfe90ba271e0a512241",
        (4, 2, 1, 3): "8f645eccfb4f9a64407efda921e4a9bc4a3755bd",
        (4, 2, 3, 1): "f9da09db0c5f4339917fea5ec6e48f62ecada05c",
        (4, 3, 1, 2): "bda060bab1e01aca51b1728d5a94f0a1694ec3b9",
    }
    assert set(pins) == set(itertools.permutations((1, 2, 3, 4)))
    for tints, digest in pins.items():
        proof = G.verify_forall_script(rainbow_structure, tints)
        got = hashlib.sha1(json.dumps(proof["tree"], sort_keys=True).encode()).hexdigest()
        assert got == digest, tints


def test_solver_rejects_negative_rounds_and_empty_budget():
    s = fullset_structure(2, 2)
    for mode in "FG":
        with pytest.raises(ValueError, match="rounds"):
            G.solve_bounded(s, 3, -1, mode)
        with pytest.raises(ValueError, match="node budget"):
            G.solve_bounded(s, 0, 1, mode)
    # a mode other than F or G would give a play its own verifier refuses
    with pytest.raises(ValueError, match="mode"):
        G.solve_bounded(s, 3, 1, "X")


def test_solver_refuses_a_structure_with_no_atoms():
    """A play opens on an atom, so a structure with none is refused like
    the solver's other arguments, not met by an IndexError."""
    s = B.AtomStructure(2, 0, [[], []], {(i, j): 0 for i in range(2) for j in range(2)})
    for mode in "FG":
        with pytest.raises(ValueError, match="the structure has no atoms"):
            G.solve_bounded(s, 2, 1, mode)


def test_certificate_networks_validate():
    s = fullset_structure(2, 2)
    res = G.solve_bounded(s, 5, 3, "F")
    for rec in res["principal_play"]:
        if isinstance(rec.get("exists"), dict):
            net = G.GenericBackend(s).net_from_json(rec["exists"]["network"])
            assert G.validate_network(s, net)["ok"]


def test_forall_script(rainbow_structure):
    proof = G.verify_forall_script(rainbow_structure)
    assert proof["all_lines_dead"]
    assert proof["stats"]["max_depth"] <= 5
    assert proof["node_budget"] == 6
    assert proof["stats"]["dead_ends"] > 0
    assert proof["tints"] == [1, 3, 4, 2]
    # zeroth graph: whites on the base, g_i to the apex, g_0^tint from
    # node 0, full shade on the base tuple
    z = proof["zeroth_graph"]
    assert z["edges"] == {"(0,1)": "w0", "(0,2)": "g0^1", "(1,2)": "g1"}
    assert z["yellows"] == {"(0,1)": "yS:{0,1,2,3,4}"}


def test_forall_script_replayable_and_deterministic(rainbow_structure):
    proof = G.verify_forall_script(rainbow_structure)
    res = G.verify_transcript(rainbow_structure, proof)
    assert res["ok"]
    assert res["max_round"] <= 5
    assert G.verify_forall_script(rainbow_structure) == proof


def test_forall_script_depth_recorded_per_leaf(rainbow_structure):
    proof = G.verify_forall_script(rainbow_structure)

    depths = []

    def walk(node):
        if node["responses"] == "dead-end":
            depths.append(node["round"])
            return
        for rec in node["responses"]:
            walk(rec["subtree"])

    walk(proof["tree"])
    assert depths and max(depths) <= 5
    assert all(d == depths[0] for d in depths)


def test_script_refuted_when_cones_run_out(rainbow_structure):
    with pytest.raises(ScriptRefuted):
        G.verify_forall_script(rainbow_structure, tints=(1, 3))


def _apex_position(s):
    """The network and move of test_apex_edges_forced_red."""
    full = frozenset(range(5))
    g = R.ColouredGraph(s.sig, range(3),
                        {(0, 1): ("w", 0), (0, 2): ("g0", 1), (1, 2): ("g", 1)},
                        {(0, 1): full})
    cone = R.ColouredGraph(s.sig, range(3),
                           {(0, 1): ("w", 0), (0, 2): ("g0", 3), (1, 2): ("g", 1)},
                           {(0, 1): full})
    return g, G.Move(0, (0, 1), 3, s.table.atom_of_tuple(cone, (0, 1, 2)), 2)


def test_apex_edges_forced_red(rainbow_structure):
    """After two cones with distinct tints, every response labels the
    apex-apex edge red."""
    backend = G.RainbowBackend(rainbow_structure, yellow_mode="all")
    g, move = _apex_position(rainbow_structure)
    resps = backend.responses(g, move)
    assert resps
    for net in resps:
        c = net.edge(2, 3)
        assert c[0] == "r"


def test_responses_extend_a_working_copy(rainbow_structure):
    """The response search sets and deletes edges on one working graph:
    the graph it is given stays as it was, and every response is a
    separate valid coloured graph, whether k is fresh or already a node."""
    g, move = _apex_position(rainbow_structure)
    atom = move.atom
    for yellow_mode in ("all", "dominant"):
        backend = G.RainbowBackend(rainbow_structure, yellow_mode=yellow_mode)
        first = backend.responses(g, move)
        # k = 3 again drops and re-adds a node; k = 4 adds a fifth one
        cases = [(g, 3), (first[0], 3)]
        if yellow_mode == "dominant":
            cases.append((first[-1], 4))
        for net, k in cases:
            before = json.dumps(net.to_json(), sort_keys=True)
            resps = backend.responses(net, G.Move(0, (0, 1), k, atom, 2))
            assert resps
            assert json.dumps(net.to_json(), sort_keys=True) == before
            assert all(R.is_valid_coloured_graph(r) for r in resps)
            assert len({json.dumps(r.to_json(), sort_keys=True) for r in resps}) == len(resps)


def _brute_force_responses(backend, net, move):
    """Every colouring of the free edges (v, k), v ascending, in product
    order, then every shade of each yellow slot through k, kept when the
    whole graph is valid."""
    g = backend._lay_demand(net, move)
    if g is None:
        return []
    k = move.k
    free = sorted(v for v in g.nodes if v != k and g.edge(v, k) is None)
    out = []
    for colours in itertools.product(backend.sig.colours, repeat=len(free)):
        h = g.copy()
        for v, c in zip(free, colours):
            h.set_edge(v, k, c)
        slots = [K for K in itertools.combinations(h.nodes, backend.n - 1)
                 if k in K and K not in h.yellows
                 and not any(R.is_green(h.edge(u, w)) for u, w in itertools.combinations(K, 2))]
        for shades in itertools.product(backend.shades, repeat=len(slots)):
            leaf = h.copy()
            for K, S in zip(slots, shades):
                leaf.set_yellow(K, S)
            if R.is_valid_coloured_graph(leaf):
                out.append(leaf)
    return out


def test_response_search_matches_brute_force(rainbow_structure, monkeypatch):
    """The triangle-table search returns exactly the graphs of a plain
    product over the free edges' colours, in the same order: on every
    response call of one script tree and on the apex position."""
    s = rainbow_structure
    calls = []
    search = G.RainbowBackend.responses

    def recorded(self, net, move, cap=None):
        calls.append((net, move))
        return search(self, net, move, cap)

    monkeypatch.setattr(G.RainbowBackend, "responses", recorded)
    G.verify_forall_script(s, (1, 3, 4, 2))
    monkeypatch.undo()
    dominant = G.RainbowBackend(s, yellow_mode="dominant")
    positions = [(dominant, net, move) for net, move in calls]
    assert len(positions) == 13
    positions.append((G.RainbowBackend(s, yellow_mode="all"), *_apex_position(s)))
    free_counts = []
    for backend, net, move in positions:
        g = backend._lay_demand(net, move)
        free_counts.append(sum(g.edge(v, move.k) is None for v in g.nodes if v != move.k))
        got = [r.to_json() for r in backend.responses(net, move)]
        assert got == [r.to_json() for r in _brute_force_responses(backend, net, move)], move
    assert min(free_counts) == 1 and max(free_counts[:13]) == 3


@pytest.mark.parametrize("n", [3, 4])
def test_triangle_table_matches_triangle_violation(n):
    assert R.signature(n) is R.signature(n)
    colours = R.signature(n).colours
    table = R.signature(n).triangle_rows
    assert R.signature(n).triangle_rows is table
    assert set(table) == set(itertools.product(colours, repeat=2))
    for (a, b), mask in table.items():
        for i, c in enumerate(colours):
            assert bool(mask >> i & 1) == (not R.triangle_violation(a, b, c)), (a, b, c)


def test_responses_with_a_colour_outside_the_inventory(rainbow_structure):
    """A pair holding a colour the signature lacks has no table row; the
    search prunes there, and the invalid graph has no response."""
    g, move = _apex_position(rainbow_structure)
    g.set_edge(1, 2, ("g", 7))
    assert (("g", 7), ("g", 7)) not in R.signature(3).triangle_rows
    for yellow_mode in ("all", "dominant"):
        assert G.RainbowBackend(rainbow_structure, yellow_mode).responses(g, move) == []


def test_rainbow_solver_exceeds_budget(rainbow_structure):
    with pytest.raises(BudgetExceeded):
        G.solve_bounded(rainbow_structure, 6, 5, "F")


def test_transcript_tampering_detected():
    s = fullset_structure(2, 2)
    res = G.solve_bounded(s, 4, 2, "F")
    doc = res
    rec = doc["principal_play"][1]
    rec["forall"]["atom"] = (rec["forall"]["atom"] + 1) % 4
    chk = G.verify_transcript(s, doc)
    assert not chk["ok"]


def _forged_plays(rainbow):
    """(structure, play, reason) of forged plays that must replay as not ok.
    Each network that omits the move's new node is the round-0 network
    offered again in round 1. The false dead-ends claim that Exists has no
    answer to a move she can answer: on fullset:2,2, the round-1 move of the
    README play; on rainbow:3, in round 2 after the script's first move and
    first response, a demand at the fresh node 4 of the atom of (0,2,1),
    which a copy of node 1 meets, with more than 4,096 responses in all."""
    s = fullset_structure(2, 2)
    play = G.solve_bounded(s, 5, 3, "F")
    records = play["principal_play"]
    omits = [records[0], dict(records[1], exists=records[0]["exists"])]
    dead = [records[0], dict(records[1], exists="dead-end")]
    proof = G.verify_forall_script(rainbow)
    tree = proof["tree"]
    net = tree["responses"][0]["network"]
    atom = rainbow.table.atom_of_tuple(R.ColouredGraph.from_json(net["graph"], rainbow.sig),
                                       (0, 2, 1))
    zeroth = {"round": 0, "forall": {"initial_atom": proof["zeroth_atom"]},
              "exists": {"network": {"graph": proof["zeroth_graph"]}}}
    first = {"round": 1, "forall": tree["forall"], "exists": {"network": net}}
    demand = {"round": 2, "forall": G.Move(0, (0, 2), 4, atom, 2).to_json(),
              "exists": "dead-end"}
    extend = "round 1 network does not extend the network it answers"
    return [
        (s, dict(play, principal_play=omits), extend),
        (s, dict(play, principal_play=dead), "claimed dead-end at round 1 has responses"),
        (rainbow, {"mode": "F", "nodes": 6, "rounds": 2,
                   "principal_play": [zeroth, dict(first, exists=zeroth["exists"])]}, extend),
        (rainbow, {"mode": "F", "nodes": 6, "rounds": 2,
                   "principal_play": [zeroth, first, demand]},
         "claimed dead-end at round 2 has responses"),
    ]


def test_forged_plays_are_refuted_not_raised(rainbow_structure):
    """A network that omits the move's new node is refused before any of
    its atoms is read, and a false dead-end claim is refuted by the first
    response, however many there are."""
    cases = _forged_plays(rainbow_structure)
    for s, doc, reason in cases:
        assert G.verify_transcript(s, doc) == {"ok": False, "reason": reason}
    # the genuine rainbow prefix replays
    s, doc, _ = cases[-1]
    assert G.verify_transcript(s, dict(doc, principal_play=doc["principal_play"][:2])) == \
        {"ok": True, "rounds_checked": 1}


def test_incomplete_network_documents_are_refused_while_read():
    """A fullset network document must label every tuple of its nodes; the
    first unlabelled tuple in product order is named, and a document naming
    10^4 nodes with a few labels is refused without a 10^8-entry vector."""
    s = fullset_structure(2, 2)
    gb = G.GenericBackend(s)
    res = G.solve_bounded(s, 3, 2, "F")
    for nodes in ([0, 1], list(range(10**4))):
        network = {"nodes": nodes, "labels": {"(0,0)": 0, "(1,1)": 0}}
        with pytest.raises(ValueError, match=r"^network labels leave \(0,1\) unlabelled$"):
            gb.net_from_json(network)
        forged = [dict(rec, exists={"network": network}) if rec["round"] == 1 else rec
                  for rec in res["principal_play"]]
        assert G.verify_transcript(s, dict(res, principal_play=forged)) == \
            {"ok": False, "reason": "round 1: network labels leave (0,1) unlabelled"}
    # a second spelling of one tuple is no key of the document
    with pytest.raises(ValueError, match=r"^network label key '\(0, 1\)'"):
        gb.net_from_json({"nodes": [0, 1], "labels": {"(0,0)": 0, "(0,1)": 1, "(0, 1)": 1,
                                                      "(1,0)": 2}})


def test_readme_artifacts_round_trip_through_json(rainbow_structure):
    """Every network of the README's `game script --n 3` proof and `game
    solve --structure fullset:2,2 --nodes 5 --rounds 3` play reads back
    through net_from_json and writes the identical document again, and so
    does the quotient graph of each of a seeded sample of atoms."""
    rs = rainbow_structure
    gb = G.GenericBackend(fullset_structure(2, 2))
    rb = G.RainbowBackend(rs)
    docs = [(gb, rec["exists"]["network"])
            for rec in G.solve_bounded(gb.s, 5, 3, "F")["principal_play"]]
    proof = G.verify_forall_script(rs)

    def collect(node):
        for rec in node["responses"] if node["responses"] != "dead-end" else []:
            docs.append((rb, rec["network"]))
            collect(rec["subtree"])

    collect(proof["tree"])
    docs.append((rb, {"graph": proof["zeroth_graph"]}))
    assert len(docs) == 4 + 13
    for backend, doc in docs:
        assert backend.net_to_json(backend.net_from_json(doc)) == doc
    rng = random.Random(25)
    for i in rng.sample(range(rs.num_atoms), 500):
        _, g = rs.table.graph_of(int(rs.codes[i]))
        doc = g.to_json()
        back = R.ColouredGraph.from_json(doc, rs.sig)
        assert (back.nodes, back.edges, back.yellows) == (g.nodes, g.edges, g.yellows)
        assert back.to_json() == doc


def test_dominant_yellows_lose_no_line(rainbow_structure):
    """The script's reduction that fixes Exists' free yellows to the full
    shade loses no line: for each of the 24 tint orders, at every dead end
    of the script tree Exists has no response with any shade either; and at
    every position of the default tree the dominant responses are among all
    responses."""
    s = rainbow_structure
    every = G.RainbowBackend(s, "all")
    dominant = G.RainbowBackend(s, "dominant")
    counts = {"positions": 0, "dead_ends": 0}

    def key(g):
        return json.dumps(g.to_json(), sort_keys=True)

    def walk(node, net, subset):
        counts["positions"] += 1
        move = G.Move.from_json(node["forall"])
        if node["responses"] == "dead-end":
            counts["dead_ends"] += 1
            assert every.responses(net, move) == [], (node["round"], move)
            return
        if subset:
            found = {key(g) for g in every.responses(net, move)}
            assert {key(g) for g in dominant.responses(net, move)} <= found
        for rec in node["responses"]:
            walk(rec["subtree"], R.ColouredGraph.from_json(rec["network"]["graph"], s.sig),
                 subset)

    default = G.default_script_tints(3)
    for tints in itertools.permutations(range(1, 5)):
        proof = G.verify_forall_script(s, tints)
        walk(proof["tree"], R.ColouredGraph.from_json(proof["zeroth_graph"], s.sig),
             tints == default)
    assert counts == {"positions": 312, "dead_ends": 144}


def _pair(table, colour, yellow=R.YELLOW_NONE):
    return table.sig.colour_index[colour] * R.PAIR_BASE + yellow


def test_forged_dead_ends_on_non_atom_demands_rejected(rainbow_structure):
    """A dead-end claimed against a demand that is not an atom proves
    nothing: both the script walker and the play replay must refuse it."""
    s = rainbow_structure
    proof = G.verify_forall_script(s)
    assert G.verify_transcript(s, proof)["ok"]
    move = proof["tree"]["forall"]
    g1 = _pair(s.table, ("g", 1))
    green_triangle = R.pack_atom(4, {(0, 1): g1, (0, 2): g1, (1, 2): g1})
    # same T_2 key as the genuine demand (w0 with the full shade on (0,1)),
    # but two g0 greens over w0 is a forbidden triangle
    w0_full = _pair(s.table, ("w", 0), 31)
    two_g0 = R.pack_atom(4, {(0, 1): w0_full,
                             (0, 2): _pair(s.table, ("g0", 1)),
                             (1, 2): _pair(s.table, ("g0", 2))})
    assert s.key_of_code(2, two_g0) == s.key_of_code(2, move["atom"])
    for bad in (green_triangle, two_g0):
        assert not s.is_atom(bad)
        forged = dict(proof, tree={"round": 1, "forall": dict(move, atom=bad),
                                   "tint": proof["tree"]["tint"],
                                   "responses": "dead-end"})
        assert not G.verify_transcript(s, forged)["ok"]
    _, g = s.table.graph_of(proof["zeroth_atom"])
    play = [{"round": 0, "forall": {"initial_atom": proof["zeroth_atom"]},
             "exists": {"network": {"graph": g.to_json()}}},
            {"round": 1, "forall": G.Move(0, (0, 1), 3, two_g0, 2).to_json(),
             "exists": "dead-end"}]
    forged_play = {"mode": "F", "nodes": 4, "principal_play": play}
    assert not G.verify_transcript(s, forged_play)["ok"]


def test_malformed_networks_are_refused(rainbow_structure):
    """A record whose network object has the wrong shape replays as
    ok: False with a reason naming the field, on either backend."""
    s = fullset_structure(2, 2)
    res = G.solve_bounded(s, 3, 2, "F")
    assert G.verify_transcript(s, res)["ok"]
    cases = [
        ({"nodes": [0, 1], "labels": [1]}, "network labels must be an object"),
        ({"nodes": [0, 1]}, "network labels must be an object"),
        ({"labels": {}}, "network nodes must be a list of integers"),
        ({"nodes": [0, "1"], "labels": {}}, "network nodes must be a list of integers"),
        ({"nodes": [0, 1], "labels": {"0,1": 0}}, "network label key '0,1'"),
        ({"nodes": [0, 1], "labels": {"(0,1,1)": 0}}, "network label key '(0,1,1)'"),
        ({"nodes": [0, 1], "labels": {"(0,5)": 0}}, "network label key '(0,5)'"),
        ({"nodes": [0, 1], "labels": {"(0,1)": -1}}, "network label '(0,1)'"),
        ({"nodes": [0, 1], "labels": {"(0,1)": "0"}}, "network label '(0,1)'"),
    ]
    for r in (0, 1):
        for network, reason in cases:
            forged = [dict(rec, exists={"network": network}) if rec["round"] == r else rec
                      for rec in res["principal_play"]]
            chk = G.verify_transcript(s, dict(res, principal_play=forged))
            assert not chk["ok"] and chk["reason"].startswith(f"round {r}: {reason}"), \
                (network, chk)
    rs = rainbow_structure
    _, g = rs.table.graph_of(G.verify_forall_script(rs)["zeroth_atom"])
    graph = g.to_json()
    assert graph["nodes"] == 3 and graph["edges"]
    edge = next(iter(graph["edges"]))
    cases = [
        ({k: v for k, v in graph.items() if k != "nodes"}, "graph nodes must be"),
        (dict(graph, nodes="3"), "graph nodes must be"),
        (dict(graph, edges=[]), "graph edges must be an object"),
        (dict(graph, edges={"(1,0)": "w0"}), "graph edge key '(1,0)'"),
        (dict(graph, edges={"(0,7)": "w0"}), "graph edge key '(0,7)'"),
        (dict(graph, edges=dict(graph["edges"], **{edge: 3})), "bad colour code 3"),
        (dict(graph, edges=dict(graph["edges"], **{edge: "rx"})), "bad colour code 'rx'"),
        (dict(graph, yellows={"0": "yS:{}"}), "graph yellow key '0'"),
        (dict(graph, yellows={"(0,1)": "yS:{a}"}), "bad yellow code 'yS:{a}'"),
        ([1], "graph must be an object"),
        (None, "graph must be an object"),
    ]
    for bad, reason in cases:
        network = {"graph": bad} if bad is not None else {}
        play = [{"round": 0, "forall": {"initial_atom": 0},
                 "exists": {"network": network}}]
        chk = G.verify_transcript(rs, {"mode": "F", "nodes": 4, "principal_play": play})
        assert not chk["ok"] and chk["reason"].startswith(f"round 0: {reason}"), (bad, chk)


def test_initial_atom_must_be_an_atom(rainbow_structure):
    s = fullset_structure(2, 2)
    # a genuine round-0 dead-end: atom 1 needs two nodes, the budget is one
    res = G.solve_bounded(s, 1, 1, "F")
    assert res["principal_play"] == [{"round": 0, "forall": {"initial_atom": 1},
                                      "exists": "dead-end"}]
    assert G.verify_transcript(s, res) == {"ok": True, "rounds_checked": 0}
    for structure, bad in ((s, 99), (s, -1), (rainbow_structure, 1)):
        forged = {"mode": "F", "nodes": 3, "principal_play": [
            {"round": 0, "forall": {"initial_atom": bad}, "exists": "dead-end"}]}
        chk = G.verify_transcript(structure, forged)
        assert not chk["ok"] and "not an atom" in chk["reason"], bad


def test_round_zero_network_bound_to_initial_atom():
    s = fullset_structure(2, 2)
    res = G.solve_bounded(s, 3, 2, "F")
    assert G.verify_transcript(s, res)["ok"]
    first = res["principal_play"][0]
    assert first["forall"]["initial_atom"] == 0
    assert set(first["exists"]["network"]["labels"].values()) == {0}
    first["forall"]["initial_atom"] = 3
    chk = G.verify_transcript(s, res)
    assert not chk["ok"] and "round 0" in chk["reason"]


def test_round_numbers_checked():
    s = fullset_structure(2, 2)
    res = G.solve_bounded(s, 3, 2, "F")
    play = res["principal_play"]
    assert [rec["round"] for rec in play] == [0, 1, 2]
    assert G.verify_transcript(s, res) == {"ok": True, "rounds_checked": 2}
    doubled = dict(res, principal_play=play + play[1:])
    chk = G.verify_transcript(s, doubled)
    assert not chk["ok"] and "numbered" in chk["reason"]
    renumbered = [dict(rec, round=t) for t, rec in enumerate(play + play[1:])]
    chk = G.verify_transcript(s, dict(res, principal_play=renumbered))
    assert not chk["ok"] and "5 records" in chk["reason"]
    swapped = [play[0], play[2], play[1]]
    assert not G.verify_transcript(s, dict(res, principal_play=swapped))["ok"]


def test_g_mode_network_index_checked():
    """A G-mode move names a network of the history by index: an index
    outside 0 .. len(history) - 1 is refused, not read from the end."""
    s = fullset_structure(2, 2)
    res = G.solve_bounded(s, 3, 2, "G")
    assert G.verify_transcript(s, res) == {"ok": True, "rounds_checked": 2}
    for bad in (7, -1):
        forged = json.loads(json.dumps(res))
        forged["principal_play"][1]["forall"]["network"] = bad
        chk = G.verify_transcript(s, forged)
        assert not chk["ok"] and f"network {bad}" in chk["reason"], bad


def _digest(nets):
    return hashlib.sha1(json.dumps([net.to_json() for net in nets],
                                   sort_keys=True).encode()).hexdigest()


def test_rainbow_responses_lay_the_demanded_atom(rainbow_structure):
    """The demanded atom's kernel blocks must name distinct nodes of the
    demanded tuple, and its edges and yellows must agree with the old
    pairs they land on. Counts and digests were recorded before the
    demand was read through the atom table's decoder."""
    s = rainbow_structure
    backend = G.RainbowBackend(s, yellow_mode="dominant")
    full = frozenset(range(5))
    g = R.ColouredGraph(s.sig, range(3),
                        {(0, 1): ("w", 0), (0, 2): ("g0", 1), (1, 2): ("g", 1)},
                        {(0, 1): full})
    w0 = _pair(s.table, ("w", 0), 31)

    def kernel4(p01):
        return R.pack_atom(4, {(0, 1): p01, (0, 2): w0, (1, 2): w0})

    two_node = {1: R.pack_atom(1, {(0, 2): w0, (1, 2): w0}),
                2: R.pack_atom(2, {(0, 1): w0, (1, 2): w0}),
                3: R.pack_atom(3, {(0, 1): w0, (0, 2): w0})}
    empty = (0, "97d170e1550eee4afc0af065b78cda302a97674c")
    cases = [
        # kernels 1-3 on tuples that repeat the identified node
        (g, two_node[1], (0, 0), 2, (110, "7844b6961eeae0d332059b92432eace2bd886348")),
        (g, two_node[2], (0, 0), 1, (110, "7844b6961eeae0d332059b92432eace2bd886348")),
        (g, two_node[3], (1, 1), 0, (136, "cc9b13be6398981700a05ccf1316204566b9900b")),
        (g, two_node[3], (0, 0), 0, (110, "7844b6961eeae0d332059b92432eace2bd886348")),
        # ... and on tuples that do not, or repeat the wrong one
        (g, two_node[1], (0, 1), 2, empty),
        (g, two_node[3], (0, 1), 0, empty),
        (g, two_node[1], (0, 0), 1, empty),
        # kernel 4 agreeing with the old pair (0, 1), then clashing with its
        # edge colour, then with its yellow
        (g, kernel4(w0), (0, 1), 2, (9, "26613d394c38571406b0198402e8c1cd46d72e99")),
        (g, kernel4(_pair(s.table, ("w", 1), 31)), (0, 1), 2, empty),
        (g, kernel4(_pair(s.table, ("w", 0), 7)), (0, 1), 2, empty),
        # an old pair with no edge
        (R.ColouredGraph(s.sig, range(2), {}, {}), kernel4(w0), (0, 1), 2, empty),
    ]
    for net, atom, face, l, (count, digest) in cases:
        assert s.is_atom(atom)
        resps = backend.responses(net, G.Move(0, face, 3, atom, l))
        assert (len(resps), _digest(resps)) == (count, digest), (atom, face, l)
        for r in resps:
            assert backend.atom_of(r, G.insert_at(face, l, 3)) == atom


def test_rainbow_non_atoms_outside_the_code_range(rainbow_structure):
    """Codes outside the int32 table's range are no atoms: ti_rel answers a
    plain bool, and a play whose initial atom is one replays as refused."""
    s = rainbow_structure
    backend = G.RainbowBackend(s)
    first = int(s.codes[0])
    outside = (-1, 2**31, 2**63, 2**70)
    for b in (first, int(s.codes[-1])) + outside:
        assert type(backend.ti_rel(0, first, b)) is bool, b
    assert backend.ti_rel(0, first, first) and not backend.ti_rel(0, first, -1)
    _, g = s.table.graph_of(first)
    for atom in outside:
        play = [{"round": 0, "forall": {"initial_atom": atom},
                 "exists": {"network": {"graph": g.to_json()}}}]
        res = G.verify_transcript(s, {"mode": "F", "nodes": 4, "principal_play": play})
        assert res == {"ok": False, "reason": f"initial atom {atom} is not an atom"}


def test_rainbow_forall_moves_refused_like_atoms(rainbow_structure):
    """Neither Forall's opening atoms nor his moves are enumerated on the
    rainbow structure: both refuse with one BudgetExceeded that points to
    the scripted game. The generic enumeration raises past its cap."""
    s = rainbow_structure
    backend = G.RainbowBackend(s)
    _, net = s.table.graph_of(int(s.codes[0]))
    for call in (backend.atoms, lambda: backend.forall_moves([net], 2, {0}, "F")):
        with pytest.raises(BudgetExceeded, match="use verify_forall_script"):
            call()
    gb = G.GenericBackend(fullset_structure())
    net = gb.initial_networks(0, 4)[0]
    count = len(gb.forall_moves([net], 4, set(), "F"))
    assert len(gb.forall_moves([net], 4, set(), "F", cap=count)) == count
    with pytest.raises(BudgetExceeded, match="move enumeration cap"):
        gb.forall_moves([net], 4, set(), "F", cap=count - 1)


def test_script_certificate_responses_replayed_in_order(rainbow_structure):
    """A script certificate lists Exists' responses exactly as the
    re-enumeration gives them: the same responses in another order are
    refused."""
    proof = G.verify_forall_script(rainbow_structure)
    responses = proof["tree"]["responses"]
    assert len(responses) > 1
    swapped = json.loads(json.dumps(proof))
    swapped["tree"]["responses"][:2] = swapped["tree"]["responses"][1::-1]
    chk = G.verify_transcript(rainbow_structure, swapped)
    assert not chk["ok"] and chk["reason"].startswith("round 1:")
    # records of the wrong shape are refused with a message too
    for bad in ("dead", [1, 2], {"network": None}):
        malformed = dict(proof, tree=dict(proof["tree"], responses=bad))
        chk = G.verify_transcript(rainbow_structure, malformed)
        assert not chk["ok"] and chk["reason"].startswith("round 1:"), bad


def test_script_leaf_recorded_as_empty_list_refused(rainbow_structure):
    """A leaf is recorded as "dead-end"; the same leaf recorded as an empty
    list of responses is refused, not replayed as a leaf that does not
    count."""
    proof = G.verify_forall_script(rainbow_structure)
    assert G.verify_transcript(rainbow_structure, proof)["dead_ends"] == 6
    tampered = json.loads(json.dumps(proof))
    node = tampered["tree"]
    while node["responses"] != "dead-end":
        node = node["responses"][0]["subtree"]
    node["responses"] = []
    chk = G.verify_transcript(rainbow_structure, tampered)
    assert not chk["ok"] and chk["reason"].startswith(f"round {node['round']}: "), chk


def test_exists_network_must_extend_the_network_it_answers():
    """A play's Exists network keeps the nodes and atoms of the network it
    answers and adds the node k, nothing else."""
    s = fullset_structure(2, 2)
    res = G.solve_bounded(s, 3, 2, "F")
    play = res["principal_play"][:2]
    assert play[1]["forall"] == {"network": 0, "face": [0], "k": 1, "atom": 0, "l": 0}
    # all-zero labels on {0, 1, 7}: valid, keeps (0,0) and meets the demand,
    # but node 7 is outside the budget of 3
    gb = G.GenericBackend(s)
    stray = G.AtomicNetwork((0, 1, 7), (0,) * 9)
    assert G.validate_network(s, stray)["ok"]
    forged = dict(res, principal_play=[play[0], dict(play[1],
                                                     exists={"network": gb.net_to_json(stray)})])
    chk = G.verify_transcript(s, forged)
    assert not chk["ok"] and "does not extend" in chk["reason"]
    assert G.verify_transcript(s, dict(res, principal_play=play))["ok"]

    # round 2 adds node 2 at point 0; the forged answer also moves node 1
    # to point 0, which changes the atoms of the old tuples (0,1), (1,0), (1,1)
    def points(p):
        return {"network": gb.net_to_json(G.AtomicNetwork(tuple(p), tuple(p[u] + 2 * p[v]
                                                                         for u in p for v in p)))}

    play = [{"round": 0, "forall": {"initial_atom": 0}, "exists": points({0: 0})},
            {"round": 1, "forall": {"network": 0, "face": [0], "k": 1, "atom": 1, "l": 0},
             "exists": points({0: 0, 1: 1})},
            {"round": 2, "forall": {"network": 0, "face": [0], "k": 2, "atom": 0, "l": 0},
             "exists": points({0: 0, 1: 1, 2: 0})}]
    doc = {"mode": "F", "nodes": 3, "rounds": 2, "principal_play": play}
    assert G.verify_transcript(s, doc) == {"ok": True, "rounds_checked": 2}
    play[2]["exists"] = points({0: 0, 1: 0, 2: 0})
    chk = G.verify_transcript(s, doc)
    assert not chk["ok"] and chk["reason"].startswith("round 2 ") and "extend" in chk["reason"]
    # every pinned solver play still replays
    for (structure, m, r, mode) in SOLVER_PINS:
        s = _structure(structure)
        chk = G.verify_transcript(s, G.solve_bounded(s, m, r, mode))
        assert chk["ok"], (structure, m, r, mode, chk)


def test_play_node_budget_checked():
    """A play's `nodes` must be an int in 1..n+3, the budgets the solver
    accepts; anything else is refused with a reason, not a traceback."""
    s = fullset_structure(2, 2)
    res = G.solve_bounded(s, 3, 2, "F")
    assert G.verify_transcript(s, res) == {"ok": True, "rounds_checked": 2}
    for nodes in ("3", None, 2.5, 99, 0, 6, True):
        chk = G.verify_transcript(s, dict(res, nodes=nodes))
        assert not chk["ok"] and "nodes" in chk["reason"], nodes
    for (structure, m, r, mode) in SOLVER_PINS:
        s = _structure(structure)
        chk = G.verify_transcript(s, G.solve_bounded(s, m, r, mode))
        assert chk["ok"], (structure, m, r, mode, chk)


def test_malformed_play_records_and_mode_are_refused():
    """A record whose forall or exists is not an object with the expected
    fields, and a play whose mode is not "F" or "G", replay as ok: False
    with a reason instead of raising."""
    s = fullset_structure(2, 2)
    res = G.solve_bounded(s, 5, 3, "F")
    assert G.verify_transcript(s, res)["ok"]
    play = res["principal_play"]
    move = play[1]["forall"]
    cases = [
        (1, {"forall": [1]}),
        (1, {"forall": {k: v for k, v in move.items() if k != "face"}}),
        (1, {"forall": dict(move, k="1")}),
        (1, {"forall": dict(move, face=0)}),
        (1, {"exists": [1]}),
        (1, {"exists": {"nodes": [0, 1]}}),
        (1, {"exists": {"network": [1]}}),
        (0, {"forall": 0}),
        (0, {"forall": {"initial_atom": "0"}}),
        (2, {"forall": None}),
    ]
    for r, fields in cases:
        forged = [dict(rec, **fields) if rec["round"] == r else rec for rec in play]
        chk = G.verify_transcript(s, dict(res, principal_play=forged))
        assert not chk["ok"] and chk["reason"].startswith(f"round {r}: "), (fields, chk)
    chk = G.verify_transcript(s, dict(res, principal_play=[play[0], [1]]))
    assert not chk["ok"] and "numbered" in chk["reason"]
    # a face of the wrong arity or an axis out of range is an illegal move
    for bad in (dict(move, face=[0, 0]), dict(move, l=2), dict(move, k=-1)):
        forged = [play[0], dict(play[1], forall=bad)]
        chk = G.verify_transcript(s, dict(res, principal_play=forged))
        assert chk == {"ok": False, "reason": "illegal move at round 1"}, bad
    for mode in ("X", "f", None, 1):
        chk = G.verify_transcript(s, dict(res, mode=mode))
        assert not chk["ok"] and chk["reason"].startswith("mode "), mode
    # every pinned solver play still replays
    for (structure, m, r, mode) in SOLVER_PINS:
        s = _structure(structure)
        chk = G.verify_transcript(s, G.solve_bounded(s, m, r, mode))
        assert chk["ok"], (structure, m, r, mode, chk)


def test_leaves_count_against_the_state_cap(monkeypatch):
    """A position with no rounds left gets no canonical form or memo entry
    but still counts as a state: a cap one below a pinned solve's
    states_explored stops it, and a cap at that count gives the pinned
    report."""
    (spec, m, r, mode), (states, digest) = next(iter(SOLVER_PINS.items()))
    s = _structure(spec)
    monkeypatch.setattr(G, "SOLVE_STATES_CAP", states - 1)
    with pytest.raises(BudgetExceeded, match="state budget exceeded"):
        G.solve_bounded(s, m, r, mode)
    monkeypatch.setattr(G, "SOLVE_STATES_CAP", states)
    res = G.solve_bounded(s, m, r, mode)
    assert res["winner"] == "exists" and res["states_explored"] == states
    assert hashlib.sha1(json.dumps(res, sort_keys=True).encode()).hexdigest() == digest


def test_play_stays_on_the_budget_nodes():
    """Round 0 is bound to the initial atom only up to a relabelling, so
    its network could sit on nodes past the budget and the play grow past
    it; every Exists network must lie on nodes 0..nodes - 1."""
    s = fullset_structure(2, 2)
    gb = G.GenericBackend(s)
    net0 = gb.initial_networks(1, 2)[0]
    assert net0.nodes == (0, 1)
    moved = G.AtomicNetwork((10, 11), net0.atoms)
    move = G.Move(0, (10,), 0, 1, 1)
    answer = gb.responses(moved, move)[0]
    assert answer.nodes == (0, 10, 11) and G.validate_network(s, answer)["ok"]
    play = [{"round": 0, "forall": {"initial_atom": 1},
             "exists": {"network": gb.net_to_json(moved)}},
            {"round": 1, "forall": move.to_json(),
             "exists": {"network": gb.net_to_json(answer)}}]
    chk = G.verify_transcript(s, {"mode": "F", "nodes": 2, "rounds": 1, "principal_play": play})
    assert chk == {"ok": False, "reason": "round 0 network node 10 is past 0..1"}
    for (structure, m, r, mode) in SOLVER_PINS:
        s = _structure(structure)
        chk = G.verify_transcript(s, G.solve_bounded(s, m, r, mode))
        assert chk["ok"], (structure, m, r, mode, chk)
