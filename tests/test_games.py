import itertools

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
    net = G.AtomicNetwork(2, [0], {(0, 0): 0})
    assert G.validate_network(s, net)["ok"]
    # same-node tuple labelled outside d_01
    bad = G.AtomicNetwork(2, [0], {(0, 0): 1})
    res = G.validate_network(s, bad)
    assert not res["ok"] and res["kind"] == "diagonal"
    # cylindrifier condition violation: labels do not cohere along axis 1
    bad = G.AtomicNetwork(2, [0, 1], {(0, 0): 0, (0, 1): 3, (1, 0): 2, (1, 1): 3})
    res = G.validate_network(s, bad)
    assert not res["ok"] and res["kind"] == "cylindrifier"
    # a missing tuple is reported
    res = G.validate_network(s, G.AtomicNetwork(2, [0, 1], {(0, 0): 0}))
    assert res["kind"] == "missing-tuple"


def test_rainbow_network_is_a_valid_coloured_graph(rainbow_structure):
    s = rainbow_structure
    sig = s.sig
    full = frozenset(range(5))
    g = R.ColouredGraph(sig, range(3),
                        {(0, 1): ("w", 0), (0, 2): ("g0", 1), (1, 2): ("g", 1)},
                        {(0, 1): full})
    backend = G.RainbowBackend(s)
    assert backend.validate(G.GraphNetwork(g))["ok"]
    for t in itertools.product(range(3), repeat=3):
        assert s.is_atom(s.table.atom_of_tuple(g, t))


def test_one_atom_structure_has_moves():
    s = B.AtomStructure.from_pairs(
        2, 1, [[(0, 0)], [(0, 0)]],
        {(0, 0): [0], (0, 1): [0], (1, 0): [0], (1, 1): [0]})
    state = G.GameState(s, budget=3, mode="F")
    state.push(state.play_initial(0)[0])
    assert G.legal_forall_moves(state)


def test_legal_forall_moves_nonempty_and_sorted():
    s = fullset_structure()
    state = G.GameState(s, budget=4, mode="F")
    nets = state.play_initial(0)
    assert nets
    state.push(nets[0])
    moves = G.legal_forall_moves(state)
    assert moves
    keys = [m.key() for m in moves]
    assert keys == sorted(keys)
    # every offered atom satisfies the side condition b <= c_l N(face tuple)
    backend = state.backend
    net = state.latest()
    for m in moves[:25]:
        base = net.labels[G.insert_at(m.face, m.l, net.nodes[0])]
        assert backend.ti_rel(m.l, base, m.atom)


def test_g_mode_requires_fresh_nodes():
    s = fullset_structure()
    state = G.GameState(s, budget=2, mode="G")
    net0 = state.play_initial(1)[0]  # atom (1,0): two nodes
    state.push(net0)
    moves = G.legal_forall_moves(state)
    assert moves == []  # both budget nodes are used and reuse is forbidden
    state_f = G.GameState(s, budget=2, mode="F")
    state_f.push(net0)
    assert G.legal_forall_moves(state_f)  # F-mode may reuse nodes


def test_exists_responses_meet_demand():
    s = fullset_structure()
    state = G.GameState(s, budget=3, mode="F")
    state.push(state.play_initial(1)[0])
    moves = G.legal_forall_moves(state)
    move = next(m for m in moves if m.k not in state.latest().nodes)
    resps = G.legal_exists_responses(state, move)
    assert resps
    for net in resps:
        assert G.validate_network(s, net)["ok"]
        assert net.label(G.insert_at(move.face, move.l, move.k)) == move.atom
        assert set(net.nodes) == set(state.latest().nodes) | {move.k}


def test_impossible_demand_has_no_responses():
    # an atom structure where the demanded b is not actually reachable
    s = fullset_structure()
    state = G.GameState(s, budget=3, mode="F")
    state.push(state.play_initial(0)[0])
    # demand an atom violating the diagonal pattern at a repeated node: face
    # (0,) with k=0 is illegal anyway, so fabricate a contradictory move
    move = G.Move(0, (0,), 1, 1, 0)  # tuple (1,0) must get atom (1,0)... fine
    # make it contradictory instead: demand at (1,0) the atom code 3=(1,1)
    bad = G.Move(0, (0,), 1, 3, 0)
    resps = G.legal_exists_responses(state, bad)
    assert resps == []


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


def test_solver_forall_wins_on_broken_structure():
    """Remove the atom (1,1) from the (2,2) structure: Exists cannot even
    label the diagonal tuple of a second node consistently once Forall
    demands the right extension."""
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
    s = B.AtomStructure(2, 3, T_rel, D)
    res = G.solve_bounded(s, 4, 2, "F")
    assert res["winner"] == "forall"
    assert res["principal_play"][-1]["exists"] == "dead-end"
    chk = G.verify_transcript(s, res)
    assert chk["ok"], chk


def test_certificate_networks_validate():
    s = fullset_structure(2, 2)
    res = G.solve_bounded(s, 5, 3, "F")
    for rec in res["principal_play"]:
        if isinstance(rec.get("exists"), dict):
            net = G.AtomicNetwork.from_json(rec["exists"]["network"], 2)
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


def test_apex_edges_forced_red(rainbow_structure):
    """After two cones with distinct tints, every response labels the
    apex-apex edge red."""
    s = rainbow_structure
    backend = G.RainbowBackend(s, yellow_mode="all")
    sig = s.sig
    full = frozenset(range(5))
    g = R.ColouredGraph(sig, range(3),
                        {(0, 1): ("w", 0), (0, 2): ("g0", 1), (1, 2): ("g", 1)},
                        {(0, 1): full})
    cone = R.ColouredGraph(sig, range(3),
                           {(0, 1): ("w", 0), (0, 2): ("g0", 3), (1, 2): ("g", 1)},
                           {(0, 1): full})
    b = s.table.atom_of_tuple(cone, (0, 1, 2))
    move = G.Move(0, (0, 1), 3, b, 2)
    resps = backend.responses(G.GraphNetwork(g), move)
    assert resps
    for net in resps:
        c = net.graph.edge(2, 3)
        assert c[0] == "r"


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


def _pair(table, colour, yellow=R.YELLOW_NONE):
    return table.colour_index[colour] * R.PAIR_BASE + yellow


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
