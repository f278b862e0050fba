"""Atomic networks and the bounded atomic games.

Two backends drive the same engine: a generic one for small explicit atom
structures (networks map n-tuples of nodes to atom ids; Exists' responses
come from constraint propagation over the undetermined tuples) and a
rainbow one where a network is a coloured graph and the atom of a tuple is
the pullback along it.

The real game runs for omega rounds; everything here is an r-round
truncation and says so in its artifacts. In F-mode Forall may pick a node
already in play, which restricts the network to the remaining nodes before
extending (the literal "M contains N" is impossible under reuse); G-mode
demands globally fresh nodes.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, List, Optional, Tuple

from .errors import BudgetExceeded, ScriptRefuted
from .bao import AtomStructure
from .rainbow import (
    ColouredGraph,
    RainbowStructure,
    colour_code,
    is_green,
    is_valid_coloured_graph,
    triangle_violation,
    unpack_atom,
    IDENT_PAIR,
    PAIR_BASE,
    YELLOW_NONE,
)

SOLVE_ROUNDS_CAP = 6


def insert_at(face, l: int, k: int) -> Tuple[int, ...]:
    """The n-tuple obtained by inserting k at position l of the face."""
    out = list(face)
    out.insert(l, k)
    return tuple(out)


class Move:
    def __init__(self, net_index: int, face, k: int, atom, l: int):
        self.net_index = net_index
        self.face = tuple(face)
        self.k = k
        self.atom = atom
        self.l = l

    def key(self):
        return (self.net_index, self.face, self.k, int(self.atom), self.l)

    def to_json(self):
        return {"network": self.net_index, "face": list(self.face),
                "k": self.k, "atom": int(self.atom), "l": self.l}

    @staticmethod
    def from_json(doc):
        return Move(doc["network"], tuple(doc["face"]), doc["k"], doc["atom"], doc["l"])

    def __repr__(self):
        return (f"Move(net={self.net_index}, face={self.face}, k={self.k}, "
                f"atom={self.atom}, l={self.l})")


# -- generic backend ---------------------------------------------------------


class AtomicNetwork:
    """Total map from n-tuples of nodes to atom ids."""

    def __init__(self, dim: int, nodes: Iterable[int], labels: Dict[Tuple[int, ...], int]):
        self.dim = dim
        self.nodes = tuple(sorted(set(nodes)))
        self.labels = dict(labels)

    def label(self, t) -> int:
        return self.labels[tuple(t)]

    def to_json(self):
        return {
            "nodes": list(self.nodes),
            "labels": {"(" + ",".join(map(str, t)) + ")": int(a)
                       for t, a in sorted(self.labels.items())},
        }

    @staticmethod
    def from_json(doc, dim):
        labels = {}
        for key, a in doc["labels"].items():
            t = tuple(int(p) for p in key.strip("()").split(","))
            labels[t] = a
        return AtomicNetwork(dim, doc["nodes"], labels)


def validate_network(s: AtomStructure, net: AtomicNetwork) -> dict:
    """Both displayed network conditions, naming the offending tuple."""
    n = s.dim
    for t in itertools.product(net.nodes, repeat=n):
        if t not in net.labels:
            return {"ok": False, "kind": "missing-tuple", "tuple": list(t)}
    for t, a in net.labels.items():
        for i in range(n):
            for j in range(n):
                if t[i] == t[j] and not s.D[(i, j)] >> a & 1:
                    return {"ok": False, "kind": "diagonal", "tuple": list(t),
                            "indices": [i, j]}
    for t, a in net.labels.items():
        for i in range(n):
            for d in net.nodes:
                b = net.labels[t[:i] + (d,) + t[i + 1:]]
                if not s.T[i][a] >> b & 1:
                    return {"ok": False, "kind": "cylindrifier", "tuple": list(t),
                            "index": i, "node": d}
    return {"ok": True}


class GenericBackend:
    def __init__(self, structure: AtomStructure):
        self.s = structure
        self.n = structure.dim
        self.kind = "generic"

    def atoms(self):
        return range(self.s.num_atoms)

    def ti_rel(self, i, a, b):
        return bool(self.s.T[i][a] >> b & 1)

    def in_diag(self, a, i, j):
        return bool(self.s.D[(i, j)] >> a & 1)

    def initial_networks(self, atom: int, budget: int) -> List[AtomicNetwork]:
        """Minimal networks realizing the atom; dominant for Exists since
        networks are closed under node deletion."""
        n = self.n
        rel = {(i, j) for i in range(n) for j in range(n) if self.in_diag(atom, i, j)}
        symmetric = all((j, i) in rel for (i, j) in rel)
        transitive = all((i, k) in rel
                         for (i, j) in rel for (j2, k) in rel if j == j2)
        if symmetric and transitive:
            dbar = [-1] * n
            nxt = 0
            for i in range(n):
                if dbar[i] >= 0:
                    continue
                for j in range(i, n):
                    if (i, j) in rel:
                        dbar[j] = nxt
                nxt += 1
        else:
            dbar = list(range(n))
        nodes = sorted(set(dbar))
        if len(nodes) > budget:
            return []
        return self._complete(nodes, {tuple(dbar): atom})

    def _complete(self, nodes, pinned, cap: Optional[int] = None) -> List[AtomicNetwork]:
        """All total labelings extending `pinned` under the network
        conditions; most-constrained-first with forward checking."""
        n = self.n
        for t, a in pinned.items():
            if not self._local_ok(t, a, pinned):
                return []
        tuples = sorted(itertools.product(sorted(nodes), repeat=n))
        assign = dict(pinned)
        out: List[AtomicNetwork] = []

        def bt():
            if cap is not None and len(out) > cap:
                raise BudgetExceeded("response enumeration cap exceeded")
            best, best_dom = None, None
            for t in tuples:
                if t in assign:
                    continue
                dom = [a for a in self.atoms() if self._local_ok(t, a, assign)]
                if best_dom is None or len(dom) < len(best_dom):
                    best, best_dom = t, dom
                if not dom:
                    break
            if best is None:
                out.append(AtomicNetwork(n, nodes, dict(assign)))
                return
            for a in best_dom:
                assign[best] = a
                bt()
                del assign[best]

        bt()
        return out

    def _local_ok(self, t, a, assign):
        n = self.n
        for i in range(n):
            for j in range(n):
                if t[i] == t[j] and not self.in_diag(a, i, j):
                    return False
        for u, b in assign.items():
            if u == t:
                continue
            for i in range(n):
                if all(u[x] == t[x] for x in range(n) if x != i):
                    if not self.ti_rel(i, b, a) or not self.ti_rel(i, a, b):
                        return False
        return True

    def forall_moves(self, nets, budget, used, mode, cap=None):
        moves = []
        for idx, net in enumerate(nets):
            if not net.nodes:
                continue
            probe = net.nodes[0]
            for face in itertools.product(net.nodes, repeat=self.n - 1):
                for l in range(self.n):
                    base = net.labels[insert_at(face, l, probe)]
                    ref = self.s.T[l][base]
                    for k in range(budget):
                        if k in face:
                            continue
                        if mode == "G" and k in used:
                            continue
                        for b in self.atoms():
                            if ref >> b & 1:
                                moves.append(Move(idx, face, k, b, l))
                                if cap is not None and len(moves) > cap:
                                    raise BudgetExceeded("move enumeration cap")
        moves.sort(key=Move.key)
        return moves

    def responses(self, net: AtomicNetwork, move: Move, cap=None) -> List[AtomicNetwork]:
        k = move.k
        keep = [v for v in net.nodes if v != k]
        pinned = {t: a for t, a in net.labels.items() if k not in t}
        nodes = sorted(set(keep) | {k})
        demanded = insert_at(move.face, move.l, k)
        if demanded in pinned and pinned[demanded] != move.atom:
            return []
        pinned[demanded] = move.atom
        return self._complete(nodes, pinned, cap=cap)

    def canonical(self, net: AtomicNetwork):
        nodes = net.nodes
        best = None
        for perm in itertools.permutations(range(len(nodes))):
            relabel = {v: perm[i] for i, v in enumerate(nodes)}
            enc = tuple(sorted(
                (tuple(relabel[x] for x in t), a) for t, a in net.labels.items()
            ))
            if best is None or enc < best:
                best = enc
        return (len(nodes), best)

    def atom_ids(self, net):
        return set(net.labels.values())

    def net_to_json(self, net):
        return net.to_json()

    def net_from_json(self, doc):
        return AtomicNetwork.from_json(doc, self.n)

    def validate(self, net):
        return validate_network(self.s, net)


# -- rainbow backend ----------------------------------------------------------


def _atom_pairs(code: int):
    """Pair slots of a packed atom as {(i,j): (colour_code_int, yellow_int)}
    with None entries for identified slots."""
    _, pairs = unpack_atom(int(code))
    out = {}
    for key, p in pairs.items():
        if p == IDENT_PAIR:
            out[key] = None
        else:
            out[key] = divmod(p, PAIR_BASE)
    return out


class GraphNetwork:
    """A rainbow network is exactly a valid coloured graph on its nodes."""

    def __init__(self, graph: ColouredGraph):
        self.graph = graph
        self.nodes = graph.nodes

    def to_json(self):
        return {"graph": self.graph.to_json()}


class RainbowBackend:
    def __init__(self, structure: RainbowStructure, yellow_mode: str = "all"):
        self.s = structure
        self.table = structure.table
        self.sig = structure.sig
        self.n = structure.dim
        self.kind = "rainbow"
        self.yellow_mode = yellow_mode
        self.full_shade = frozenset(range(self.sig.yellow_universe))

    def atom_of(self, net: GraphNetwork, t) -> int:
        return self.table.atom_of_tuple(net.graph, t)

    def initial_networks(self, atom_code: int, budget: int) -> List[GraphNetwork]:
        _, g = self.table.graph_of(int(atom_code))
        if len(g.nodes) > budget:
            return []
        return [GraphNetwork(g)]

    def forall_moves(self, nets, budget, used, mode, cap=2000):
        moves = []
        for idx, net in enumerate(nets):
            probe = net.nodes[0]
            for face in itertools.product(net.nodes, repeat=self.n - 1):
                for l in range(self.n):
                    base_atom = self.atom_of(net, insert_at(face, l, probe))
                    key = self.s.key_of_code(l, base_atom)
                    mask = self.s.key_field(l) == key
                    candidates = self.s.codes[mask]
                    for k in range(budget):
                        if k in face:
                            continue
                        if mode == "G" and k in used:
                            continue
                        for b in candidates:
                            moves.append(Move(idx, face, k, int(b), l))
                            if cap is not None and len(moves) > cap:
                                raise BudgetExceeded("rainbow move enumeration cap")
        moves.sort(key=Move.key)
        return moves

    def responses(self, net: GraphNetwork, move: Move, cap=None) -> List[GraphNetwork]:
        """All coloured-graph extensions meeting the move's demand.

        yellow_mode="dominant" fixes every yellow label Exists is free to
        choose to the full shade: only the cone clause reads yellow labels
        and the full shade satisfies every instance of it, so if any choice
        survives, the full shade survives.
        """
        k = move.k
        g = net.graph
        if k in g.nodes:
            g = g.drop_node(k)
        g = g.copy()
        g.nodes = tuple(sorted(set(g.nodes) | {k}))
        demanded = insert_at(move.face, move.l, k)
        for i in range(self.n):
            for j in range(i + 1, self.n):
                same = demanded[i] == demanded[j]
                if same != self.s.is_diag(move.atom, i, j):
                    return []
        for (i, j), slot in _atom_pairs(move.atom).items():
            u, v = demanded[i], demanded[j]
            if u == v:
                continue
            colour_idx, yellow = slot
            colour = self.table.colours[colour_idx]
            existing = g.edge(u, v)
            if existing is None:
                if k not in (u, v):
                    return []
                g.set_edge(u, v, colour)
            elif existing != colour:
                return []
            if yellow != YELLOW_NONE:
                S = frozenset(t for t in range(self.sig.yellow_universe)
                              if yellow >> t & 1)
                old = g.yellow((u, v))
                if old is None:
                    g.set_yellow((u, v), S)
                elif old != S:
                    return []
        free_edges = sorted(v for v in g.nodes if v != k and g.edge(v, k) is None)
        out: List[GraphNetwork] = []
        self._fill_edges(g, k, free_edges, 0, out, cap)
        return out

    def _fill_edges(self, g, k, free, pos, out, cap):
        if cap is not None and len(out) > cap:
            raise BudgetExceeded("response enumeration cap exceeded")
        if pos == len(free):
            self._fill_yellows(g, k, out, cap)
            return
        v = free[pos]
        for colour in self.sig.edge_colours():
            g2 = g.copy()
            g2.set_edge(v, k, colour)
            if self._triangles_ok(g2, k, v):
                self._fill_edges(g2, k, free, pos + 1, out, cap)

    def _triangles_ok(self, g, k, v):
        for w in g.nodes:
            if w in (v, k):
                continue
            evw = g.edge(v, w)
            ewk = g.edge(w, k)
            evk = g.edge(v, k)
            if evw is None or ewk is None or evk is None:
                continue
            if triangle_violation(evw, ewk, evk):
                return False
        return True

    def _fill_yellows(self, g, k, out, cap):
        n = self.n
        slots = []
        for K in itertools.combinations(g.nodes, n - 1):
            if k not in K:
                continue
            if any(g.edge(u, v) is None for u, v in itertools.combinations(K, 2)):
                return
            green_free = all(not is_green(g.edge(u, v))
                             for u, v in itertools.combinations(K, 2))
            key = tuple(sorted(K))
            if green_free and g.yellows.get(key) is None:
                slots.append(key)
        if self.yellow_mode == "dominant":
            g2 = g.copy()
            for key in slots:
                g2.set_yellow(key, self.full_shade)
            if is_valid_coloured_graph(g2):
                out.append(GraphNetwork(g2))
            return
        universe = self.sig.yellow_universe
        all_shades = [frozenset(t for t in range(universe) if bits >> t & 1)
                      for bits in range(1 << universe)]
        for combo in itertools.product(all_shades, repeat=len(slots)):
            if cap is not None and len(out) > cap:
                raise BudgetExceeded("response enumeration cap exceeded")
            g2 = g.copy()
            for key, S in zip(slots, combo):
                g2.set_yellow(key, S)
            if is_valid_coloured_graph(g2):
                out.append(GraphNetwork(g2))

    def canonical(self, net: GraphNetwork):
        g = net.graph
        nodes = g.nodes
        best = None
        for perm in itertools.permutations(range(len(nodes))):
            relabel = {v: perm[i] for i, v in enumerate(nodes)}
            edges = []
            for (u, v) in g.edges:
                ru, rv = relabel[u], relabel[v]
                c = g.edge(u, v) if ru < rv else g.edge(v, u)
                edges.append(((min(ru, rv), max(ru, rv)), colour_code(c)))
            yells = [
                (tuple(sorted(relabel[x] for x in key)), tuple(sorted(S)))
                for key, S in g.yellows.items()
            ]
            enc = (tuple(sorted(edges)), tuple(sorted(yells)))
            if best is None or enc < best:
                best = enc
        return (len(nodes), best)

    def atom_ids(self, net):
        g = net.graph
        return {self.atom_of(net, t)
                for t in itertools.product(g.nodes, repeat=self.n)}

    def net_to_json(self, net):
        return net.to_json()

    def net_from_json(self, doc):
        return GraphNetwork(ColouredGraph.from_json(doc["graph"], self.sig))

    def validate(self, net):
        v = is_valid_coloured_graph(net.graph)
        return {"ok": bool(v), "kind": v.kind,
                "witness": list(v.witness) if v.witness else None}


def backend_for(structure, yellow_mode: str = "all"):
    if isinstance(structure, RainbowStructure):
        return RainbowBackend(structure, yellow_mode)
    return GenericBackend(structure)


# -- game state and the public move API ----------------------------------------


class GameState:
    """History of networks, node budget, and the F/G reuse flag."""

    def __init__(self, structure, budget: int, mode: str = "F", yellow_mode="all"):
        if mode not in ("F", "G"):
            raise ValueError("mode must be 'F' or 'G'")
        self.backend = backend_for(structure, yellow_mode)
        self.budget = budget
        self.mode = mode
        self.history: List = []
        self.used: set = set()

    def play_initial(self, atom) -> List:
        options = self.backend.initial_networks(atom, self.budget)
        return options

    def push(self, net):
        self.history.append(net)
        self.used |= set(net.nodes)

    def latest(self):
        return self.history[-1]


def legal_forall_moves(state: GameState, cap=None) -> List[Move]:
    if not state.history:
        raise ValueError("no network played yet")
    nets = state.history if state.mode == "G" else [state.latest()]
    kwargs = {} if cap is None else {"cap": cap}
    return state.backend.forall_moves(nets, state.budget, state.used, state.mode, **kwargs)


def legal_exists_responses(state: GameState, move: Move, cap=None) -> List:
    nets = state.history if state.mode == "G" else [state.latest()]
    net = nets[move.net_index] if state.mode == "G" else state.latest()
    return state.backend.responses(net, move, cap=cap)


# -- bounded solver ------------------------------------------------------------


class SolveBudget:
    def __init__(self, max_states=200000, max_moves=5000, max_responses=2000):
        self.max_states = max_states
        self.max_moves = max_moves
        self.max_responses = max_responses
        self.states = 0

    def tick(self):
        self.states += 1
        if self.states > self.max_states:
            raise BudgetExceeded("state budget exceeded")


def solve_bounded(structure, m: int, rounds: int, mode: str = "F",
                  budget: Optional[SolveBudget] = None, yellow_mode="all") -> dict:
    """Minimax over the r-round truncation with memoization on
    canonicalized states. The report is explicitly a truncation verdict."""
    if rounds > SOLVE_ROUNDS_CAP:
        raise BudgetExceeded(f"rounds capped at {SOLVE_ROUNDS_CAP}")
    if m > structure.dim + 3:
        raise BudgetExceeded(f"node budget capped at n+3 = {structure.dim + 3}")
    backend = backend_for(structure, yellow_mode)
    budget = budget or SolveBudget()
    memo: dict = {}

    if backend.kind == "generic":
        all_atoms = list(backend.atoms())
    else:
        if structure.num_atoms > 64:
            raise BudgetExceeded(
                "full minimax over the rainbow atom structure exceeds any "
                "sane budget; use verify_forall_script"
            )
        all_atoms = [int(c) for c in structure.codes]

    def value(nets, used, remaining):
        """True iff Exists survives `remaining` more rounds."""
        budget.tick()
        # G-mode moves may target any historical network, so the whole
        # history is part of the state there; F-mode compresses to the
        # latest network, which earlier networks restrict.
        if mode == "G":
            key = (tuple(backend.canonical(nt) for nt in nets), remaining, len(used))
        else:
            key = (backend.canonical(nets[-1]), remaining, None)
        if key in memo:
            return memo[key][0]
        if remaining == 0:
            memo[key] = (True, None, None)
            return True
        moves = backend.forall_moves(
            nets if mode == "G" else [nets[-1]],
            m, used, mode, cap=budget.max_moves)
        for move in moves:
            target = nets[move.net_index] if mode == "G" else nets[-1]
            resps = backend.responses(target, move, cap=budget.max_responses)
            ok = None
            for r in resps:
                if value(nets + [r], used | set(r.nodes), remaining - 1):
                    ok = r
                    break
            if ok is None:
                memo[key] = (False, move, resps)
                return False
        memo[key] = (True, None, None)
        return True

    winner = None
    principal: List[dict] = []
    losing_atom = None
    for atom in all_atoms:
        inits = backend.initial_networks(atom, m)
        survivor = None
        for net0 in inits:
            if value([net0], set(net0.nodes), rounds):
                survivor = net0
                break
        if survivor is None:
            winner = "forall"
            losing_atom = atom
            principal = _principal_play(backend, mode, m, atom, inits, rounds,
                                        memo, budget)
            break
    if winner is None:
        winner = "exists"
        atom = all_atoms[0]
        inits = backend.initial_networks(atom, m)
        survivor = next(n for n in inits
                        if value([n], set(n.nodes), rounds))
        principal = [{"round": 0, "forall": {"initial_atom": int(atom)},
                      "exists": {"network": backend.net_to_json(survivor)}}]
        nets, used = [survivor], set(survivor.nodes)
        for t in range(rounds):
            moves = backend.forall_moves(nets if mode == "G" else [nets[-1]],
                                         m, used, mode, cap=budget.max_moves)
            played = False
            for move in moves:
                target = nets[move.net_index] if mode == "G" else nets[-1]
                resps = backend.responses(target, move, cap=budget.max_responses)
                keep = next(
                    (r for r in resps
                     if value(nets + [r], used | set(r.nodes), rounds - t - 1)),
                    None,
                )
                if keep is not None:
                    principal.append({"round": t + 1, "forall": move.to_json(),
                                      "exists": {"network": backend.net_to_json(keep)}})
                    nets.append(keep)
                    used |= set(keep.nodes)
                    played = True
                    break
            if not played:
                break
    return {
        "winner": winner,
        "mode": mode,
        "nodes": m,
        "rounds": rounds,
        "truncation": f"{rounds}-round truncation",
        "losing_atom": None if losing_atom is None else int(losing_atom),
        "states_explored": budget.states,
        "principal_play": principal,
    }


def _principal_play(backend, mode, m, atom, inits, rounds, memo, budget):
    play = [{"round": 0, "forall": {"initial_atom": int(atom)}}]
    if not inits:
        play[0]["exists"] = "dead-end"
        return play
    net0 = inits[0]
    play[0]["exists"] = {"network": backend.net_to_json(net0)}
    nets, used = [net0], set(net0.nodes)
    for t in range(rounds):
        if mode == "G":
            key = (tuple(backend.canonical(nt) for nt in nets), rounds - t, len(used))
        else:
            key = (backend.canonical(nets[-1]), rounds - t, None)
        entry = memo.get(key)
        if entry is None or entry[0]:
            break
        _, move, resps = entry
        rec = {"round": t + 1, "forall": move.to_json()}
        if not resps:
            rec["exists"] = "dead-end"
            play.append(rec)
            break
        rec["exists"] = {"network": backend.net_to_json(resps[0])}
        play.append(rec)
        nets.append(resps[0])
        used |= set(resps[0].nodes)
    return play


# -- Forall's scripted cone bombardment ----------------------------------------


def default_script_tints(n: int) -> Tuple[int, ...]:
    """Initial tint 1, then the demands with n-1 < alpha <= n+1, then the
    remaining tints in increasing order until n+1 cones stand."""
    first = [1] + list(range(n, n + 2))
    rest = [t for t in range(1, n + 2) if t not in first]
    return tuple(first + rest)


def verify_forall_script(structure: RainbowStructure, tints=None,
                         max_rounds: Optional[int] = None) -> dict:
    """Play Forall's cone bombardment and enumerate every Exists line.

    Returns a proof tree in which every leaf is an Exists dead-end within
    n+2 rounds on n+3 nodes; raises ScriptRefuted if any line survives.
    Exists' yellow labels are fixed to the full shade (dominant) and her
    zeroth response to the minimal network; both reductions are recorded.
    """
    sig = structure.sig
    n = sig.n
    backend = RainbowBackend(structure, yellow_mode="dominant")
    tints = tuple(tints) if tints is not None else default_script_tints(n)
    if any(t not in sig.tints for t in tints):
        raise ValueError(f"tints must come from {sig.tints}")
    max_rounds = max_rounds if max_rounds is not None else n + 2
    budget_nodes = n + 3

    full = frozenset(range(sig.yellow_universe))
    edges = {}
    for i in range(n - 1):
        for j in range(i + 1, n - 1):
            edges[(i, j)] = ("w", 0)
    for i in range(1, n - 1):
        edges[(i, n - 1)] = ("g", i)
    edges[(0, n - 1)] = ("g0", tints[0])
    yellows = {tuple(range(n - 1)): full}
    gamma = ColouredGraph(sig, range(n), edges, yellows)
    verdict = is_valid_coloured_graph(gamma)
    if not verdict:
        raise ScriptRefuted(f"zeroth graph invalid: {verdict!r}")

    face = tuple(range(n - 1))
    zero_atom = structure.table.atom_of_tuple(gamma, tuple(range(n)))

    stats = {"exists_nodes": 0, "dead_ends": 0, "max_depth": 0}

    def cone_atom(tint: int) -> int:
        cg = ColouredGraph(sig, range(n), dict(edges), dict(yellows))
        cg.set_edge(0, n - 1, ("g0", tint))
        return structure.table.atom_of_tuple(cg, tuple(range(n)))

    def expand(net: GraphNetwork, round_no: int) -> dict:
        stats["exists_nodes"] += 1
        stats["max_depth"] = max(stats["max_depth"], round_no)
        if round_no - 1 >= len(tints) - 1 or round_no > max_rounds:
            raise ScriptRefuted(
                f"Exists survived {round_no} rounds; script exhausted")
        tint = tints[round_no]
        k = n - 1 + round_no
        if k >= budget_nodes:
            raise ScriptRefuted("script would exceed the node budget")
        move = Move(0, face, k, cone_atom(tint), n - 1)
        responses = backend.responses(net, move)
        node = {"round": round_no, "forall": move.to_json(),
                "tint": tint, "responses": []}
        if not responses:
            stats["dead_ends"] += 1
            node["responses"] = "dead-end"
            return node
        for resp in responses:
            sub = expand(resp, round_no + 1)
            node["responses"].append({
                "network": backend.net_to_json(resp),
                "subtree": sub,
            })
        return node

    tree = expand(GraphNetwork(gamma), 1)
    return {
        "kind": "forall-script",
        "n": n,
        "tints": list(tints),
        "node_budget": budget_nodes,
        "round_bound": max_rounds,
        "zeroth_graph": gamma.to_json(),
        "zeroth_atom": int(zero_atom),
        "reductions": [
            "exists yellow labels fixed to the full shade (dominates: only the "
            "cone clause reads shades and the full shade satisfies it)",
            "exists zeroth response is the minimal network of the demanded atom "
            "(networks are closed under node deletion)",
        ],
        "tree": tree,
        "stats": stats,
        "all_lines_dead": True,
    }


# -- transcripts ---------------------------------------------------------------


def verify_transcript(structure, artifact: dict, yellow_mode="all") -> dict:
    """Replay a game artifact: every Forall move must be legal, every Exists
    network valid and meeting the demand, and dead-end claims must survive
    re-enumeration of the legal responses."""
    kind = artifact.get("kind", "play")
    if kind == "forall-script":
        return _verify_script_artifact(structure, artifact)
    backend = backend_for(structure, yellow_mode)
    play = artifact["principal_play"]
    mode = artifact.get("mode", "F")
    m = artifact["nodes"]
    state = GameState(structure, m, mode, yellow_mode)
    if not play:
        return {"ok": False, "reason": "empty play"}
    first = play[0]
    atom = first["forall"]["initial_atom"]
    if first["exists"] == "dead-end":
        if backend.initial_networks(atom, m):
            return {"ok": False, "reason": "claimed initial dead-end has responses"}
        return {"ok": True, "rounds_checked": 0}
    net = backend.net_from_json(first["exists"]["network"])
    chk = backend.validate(net)
    if not chk["ok"]:
        return {"ok": False, "reason": f"round 0 network invalid: {chk}"}
    state.push(net)
    for rec in play[1:]:
        move = Move.from_json(rec["forall"])
        nets = state.history if mode == "G" else [state.latest()]
        target = nets[move.net_index if mode == "G" else -1]
        legal = _move_is_legal(backend, target, move, m, state.used, mode)
        if not legal:
            return {"ok": False, "reason": f"illegal move at round {rec['round']}"}
        if rec["exists"] == "dead-end":
            if backend.responses(target, move, cap=4096):
                return {"ok": False,
                        "reason": f"claimed dead-end at round {rec['round']} has responses"}
            return {"ok": True, "rounds_checked": rec["round"],
                    "dead_end_confirmed": True}
        net = backend.net_from_json(rec["exists"]["network"])
        chk = backend.validate(net)
        if not chk["ok"]:
            return {"ok": False,
                    "reason": f"round {rec['round']} network invalid: {chk}"}
        if backend.kind == "generic":
            demanded = insert_at(move.face, move.l, move.k)
            if net.label(demanded) != move.atom:
                return {"ok": False,
                        "reason": f"round {rec['round']} ignores the demand"}
        else:
            demanded = insert_at(move.face, move.l, move.k)
            if backend.atom_of(net, demanded) != move.atom:
                return {"ok": False,
                        "reason": f"round {rec['round']} ignores the demand"}
        state.push(net)
    return {"ok": True, "rounds_checked": len(play) - 1}


def _move_is_legal(backend, net, move, m, used, mode):
    if move.k in move.face or move.k >= m:
        return False
    if mode == "G" and move.k in used:
        return False
    if any(f not in net.nodes for f in move.face):
        return False
    probe = net.nodes[0]
    if backend.kind == "generic":
        base = net.labels[insert_at(move.face, move.l, probe)]
        return backend.ti_rel(move.l, base, move.atom)
    if not backend.s.is_atom(move.atom):
        return False
    base = backend.atom_of(net, insert_at(move.face, move.l, probe))
    return backend.s.key_of_code(move.l, base) == backend.s.key_of_code(move.l, move.atom)


def _verify_script_artifact(structure, artifact) -> dict:
    backend = RainbowBackend(structure, yellow_mode="dominant")
    sig = structure.sig
    gamma = ColouredGraph.from_json(artifact["zeroth_graph"], sig)
    if not is_valid_coloured_graph(gamma):
        return {"ok": False, "reason": "zeroth graph invalid"}
    leaves = {"count": 0, "max_round": 0}

    def walk(node, net):
        move = Move.from_json(node["forall"])
        if not _move_is_legal(backend, net, move, artifact["node_budget"], set(), "F"):
            return f"round {node['round']}: illegal Forall move"
        resps = backend.responses(net, move)
        if node["responses"] == "dead-end":
            if resps:
                return f"round {node['round']}: claimed dead-end has responses"
            leaves["count"] += 1
            leaves["max_round"] = max(leaves["max_round"], node["round"])
            return None
        if len(resps) != len(node["responses"]):
            return (f"round {node['round']}: recorded {len(node['responses'])} "
                    f"responses, re-enumeration finds {len(resps)}")
        recorded = sorted(backend.canonical(GraphNetwork(
            ColouredGraph.from_json(r["network"]["graph"], sig)))
            for r in node["responses"])
        found = sorted(backend.canonical(r) for r in resps)
        if recorded != found:
            return f"round {node['round']}: response set mismatch"
        for rec in node["responses"]:
            child = GraphNetwork(ColouredGraph.from_json(rec["network"]["graph"], sig))
            err = walk(rec["subtree"], child)
            if err:
                return err
        return None

    err = walk(artifact["tree"], GraphNetwork(gamma))
    if err:
        return {"ok": False, "reason": err}
    if leaves["max_round"] > artifact["round_bound"]:
        return {"ok": False, "reason": "a leaf exceeds the round bound"}
    return {"ok": True, "dead_ends": leaves["count"],
            "max_round": leaves["max_round"]}
