"""Atomic networks and the bounded atomic games.

Two backends drive the same engine: a generic one for small explicit atom
structures, where a network is an `AtomicNetwork`, and a rainbow one, where a
network is a `ColouredGraph` itself and the atom of a tuple is the pullback
of the graph along it. Both answer one contract, so the engine never asks
which backend it holds:

- `atoms()`: the atoms Forall may open with;
- `ti_rel(i, a, b)`: b is an atom and T_i(a, b);
- `atom_of(net, t)`: the atom the network gives the node tuple t;
- `initial_networks`, `forall_moves`, `responses`, `canonical`, `validate`,
  `net_to_json` and `net_from_json`.

The rainbow backend refuses `atoms()` and `forall_moves` with
BudgetExceeded: no minimax over its 10,894,256 atoms fits a budget, and
Forall's moves there are the scripted ones of `verify_forall_script`.

The engine reads the atoms of a network only through `atom_of`, and there
is one canonical form (`_least_relabelling`): the node count and the least
vector of tuple atoms, over the node n-tuples in product order, over all
relabellings of the nodes. Each backend's `canonical` only builds that
vector.

The rainbow backend never reads a packed atom code itself: the atom table
decodes an atom into kernel blocks and a quotient graph (`graph_of`), which
`responses` lays onto the demanded tuple, and encodes the pullback of a
graph (`atom_of_tuple`).

Exists' rainbow responses come from one depth-first search over the free
edges (v, k), v ascending. The colours v may take are the set bits of an
AND of the signature's `triangle_rows`, one row per node w whose edges
(v, w) and (w, k) are both set: a row maps an ordered pair of edge colours
to the bitmask, over the indices of the signature's `colours`, of the
colours that close a triangle with them without a `triangle_violation`.
The signature of each n is one object, so its rows are built once and
shared by every backend. A pair holding a colour outside the signature has
no row and prunes at once, which loses nothing: both of its edges are on
nodes of the graph, and the leaf check rejects any graph with such a
colour as "unknown-colour" (no JSON reader lets one in). Set bits are
tried in ascending index order, which is the order of `colours`.
Every complete colouring, with each free yellow slot through k (a
`rainbow.green_free` (n-1)-set with no yellow yet) given each allowed
shade, is kept only if `is_valid_coloured_graph` accepts the whole graph,
so the table narrows the search and never decides validity.

A generic network is its atom vector (`AtomicNetwork`). Exists' search
(`_complete`) fills the None entries of a label vector on the same
positions, most constrained first; a position's domain is a bitmask of
atoms, its diagonal mask narrowed by one table row per labelled axis
neighbour. Tables that depend only on shapes (the itemgetters the canonical
form reads a vector through, the positions of `responses`) are shared.
Its JSON labels are keyed by `errors.node_key`, whose reader refuses every
other spelling of a tuple.

The real game runs for omega rounds; everything here is an r-round
truncation and says so in its artifacts. In F-mode Forall may pick a node
already in play, which restricts the network to the remaining nodes before
extending (the literal "M contains N" is impossible under reuse); G-mode
demands globally fresh nodes. The solver's memo keeps one boolean per
position with rounds left (one with none is Exists'), and its principal
play is one walk after the search that follows Exists' first surviving
line or Forall's first winning one (`solve_bounded`).
"""

from __future__ import annotations

import functools
import itertools
import operator
from typing import Dict, List, NamedTuple, Optional, Tuple

from .errors import (BudgetExceeded, ScriptRefuted, json_field, json_ints, json_nodes,
                     node_key, parse_node_tuple)
from .bao import AtomStructure
from .rainbow import ColouredGraph, RainbowStructure, green_free, is_valid_coloured_graph

# caps of one solve_bounded call: rounds, positions visited, Forall moves
# per position and Exists responses per move; past one, BudgetExceeded
SOLVE_ROUNDS_CAP = 6
SOLVE_STATES_CAP = 200000
SOLVE_MOVES_CAP = 5000
SOLVE_RESPONSES_CAP = 2000


def insert_at(face, l: int, k: int) -> Tuple[int, ...]:
    """The n-tuple obtained by inserting k at position l of the face."""
    out = list(face)
    out.insert(l, k)
    return tuple(out)


class Move(NamedTuple):
    """Forall's move on network net_index: the face, the new node k, the
    demanded atom and the axis l at which k is inserted. Moves sort by
    their fields in this order."""

    net_index: int
    face: Tuple[int, ...]
    k: int
    atom: int
    l: int

    def to_json(self):
        return {"network": self.net_index, "face": list(self.face),
                "k": self.k, "atom": int(self.atom), "l": self.l}

    @staticmethod
    def from_json(doc):
        """The move of a record's "forall" object; ValueError naming the
        field unless doc is an object of integer fields with a list face."""
        json_field(doc, dict, "forall")
        net_index, k, atom, l = (json_field(doc.get(name), int, f"forall {name}")
                                 for name in ("network", "k", "atom", "l"))
        return Move(net_index, tuple(json_ints(doc.get("face"), "forall face")), k, atom, l)


# -- generic backend ---------------------------------------------------------


class AtomicNetwork(NamedTuple):
    """A network on the sorted node tuple `nodes`: atoms[j] is the atom of
    the j-th tuple of nodes^n in product order."""

    nodes: Tuple[int, ...]
    atoms: Tuple[int, ...]


def validate_network(s: AtomStructure, net: AtomicNetwork) -> dict:
    """Both displayed network conditions, naming the offending tuple; read
    from a tuple-keyed map, independently of the search (`_complete`)."""
    n = s.dim
    labels = dict(zip(itertools.product(net.nodes, repeat=n), net.atoms))
    for t, a in labels.items():
        for i in range(n):
            for j in range(n):
                if t[i] == t[j] and not s.D[(i, j)] >> a & 1:
                    return {"ok": False, "kind": "diagonal", "tuple": list(t),
                            "indices": [i, j]}
    for t, a in labels.items():
        for i in range(n):
            for d in net.nodes:
                b = labels[t[:i] + (d,) + t[i + 1:]]
                if not s.T[i][a] >> b & 1:
                    return {"ok": False, "kind": "cylindrifier", "tuple": list(t),
                            "index": i, "node": d}
    return {"ok": True}


@functools.lru_cache(maxsize=None)
def _shape_tables(n: int, k: int):
    """Tables of the tuple space range(k)^n that do not depend on the
    structure: the tuples in sorted order (a tuple's position is its index),
    each index's axis neighbours as (i, indices of the tuples that differ
    from it only at position i), and one itemgetter per node permutation
    that reads a label vector in the order of the relabelled tuples."""
    tuples = tuple(itertools.product(range(k), repeat=n))
    index = {t: j for j, t in enumerate(tuples)}
    neighbours = tuple(
        tuple((i, tuple(index[t[:i] + (d,) + t[i + 1:]] for d in range(k) if d != t[i]))
              for i in range(n))
        for t in tuples
    )
    if k < 2:  # one permutation; itemgetter returns a tuple only for 2+ indices
        getters = (tuple,)
    else:
        getters = tuple(operator.itemgetter(*(index[tuple(p[x] for x in t)] for t in tuples))
                        for p in itertools.permutations(range(k)))
    return tuples, neighbours, getters


@functools.lru_cache(maxsize=None)
def _embedding(n: int, p: int, rank: int, reused: bool) -> tuple:
    """Per n-tuple of p sorted nodes, its position among the tuples of the
    nodes with k of the given rank among them, or None if it passes through
    k, one of the old nodes when `reused`."""
    digit, new = [d if reused or d < rank else d + 1 for d in range(p)], range(p + (not reused))
    return tuple(None if reused and rank in t else _position(new, [digit[d] for d in t])
                 for t in itertools.product(range(p), repeat=n))


def _position(nodes, t) -> int:
    """The index of the node tuple t among the sorted nodes^n in product order."""
    j = 0
    for v in t:
        j = j * len(nodes) + nodes.index(v)
    return j


def _least_relabelling(n: int, k: int, vec) -> tuple:
    """The canonical form of a network on k nodes whose atoms, read over its
    node n-tuples in product order, are vec: k and the least such vector
    over all relabellings of the nodes by 0..k-1. Both backends use it."""
    return (k, min(g(vec) for g in _shape_tables(n, k)[2]))


class GenericBackend:
    def __init__(self, structure: AtomStructure):
        self.s = structure
        self.n = structure.dim
        self._diags: Dict[int, List[int]] = {}

    def atoms(self):
        return range(self.s.num_atoms)

    def ti_rel(self, i, a, b):
        return self.s.is_atom(b) and bool(self.s.T[i][a] >> b & 1)

    def atom_of(self, net: AtomicNetwork, t) -> int:
        return net.atoms[_position(net.nodes, t)]

    def _diag_masks(self, k: int) -> List[int]:
        """Per index of range(k)^n, the atoms meeting every diagonal the
        tuple lies on. Only atoms with T_i(a, a) for every i qualify: a
        tuple is its own i-neighbour."""
        masks = self._diags.get(k)
        if masks is None:
            n, D = self.n, self.s.D
            reflexive = (1 << self.s.num_atoms) - 1
            for t in self.s.T:
                reflexive &= sum(1 << a for a, img in enumerate(t) if img >> a & 1)
            masks = self._diags[k] = [
                functools.reduce(operator.and_, [D[(i, j)] for i in range(n) for j in range(n)
                                                 if t[i] == t[j]], reflexive)
                for t in _shape_tables(n, k)[0]]
        return masks

    def initial_networks(self, atom: int, budget: int) -> List[AtomicNetwork]:
        """Minimal networks realizing the atom; dominant for Exists since
        networks are closed under node deletion."""
        n = self.n
        rel = {(i, j) for i in range(n) for j in range(n) if self.s.D[(i, j)] >> atom & 1}
        symmetric = all((j, i) in rel for (i, j) in rel)
        transitive = all((i, k) in rel for (i, j) in rel for (j2, k) in rel if j == j2)
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
        nodes = tuple(sorted(set(dbar)))
        if len(nodes) > budget:
            return []
        labels: List[Optional[int]] = [None] * len(nodes) ** n
        labels[_position(nodes, dbar)] = atom
        return self._complete(nodes, labels)

    def _complete(self, nodes, labels, cap: Optional[int] = None) -> List[AtomicNetwork]:
        """The networks on the sorted `nodes` whose atom vector agrees with
        `labels` (None at a free tuple), most-constrained-first with forward
        checking. A position's domain is a bitmask of atoms: its diagonal
        mask ANDed with both[i][b], the atoms an i-neighbour of a tuple
        labelled b may carry, for every labelled i-neighbour."""
        n, both = self.n, self.s.both
        neighbours = _shape_tables(n, len(nodes))[1]
        diag = self._diag_masks(len(nodes))
        pinned, free = [], []
        # the diagonal test comes first: it also turns away atoms outside the
        # structure before they index `both`
        for j, a in enumerate(labels):
            if a is None:
                free.append(j)
            elif diag[j] >> a & 1:
                pinned.append((j, a))
            else:
                return []
        # narrowing written out here and in bt: a call costs more than its work
        dom = list(diag)
        for j, a in pinned:
            for i, us in neighbours[j]:
                m = both[i][a]
                for u in us:
                    dom[u] &= m
        if any(not dom[j] >> a & 1 for j, a in pinned):
            return []
        assign = list(labels)
        out: List[AtomicNetwork] = []

        def bt(dom, free):
            if cap is not None and len(out) > cap:
                raise BudgetExceeded("response enumeration cap exceeded")
            if not free:
                out.append(AtomicNetwork(nodes, tuple(assign)))
                return
            best, size = 0, dom[free[0]].bit_count()
            for p in range(1, len(free)):
                c = dom[free[p]].bit_count()
                if c < size:
                    best, size = p, c
            j, rest = free[best], free[:best] + free[best + 1:]
            m = dom[j]
            while m:
                low = m & -m
                assign[j] = a = low.bit_length() - 1
                m ^= low
                # the last atom narrows dom itself: no later branch reads it
                sub = dom.copy() if m else dom
                for i, us in neighbours[j]:
                    mask = both[i][a]
                    for u in us:
                        sub[u] &= mask
                bt(sub, rest)

        bt(dom, free)
        return out

    def forall_moves(self, nets, budget, used, mode, cap=None) -> List[Move]:
        """Every Forall move on the given networks, sorted: a face, an axis
        l, a node k < budget outside the face (and unused in G-mode), and an
        atom b with T_l(a, b) for the atom a the face gives its first node
        at l. More than `cap` moves raise BudgetExceeded."""
        moves = []
        for idx, net in enumerate(nets):
            for face in itertools.product(net.nodes, repeat=self.n - 1):
                for l in range(self.n):
                    row = self.s.T[l][self.atom_of(net, insert_at(face, l, net.nodes[0]))]
                    succ = [b for b in self.atoms() if row >> b & 1]
                    for k in range(budget):
                        if k in face or (mode == "G" and k in used):
                            continue
                        for b in succ:
                            moves.append(Move(idx, face, k, b, l))
                            if cap is not None and len(moves) > cap:
                                raise BudgetExceeded("move enumeration cap")
        moves.sort()
        return moves

    def responses(self, net: AtomicNetwork, move: Move, cap=None) -> List[AtomicNetwork]:
        """The networks on net's nodes and k that keep the atom of every
        tuple avoiding k (moved to its new position by `_embedding`) and
        give the demanded tuple the move's atom."""
        k, reused = move.k, move.k in net.nodes
        nodes = net.nodes if reused else tuple(sorted(net.nodes + (k,)))
        labels: List[Optional[int]] = [None] * len(nodes) ** self.n
        for j, a in zip(_embedding(self.n, len(net.nodes), nodes.index(k), reused), net.atoms):
            if j is not None:
                labels[j] = a
        labels[_position(nodes, insert_at(move.face, move.l, k))] = move.atom
        return self._complete(nodes, labels, cap=cap)

    def canonical(self, net: AtomicNetwork):
        return _least_relabelling(self.n, len(net.nodes), net.atoms)

    def net_to_json(self, net):
        return {"nodes": list(net.nodes),
                "labels": {node_key(t): a for t, a in
                           zip(itertools.product(net.nodes, repeat=self.n), net.atoms)}}

    def net_from_json(self, doc):
        """ValueError naming the field unless doc is an object whose nodes
        are a strictly increasing list of integers and whose labels map the
        `node_key` of every n-tuple of those nodes, and no other spelling, to
        an atom index.
        The label count is compared with k^n before any vector is built."""
        n = self.n
        json_field(doc, dict, "network")
        nodes = tuple(json_nodes(doc.get("nodes"), "network nodes"))
        raw = json_field(doc.get("labels"), dict, "network labels")
        members = set(nodes)
        labels = {}
        for key, a in raw.items():
            t = parse_node_tuple(key) or ()
            if len(t) != n or not set(t) <= members:
                raise ValueError(f"network label key {key!r} is not a tuple of {n} nodes "
                                 f"in its one spelling (u,v,...)")
            if not (type(a) is int and a >= 0):
                raise ValueError(f"network label {key!r} must be an atom index, got {a!r}")
            labels[t] = a
        tuples = itertools.product(nodes, repeat=n)
        if len(labels) < len(nodes) ** n:
            missing = next(t for t in tuples if t not in labels)
            raise ValueError(f"network labels leave {node_key(missing)} unlabelled")
        return AtomicNetwork(nodes, tuple(map(labels.__getitem__, tuples)))

    def validate(self, net):
        return validate_network(self.s, net)


# -- rainbow backend ----------------------------------------------------------


RAINBOW_MINIMAX_REFUSED = ("full minimax over the rainbow atom structure exceeds any "
                           "sane budget; use verify_forall_script")


class RainbowBackend:
    def __init__(self, structure: RainbowStructure, yellow_mode: str = "all"):
        self.s = structure
        self.table = structure.table
        self.sig = structure.sig
        self.n = structure.dim
        # the shades a yellow slot left free for Exists may take
        self.shades = (self.sig.full_shade,) if yellow_mode == "dominant" else self.sig.shades

    def atoms(self):
        raise BudgetExceeded(RAINBOW_MINIMAX_REFUSED)

    def ti_rel(self, i, a, b):
        return self.s.is_atom(b) and self.s.ti_related(i, a, b)

    def atom_of(self, net: ColouredGraph, t) -> int:
        return self.table.atom_of_tuple(net, t)

    def initial_networks(self, atom_code: int, budget: int) -> List[ColouredGraph]:
        _, g = self.table.graph_of(int(atom_code))
        if len(g.nodes) > budget:
            return []
        return [g]

    def forall_moves(self, nets, budget, used, mode, cap=None):
        raise BudgetExceeded(RAINBOW_MINIMAX_REFUSED)

    def responses(self, net: ColouredGraph, move: Move, cap=None) -> List[ColouredGraph]:
        """All coloured-graph extensions meeting the move's demand, found by
        one backtracking search that extends and undoes a single working
        graph (`_lay_demand`); `net` itself is left as it is.

        yellow_mode="dominant" fixes every yellow label Exists is free to
        choose to the full shade: only the cone clause reads yellow labels
        and the full shade satisfies every instance of it, so if any choice
        survives, the full shade survives.
        """
        g = self._lay_demand(net, move)
        if g is None:
            return []
        k = move.k
        free_edges = sorted(v for v in g.nodes if v != k and g.edge(v, k) is None)
        out: List[ColouredGraph] = []
        self._fill_edges(g, k, free_edges, 0, out, cap)
        return out

    def _lay_demand(self, net: ColouredGraph, move: Move) -> Optional[ColouredGraph]:
        """A copy of net on its nodes and k, without the old edges and
        yellows of k, with the demanded atom's quotient graph laid onto the
        demanded tuple; None when the demand cannot be laid.

        The atom's kernel blocks must name distinct nodes, one each, and
        each of its edges and yellows is set on a pair with the new node or
        must already be there on a pair of old nodes.
        """
        k = move.k
        g = net.drop_node(k) if k in net.nodes else net.copy()
        g.nodes = tuple(sorted(set(g.nodes) | {k}))
        demanded = insert_at(move.face, move.l, k)
        blocks, quotient = self.table.graph_of(move.atom)
        node = []
        for block in blocks:
            if len({demanded[i] for i in block}) > 1:
                return None
            node.append(demanded[block[0]])
        if len(set(node)) < len(node):
            return None
        for (a, b), colour in quotient.edges.items():
            u, v = node[a], node[b]
            existing = g.edge(u, v)
            if existing is None:
                if k not in (u, v):
                    return None
                g.set_edge(u, v, colour)
            elif existing != colour:
                return None
        for (a, b), shade in quotient.yellows.items():
            old = g.yellow((node[a], node[b]))
            if old is None:
                g.set_yellow((node[a], node[b]), shade)
            elif old != shade:
                return None
        return g

    def _fill_edges(self, g, k, free, pos, out, cap):
        """Colour the free edges (v, k) from free[pos] on: each colour of v
        is a set bit of the AND of the triangle-table rows of the edge pairs
        (v, w), (w, k) already set, tried in ascending index order."""
        if cap is not None and len(out) > cap:
            raise BudgetExceeded("response enumeration cap exceeded")
        if pos == len(free):
            self._fill_yellows(g, k, out, cap)
            return
        v = free[pos]
        colours = self.sig.colours
        table = self.sig.triangle_rows
        mask = (1 << len(colours)) - 1
        for w in g.nodes:
            if w == v or w == k:
                continue
            evw = g.edge(v, w)
            ewk = g.edge(w, k)
            if evw is None or ewk is None:
                continue
            mask &= table.get((evw, ewk), 0)
            if not mask:
                return
        while mask:
            low = mask & -mask
            mask ^= low
            g.set_edge(v, k, colours[low.bit_length() - 1])
            self._fill_edges(g, k, free, pos + 1, out, cap)
        g.drop_edge(v, k)

    def _fill_yellows(self, g, k, out, cap):
        """Each free yellow slot through k takes each allowed shade."""
        slots = [K for K in itertools.combinations(g.nodes, self.n - 1)
                 if k in K and K not in g.yellows and green_free(g, K)]
        for combo in itertools.product(self.shades, repeat=len(slots)):
            if cap is not None and len(out) > cap:
                raise BudgetExceeded("response enumeration cap exceeded")
            g2 = g.copy()
            for key, S in zip(slots, combo):
                g2.set_yellow(key, S)
            if is_valid_coloured_graph(g2):
                out.append(g2)

    def canonical(self, g: ColouredGraph):
        """At n = 3 the tuple (u, v, v) pulls back the edge and the yellow
        on {u, v}, so the atom vector fixes the graph: equal forms mean
        isomorphic graphs."""
        tuples = itertools.product(g.nodes, repeat=self.n)
        return _least_relabelling(self.n, len(g.nodes), [self.atom_of(g, t) for t in tuples])

    def net_to_json(self, net):
        return {"graph": net.to_json()}

    def net_from_json(self, doc):
        return ColouredGraph.from_json(json_field(doc, dict, "network").get("graph"), self.sig)

    def validate(self, net):
        return is_valid_coloured_graph(net).to_json()


def backend_for(structure):
    if isinstance(structure, RainbowStructure):
        return RainbowBackend(structure)
    return GenericBackend(structure)


# -- bounded solver ------------------------------------------------------------


def _state_key(backend, mode, nets, used, remaining):
    """Memo key of a position. G-mode moves may target any historical
    network, so the whole history is part of the state there; F-mode
    compresses to the latest network, which earlier networks restrict."""
    if mode == "G":
        return (tuple(backend.canonical(nt) for nt in nets), remaining, len(used))
    return (backend.canonical(nets[-1]), remaining, None)


def solve_bounded(structure, m: int, rounds: int, mode: str = "F") -> dict:
    """Minimax over the r-round truncation with memoization on
    canonicalized states. The report is explicitly a truncation verdict.

    The memo holds one boolean per position: Exists survives it. One with no
    rounds left is hers, a state (for the cap too) with no canonical form or
    memo entry. The principal play is one walk after the search that
    re-enumerates Forall's moves each round (round 0: the initial networks);
    a move's `keep` is Exists' first surviving response. If Exists wins, the
    walk takes the first move with a keep and she answers keep. If Forall
    wins, it opens with the losing atom, takes his first move without a keep,
    and she answers her first response or "dead-end". `states_explored`
    counts the search's positions, plus the walk's when Exists wins."""
    if mode not in ("F", "G"):
        raise ValueError(f"mode must be 'F' or 'G', got {mode!r}")
    if rounds < 0:
        raise ValueError(f"rounds must be at least 0, got {rounds}")
    if m < 1:
        raise ValueError(f"node budget must be at least 1, got {m}")
    if rounds > SOLVE_ROUNDS_CAP:
        raise BudgetExceeded(f"rounds capped at {SOLVE_ROUNDS_CAP}")
    if m > structure.dim + 3:
        raise BudgetExceeded(f"node budget capped at n+3 = {structure.dim + 3}")
    backend = backend_for(structure)
    states = 0
    memo: Dict[tuple, bool] = {}
    all_atoms = list(backend.atoms())

    def replies(nets, used):
        """Forall's moves in order, each with Exists' responses to it,
        enumerated only when the move is reached."""
        scope = nets if mode == "G" else nets[-1:]
        for move in backend.forall_moves(scope, m, used, mode, cap=SOLVE_MOVES_CAP):
            yield move, backend.responses(scope[move.net_index], move, cap=SOLVE_RESPONSES_CAP)

    def value(nets, used, remaining):
        """True iff Exists survives `remaining` more rounds."""
        nonlocal states
        states += 1
        if states > SOLVE_STATES_CAP:
            raise BudgetExceeded("state budget exceeded")
        if not remaining:
            return True
        key = _state_key(backend, mode, nets, used, remaining)
        if key not in memo:
            memo[key] = all(
                any(value(nets + [r], used | set(r.nodes), remaining - 1) for r in resps)
                for _, resps in replies(nets, used))
        return memo[key]

    exists_wins = True
    for atom in all_atoms:
        inits = backend.initial_networks(atom, m)
        if not any(value([net0], set(net0.nodes), rounds) for net0 in inits):
            exists_wins = False
            break
    searched = states
    if exists_wins:
        atom = all_atoms[0]
        inits = backend.initial_networks(atom, m)
    play, nets, used = [], [], set()
    options = [(None, inits)]
    for t in range(rounds + 1):
        for move, resps in options:
            keep = next((r for r in resps if value(nets + [r], used | set(r.nodes), rounds - t)),
                        None)
            if (keep is not None) == exists_wins:
                break
        else:
            break
        net = keep if exists_wins else next(iter(resps), None)
        exists = "dead-end" if net is None else {"network": backend.net_to_json(net)}
        play.append({"round": t, "forall": move.to_json() if t else {"initial_atom": int(atom)},
                     "exists": exists})
        if net is None:
            break
        nets.append(net)
        used |= set(net.nodes)
        options = replies(nets, used)
    return {
        "winner": "exists" if exists_wins else "forall",
        "mode": mode,
        "nodes": m,
        "rounds": rounds,
        "truncation": f"{rounds}-round truncation",
        "losing_atom": None if exists_wins else int(atom),
        "states_explored": states if exists_wins else searched,
        "principal_play": play,
    }


# -- Forall's scripted cone bombardment ----------------------------------------


def default_script_tints(n: int) -> Tuple[int, ...]:
    """Initial tint 1, then the demands with n-1 < alpha <= n+1, then the
    remaining tints in increasing order until n+1 cones stand."""
    first = [1] + list(range(n, n + 2))
    rest = [t for t in range(1, n + 2) if t not in first]
    return tuple(first + rest)


def verify_forall_script(structure: RainbowStructure, tints=None) -> dict:
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
    round_bound = n + 2
    budget_nodes = n + 3

    # the zeroth graph: the white face 0..n-2, fully shaded, is the base of
    # a cone of tint tints[0] to the apex n-1
    face = tuple(range(n - 1))
    gamma = ColouredGraph(sig, range(n), {p: ("w", 0) for p in itertools.combinations(face, 2)},
                          {face: sig.full_shade})
    for i in face:
        gamma.set_edge(i, n - 1, ("g", i) if i else ("g0", tints[0]))
    verdict = is_valid_coloured_graph(gamma)
    if not verdict:
        raise ScriptRefuted(f"zeroth graph invalid: {verdict!r}")

    zero_atom = structure.table.atom_of_tuple(gamma, tuple(range(n)))

    stats = {"exists_nodes": 0, "dead_ends": 0, "max_depth": 0}

    def cone_atom(tint: int) -> int:
        cg = gamma.copy()
        cg.set_edge(0, n - 1, ("g0", tint))
        return structure.table.atom_of_tuple(cg, tuple(range(n)))

    def expand(net: ColouredGraph, round_no: int) -> dict:
        stats["exists_nodes"] += 1
        stats["max_depth"] = max(stats["max_depth"], round_no)
        if round_no - 1 >= len(tints) - 1 or round_no > round_bound:
            raise ScriptRefuted(f"Exists survived {round_no} rounds; script exhausted")
        tint = tints[round_no]
        k = n - 1 + round_no
        if k >= budget_nodes:
            raise ScriptRefuted("script would exceed the node budget")
        move = Move(0, face, k, cone_atom(tint), n - 1)
        responses = backend.responses(net, move)
        stats["dead_ends"] += not responses
        return {"round": round_no, "forall": move.to_json(), "tint": tint, "responses": [
            {"network": backend.net_to_json(resp), "subtree": expand(resp, round_no + 1)}
            for resp in responses] or "dead-end"}

    tree = expand(gamma, 1)
    return {
        "kind": "forall-script",
        "n": n,
        "tints": list(tints),
        "node_budget": budget_nodes,
        "round_bound": round_bound,
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


def verify_transcript(structure, artifact: dict) -> dict:
    """Replay a game artifact. `nodes` must be an int in 1..n+3, the budgets
    solve_bounded accepts; the records must be numbered 0, 1, 2, ... and
    number at most `rounds` + 1; the initial atom must be an atom and the
    round-0 network one of its minimal networks up to relabelling; every
    Forall move must be legal, every Exists network valid, on nodes in
    0..nodes - 1, meeting the demand and extending the network it answers
    (its nodes are that network's plus k, and every tuple of the other
    nodes keeps its atom), and a dead-end claim must end the play and leave
    Exists no response, which a search for the first one checks. A document
    of the wrong shape replays as not ok, with the field named in the reason."""
    try:
        kind = json_field(artifact, dict, "a game artifact").get("kind", "play")
    except ValueError as exc:
        return {"ok": False, "reason": str(exc)}
    if kind == "forall-script":
        return _verify_script_artifact(structure, artifact)
    mode = artifact.get("mode", "F")
    if mode not in ("F", "G"):
        return {"ok": False, "reason": f"mode {mode!r} is not 'F' or 'G'"}
    m = artifact.get("nodes")
    if type(m) is not int or not 1 <= m <= structure.dim + 3:
        return {"ok": False,
                "reason": f"nodes {m!r} is not a node budget in 1..{structure.dim + 3}"}
    play = artifact.get("principal_play")
    if not isinstance(play, list) or not play:
        return {"ok": False, "reason": "principal_play must be a non-empty list of records"}
    if [rec.get("round") if isinstance(rec, dict) else None for rec in play] \
            != list(range(len(play))):
        return {"ok": False, "reason": "records are not numbered 0, 1, 2, ... in order"}
    rounds = artifact.get("rounds", len(play) - 1)
    if type(rounds) is not int or len(play) > rounds + 1:
        return {"ok": False, "reason": f"{len(play)} records for a play of {rounds!r} rounds"}
    backend = backend_for(structure)
    history, used = [], set()
    for r, rec in enumerate(play):
        # the record's Forall side (the initial atom in round 0, else a
        # Move) and Exists side (a network, or None for "dead-end")
        forall, exists = rec.get("forall"), rec.get("exists")
        try:
            if r == 0:
                atom = json_field(json_field(forall, dict, "forall").get("initial_atom"), int,
                                  "forall initial_atom")
            else:
                move = Move.from_json(forall)
            net = None if exists == "dead-end" else backend.net_from_json(
                json_field(exists, dict, 'exists, if not "dead-end",').get("network"))
        except ValueError as exc:
            return {"ok": False, "reason": f"round {r}: {exc}"}
        if net is None and r < len(play) - 1:
            return {"ok": False, "reason": f"round {r}: a dead-end must be the last record"}
        if r == 0:
            if not structure.is_atom(atom):
                return {"ok": False, "reason": f"initial atom {atom!r} is not an atom"}
            inits = backend.initial_networks(atom, m)
            if net is None:
                if inits:
                    return {"ok": False, "reason": "claimed initial dead-end has responses"}
                return {"ok": True, "rounds_checked": 0}
        else:
            if mode == "G" and not 0 <= move.net_index < len(history):
                return {"ok": False,
                        "reason": f"round {r} plays on network {move.net_index!r}, "
                                  f"not one of 0 .. {len(history) - 1}"}
            target = history[move.net_index] if mode == "G" else history[-1]
            if not _move_is_legal(backend, target, move, m, used, mode):
                return {"ok": False, "reason": f"illegal move at round {r}"}
            if net is None:
                try:  # with cap 0 the search stops once it holds a response
                    refuted = bool(backend.responses(target, move, cap=0))
                except BudgetExceeded:
                    refuted = True
                if refuted:
                    return {"ok": False,
                            "reason": f"claimed dead-end at round {r} has responses"}
                return {"ok": True, "rounds_checked": r, "dead_end_confirmed": True}
        chk = backend.validate(net)
        if not chk["ok"]:
            return {"ok": False, "reason": f"round {r} network invalid: {chk}"}
        if r == 0:
            if backend.canonical(net) not in {backend.canonical(x) for x in inits}:
                return {"ok": False,
                        "reason": "round 0 network is not a minimal network of the initial atom"}
        else:
            # the node set first: the atoms of the new network are read
            # only on its own nodes
            kept = [v for v in target.nodes if v != move.k]
            if set(net.nodes) != set(target.nodes) | {move.k} or any(
                    backend.atom_of(net, t) != backend.atom_of(target, t)
                    for t in itertools.product(kept, repeat=backend.n)):
                return {"ok": False,
                        "reason": f"round {r} network does not extend the network it answers"}
            if backend.atom_of(net, insert_at(move.face, move.l, move.k)) != move.atom:
                return {"ok": False, "reason": f"round {r} ignores the demand"}
        stray = [v for v in net.nodes if not 0 <= v < m]
        if stray:
            return {"ok": False, "reason": f"round {r} network node {stray[0]} is past 0..{m - 1}"}
        history.append(net)
        used |= set(net.nodes)
    return {"ok": True, "rounds_checked": len(play) - 1}


def _move_is_legal(backend, net, move, m, used, mode):
    if (len(move.face) != backend.n - 1 or move.l not in range(backend.n)
            or move.k in move.face or not 0 <= move.k < m or (mode == "G" and move.k in used)
            or any(f not in net.nodes for f in move.face)):
        return False
    base = backend.atom_of(net, insert_at(move.face, move.l, net.nodes[0]))
    return backend.ti_rel(move.l, base, move.atom)


def _verify_script_artifact(structure, artifact) -> dict:
    """Replay a forall-script certificate: the rainbow structure's own
    responses, in order, at every node of the tree, and a confirmed dead
    end at every leaf within the round bound."""
    if not isinstance(structure, RainbowStructure):
        return {"ok": False, "reason": 'kind "forall-script" replays only against rainbow:3'}
    try:
        budget, round_bound = (json_field(artifact.get(name), int, f'"{name}"')
                               for name in ("node_budget", "round_bound"))
        gamma = ColouredGraph.from_json(artifact.get("zeroth_graph"), structure.sig)
    except ValueError as exc:
        return {"ok": False, "reason": str(exc)}
    if not is_valid_coloured_graph(gamma):
        return {"ok": False, "reason": "zeroth graph invalid"}
    backend = RainbowBackend(structure, yellow_mode="dominant")
    leaves = []  # the round of every dead end

    def walk(name, node, net, r):
        """Why the script node `name`, Forall's move in round r on net, is
        no certificate, or None."""
        try:
            move = Move.from_json(json_field(node, dict, name).get("forall"))
            if node.get("round") != r:
                raise ValueError(f"{name} round must be {r}, got {node.get('round')!r}")
            recorded = node.get("responses")
            if recorded != "dead-end":
                if not json_field(recorded, list, 'responses, if not "dead-end",'):
                    raise ValueError('a leaf must be recorded as "dead-end", not as []')
                for rec in recorded:
                    json_field(rec, dict, "a response")
        except ValueError as exc:
            return f"round {r}: {exc}"
        if not _move_is_legal(backend, net, move, budget, set(), "F"):
            return f"round {r}: illegal Forall move"
        resps = backend.responses(net, move)
        if recorded == "dead-end":
            if resps:
                return f"round {r}: claimed dead-end has responses"
            leaves.append(r)
            return None
        if len(recorded) != len(resps) or any(rec.get("network") != backend.net_to_json(resp)
                                              for rec, resp in zip(recorded, resps)):
            return (f"round {r}: the recorded responses are not the "
                    f"{len(resps)} the re-enumeration finds, in its order")
        for rec, child in zip(recorded, resps):
            err = walk("subtree", rec.get("subtree"), child, r + 1)
            if err:
                return err
        return None

    err = walk("tree", artifact.get("tree"), gamma, 1)
    if err:
        return {"ok": False, "reason": err}
    if max(leaves, default=0) > round_bound:
        return {"ok": False, "reason": "a leaf exceeds the round bound"}
    return {"ok": True, "dead_ends": len(leaves), "max_round": max(leaves, default=0)}
