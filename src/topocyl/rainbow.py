"""The finite rainbow colour signature, coloured graphs, and the atom
structure of the finite algebra with n+1 greens over n reds.

Red edge labels carry an orientation: the label of an edge {u,v} is an
ordered index pair (value at u, value at v), serialized "r01" or "r10"
relative to the stored direction. A red clique is then consistent exactly
when it is generated by an injective node-to-index map, which is what the
cone-bombardment argument needs. Greens and whites are symmetric.

Yellow labels live, by default, on unordered (n-1)-sets of distinct nodes
("lenient"); the order-sensitive reading ("strict") is available on
coloured graphs but not for atom enumeration, where it is astronomically
infeasible.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from .errors import DimTooSmall, DimUnsupported
from . import bao

# -- signature ----------------------------------------------------------


class RainbowSignature:
    def __init__(self, n: int):
        if n < 3:
            raise DimTooSmall("rainbow signature needs dimension at least 3")
        self.n = n
        self.greens = tuple(
            [("g", i) for i in range(1, n - 1)] + [("g0", i) for i in range(1, n + 2)]
        )
        self.whites = tuple(("w", i) for i in range(0, n - 1))
        self.red_symbols = tuple(
            ("r", i, j) for i in range(n) for j in range(i + 1, n)
        )
        self.oriented_reds = tuple(
            ("r", a, b) for a in range(n) for b in range(n) if a != b
        )
        self.tints = tuple(range(1, n + 2))
        self.yellow_universe = n + 2

    def yellow_sets(self):
        for bits in range(1 << self.yellow_universe):
            yield frozenset(i for i in range(self.yellow_universe) if bits >> i & 1)

    def edge_colours(self):
        """All non-yellow labels usable on an edge, reds oriented."""
        return self.greens + self.whites + self.oriented_reds

    def summary(self) -> dict:
        return {
            "n": self.n,
            "greens": len(self.greens),
            "whites": len(self.whites),
            "reds": len(self.red_symbols),
            "yellows": 1 << self.yellow_universe,
        }


def signature(n: int) -> RainbowSignature:
    return RainbowSignature(n)


def is_green(c) -> bool:
    return c[0] in ("g", "g0")


def is_red(c) -> bool:
    return c[0] == "r"


def reverse_colour(c):
    if is_red(c):
        return ("r", c[2], c[1])
    return c


def colour_code(c) -> str:
    if c[0] == "g":
        return f"g{c[1]}"
    if c[0] == "g0":
        return f"g0^{c[1]}"
    if c[0] == "w":
        return f"w{c[1]}"
    if c[0] == "r":
        return f"r{c[1]}{c[2]}"
    raise ValueError(f"bad colour {c!r}")


def parse_colour(s: str):
    if s.startswith("g0^"):
        return ("g0", int(s[3:]))
    if s.startswith("g"):
        return ("g", int(s[1:]))
    if s.startswith("w"):
        return ("w", int(s[1:]))
    if s.startswith("r"):
        return ("r", int(s[1]), int(s[2:]))
    raise ValueError(f"bad colour code {s!r}")


def yellow_codeword(S: frozenset) -> str:
    return "yS:{" + ",".join(str(i) for i in sorted(S)) + "}"


def parse_yellow(s: str) -> frozenset:
    if not (s.startswith("yS:{") and s.endswith("}")):
        raise ValueError(f"bad yellow code {s!r}")
    body = s[4:-1]
    return frozenset(int(p) for p in body.split(",") if p != "")


# -- coloured graphs ------------------------------------------------------


class ColouredGraph:
    """Complete edge-labelled graph with yellow labels on (n-1)-tuples.

    edges maps ordered pairs (u,v) with u < v; red labels are read in that
    direction. yellows maps sorted node tuples (lenient) or arbitrary
    ordered tuples (strict).
    """

    def __init__(self, sig: RainbowSignature, nodes: Iterable[int],
                 edges: Dict[Tuple[int, int], tuple],
                 yellows: Dict[Tuple[int, ...], frozenset],
                 strict_yellows: bool = False):
        self.sig = sig
        self.nodes = tuple(sorted(set(nodes)))
        self.edges = dict(edges)
        self.yellows = dict(yellows)
        self.strict = strict_yellows

    def edge(self, u: int, v: int):
        """Label of {u,v} as seen from u to v."""
        if u == v:
            raise ValueError("no loops in coloured graphs")
        if u < v:
            return self.edges.get((u, v))
        c = self.edges.get((v, u))
        return None if c is None else reverse_colour(c)

    def yellow(self, key: Sequence[int]):
        if self.strict:
            return self.yellows.get(tuple(key))
        return self.yellows.get(tuple(sorted(key)))

    def with_node(self, v: int) -> "ColouredGraph":
        return ColouredGraph(self.sig, self.nodes + (v,), self.edges,
                             self.yellows, self.strict)

    def copy(self) -> "ColouredGraph":
        return ColouredGraph(self.sig, self.nodes, self.edges, self.yellows, self.strict)

    def set_edge(self, u: int, v: int, colour):
        if u > v:
            u, v = v, u
            colour = reverse_colour(colour)
        self.edges[(u, v)] = colour

    def set_yellow(self, key: Sequence[int], S: frozenset):
        k = tuple(key) if self.strict else tuple(sorted(key))
        self.yellows[k] = frozenset(S)

    def drop_node(self, v: int) -> "ColouredGraph":
        nodes = tuple(x for x in self.nodes if x != v)
        edges = {k: c for k, c in self.edges.items() if v not in k}
        yellows = {k: s for k, s in self.yellows.items() if v not in k}
        return ColouredGraph(self.sig, nodes, edges, yellows, self.strict)

    def subgraph(self, keep: Iterable[int]) -> "ColouredGraph":
        ks = set(keep)
        edges = {k: c for k, c in self.edges.items() if set(k) <= ks}
        yellows = {k: s for k, s in self.yellows.items() if set(k) <= ks}
        return ColouredGraph(self.sig, ks, edges, yellows, self.strict)

    def to_json(self) -> dict:
        contiguous = self.nodes == tuple(range(len(self.nodes)))
        return {
            "nodes": len(self.nodes) if contiguous else list(self.nodes),
            "edges": {f"({u},{v})": colour_code(c) for (u, v), c in sorted(self.edges.items())},
            "yellows": {
                "(" + ",".join(map(str, k)) + ")": yellow_codeword(s)
                for k, s in sorted(self.yellows.items())
            },
        }

    @staticmethod
    def from_json(doc: dict, sig: RainbowSignature, strict=False) -> "ColouredGraph":
        raw = doc["nodes"]
        nodes = range(raw) if isinstance(raw, int) else raw
        edges = {}
        for key, code in doc.get("edges", {}).items():
            u, v = (int(p) for p in key.strip("()").split(","))
            edges[(u, v)] = parse_colour(code)
        yellows = {}
        for key, code in doc.get("yellows", {}).items():
            k = tuple(int(p) for p in key.strip("()").split(","))
            yellows[k] = parse_yellow(code)
        return ColouredGraph(sig, nodes, edges, yellows, strict)


class Verdict:
    def __init__(self, ok: bool, kind: Optional[str] = None, witness=None):
        self.ok = ok
        self.kind = kind
        self.witness = witness

    def __bool__(self):
        return self.ok

    def __repr__(self):
        return "valid" if self.ok else f"invalid({self.kind}, {self.witness})"

    def to_json(self):
        return {"ok": self.ok, "kind": self.kind,
                "witness": list(self.witness) if self.witness else None}


def red_triangle_consistent(a, b, c) -> bool:
    """a=edge(x,y), b=edge(y,z), c=edge(x,z), all oriented reds: the three
    node values must glue to one injective assignment."""
    return a[2] == b[1] and a[1] == c[1] and b[2] == c[2]


def triangle_violation(a, b, c) -> Optional[str]:
    labels = (a, b, c)
    greens = [l for l in labels if is_green(l)]
    if len(greens) == 3:
        return "green-triangle"
    if len(greens) == 2:
        white = next(l for l in labels if not is_green(l))
        if white[0] == "w":
            if white[1] == 0 and all(g[0] == "g0" for g in greens):
                return "two-g0-with-w0"
            if greens[0] == greens[1] == ("g", white[1]):
                return "gi-gi-wi"
    if all(is_red(l) for l in labels):
        if not red_triangle_consistent(a, b, c):
            return "red-inconsistent"
    return None


def cones_in(g: ColouredGraph):
    """Yield (apex, ordered base tuple, tint) for every cone-shaped n-subset."""
    n = g.sig.n
    for D in itertools.combinations(g.nodes, n):
        for apex in D:
            base = [v for v in D if v != apex]
            tint = None
            slots = {}
            ok = True
            for v in base:
                c = g.edge(v, apex)
                if c is None:
                    ok = False
                    break
                if c[0] == "g0":
                    if tint is not None:
                        ok = False
                        break
                    tint = c[1]
                    slots[0] = v
                elif c[0] == "g":
                    if c[1] in slots:
                        ok = False
                        break
                    slots[c[1]] = v
                else:
                    ok = False
                    break
            if not ok or tint is None or sorted(slots) != list(range(n - 1)):
                continue
            internal_green = False
            for u, v in itertools.combinations(base, 2):
                c = g.edge(u, v)
                if c is None or is_green(c):
                    internal_green = True
                    break
            if internal_green:
                continue
            yield apex, tuple(slots[j] for j in range(n - 1)), tint


def is_valid_coloured_graph(g: ColouredGraph, sig: Optional[RainbowSignature] = None) -> Verdict:
    """Completeness, forbidden triangles, yellow placement, cone clause."""
    sig = sig or g.sig
    n = sig.n
    inventory = set(sig.edge_colours())
    for u, v in itertools.combinations(g.nodes, 2):
        c = g.edge(u, v)
        if c is None:
            return Verdict(False, "incomplete", (u, v))
        if c not in inventory:
            return Verdict(False, "unknown-colour", (u, v))
    for x, y, z in itertools.combinations(g.nodes, 3):
        kind = triangle_violation(g.edge(x, y), g.edge(y, z), g.edge(x, z))
        if kind:
            return Verdict(False, kind, (x, y, z))
    for K in itertools.combinations(g.nodes, n - 1):
        green_free = all(
            not is_green(g.edge(u, v)) for u, v in itertools.combinations(K, 2)
        )
        keys = list(itertools.permutations(K)) if g.strict else [tuple(sorted(K))]
        for key in keys:
            label = g.yellows.get(key)
            if green_free and label is None:
                return Verdict(False, "missing-yellow", key)
            if not green_free and label is not None:
                return Verdict(False, "yellow-on-green-tuple", key)
            if label is not None and not label <= set(range(sig.yellow_universe)):
                return Verdict(False, "yellow-out-of-range", key)
    stray = [k for k in g.yellows if len(k) != n - 1 or len(set(k)) != n - 1
             or not set(k) <= set(g.nodes)]
    if stray:
        return Verdict(False, "bad-yellow-key", tuple(stray[0]))
    for apex, base, tint in cones_in(g):
        key = base if g.strict else tuple(sorted(base))
        label = g.yellows.get(key)
        if label is not None and tint not in label:
            return Verdict(False, "cone-tint-outside-shade", (apex, base, tint))
    return Verdict(True)


# -- the n = 3 atom table ---------------------------------------------------
#
# Atoms are surjections a: 3 -> M onto valid coloured graphs, quotiented by
# label agreement; equivalently, a kernel partition of {0,1,2} plus the
# pulled-back pair data. Packed atom code (int64):
#   code = ((kid*512 + p01)*512 + p02)*512 + p12
# where pXY = edge*33 + yellow, edge in 0..12 (13 = identified slot),
# yellow in 0..31 (32 = none). Ascending code order is the canonical atom
# order (kernel class major, then pair data lexicographically).

KERNELS = (
    ((0, 1, 2),),
    ((0, 1), (2,)),
    ((0, 2), (1,)),
    ((1, 2), (0,)),
    ((0,), (1,), (2,)),
)

PAIR_BASE = 33
PAIR_SLOTS = 512
EDGE_NONE = 13
YELLOW_NONE = 32
IDENT_PAIR = EDGE_NONE * PAIR_BASE + YELLOW_NONE


def _edge_table(sig: RainbowSignature):
    if sig.n != 3:
        raise DimUnsupported("atom enumeration is implemented for n = 3 only")
    colours = list(sig.greens) + list(sig.whites) + list(sig.oriented_reds)
    index = {c: i for i, c in enumerate(colours)}
    flip = [index[reverse_colour(c)] for c in colours]
    return colours, index, flip


def _same_block(kid: int, i: int, j: int) -> bool:
    for block in KERNELS[kid]:
        if i in block:
            return j in block
    raise AssertionError


def pack_atom(kid: int, pairs: Dict[Tuple[int, int], int]) -> int:
    code = kid
    for key in ((0, 1), (0, 2), (1, 2)):
        code = code * PAIR_SLOTS + pairs.get(key, IDENT_PAIR)
    return code


def unpack_atom(code: int):
    p12 = code % PAIR_SLOTS
    code //= PAIR_SLOTS
    p02 = code % PAIR_SLOTS
    code //= PAIR_SLOTS
    p01 = code % PAIR_SLOTS
    kid = code // PAIR_SLOTS
    return kid, {(0, 1): p01, (0, 2): p02, (1, 2): p12}


class AtomTable:
    """Canonically ordered enumeration of the n = 3 rainbow atoms."""

    def __init__(self, sig: RainbowSignature):
        self.sig = sig
        self.colours, self.colour_index, self.flip = _edge_table(sig)
        self.codes = self._enumerate()
        self.count = int(self.codes.shape[0])

    # enumeration -----------------------------------------------------

    def _pair_options(self, edge_code: int, cone_tints: Sequence[int]) -> np.ndarray:
        """Yellow codes legal for a pair carrying the given edge."""
        if is_green(self.colours[edge_code]):
            return np.array([YELLOW_NONE], dtype=np.int64)
        ys = np.arange(32, dtype=np.int64)
        for t in cone_tints:
            ys = ys[(ys >> t) & 1 == 1]
        return ys

    def _enumerate(self) -> np.ndarray:
        chunks = [np.array([pack_atom(0, {})], dtype=np.int64)]
        # two-node graphs: kernels 1..3; a single quotient edge, pulled back
        for kid, direct, flipped, ident in (
            (1, [(0, 2), (1, 2)], [], (0, 1)),
            (2, [(0, 1)], [(1, 2)], (0, 2)),
            (3, [(0, 1), (0, 2)], [], (1, 2)),
        ):
            for e in range(len(self.colours)):
                ys = self._pair_options(e, ())
                pairs_base = {ident: IDENT_PAIR}
                codes = np.empty(len(ys), dtype=np.int64)
                for idx, y in enumerate(ys):
                    pairs = dict(pairs_base)
                    for key in direct:
                        pairs[key] = e * PAIR_BASE + int(y)
                    for key in flipped:
                        pairs[key] = self.flip[e] * PAIR_BASE + int(y)
                    codes[idx] = pack_atom(kid, pairs)
                chunks.append(codes)
        # three-node graphs: kernel 4
        ncol = len(self.colours)
        for e01 in range(ncol):
            for e02 in range(ncol):
                for e12 in range(ncol):
                    a = self.colours[e01]
                    b = self.colours[e12]
                    c = self.colours[e02]
                    if triangle_violation(a, b, c):
                        continue
                    cones = self._cone_constraints(e01, e02, e12)
                    y01 = self._pair_options(e01, cones.get((0, 1), ()))
                    y02 = self._pair_options(e02, cones.get((0, 2), ()))
                    y12 = self._pair_options(e12, cones.get((1, 2), ()))
                    base = pack_atom(4, {
                        (0, 1): e01 * PAIR_BASE,
                        (0, 2): e02 * PAIR_BASE,
                        (1, 2): e12 * PAIR_BASE,
                    })
                    grid = (
                        base
                        + (y01 * PAIR_SLOTS * PAIR_SLOTS)[:, None, None]
                        + (y02 * PAIR_SLOTS)[None, :, None]
                        + y12[None, None, :]
                    )
                    chunks.append(grid.reshape(-1))
        codes = np.concatenate(chunks)
        codes.sort()
        return codes

    def _cone_constraints(self, e01, e02, e12) -> Dict[Tuple[int, int], tuple]:
        """Tints whose cone clause constrains each base pair of the triangle."""
        cols = {
            (0, 1): self.colours[e01],
            (0, 2): self.colours[e02],
            (1, 2): self.colours[e12],
        }

        def col(u, v):
            c = cols[(min(u, v), max(u, v))]
            return c if u < v else reverse_colour(c)

        out: Dict[Tuple[int, int], list] = {}
        for apex in (0, 1, 2):
            base = tuple(sorted(set((0, 1, 2)) - {apex}))
            c0 = col(base[0], apex)
            c1 = col(base[1], apex)
            tint = None
            if c0[0] == "g0" and c1 == ("g", 1):
                tint = c0[1]
            elif c1[0] == "g0" and c0 == ("g", 1):
                tint = c1[1]
            if tint is None:
                continue
            if is_green(col(base[0], base[1])):
                continue
            out.setdefault(base, []).append(tint)
        return {k: tuple(v) for k, v in out.items()}

    # decoding ----------------------------------------------------------

    def graph_of(self, code: int) -> Tuple[Tuple[Tuple[int, ...], ...], ColouredGraph]:
        """Kernel blocks plus the quotient coloured graph on 0..size-1."""
        kid, pairs = unpack_atom(code)
        blocks = KERNELS[kid]
        node_of = {}
        for b, block in enumerate(blocks):
            for idx in block:
                node_of[idx] = b
        edges = {}
        yellows = {}
        for (i, j), p in pairs.items():
            if p == IDENT_PAIR:
                continue
            e, y = divmod(p, PAIR_BASE)
            u, v = node_of[i], node_of[j]
            colour = self.colours[e]
            if u > v:
                u, v = v, u
                colour = reverse_colour(colour)
            edges[(u, v)] = colour
            if y != YELLOW_NONE:
                yellows[(u, v)] = frozenset(t for t in range(5) if y >> t & 1)
        g = ColouredGraph(self.sig, range(len(blocks)), edges, yellows)
        return blocks, g

    def atom_of_tuple(self, graph: ColouredGraph, delta: Sequence[int]) -> int:
        """Packed atom code of the pullback of the ambient graph along delta."""
        kid = None
        eq = (delta[0] == delta[1], delta[0] == delta[2], delta[1] == delta[2])
        for cand, kern in enumerate(KERNELS):
            pattern = (
                _same_block(cand, 0, 1),
                _same_block(cand, 0, 2),
                _same_block(cand, 1, 2),
            )
            if pattern == eq:
                kid = cand
                break
        if kid is None:
            raise ValueError("inconsistent equality pattern")
        pairs = {}
        for i, j in ((0, 1), (0, 2), (1, 2)):
            u, v = delta[i], delta[j]
            if u == v:
                continue
            colour = graph.edge(u, v)
            if colour is None:
                raise ValueError(f"edge ({u},{v}) unlabelled")
            e = self.colour_index[colour]
            if is_green(colour):
                y = YELLOW_NONE
            else:
                S = graph.yellow((u, v))
                if S is None:
                    raise ValueError(f"pair ({u},{v}) missing its yellow label")
                y = 0
                for t in S:
                    y |= 1 << t
            pairs[(i, j)] = e * PAIR_BASE + y
        return pack_atom(kid, pairs)

    def valid_atom(self, code: int) -> Verdict:
        _, g = self.graph_of(code)
        return is_valid_coloured_graph(g)


def enumerate_atoms(sig: RainbowSignature) -> AtomTable:
    """All surjections onto valid coloured graphs of size <= n, quotiented
    by label agreement, in canonical packed-code order (n = 3 only)."""
    return AtomTable(sig)


# -- atom structure and its lazy complex algebra ------------------------------


class RainbowStructure:
    """Atom structure of the finite rainbow algebra at n = 3.

    T_i relates atoms agreeing on the pair away from i, so the i-th
    cylindrifier key of an atom is literally the pXY field opposite i;
    E_ij holds when the kernel identifies i and j; the interior relations
    are the identity.
    """

    def __init__(self, table: AtomTable):
        self.table = table
        self.sig = table.sig
        self.dim = 3
        self.codes = table.codes
        self.num_atoms = table.count
        self._keys = {}
        self._kid = None
        self._diag = {}

    def key_field(self, i: int) -> np.ndarray:
        """Packed pair-data away from index i for every atom."""
        if i not in self._keys:
            codes = self.codes
            p12 = codes % PAIR_SLOTS
            p02 = (codes // PAIR_SLOTS) % PAIR_SLOTS
            p01 = (codes // (PAIR_SLOTS * PAIR_SLOTS)) % PAIR_SLOTS
            self._keys[0], self._keys[1], self._keys[2] = p12, p02, p01
        return self._keys[i]

    def groups(self, i: int) -> np.ndarray:
        """T_i class id of every atom: its key field, a value below PAIR_SLOTS.

        The ids are not compact (most of the PAIR_SLOTS values are unused),
        so ``max() + 1`` is only good as a ``bincount`` ``minlength``.
        """
        return self.key_field(i)

    def key_of_code(self, i: int, code: int) -> int:
        _, pairs = unpack_atom(code)
        opposite = {0: (1, 2), 1: (0, 2), 2: (0, 1)}[i]
        return pairs[opposite]

    def ti_related(self, i: int, a_code: int, b_code: int) -> bool:
        return self.key_of_code(i, a_code) == self.key_of_code(i, b_code)

    def kid_field(self) -> np.ndarray:
        if self._kid is None:
            self._kid = self.codes // (PAIR_SLOTS ** 3)
        return self._kid

    def diag_mask(self, i: int, j: int) -> np.ndarray:
        key = (min(i, j), max(i, j))
        if key not in self._diag:
            if i == j:
                self._diag[key] = np.ones(self.num_atoms, dtype=bool)
            else:
                pattern = np.array([_same_block(k, key[0], key[1]) for k in range(5)])
                self._diag[key] = pattern[self.kid_field()]
        return self._diag[key]

    def is_diag(self, code: int, i: int, j: int) -> bool:
        if i == j:
            return True
        kid = code // (PAIR_SLOTS ** 3)
        return _same_block(int(kid), min(i, j), max(i, j))

    def index_of(self, code: int) -> int:
        pos = int(np.searchsorted(self.codes, code))
        if pos >= self.num_atoms or self.codes[pos] != code:
            raise KeyError(f"{code} is not an atom")
        return pos

    def is_atom(self, code: int) -> bool:
        pos = int(np.searchsorted(self.codes, code))
        return pos < self.num_atoms and self.codes[pos] == code

    def cm(self) -> "RainbowComplexAlgebra":
        return RainbowComplexAlgebra(self)

    def to_json_head(self, limit: int = 16) -> dict:
        sample = []
        for code in self.codes[:limit]:
            blocks, g = self.table.graph_of(int(code))
            sample.append({"code": int(code),
                           "kernel": [list(b) for b in blocks],
                           "graph": g.to_json()})
        return {
            "dim": self.dim,
            "atoms": self.num_atoms,
            "interior": ["identity"] * self.dim,
            "first_atoms": sample,
        }


def build_atom_structure(sig: RainbowSignature) -> RainbowStructure:
    if sig.n != 3:
        raise DimUnsupported("atom structure construction supports n = 3 only")
    return RainbowStructure(enumerate_atoms(sig))


# Atoms per block when cyl collects the classes an element meets: a block's
# selected keys are scattered while still in cache, and no temporary the
# size of the atom table is allocated.
CYL_BLOCK = 1 << 16


class RainbowComplexAlgebra(bao.Algebra):
    """Lazy complex algebra over the rainbow structure.

    An element is a C-contiguous numpy bool array of length num_atoms,
    indexed in canonical atom order. ``cyl`` marks the T_i classes (key
    field values) an element meets in a PAIR_SLOTS-entry table, block by
    block, and reads the table back through the key field.
    ``random_element`` draws packed random bits, one per atom.
    """

    def __init__(self, structure: RainbowStructure):
        self.structure = structure
        self.dim = structure.dim
        n = structure.num_atoms
        self.zero = np.zeros(n, dtype=bool)
        self.one = np.ones(n, dtype=bool)

    def eq(self, a, b):
        return np.array_equal(a, b)

    def plus(self, a, b):
        return a | b

    def times(self, a, b):
        return a & b

    def minus(self, a):
        return ~a

    def cyl(self, i, x):
        key = self.structure.key_field(i)
        hit = np.zeros(PAIR_SLOTS, dtype=bool)
        for lo in range(0, key.shape[0], CYL_BLOCK):
            hit[key[lo:lo + CYL_BLOCK].compress(x[lo:lo + CYL_BLOCK])] = True
        return hit[key]

    def dg(self, i, j):
        return self.structure.diag_mask(i, j)

    def interior(self, i, x):
        return x

    def random_element(self, rng):
        n = self.structure.num_atoms
        sub = np.random.default_rng(rng.randrange(1 << 32))
        packed = np.frombuffer(sub.bytes((n + 7) // 8), dtype=np.uint8)
        return np.unpackbits(packed, count=n).view(bool)

    def atom_singleton(self, code: int):
        x = np.zeros(self.structure.num_atoms, dtype=bool)
        x[self.structure.index_of(code)] = True
        return x
