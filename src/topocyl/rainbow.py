"""The finite rainbow colour signature, coloured graphs, and the atom
structure of the finite algebra with n+1 greens over n reds.

Red edge labels carry an orientation: the label of an edge {u,v} is an
ordered index pair (value at u, value at v), serialized "r01" or "r10"
relative to the stored direction. A red clique is then consistent exactly
when it is generated by an injective node-to-index map, which is what the
cone-bombardment argument needs. Greens and whites are symmetric.

`signature(n)` is the one signature of each n and owns the tables derived
from n, the triangle rows of Exists' search in `games` among them. A graph's
JSON is read by inverting its writer: codes are looked up among those the
signature's colours and shades are written as, and node keys are
`errors.node_key`; a graph that leaves a pair unlabelled is refused.

The validator, the atom table and Exists' search read each graph rule from
one place: `green_free` (the (n-1)-sets that carry a yellow and may be a
cone's base), `cones_in`, and `ColouredGraph`, the only code that orients a
red or sorts a key. The validator reads `triangle_violation`, never the
triangle rows that prune the search, so it stays an independent check.

The packed n = 3 atom code is stated once, in the codec section, and read
only through it: `AtomTable.graph_of` (an atom as kernel blocks plus its
quotient coloured graph), `AtomTable.atom_of_tuple` (the atom a graph
gives a node tuple), `KERNEL_EQ` (which index pairs a kernel identifies),
the cylindrifier key of each axis (`key_field`, `key_of_code`), the
element layout of the complex algebra (`rows`), the tables its
cylindrifier works on (`row_keys` of axes 1 and 2, `blocks` of axis 0),
the kernels below each diagonal (`diagonal_kernels`) and the run of codes
of each kernel (`diag_mask`).

An element of `RainbowComplexAlgebra` is a `PackedElement`: one flat uint64
buffer, one bit per atom, each group of atoms (equal `group_of`) in as few
words as its atoms need, in width-class panels (`ElementLayout`): 230,624
words, 1.84 MB at n = 3 (a bool per atom took 10.9 MB, and five words for
every group 2.76 MB). x[p] with an integer p reads canonical atom p, and
the algebra's `flags` and `element` convert between an element and one
bool per atom in canonical order. The atom table emits its codes in code
order together with the group bounds and the axis-0 blocks, so no table is
found by a scan of the codes. `cm()` builds no table: the element layout
is built from the bounds and blocks when zero, one or a first element is
asked for, and the row keys of axes 1 and 2 by their first c_i, and both
are kept; the per-atom views `key_field`, `groups` and `diag_mask` are
expanded from the layout on each call and kept by no one but the caller.
"""

from __future__ import annotations

import collections
import functools
import itertools
import operator
from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from .errors import (DimTooSmall, DimUnsupported, IndexOutOfRange, json_field, json_nodes,
                     json_size, node_key, parse_node_tuple)
from . import bao

# -- signature ----------------------------------------------------------


class RainbowSignature:
    """The colours of dimension n: greens g_i (0 < i < n-1) and g_0^i
    (0 < i < n+2), whites w_i (i < n-1), the reds in both orientations, and
    the shades, the subsets of 0..n+1. Each table derived from n is built on
    first use and kept, so a dimension refused later costs nothing here.
    `triangle_rows` maps each ordered pair (a, b) of colours to the bitmask,
    over colour indices, of the c that close a triangle with edges a, b
    without a `triangle_violation`."""

    def __init__(self, n: int):
        if n < 3:
            raise DimTooSmall("rainbow signature needs dimension at least 3")
        self.n = n
        self.tints = tuple(range(1, n + 2))
        self.yellow_universe = n + 2
        self.full_shade = frozenset(range(n + 2))

    @functools.cached_property
    def oriented_reds(self) -> tuple:
        n = self.n
        return tuple(("r", a, b) for a in range(n) for b in range(n) if a != b)

    @functools.cached_property
    def colours(self) -> tuple:
        """All non-yellow labels usable on an edge, reds oriented."""
        n = self.n
        greens = [("g", i) for i in range(1, n - 1)] + [("g0", i) for i in range(1, n + 2)]
        return tuple(greens + [("w", i) for i in range(n - 1)]) + self.oriented_reds

    @functools.cached_property
    def colour_index(self) -> dict:
        return {c: e for e, c in enumerate(self.colours)}

    @functools.cached_property
    def colour_codes(self) -> dict:
        return {colour_code(c): c for c in self.colours}

    @functools.cached_property
    def shades(self) -> tuple:
        """Every shade; the shade of bitmask y is shades[y]."""
        u = self.yellow_universe
        return tuple(frozenset(i for i in range(u) if bits >> i & 1) for bits in range(1 << u))

    @functools.cached_property
    def shade_codes(self) -> dict:
        return {yellow_codeword(S): S for S in self.shades}

    @functools.cached_property
    def triangle_rows(self) -> dict:
        return {(a, b): sum(1 << i for i, c in enumerate(self.colours)
                            if not triangle_violation(a, b, c))
                for a in self.colours for b in self.colours}

    def summary(self) -> dict:
        kinds = collections.Counter(c[0] for c in self.colours)
        return {"n": self.n, "greens": kinds["g"] + kinds["g0"], "whites": kinds["w"],
                "reds": kinds["r"] // 2, "yellows": 1 << self.yellow_universe}


@functools.lru_cache(maxsize=None)
def signature(n: int) -> RainbowSignature:
    """The one signature of dimension n, shared with its tables."""
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
        return f"r{c[1]}{c[2]}" if c[1] < 10 and c[2] < 10 else f"r{c[1]},{c[2]}"
    raise ValueError(f"bad colour {c!r}")


def yellow_codeword(S: frozenset) -> str:
    return "yS:{" + ",".join(str(i) for i in sorted(S)) + "}"


# -- coloured graphs ------------------------------------------------------


class ColouredGraph:
    """Complete edge-labelled graph with yellow labels on (n-1)-tuples.

    edges maps ordered pairs (u,v) with u < v; red labels are read in that
    direction. yellows maps sorted node tuples: one shade per set of n-1
    distinct nodes.
    """

    def __init__(self, sig: RainbowSignature, nodes: Iterable[int],
                 edges: Dict[Tuple[int, int], tuple],
                 yellows: Dict[Tuple[int, ...], frozenset]):
        self.sig = sig
        self.nodes = tuple(sorted(set(nodes)))
        self.edges = dict(edges)
        self.yellows = dict(yellows)

    def edge(self, u: int, v: int):
        """Label of {u,v} as seen from u to v."""
        if u == v:
            raise ValueError("no loops in coloured graphs")
        if u < v:
            return self.edges.get((u, v))
        c = self.edges.get((v, u))
        return None if c is None else reverse_colour(c)

    def yellow(self, key: Sequence[int]):
        return self.yellows.get(tuple(sorted(key)))

    def copy(self) -> "ColouredGraph":
        return ColouredGraph(self.sig, self.nodes, self.edges, self.yellows)

    def set_edge(self, u: int, v: int, colour):
        if u > v:
            u, v = v, u
            colour = reverse_colour(colour)
        self.edges[(u, v)] = colour

    def drop_edge(self, u: int, v: int):
        del self.edges[(u, v) if u < v else (v, u)]

    def set_yellow(self, key: Sequence[int], S: frozenset):
        self.yellows[tuple(sorted(key))] = frozenset(S)

    def drop_node(self, v: int) -> "ColouredGraph":
        nodes = tuple(x for x in self.nodes if x != v)
        edges = {k: c for k, c in self.edges.items() if v not in k}
        yellows = {k: s for k, s in self.yellows.items() if v not in k}
        return ColouredGraph(self.sig, nodes, edges, yellows)

    def to_json(self) -> dict:
        contiguous = self.nodes == tuple(range(len(self.nodes)))
        return {
            "nodes": len(self.nodes) if contiguous else list(self.nodes),
            "edges": {node_key(t): colour_code(c) for t, c in sorted(self.edges.items())},
            "yellows": {node_key(t): yellow_codeword(S) for t, S in sorted(self.yellows.items())},
        }

    @staticmethod
    def from_json(doc: dict, sig: RainbowSignature) -> "ColouredGraph":
        """ValueError naming the field unless doc is an object whose nodes
        are a count k or a strictly increasing list of integers other than
        0..k-1, whose edges map keys (u,v) with nodes u < v to colour codes
        of sig, one for each pair, and whose yellows map sorted node keys to
        shade codes of sig, each spelled as `to_json` writes it; the first
        pair left unlabelled is named."""
        raw = json_field(doc, dict, "graph").get("nodes")
        if type(raw) is int:
            nodes = members = range(json_size(raw, "graph nodes"))
        else:
            nodes = json_nodes(raw, "graph nodes")
            if nodes == list(range(len(nodes))):
                raise ValueError("graph nodes: a list 0..k-1 is written as the count k, "
                                 f'here "nodes": {len(nodes)}')
            members = set(nodes)
        raw_edges, raw_yellows = (json_field(doc.get(name, {}), dict, f"graph {name}")
                                  for name in ("edges", "yellows"))
        edges = {}
        for key, code in raw_edges.items():
            t = parse_node_tuple(key) or ()
            if not (len(t) == 2 and t[0] < t[1] and t[0] in members and t[1] in members):
                raise ValueError(f"graph edge key {key!r} is not (u,v) with nodes u < v")
            if not (isinstance(code, str) and code in sig.colour_codes):
                raise ValueError(f"bad colour code {code!r} on graph edge {key!r}: "
                                 f"not a colour code of the n = {sig.n} signature")
            edges[t] = sig.colour_codes[code]
        if len(edges) < len(nodes) * (len(nodes) - 1) // 2:
            # at most len(edges) pairs precede it; combinations would copy the nodes
            missing = next((u, v) for i, u in enumerate(nodes) for v in nodes[i + 1:]
                           if (u, v) not in edges)
            raise ValueError(f"graph edges leave {node_key(missing)} unlabelled")
        yellows = {}
        for key, code in raw_yellows.items():
            t = parse_node_tuple(key)
            if t is None or list(t) != sorted(t):
                raise ValueError(f"graph yellow key {key!r} is not a sorted node tuple")
            if not (isinstance(code, str) and code in sig.shade_codes):
                raise ValueError(f"bad yellow code {code!r} on graph yellow key {key!r}: "
                                 f"not a shade code of the n = {sig.n} signature")
            yellows[t] = sig.shade_codes[code]
        return ColouredGraph(sig, nodes, edges, yellows)


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


def green_free(g: ColouredGraph, nodes: Sequence[int]) -> bool:
    """Every pair of nodes has an edge and none is green: the (n-1)-sets
    that carry a yellow, and the bases a cone stands on."""
    for u, v in itertools.combinations(nodes, 2):
        c = g.edge(u, v)
        if c is None or is_green(c):
            return False
    return True


def cones_in(g: ColouredGraph):
    """Yield (apex, base, tint) for every cone: an apex and a green-free
    base of n-1 nodes, in the order of the sorted nodes, whose spokes (the
    base's edges to the apex) are g_0^tint, g_1, .., g_{n-2}, each once; the
    base lists the nodes of those spokes in that order."""
    n = g.sig.n
    slot_of = {("g", j): j for j in range(1, n - 1)}
    for D in itertools.combinations(g.nodes, n):
        for apex in D:
            base = [None] * (n - 1)   # base[j]: the node of the spoke g_j, g_0^tint at 0
            for v in D:
                if v == apex:
                    continue
                c = g.edge(v, apex)
                if c is not None and c[0] == "g0":
                    j, tint = 0, c[1]
                else:
                    j = slot_of.get(c)
                if j is None or base[j] is not None:
                    break
                base[j] = v
            else:
                if green_free(g, base):
                    yield apex, tuple(base), tint


def is_valid_coloured_graph(g: ColouredGraph) -> Verdict:
    """Completeness, forbidden triangles, yellow placement, cone clause."""
    sig = g.sig
    n = sig.n
    for u, v in itertools.combinations(g.nodes, 2):
        c = g.edge(u, v)
        if c is None:
            return Verdict(False, "incomplete", (u, v))
        if c not in sig.colour_index:
            return Verdict(False, "unknown-colour", (u, v))
    for x, y, z in itertools.combinations(g.nodes, 3):
        kind = triangle_violation(g.edge(x, y), g.edge(y, z), g.edge(x, z))
        if kind:
            return Verdict(False, kind, (x, y, z))
    for K in itertools.combinations(g.nodes, n - 1):
        label = g.yellows.get(K)
        if label is None:
            if green_free(g, K):
                return Verdict(False, "missing-yellow", K)
        elif not green_free(g, K):
            return Verdict(False, "yellow-on-green-tuple", K)
        elif not label <= sig.full_shade:
            return Verdict(False, "yellow-out-of-range", K)
    stray = [k for k in g.yellows if len(k) != n - 1 or len(set(k)) != n - 1
             or not set(k) <= set(g.nodes)]
    if stray:
        return Verdict(False, "bad-yellow-key", tuple(stray[0]))
    for apex, base, tint in cones_in(g):
        label = g.yellow(base)
        if label is not None and tint not in label:
            return Verdict(False, "cone-tint-outside-shade", (apex, base, tint))
    return Verdict(True)


# -- the packed n = 3 atom code ----------------------------------------------
#
# Atoms are surjections a: 3 -> M onto valid coloured graphs, quotiented by
# label agreement; equivalently, a kernel partition of {0,1,2} plus the
# pulled-back pair data, packed as
#   code = kid << 3 * KEY_BITS | p01 << 2 * KEY_BITS | p02 << KEY_BITS | p12
# where pXY = pair_value(edge, yellow), IDENT_PAIR on an identified pair
# and yellow YELLOW_NONE on a pair with no yellow. Each width below is
# derived from signature(3) and PAIRS; pair_value, slot, key_of, group_of
# and kernel_of work on Python ints and numpy arrays alike. Ascending code
# order is the canonical atom order. A code to look up is first refused
# unless 0 <= code < CODE_END, then taken to CODE_DTYPE: numpy compares an
# int32 table with a Python int by copying the whole table to int64.

KERNELS = (
    ((0, 1, 2),),
    ((0, 1), (2,)),
    ((0, 2), (1,)),
    ((1, 2), (0,)),
    ((0,), (1,), (2,)),
)

# the index pairs in the order of their slots, p01 highest; AXIS_OF[pair]
# is the axis whose key the pair is, the index it leaves out
PAIRS = ((0, 1), (0, 2), (1, 2))
AXIS_OF = {pair: len(PAIRS) - 1 - k for k, pair in enumerate(PAIRS)}

# KERNEL_EQ[kid]: whether kernel kid identifies each pair of PAIRS
KERNEL_EQ = tuple(tuple(any(i in block and j in block for block in blocks) for i, j in PAIRS)
                  for blocks in KERNELS)

EDGE_NONE = len(signature(3).colours)
YELLOW_NONE = 1 << signature(3).yellow_universe
PAIR_BASE = YELLOW_NONE + 1
IDENT_PAIR = EDGE_NONE * PAIR_BASE + YELLOW_NONE
KEY_BITS = IDENT_PAIR.bit_length()
PAIR_SLOTS = 1 << KEY_BITS
# An entry of the emission packs a code and the need of its p12 shades (its
# tail) as code << TAIL_BITS | need; YELLOW_NONE as the need marks an entry
# without one, which is a single atom. A token is a p12 base and its tail.
TAIL_BITS = YELLOW_NONE.bit_length()
# the table's codes; the tokens and the axis-0 key rows
CODE_DTYPE, TOKEN_DTYPE = np.int32, np.int16
CODE_END = int(np.iinfo(CODE_DTYPE).max) + 1
if (len(KERNELS) << len(PAIRS) * KEY_BITS > CODE_END
        or PAIR_SLOTS << TAIL_BITS > int(np.iinfo(TOKEN_DTYPE).max) + 1):
    raise OverflowError("the packed n = 3 atom code outgrows CODE_DTYPE or TOKEN_DTYPE")


def pair_value(edge, yellow):
    return edge * PAIR_BASE + yellow


def pair_parts(p):
    return divmod(p, PAIR_BASE)


def slot(i, value):
    """value as the key of axis i, or as the kernel at i = len(PAIRS)."""
    return value << KEY_BITS * i


def key_of(i, code):
    return (code >> KEY_BITS * i) & PAIR_SLOTS - 1


def group_of(code):
    return code >> KEY_BITS


def kernel_of(code):
    return code >> len(PAIRS) * KEY_BITS


def pack_atom(kid: int, pairs: Dict[Tuple[int, int], int]) -> int:
    code = kid
    for pair in PAIRS:
        code = (code << KEY_BITS) + pairs.get(pair, IDENT_PAIR)
    return code


def unpack_atom(code: int):
    return kernel_of(code), {pair: key_of(i, code) for pair, i in AXIS_OF.items()}


# -- the n = 3 atom table ---------------------------------------------------


def _read_only(a: np.ndarray) -> np.ndarray:
    """a, no longer writeable: the code table and the tables derived from
    it are cached and shared, so a write into one would change every later
    verdict."""
    a.flags.writeable = False
    return a


# A row of an element holds a group, the atoms sharing group_of(code) (kid,
# p01, p02): bit c % WORD of word c // WORD is its c-th atom. At n = 3
# there are 68,905 groups of 1 to 261 atoms, in rows of 1, 2, 4 or 5 words,
# and 2,443 axis-0 blocks with 307 distinct key rows.
WORD = 64

# Entries in a span of a run, roughly: the emission's working arrays stay
# that small, so the memory they free is not left resident under the codes.
SPAN_ENTRIES = 1 << 14


def _spans(runs: Sequence[list], tails: list):
    """The entries of each run (see `_layout`), in spans of whole p01
    shades of about SPAN_ENTRIES entries, in code order; a span is
    unsorted."""
    for run in runs:
        # the colourings of a run that choose the same shades share them
        heads = collections.defaultdict(list)
        for code, needs in run:
            tail = needs.pop(1, YELLOW_NONE)
            heads[tuple(sorted(needs.items(), reverse=True))].append(code << TAIL_BITS | tail)
        parts = []
        for terms, bases in heads.items():
            offsets = np.zeros(1, dtype=np.int64)
            for weight, need in terms:
                offsets = np.add.outer(offsets, tails[need] * weight).ravel()
            # heaviest weight first, so the offsets ascend and those of
            # each shade of p01 (the key of axis 2) are one slice
            cuts = np.searchsorted(offsets, slot(2, np.arange(YELLOW_NONE + 1)))
            parts.append((np.array(bases), offsets << TAIL_BITS, cuts))
        # the run's entries of each shade of p01, cut into spans
        counts = sum(bases.shape[0] * np.diff(cuts) for bases, _, cuts in parts)
        ends = (np.flatnonzero(np.diff(np.cumsum(counts) // SPAN_ENTRIES)) + 1).tolist()
        for lo, hi in zip([0, *ends], [*ends, YELLOW_NONE]):
            if counts[lo:hi].any():
                yield np.concatenate([np.add.outer(bases, offsets[cuts[lo]:cuts[hi]]).ravel()
                                      for bases, offsets, cuts in parts])


def _layout(runs: Sequence[list]) -> Tuple[np.ndarray, np.ndarray, tuple]:
    """(prefixes, bounds, blocks) of the table from its colourings, given
    as (base code, {weight: shade need}) in runs of ascending codes.

    An entry is a colouring with a shade chosen for every weight but 1,
    the weight of p12 alone; its atoms are its code plus each shade of its
    tail. A span's entries, sorted, list its atoms in code order, so a
    group is a run of entries sharing group_of(code), and a block a run of
    groups listing the same p12 bases and tails. prefixes is each group's
    code with p12 cleared, bounds the groups' atom bounds (both
    CODE_DTYPE), and blocks (starts, rows, keys) are
    `RainbowStructure.blocks`.
    """
    # the shades are the yellows below YELLOW_NONE
    ys = np.arange(YELLOW_NONE, dtype=np.int64)
    tails = [ys[ys & need == need] for need in range(YELLOW_NONE)] + [np.zeros(1, np.int64)]
    tail_widths = np.array([t.shape[0] for t in tails], dtype=CODE_DTYPE)
    prefixes, ends, firsts, seqs = [], [], [], []
    ngroups = natoms = cols = 0
    for entries in _spans(runs, tails):
        entries.sort()
        # each entry's group (group_of its code) and token (p12 base and
        # tail), narrowed with no int64 temporary
        group, tokens = np.empty(entries.shape, CODE_DTYPE), np.empty(entries.shape, TOKEN_DTYPE)
        np.right_shift(entries, KEY_BITS + TAIL_BITS, out=group, casting="unsafe")
        np.bitwise_and(entries, (PAIR_SLOTS << TAIL_BITS) - 1, out=tokens, casting="unsafe")
        del entries
        starts = np.flatnonzero(np.r_[True, group[1:] != group[:-1]])
        count = np.diff(starts, append=tokens.shape[0]).astype(CODE_DTYPE)
        prefixes.append(slot(1, group[starts]))
        del group
        widths = np.add.reduceat(tail_widths[tokens & (1 << TAIL_BITS) - 1], starts)
        ends.append(np.cumsum(widths, dtype=CODE_DTYPE) + natoms)
        natoms = int(ends[-1][-1])
        cols = max(cols, WORD * -(-int(widths.max()) // WORD))
        # same[g]: group g lists the tokens of group g - 1
        back = np.repeat(count, count)
        np.subtract(np.arange(tokens.shape[0], dtype=CODE_DTYPE), back, out=back)
        same = np.r_[False, count[1:] == count[:-1]]
        same &= np.logical_and.reduceat(tokens == tokens[back], starts)
        first = np.flatnonzero(~same)
        firsts.append(first + ngroups)
        seqs += [tokens[starts[g]:starts[g] + count[g]].tobytes() for g in first]
        ngroups += starts.shape[0]
    # the key row of each token sequence: the p12 of its c-th atom in
    # column c, PAIR_SLOTS past its width
    key_rows = {}
    for seq in seqs:
        if seq not in key_rows:
            atoms = np.concatenate([(t >> TAIL_BITS) + tails[t & (1 << TAIL_BITS) - 1]
                                    for t in np.frombuffer(seq, dtype=TOKEN_DTYPE).tolist()])
            row = np.full(cols, PAIR_SLOTS, dtype=TOKEN_DTYPE)
            row[:atoms.shape[0]] = atoms
            key_rows[seq] = row.tobytes()
    # distinct key rows numbered as they first appear; adjacent blocks of
    # one key row, from two spans or two token sequences, are one block
    ids = {}
    rows = np.array([ids.setdefault(key_rows[seq], len(ids)) for seq in seqs], dtype=np.intp)
    keep = np.r_[True, rows[1:] != rows[:-1]]
    starts = np.concatenate(firsts).astype(np.intp)[keep]
    keys = np.frombuffer(b"".join(ids), dtype=TOKEN_DTYPE).reshape(len(ids), cols)
    blocks = tuple(_read_only(a) for a in (starts, rows[keep], keys))
    bounds = np.concatenate([np.zeros(1, dtype=CODE_DTYPE), *ends])
    return np.concatenate(prefixes), _read_only(bounds), blocks


def _emit(bounds: np.ndarray, blocks: tuple, dtype, prefixes=None) -> np.ndarray:
    """One dtype value per atom in code order: each block's rows are its
    groups' prefixes plus its key row (the codes), or with no prefixes
    its key row alone (the axis-0 key field)."""
    starts, rows, keys = blocks
    out = np.empty(int(bounds[-1]), dtype=dtype)
    for a, b, r in zip(starts, np.append(starts[1:], bounds.shape[0] - 1), rows):
        view = out[bounds[a]:bounds[b]].reshape(b - a, -1)
        if prefixes is None:
            view[...] = keys[r, :view.shape[1]]
        else:
            np.add.outer(prefixes[a:b], keys[r, :view.shape[1]], out=view)
    return out


class AtomTable:
    """Canonically ordered enumeration of the n = 3 rainbow atoms."""

    def __init__(self, sig: RainbowSignature):
        if sig.n != 3:
            raise DimUnsupported("atom enumeration is implemented for n = 3 only")
        self.sig = sig
        self.codes, self.bounds, self.blocks = self._enumerate()
        self.count = int(self.codes.shape[0])

    def _enumerate(self) -> Tuple[np.ndarray, np.ndarray, tuple]:
        """Every kernel's valid quotient graphs, pulled back along the
        kernel, emitted in code order with the group layout: (codes,
        bounds, blocks), each read-only.

        A quotient graph is an edge colouring with no forbidden triangle.
        Each green-free pair may carry every shade that holds the tints of
        the cones on it; its yellow enters the code once per code slot the
        pair pulls back to, so each pair adds its shades times one weight.
        The walk keeps each colouring's base code and the shade need of
        each weight, filed under its run: the codes of one kernel and one
        edge of p01 are one ascending run. `_layout` finds each run's
        groups and axis-0 blocks from the colourings alone, and `_emit`
        then allocates the table once, in its final dtype, and writes each
        block into its final slice; nothing is sorted but the entries.
        bounds are the groups' atom bounds (CODE_DTYPE, as the count is
        below CODE_END), and blocks (starts, rows, keys) are
        `RainbowStructure.blocks`.
        """
        sig = self.sig
        runs = collections.defaultdict(list)   # (kid, base p01) -> [(code, {weight: need})]
        for kid, blocks in enumerate(KERNELS):
            # delta[i]: the block of index i
            delta = [b for i in range(3) for b, block in enumerate(blocks) if i in block]
            nodes = range(len(blocks))
            pairs = list(itertools.combinations(nodes, 2))
            weight = {p: sum(slot(AXIS_OF[i, j], 1) for i, j in PAIRS
                             if {delta[i], delta[j]} == set(p)) for p in pairs}
            for colouring in itertools.product(sig.colours, repeat=len(pairs)):
                g = ColouredGraph(sig, nodes, dict(zip(pairs, colouring)), {})
                if any(triangle_violation(g.edge(x, y), g.edge(y, z), g.edge(x, z))
                       for x, y, z in itertools.combinations(nodes, 3)):
                    continue
                for p in pairs:
                    if green_free(g, p):
                        g.set_yellow(p, frozenset())
                code = self.atom_of_tuple(g, delta)
                # each yellow now collects the tints its shades must hold
                for _, base, tint in cones_in(g):
                    g.set_yellow(base, g.yellow(base) | {tint})
                # the pairs of a kernel pull back to distinct weights
                needs = {weight[p]: sum(1 << t for t in ts) for p, ts in g.yellows.items()}
                # the base code's p01 stands for its edge: its yellow is 0,
                # or none on a green edge
                runs[kid, key_of(2, code)].append((code, needs))
        # popped, so that no colouring outlives the layout
        prefixes, bounds, axis0 = _layout([runs.pop(r) for r in sorted(runs)])
        return _read_only(_emit(bounds, axis0, CODE_DTYPE, prefixes)), bounds, axis0

    # decoding ----------------------------------------------------------

    def graph_of(self, code: int) -> Tuple[Tuple[Tuple[int, ...], ...], ColouredGraph]:
        """Kernel blocks plus the quotient coloured graph on 0..size-1."""
        kid, pairs = unpack_atom(code)
        blocks = KERNELS[kid]
        node_of = {i: b for b, block in enumerate(blocks) for i in block}
        g = ColouredGraph(self.sig, range(len(blocks)), {}, {})
        for (i, j), p in pairs.items():
            if p == IDENT_PAIR:
                continue
            e, y = pair_parts(p)
            g.set_edge(node_of[i], node_of[j], self.sig.colours[e])
            if y != YELLOW_NONE:
                g.set_yellow((node_of[i], node_of[j]), self.sig.shades[y])
        return blocks, g

    def atom_of_tuple(self, graph: ColouredGraph, delta: Sequence[int]) -> int:
        """Packed atom code of the pullback of the ambient graph along delta."""
        kid = KERNEL_EQ.index(tuple(delta[i] == delta[j] for i, j in PAIRS))
        pairs = {}
        for i, j in PAIRS:
            u, v = delta[i], delta[j]
            if u == v:
                continue
            colour = graph.edge(u, v)
            if colour is None:
                raise ValueError(f"edge ({u},{v}) unlabelled")
            e, y = self.sig.colour_index[colour], YELLOW_NONE
            if green_free(graph, (u, v)):
                S = graph.yellow((u, v))
                if S is None:
                    raise ValueError(f"pair ({u},{v}) missing its yellow label")
                y = sum(1 << t for t in S)
            pairs[(i, j)] = pair_value(e, y)
        return pack_atom(kid, pairs)

    def first_atoms(self, limit: int) -> list:
        """Code, kernel blocks and quotient graph of the first `limit` atoms."""
        sample = []
        for code in self.codes[:limit]:
            blocks, g = self.graph_of(int(code))
            sample.append({"code": int(code), "kernel": [list(b) for b in blocks],
                           "graph": g.to_json()})
        return sample

    def valid_atom(self, code: int) -> Verdict:
        _, g = self.graph_of(code)
        return is_valid_coloured_graph(g)


def enumerate_atoms(sig: RainbowSignature) -> AtomTable:
    """All surjections onto valid coloured graphs of size <= n, quotiented
    by label agreement, in canonical packed-code order (n = 3 only)."""
    return AtomTable(sig)


# -- atom structure and its lazy complex algebra ------------------------------


def _unpack(words: np.ndarray) -> np.ndarray:
    """The bits of each row of a (rows x W) word matrix, as rows x W*WORD
    bools, bit c of a row in column c."""
    octets = np.ascontiguousarray(words, dtype="<u8").view(np.uint8)
    return np.unpackbits(octets, axis=1, bitorder="little").view(bool)


def _pack(bits: np.ndarray) -> np.ndarray:
    """The inverse of _unpack."""
    return np.packbits(bits, axis=1, bitorder="little").view("<u8").astype(np.uint64)


class ElementLayout:
    """Where an element of the complex algebra keeps each atom: a flat
    uint64 buffer of width-class panels, built from the table's group
    bounds and axis-0 blocks.

    A group (equal `group_of`) of L atoms is one row of -(-L // WORD)
    words, its c-th atom bit c % WORD of word c // WORD; only a row's last
    word has padding. A panel holds the rows of one word count in code
    order, F-ordered, so each of its word columns is contiguous; panels
    follow each other by word count. `bounds` are the table's group bounds
    (intp), `order` the group of each row (intp), and `panels` (words, lo,
    hi, off) says that rows lo to hi - 1 fill the buffer's words off to
    off + words * (hi - lo) - 1, of `size` words in all. `one` sets the
    bit of every atom and no padding bit.

    An axis-0 block has one width, so its rows are a run of one panel:
    `block_rows` is the first row of each block in row order (intp),
    `block_spans` each panel's run of blocks in it, `by_key` the stable
    sort of those blocks by key row and `key_cuts` where each key row's
    run starts in it, `key_row` the key row of each row, and `keys` the
    key rows (`RainbowStructure.blocks`) as intp. Every table is
    read-only.
    """

    def __init__(self, bounds: np.ndarray, blocks: tuple):
        self.bounds = _read_only(bounds.astype(np.intp))
        widths = np.diff(self.bounds)
        words = -(-widths // WORD)
        self.order = _read_only(np.argsort(words, kind="stable"))
        panels, lo, off = [], 0, 0
        for w, count in enumerate(np.bincount(words).tolist()):
            if count:
                panels.append((w, lo, lo + count, off))
                lo, off = lo + count, off + w * count
        self.panels, self.size = tuple(panels), off
        one = np.full(self.size, ~np.uint64(0))
        for (w, lo, hi, _), view in zip(self.panels, self.split(one)):
            view[-1] >>= (WORD * w - widths[self.order[lo:hi]]).astype(np.uint64)
        self.one = _read_only(one)
        starts, key_rows, keys = blocks
        row = np.empty_like(self.order)
        row[self.order] = np.arange(len(row))
        by_row = np.argsort(row[starts])
        self.block_rows = _read_only(row[starts[by_row]])
        self.block_spans = tuple(tuple(self.block_rows.searchsorted((lo, hi)).tolist())
                                 for _, lo, hi, _ in self.panels)
        key_rows = key_rows[by_row]
        self.by_key = _read_only(np.argsort(key_rows, kind="stable"))
        self.key_cuts = _read_only(np.flatnonzero(np.diff(key_rows[self.by_key], prepend=-1)))
        self.key_row = _read_only(np.repeat(key_rows, np.diff(self.block_rows, append=len(row))))
        self.keys = _read_only(keys.astype(np.intp))

    def split(self, flat: np.ndarray) -> list:
        """The panels of a flat element, each a (words x rows) view."""
        return [flat[off:off + w * (hi - lo)].reshape(w, hi - lo)
                for w, lo, hi, off in self.panels]

    def locate(self, p) -> Tuple[int, int]:
        """(word, bit) of canonical atom p in the buffer; a negative p
        counts from the end, as a numpy index does."""
        bounds = self.bounds
        n = int(bounds[-1])
        p = operator.index(p)
        if not -n <= p < n:
            raise IndexError(f"atom {p} is out of range for {n} atoms")
        p %= n
        g = int(bounds.searchsorted(p, side="right")) - 1
        c = p - int(bounds[g])
        words = -(-int(bounds[g + 1] - bounds[g]) // WORD)
        _, lo, hi, off = next(panel for panel in self.panels if panel[0] == words)
        return off + c // WORD * (hi - lo) + int(self.order[lo:hi].searchsorted(g)), c % WORD

    def atom_views(self, flags: np.ndarray, bits: list):
        """Pairs of views, one pair per axis-0 block: its atoms' stretch of
        flags (one bool per atom in canonical order) as (groups x width),
        and the same atoms in bits (one bool per bit of a panel's rows, rows
        x words * WORD, as `_unpack` gives them)."""
        for (_, lo, hi, _), (a, b), panel in zip(self.panels, self.block_spans, bits):
            rows = self.block_rows[a:b]
            ends = np.append(rows[1:], hi)
            firsts = self.bounds[self.order[rows]]
            lasts = self.bounds[self.order[rows] + ends - rows]
            for r, end, first, last in zip(*(t.tolist() for t in (rows, ends, firsts, lasts))):
                width = (last - first) // (end - r)
                yield flags[first:last].reshape(end - r, width), panel[r - lo:end - lo, :width]


class PackedElement(np.ndarray):
    """An element of RainbowComplexAlgebra: its flat uint64 buffer, laid
    out as `layout` (the structure's `ElementLayout`) says.

    x[p] with an integer p is whether x holds canonical atom p; every
    other index is numpy's. `layout` is carried through numpy's
    operations.
    """

    layout = None

    def __array_finalize__(self, obj):
        self.layout = getattr(obj, "layout", None)

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)) and not isinstance(key, bool) \
                and self.layout is not None:
            word, bit = self.layout.locate(key)
            return bool(np.ndarray.__getitem__(self, word) >> bit & 1)
        return super().__getitem__(key)


class RainbowStructure:
    """Atom structure of the finite rainbow algebra at n = 3.

    T_i relates atoms agreeing on the pair away from i, so the i-th
    cylindrifier key of an atom is literally the pXY field opposite i;
    E_ij holds when the kernel identifies i and j; the interior relations
    are the identity.

    The key fields (uint16) and the diagonal masks are in canonical atom
    order, expanded from the layout on each call and kept by the caller:
    a diagonal mask repeats one verdict per kernel over the kernel's run
    of codes. The complex algebra's tables are `rows` (the element
    layout, its width-class panels and the tables c_0 reads), `row_keys`
    of axes 1 and 2 and the axis-0 `blocks`. They are taken from the
    bounds and blocks the table emits with its codes, so none scans the
    codes; rows and row keys are built on first use, one at a time, and
    kept. Every table is read-only.
    """

    def __init__(self, table: AtomTable):
        self.table = table
        self.sig = table.sig
        self.dim = 3
        self.codes = table.codes
        self.num_atoms = table.count
        self._rows = None
        self._row_keys = {}

    def key_field(self, i: int) -> np.ndarray:
        """Packed pair-data away from index i for every atom (uint16): on
        axes 1 and 2 each group's key repeated over its width, on axis 0
        each block's key row written over its groups."""
        if i not in range(self.dim):
            raise KeyError(i)
        bounds = self.table.bounds
        if i:
            keys = key_of(i, self.codes[bounds[:-1]]).astype(np.uint16)
            return _read_only(np.repeat(keys, np.diff(bounds)))
        return _read_only(_emit(bounds, self.table.blocks, np.uint16))

    def rows(self) -> ElementLayout:
        """The element layout (`ElementLayout`): built from the table's
        bounds and blocks on first use, once per structure, and kept; it
        says which words of an element hold which group's atoms, and holds
        `one` and the tables c_0 reads."""
        if self._rows is None:
            self._rows = ElementLayout(self.table.bounds, self.table.blocks)
        return self._rows

    def row_keys(self, i: int) -> np.ndarray:
        """The i-th key of each row of the element layout (intp, in row
        order), for an axis i on which the atoms of a group share their
        key: 1 or 2."""
        if i not in self._row_keys:
            layout = self.rows()
            keys = key_of(i, self.codes[layout.bounds[layout.order]])
            self._row_keys[i] = _read_only(keys.astype(np.intp))
        return self._row_keys[i]

    def blocks(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(starts, rows, keys) of the axis-0 blocks in code order.

        A block is a maximal stretch of groups that list the same axis-0
        keys. starts (intp) is each block's first group in code order, and
        rows (intp) is the index of its key row in keys, the distinct key
        rows (int16, WORD times the most words of a group columns): column
        c holds the key of the c-th atom, and PAIR_SLOTS past the group's
        width. They are the table's.
        """
        return self.table.blocks

    def groups(self, i: int) -> np.ndarray:
        """T_i class id of every atom: its key field, a value below PAIR_SLOTS.

        The ids are not compact (most of the PAIR_SLOTS values are unused),
        so ``max() + 1`` is only good as a ``bincount`` ``minlength``.
        """
        return self.key_field(i)

    # the i-th cylindrifier key of one atom, as in key_field
    key_of_code = staticmethod(key_of)

    def ti_related(self, i: int, a_code: int, b_code: int) -> bool:
        return bool(self.key_of_code(i, a_code) == self.key_of_code(i, b_code))

    def diagonal_kernels(self, i: int, j: int) -> np.ndarray:
        """Whether each kernel of KERNELS lies below d_ij, identifying i
        and j (bool); every kernel lies below d_ii."""
        if not (0 <= i < self.dim and 0 <= j < self.dim):
            raise IndexOutOfRange(f"diagonal ({i},{j}) outside dimension")
        return np.array([i == j or eq[PAIRS.index((min(i, j), max(i, j)))] for eq in KERNEL_EQ])

    def diag_mask(self, i: int, j: int) -> np.ndarray:
        below = self.diagonal_kernels(i, j)
        # each kernel's atoms are one run of codes, from slot(len(PAIRS), kid) on
        kids = np.arange(len(KERNELS) + 1, dtype=self.codes.dtype)
        bounds = np.searchsorted(self.codes, slot(len(PAIRS), kids))
        return _read_only(np.repeat(below, np.diff(bounds)))

    def _position(self, code: int) -> int:
        """Where code sits in the table, or -1 if it is not an atom."""
        codes = self.codes
        if not 0 <= code < CODE_END:
            return -1
        pos = int(codes.searchsorted(codes.dtype.type(code)))
        return pos if pos < self.num_atoms and codes[pos] == code else -1

    def index_of(self, code: int) -> int:
        pos = self._position(code)
        if pos < 0:
            raise KeyError(f"{code} is not an atom")
        return pos

    def is_atom(self, code: int) -> bool:
        return self._position(code) >= 0

    def cm(self) -> "RainbowComplexAlgebra":
        return RainbowComplexAlgebra(self)

    def to_json_head(self, limit: int = 16) -> dict:
        return {
            "dim": self.dim,
            "atoms": self.num_atoms,
            "interior": ["identity"] * self.dim,
            "first_atoms": self.table.first_atoms(limit),
        }


def build_atom_structure(sig: RainbowSignature) -> RainbowStructure:
    return RainbowStructure(enumerate_atoms(sig))


class RainbowComplexAlgebra(bao.Algebra):
    """Lazy complex algebra over the rainbow structure.

    An element is a PackedElement: one bit per atom in the flat word buffer
    of `RainbowStructure.rows()`, one width-class panel after another, and
    every padding bit is 0. x[p] with an integer p reads canonical atom p,
    and `flags` and `element` convert between an element and one bool per
    atom in canonical order. plus, times, minus and eq are one word
    operation over the buffer, and ``random_element`` draws a (5 x groups)
    word matrix, gathers each panel's words from it and clears the padding.
    ``cyl`` marks the T_i classes (key values) an element meets in a
    PAIR_SLOTS-entry table and writes the table back, panel by panel: on
    axes 1 and 2 a row's one key is met when the row has a nonzero word,
    and whole rows are written back; on axis 0 the rows of each block are
    ORed, the block results are ORed by key row (sorted by key row, one
    reduceat), each key row is read at its bits, and each key row's packed
    verdict is written over its blocks' rows. zero, one and the diagonals
    are cached and read-only; the layout is built on the first call that
    reads it, not by cm().
    """

    def __init__(self, structure: RainbowStructure):
        self.structure = structure
        self.dim = structure.dim
        self._dg = {}

    def _element(self, a: np.ndarray) -> PackedElement:
        x = a.view(PackedElement)
        x.layout = self.structure.rows()
        return x

    def _rows_where(self, keep: np.ndarray) -> PackedElement:
        """The element holding every atom of the rows where keep is set."""
        layout = self.structure.rows()
        words = keep.astype(np.uint64)
        np.negative(words, out=words)   # every bit of a kept row's word, else 0
        out = np.empty(layout.size, dtype=np.uint64)
        for (_, lo, hi, _), view, one in zip(layout.panels, layout.split(out),
                                             layout.split(layout.one)):
            # only a row's last word has padding
            view[:-1] = words[lo:hi]
            np.bitwise_and(one[-1], words[lo:hi], out=view[-1])
        return self._element(out)

    @functools.cached_property
    def zero(self):
        return self._element(_read_only(np.zeros(self.structure.rows().size, dtype=np.uint64)))

    @functools.cached_property
    def one(self):
        return self._element(self.structure.rows().one)

    def eq(self, a, b):
        return np.array_equal(a, b)

    def plus(self, a, b):
        return a | b

    def times(self, a, b):
        return a & b

    def minus(self, a):
        return a ^ self.one

    def cyl(self, i, x):
        layout = self.structure.rows()
        x = np.asarray(x)
        if i in (1, 2):
            keys = self.structure.row_keys(i)
            met = np.empty(keys.shape, dtype=bool)
            for (_, lo, hi, _), view in zip(layout.panels, layout.split(x)):
                np.logical_or.reduce(view, axis=0, out=met[lo:hi])
            hit = np.zeros(PAIR_SLOTS, dtype=bool)
            hit[keys[met]] = True
            return self._rows_where(hit.take(keys))
        if i != 0:
            raise IndexOutOfRange(f"index {i} outside dimension {self.dim}")
        words = layout.panels[-1][0]
        blocks = np.zeros((words, len(layout.block_rows)), dtype=np.uint64)
        for (w, lo, _, _), (a, b), view in zip(layout.panels, layout.block_spans,
                                               layout.split(x)):
            np.bitwise_or.reduceat(view, layout.block_rows[a:b] - lo, axis=1,
                                   out=blocks[:w, a:b])
        met = np.bitwise_or.reduceat(blocks[:, layout.by_key], layout.key_cuts, axis=1)
        hit = np.zeros(PAIR_SLOTS + 1, dtype=bool)
        hit[layout.keys[_unpack(met.T)]] = True
        verdicts = _pack(hit[layout.keys]).T
        out = np.empty(layout.size, dtype=np.uint64)
        for (w, lo, hi, _), view in zip(layout.panels, layout.split(out)):
            np.take(verdicts[:w], layout.key_row[lo:hi], axis=1, out=view, mode="clip")
        return self._element(out)

    def dg(self, i, j):
        below = self.structure.diagonal_kernels(i, j)   # refuses i or j outside 0..2
        if i == j:
            return self.one
        key = (min(i, j), max(i, j))
        if key not in self._dg:
            layout = self.structure.rows()
            # a row's kernel is that of its first code
            below = below[kernel_of(self.structure.codes[layout.bounds[layout.order]])]
            self._dg[key] = _read_only(self._rows_where(below))
        return self._dg[key]

    def interior(self, i, x):
        if not 0 <= i < self.dim:
            raise IndexOutOfRange(f"index {i} outside dimension {self.dim}")
        return x

    def random_element(self, rng):
        layout = self.structure.rows()
        # the raw PCG64 words: NumPy keeps the bit stream of a seeded bit
        # generator fixed across releases, but not Generator.integers
        sub = np.random.default_rng(rng.randrange(1 << 32))
        words = sub.bit_generator.random_raw(size=(layout.panels[-1][0], len(layout.order)))
        out = np.empty(layout.size, dtype=np.uint64)
        for (w, lo, hi, _), view, one in zip(layout.panels, layout.split(out),
                                             layout.split(layout.one)):
            np.take(words[:w], layout.order[lo:hi], axis=1, out=view, mode="clip")
            view[-1] &= one[-1]
        return self._element(out)

    def atom_singleton(self, code: int):
        layout = self.structure.rows()
        word, bit = layout.locate(self.structure.index_of(code))
        x = np.zeros(layout.size, dtype=np.uint64)
        x[word] = 1 << bit
        return self._element(x)

    def flags(self, x) -> np.ndarray:
        """x as one bool per atom in canonical order; `element` inverts it."""
        layout = self.structure.rows()
        flags = np.empty(self.structure.num_atoms, dtype=bool)
        bits = [_unpack(view.T) for view in layout.split(np.asarray(x))]
        for atoms, row_bits in layout.atom_views(flags, bits):
            atoms[...] = row_bits
        return flags

    def element(self, flags) -> PackedElement:
        """The element holding the atoms flagged in canonical order."""
        layout = self.structure.rows()
        bits = [np.zeros((hi - lo, w * WORD), dtype=bool) for w, lo, hi, _ in layout.panels]
        for atoms, row_bits in layout.atom_views(np.asarray(flags, dtype=bool), bits):
            row_bits[...] = atoms
        return self._element(np.concatenate([_pack(b).T.ravel() for b in bits]))
