"""Syntax and finite-model semantics for S4 and S4C.

Formulas are tagged tuples: ("atom", k), ("not", f), ("and", f, g),
("or", f, g), ("imp", f, g), ("I", f) for the interior box and ("X", f)
for the temporal next. The one table SYNTAX gives each connective's symbol,
tag, JSON name and binding power, and the tokenizer, the parser, the printer
and the JSON reader and writer all read it. One walker evaluates every
semantics. A satisfaction set is an int bitmask over the points of one
model, or, for a batch, a bool array (V, size) with one row per valuation,
or, in the countermodel search, a uint8 array of point masks with one entry
per frame and valuation. `~` on an int or a uint8 also sets every bit above
the base, so those results are masked once with `full &`. The interiors are
stated once, `FiniteTopology.interior_bits` and `_kripke_interior_bits`;
batches and the search read them through cached per-frame tables, and
`topology.FRAME_SIZE_CAP` bounds the search.
"""

from __future__ import annotations

import itertools
import operator
import random
import re
from functools import lru_cache, partial
from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from .errors import NotContinuous, SizeTooLarge
from .topology import (
    FRAME_SIZE_CAP,
    FiniteTopology,
    Preorder,
    bits_of,
    enumerate_preorders,
    enumerate_topologies,
    set_of,
)

Formula = tuple

# The formula syntax: symbol -> (tag, JSON name, binding power). Power 0
# marks a prefix, which binds tighter than every binary connective; `->` is
# the only binary connective that groups to the right.
SYNTAX = {
    "~": ("not", "not", 0),
    "I": ("I", "I", 0),
    "X": ("X", "X", 0),
    "&": ("and", "and", 3),
    "|": ("or", "or", 2),
    "->": ("imp", "implies", 1),
}
RIGHT_GROUPING = {"->"}
BINARY = {tag for tag, _, power in SYNTAX.values() if power}
_POWER = {sym: power for sym, (_, _, power) in SYNTAX.items() if power}
_SYMBOL = {tag: sym for sym, (tag, _, _) in SYNTAX.items()}
_JSON_NAME = {tag: name for tag, name, _ in SYNTAX.values()}
_TAG = {name: tag for tag, name in _JSON_NAME.items()}


def atom(k: int) -> Formula:
    return ("atom", k)


def neg(f: Formula) -> Formula:
    return ("not", f)


def atoms_of(f: Formula) -> frozenset:
    if f[0] == "atom":
        return frozenset([f[1]])
    return frozenset().union(*(atoms_of(g) for g in f[1:]))


def modal_depth(f: Formula) -> int:
    """Nesting depth counting only I and X."""
    if f[0] == "atom":
        return 0
    sub = max(modal_depth(g) for g in f[1:])
    return sub + 1 if f[0] in ("I", "X") else sub


# -- text syntax ---------------------------------------------------------


def parse(text: str) -> Formula:
    """Parse atoms `p0, p1, ...`, the connectives of SYNTAX and parentheses
    by precedence climbing."""
    toks = _tokenize(text) + [None]  # None ends the input
    pos = 0

    def operand():
        """An atom, a prefix and its operand, or a parenthesised formula."""
        nonlocal pos
        tok = toks[pos]
        pos += 1
        if tok == "(":
            inner = climb(1)
            if toks[pos] != ")":
                raise SyntaxError(f"expected ')', got {toks[pos]!r} in {text!r}")
            pos += 1
            return inner
        if tok in SYNTAX and tok not in _POWER:
            return (SYNTAX[tok][0], operand())
        if tok is not None and tok[0] == "p":
            return ("atom", int(tok[1:]))
        raise SyntaxError(f"unexpected token {tok!r} in {text!r}")

    def climb(least: int) -> Formula:
        """Operands joined by binary connectives of power at least `least`."""
        nonlocal pos
        lhs = operand()
        while _POWER.get(toks[pos], 0) >= least:
            sym = toks[pos]
            pos += 1
            power = _POWER[sym]
            lhs = (SYNTAX[sym][0], lhs, climb(power if sym in RIGHT_GROUPING else power + 1))
        return lhs

    out = climb(1)
    if toks[pos] is not None:
        raise SyntaxError(f"trailing tokens in {text!r}")
    return out


# a token after optional space, or the first character that starts none
_TOKEN = re.compile(r"\s*(?:(p\d+|[()]|%s)|(\S))"
                    % "|".join(map(re.escape, sorted(SYNTAX, key=len, reverse=True))))


def _tokenize(text: str) -> list:
    toks = []
    for m in _TOKEN.finditer(text):
        tok, bad = m.groups()
        if bad == "p":
            raise SyntaxError(f"atom needs an index at {m.start(2)} in {text!r}")
        if bad is not None:
            raise SyntaxError(f"bad character {bad!r} in {text!r}")
        toks.append(tok)
    return toks


def unparse(f: Formula) -> str:
    if f[0] == "atom":
        return f"p{f[1]}"
    if f[0] in BINARY:
        return f"({unparse(f[1])} {_SYMBOL[f[0]]} {unparse(f[2])})"
    return _SYMBOL[f[0]] + unparse(f[1])


def to_json(f: Formula) -> dict:
    if f[0] == "atom":
        return {"op": "atom", "index": f[1]}
    if f[0] in BINARY:
        return {"op": _JSON_NAME[f[0]], "lhs": to_json(f[1]), "rhs": to_json(f[2])}
    return {"op": _JSON_NAME[f[0]], "arg": to_json(f[1])}


def from_json(doc: dict) -> Formula:
    if doc["op"] == "atom":
        return atom(doc["index"])
    tag = _TAG[doc["op"]]
    if tag in BINARY:
        return (tag, from_json(doc["lhs"]), from_json(doc["rhs"]))
    return (tag, from_json(doc["arg"]))


# -- models --------------------------------------------------------------


def _index(value) -> int:
    """value as an int; true and false are not points or bitmasks."""
    if type(value) is bool:
        raise TypeError("a boolean is not an index")
    return operator.index(value)


def _clean_valuation(valuation: Dict[int, Iterable], size: int) -> Dict[int, int]:
    out = {}
    for k, pts in valuation.items():
        try:
            out[k] = (bits_of(map(_index, pts), size) if hasattr(pts, "__iter__")
                      else _index(pts))
        except TypeError:
            raise ValueError(f"valuation of p{k} is not a bitmask or a list of points") from None
        if out[k] >> size:
            raise ValueError(f"valuation of p{k} not a subset of the base")
    return out


class TopoModel:
    def __init__(self, topology: FiniteTopology, valuation: Dict[int, Iterable]):
        self.topology = topology
        self.valuation = _clean_valuation(valuation, topology.size)


class KripkeModel:
    def __init__(self, preorder: Preorder, valuation: Dict[int, Iterable]):
        self.preorder = preorder
        self.valuation = _clean_valuation(valuation, preorder.size)


class DynamicModel:
    def __init__(self, topology: FiniteTopology, f: Iterable[int], valuation):
        fmap = tuple(f)
        if len(fmap) != topology.size or any(
            not 0 <= v < topology.size for v in fmap
        ):
            raise ValueError("f must be a total map on the base")
        if not is_continuous(topology, fmap):
            raise NotContinuous("f is not continuous for the given topology")
        self.topology = topology
        self.f = fmap
        self.valuation = _clean_valuation(valuation, topology.size)


def _preimage_bits(fmap, bits: int) -> int:
    out = 0
    for x, y in enumerate(fmap):
        if bits >> y & 1:
            out |= 1 << x
    return out


def is_continuous(t: FiniteTopology, f) -> bool:
    """Preimage of every open is open."""
    fmap = tuple(f)
    return all(t.is_open_bits(_preimage_bits(fmap, o)) for o in t.opens)


def _eval(f: Formula, val, zero, interior, preimage=None):
    """Satisfaction set of f from `~`, `&`, `|` and the caller's operators,
    on either element type of the module docstring; absent atoms are `zero`.
    Int callers mask the result: `interior` and `preimage` only read bits
    of the base, so the bits `~` sets above it never reach the base."""
    op = f[0]
    if op == "atom":
        return val.get(f[1], zero)
    a = _eval(f[1], val, zero, interior, preimage)
    if op == "not":
        return ~a
    if op == "I":
        return interior(a)
    if op == "X":
        if preimage is None:
            raise ValueError("NEXT is only meaningful in dynamic models")
        return preimage(a)
    if op not in BINARY:
        raise ValueError(f"bad formula node {op!r}")
    b = _eval(f[2], val, zero, interior, preimage)
    if op == "and":
        return a & b
    if op == "or":
        return a | b
    return ~a | b


def _kripke_interior_bits(up, sat):
    """Points all of whose successors lie in sat, elementwise: sat and each
    successor mask up[x] may be arrays, e.g. over point-sets and frames. On
    no points every entry of sat has the empty interior."""
    out = sat & 0
    for x, succ in enumerate(up):
        out = out | (succ & ~sat == 0) << x
    return out


def eval_topo(m: TopoModel, f: Formula) -> frozenset:
    full = (1 << m.topology.size) - 1
    return set_of(full & _eval(f, m.valuation, 0, m.topology.interior_bits))


def eval_kripke(m: KripkeModel, f: Formula) -> frozenset:
    full = (1 << m.preorder.size) - 1
    sat = _eval(f, m.valuation, 0, partial(_kripke_interior_bits, m.preorder.up))
    return set_of(full & sat)


def eval_dynamic(m: DynamicModel, f: Formula) -> frozenset:
    full = (1 << m.topology.size) - 1
    sat = _eval(f, m.valuation, 0, m.topology.interior_bits, partial(_preimage_bits, m.f))
    return set_of(full & sat)


# -- batched evaluation (one pass over many valuations) ------------------


@lru_cache(maxsize=None)
def _interior_rows(frame) -> np.ndarray:
    """Bool row s: the interior of point-set s in `frame`, a topology
    (`interior_bits`) or a preorder (`_kripke_interior_bits`)."""
    sets = np.arange(1 << frame.size)
    masks = (np.vectorize(frame.interior_bits)(sets) if isinstance(frame, FiniteTopology)
             else _kripke_interior_bits(frame.up, sets))
    rows = (masks[:, None] >> np.arange(frame.size) & 1).astype(bool)
    rows.flags.writeable = False
    return rows


def _eval_rows(frame, vals: Dict[int, np.ndarray], f: Formula) -> np.ndarray:
    """Both batch evaluators: a row's interior is the row of its point-set
    in the frame's cached interior rows."""
    rows = _interior_rows(frame)
    zero = np.zeros_like(next(iter(vals.values()), rows[:1]))
    return _eval(f, vals, zero, lambda sat: rows[sat @ (1 << np.arange(frame.size))])


def eval_kripke_batch(p: Preorder, vals: Dict[int, np.ndarray], f: Formula) -> np.ndarray:
    """vals maps atom -> bool array (V, size); returns bool array (V, size)."""
    return _eval_rows(p, vals, f)


def eval_topo_batch(t: FiniteTopology, vals: Dict[int, np.ndarray], f: Formula) -> np.ndarray:
    """vals maps atom -> bool array (V, size); returns bool array (V, size)."""
    return _eval_rows(t, vals, f)


# -- countermodel search --------------------------------------------------

# frame x valuation cells evaluated at once: bounds the search's arrays and
# keeps its early exit close to the first refuting frame
_BLOCK_CELLS = 1 << 15


@lru_cache(maxsize=None)
def _frame_table(size: int, mode: str) -> Tuple[tuple, np.ndarray]:
    """Every frame of one size, in enumeration order, and their interior
    table: row k, column s is the interior of point-set s in the k-th
    topology (`FiniteTopology.interior_bits`) or the k-th preorder (one
    `_kripke_interior_bits` call over every preorder's successor columns).
    The table is read-only: the cache hands the same array to every search."""
    if mode == "topo":
        frames = tuple(enumerate_topologies(size))
        rows = [[t.interior_bits(s) for s in range(1 << size)] for t in frames]
    else:
        frames = tuple(enumerate_preorders(size))
        up = np.array([p.up for p in frames]).T[:, :, None]
        rows = _kripke_interior_bits(up, np.arange(1 << size))
    table = np.array(rows, dtype=np.uint8)
    table.flags.writeable = False
    return frames, table


# node budget of random_formula's tree: Boolean connectives do not consume
# modal depth, so the depth alone does not bound the tree
RANDOM_FORMULA_NODES = 24


def random_formula(rng: random.Random, atom_count: int, depth: int,
                   allow_next=False) -> Formula:
    """Random formula with modal depth at most `depth` and at most about
    RANDOM_FORMULA_NODES nodes."""
    ops = ["atom", "not", "and", "or", "imp"]
    modal = ["I", "X"] if allow_next else ["I"]
    budget = [RANDOM_FORMULA_NODES]

    def gen(d):
        budget[0] -= 1
        if budget[0] <= 0:
            return atom(rng.randrange(atom_count))
        op = rng.choice(ops + (modal if d > 0 else []))
        if op == "atom":
            return atom(rng.randrange(atom_count))
        if op in ("I", "X"):
            return (op, gen(d - 1))
        if op == "not":
            return neg(gen(d))
        return (op, gen(d), gen(d))

    return gen(depth)


def find_countermodel(
    f: Formula,
    max_size: int,
    mode: str = "topo",
    seed: int = 0,
    samples: int = 200,
) -> Optional[dict]:
    """Search models of size <= max_size for a point refuting f.

    Frames are tried in enumeration order, size by size; each is tried on
    every valuation of f's atoms when there are at most two, else on
    `samples` seeded draws taken frame by frame. The first refuting frame,
    its first refuting valuation and the highest refuted point win.
    Frames of one size are evaluated together, a block at a time, as
    lookups into that size's cached interior table (`_frame_table`); the
    blocking changes neither the order nor the draws. Returns
    {"model": ..., "point": p, "mode": mode} or None if no countermodel
    exists within the bound. Absence is not a validity proof.
    """
    if max_size < 1:
        raise ValueError(f"max_size must be at least 1, got {max_size}")
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    topo = mode == "topo"
    if max_size > FRAME_SIZE_CAP:
        raise SizeTooLarge(f"{mode} search capped at size {FRAME_SIZE_CAP}")
    alphabet = tuple(sorted(atoms_of(f)))
    exhaustive = len(alphabet) <= 2
    rng = random.Random(seed)
    for size in range(1, max_size + 1):
        frames, table = _frame_table(size, mode)
        space = 1 << size
        full = np.uint8(space - 1)
        if exhaustive:
            grid = np.array(list(itertools.product(range(space), repeat=len(alphabet))),
                            dtype=np.uint8)
        width = len(grid) if exhaustive else samples
        block = max(1, _BLOCK_CELLS // width)
        for start in range(0, len(table), block):
            rows = table[start:start + block]
            if exhaustive:
                cells = grid[None]  # one grid serves every frame of the block
            else:
                draws = [rng.randrange(space) for _ in range(len(rows) * width * len(alphabet))]
                cells = np.array(draws, dtype=np.uint8).reshape(len(rows), width, len(alphabet))
            vals = {a: cells[:, :, i] for i, a in enumerate(alphabet)}
            frame = np.arange(len(rows))[:, None]
            # every atom of f has a column, so no atom needs an empty element
            sat = _eval(f, vals, None, lambda s: rows[frame, full & s])
            refuted = np.broadcast_to(full & ~sat, (len(rows), width))
            hits = refuted != 0
            if hits.any():
                k = int(hits.any(axis=1).argmax())
                v = int(hits[k].argmax())
                val = {a: int(x) for a, x in zip(alphabet, cells[0 if exhaustive else k, v])}
                point = int(refuted[k, v]).bit_length() - 1
                model = (TopoModel if topo else KripkeModel)(frames[start + k], val)
                return {"model": model, "point": point, "mode": mode}
    return None
