"""Syntax and finite-model semantics for S4 and S4C.

Formulas are tagged tuples: ("atom", k), ("not", f), ("and", f, g),
("or", f, g), ("imp", f, g), ("I", f) for the interior box and ("X", f)
for the temporal next. One walker evaluates every semantics. A satisfaction
set is an int bitmask over the points of one model, or, for a batch, a bool
array (V, size) with one row per valuation. `~` on an int also sets every
bit above the base, so int results are masked once with `full &`.
"""

from __future__ import annotations

import itertools
import random
from functools import partial
from typing import Dict, Iterable, Optional

import numpy as np

from .errors import NotContinuous, SizeTooLarge
from .topology import (
    FiniteTopology,
    Preorder,
    bits_of,
    enumerate_preorders,
    enumerate_topologies,
    set_of,
)

Formula = tuple

BINARY = {"and", "or", "imp"}
UNARY = {"not", "I", "X"}


def atom(k: int) -> Formula:
    return ("atom", k)


def neg(f: Formula) -> Formula:
    return ("not", f)


def conj(f: Formula, g: Formula) -> Formula:
    return ("and", f, g)


def disj(f: Formula, g: Formula) -> Formula:
    return ("or", f, g)


def implies(f: Formula, g: Formula) -> Formula:
    return ("imp", f, g)


def box(f: Formula) -> Formula:
    return ("I", f)


def nxt(f: Formula) -> Formula:
    return ("X", f)


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


def uses_next(f: Formula) -> bool:
    if f[0] == "X":
        return True
    return any(uses_next(g) for g in f[1:] if isinstance(g, tuple))


# -- text syntax ---------------------------------------------------------


def parse(text: str) -> Formula:
    """Parse `p0, ~, &, |, ->, I, X` with parentheses; -> is right associative."""
    toks = _tokenize(text)
    pos = [0]

    def peek():
        return toks[pos[0]] if pos[0] < len(toks) else None

    def take(expected=None):
        tok = peek()
        if tok is None or (expected is not None and tok != expected):
            raise SyntaxError(f"expected {expected!r}, got {tok!r} in {text!r}")
        pos[0] += 1
        return tok

    def parse_imp():
        lhs = parse_or()
        if peek() == "->":
            take()
            return implies(lhs, parse_imp())
        return lhs

    def parse_or():
        lhs = parse_and()
        while peek() == "|":
            take()
            lhs = disj(lhs, parse_and())
        return lhs

    def parse_and():
        lhs = parse_unary()
        while peek() == "&":
            take()
            lhs = conj(lhs, parse_unary())
        return lhs

    def parse_unary():
        tok = peek()
        if tok == "~":
            take()
            return neg(parse_unary())
        if tok == "I":
            take()
            return box(parse_unary())
        if tok == "X":
            take()
            return nxt(parse_unary())
        if tok == "(":
            take()
            inner = parse_imp()
            take(")")
            return inner
        if tok is not None and tok.startswith("p"):
            take()
            return atom(int(tok[1:]))
        raise SyntaxError(f"unexpected token {tok!r} in {text!r}")

    out = parse_imp()
    if pos[0] != len(toks):
        raise SyntaxError(f"trailing tokens in {text!r}")
    return out


def _tokenize(text: str):
    toks = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
        elif c in "~&|()IX":
            toks.append(c)
            i += 1
        elif text.startswith("->", i):
            toks.append("->")
            i += 2
        elif c == "p":
            j = i + 1
            while j < len(text) and text[j].isdigit():
                j += 1
            if j == i + 1:
                raise SyntaxError(f"atom needs an index at {i} in {text!r}")
            toks.append(text[i:j])
            i = j
        else:
            raise SyntaxError(f"bad character {c!r} in {text!r}")
    return toks


def unparse(f: Formula) -> str:
    if f[0] == "atom":
        return f"p{f[1]}"
    if f[0] == "not":
        return f"~{unparse(f[1])}"
    if f[0] == "I":
        return f"I{unparse(f[1])}"
    if f[0] == "X":
        return f"X{unparse(f[1])}"
    op = {"and": "&", "or": "|", "imp": "->"}[f[0]]
    return f"({unparse(f[1])} {op} {unparse(f[2])})"


def to_json(f: Formula) -> dict:
    if f[0] == "atom":
        return {"op": "atom", "index": f[1]}
    if f[0] in UNARY:
        return {"op": f[0], "arg": to_json(f[1])}
    name = "implies" if f[0] == "imp" else f[0]
    return {"op": name, "lhs": to_json(f[1]), "rhs": to_json(f[2])}


def from_json(doc: dict) -> Formula:
    op = doc["op"]
    if op == "atom":
        return atom(doc["index"])
    if op in UNARY:
        return (op, from_json(doc["arg"]))
    tag = "imp" if op == "implies" else op
    return (tag, from_json(doc["lhs"]), from_json(doc["rhs"]))


# -- models --------------------------------------------------------------


def _clean_valuation(valuation: Dict[int, Iterable], size: int) -> Dict[int, int]:
    out = {}
    for k, pts in valuation.items():
        out[k] = pts if isinstance(pts, int) else bits_of(pts, size)
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


def _kripke_interior_bits(up, sat: int) -> int:
    """Points all of whose successors lie in sat."""
    out = 0
    for x, succ in enumerate(up):
        if succ & ~sat == 0:
            out |= 1 << x
    return out


def _bool_rows(masks, size: int) -> np.ndarray:
    """Bool matrix whose row r holds the bits of masks[r]."""
    return (np.array(masks)[:, None] >> np.arange(size) & 1).astype(bool)


def _topo_interior_array(t: FiniteTopology):
    """Union of the opens inside each row; the bool matmuls cannot overflow."""
    opens = _bool_rows(t.opens, t.size)
    return lambda sat: ~(~sat @ opens.T) @ opens


def _kripke_interior_array(p: Preorder):
    """Rows' points with no successor outside the row."""
    reach = _bool_rows(p.up, p.size)
    return lambda sat: ~(~sat @ reach.T)


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


def _empty_rows(vals: Dict[int, np.ndarray], size: int) -> np.ndarray:
    return np.zeros(next(iter(vals.values())).shape if vals else (1, size), dtype=bool)


def eval_kripke_batch(p: Preorder, vals: Dict[int, np.ndarray], f: Formula) -> np.ndarray:
    """vals maps atom -> bool array (V, size); returns bool array (V, size)."""
    return _eval(f, vals, _empty_rows(vals, p.size), _kripke_interior_array(p))


def eval_topo_batch(t: FiniteTopology, vals: Dict[int, np.ndarray], f: Formula) -> np.ndarray:
    """vals maps atom -> bool array (V, size); returns bool array (V, size)."""
    return _eval(f, vals, _empty_rows(vals, t.size), _topo_interior_array(t))


# -- countermodel search --------------------------------------------------

TOPO_SEARCH_CAP = 4
KRIPKE_SEARCH_CAP = 5


def random_formula(rng: random.Random, atom_count: int, depth: int,
                   allow_next=False, max_nodes: int = 24) -> Formula:
    """Random formula with modal depth at most `depth`; max_nodes bounds the
    tree since Boolean connectives do not consume modal depth."""
    ops = ["atom", "not", "and", "or", "imp"]
    modal = ["I", "X"] if allow_next else ["I"]
    budget = [max_nodes]

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

    Each frame is tried on every valuation of f's atoms when there are at
    most two, else on `samples` seeded draws, all in one array evaluation;
    the first refuting valuation and its highest refuted point win.
    Returns {"model": ..., "point": p, "mode": mode} or None if no
    countermodel exists within the bound. Absence is not a validity proof.
    """
    topo = mode == "topo"
    cap = TOPO_SEARCH_CAP if topo else KRIPKE_SEARCH_CAP
    if max_size > cap:
        raise SizeTooLarge(f"{mode} search capped at size {cap}")
    alphabet = tuple(sorted(atoms_of(f)))
    exhaustive = len(alphabet) <= 2
    interior_of = _topo_interior_array if topo else _kripke_interior_array
    rng = random.Random(seed)
    for size in range(1, max_size + 1):
        space = 1 << size
        if exhaustive:
            grid = np.array(list(itertools.product(range(space), repeat=len(alphabet))))
        for frame in enumerate_topologies(size) if topo else enumerate_preorders(size):
            if not exhaustive:
                draws = [rng.randrange(space) for _ in range(samples * len(alphabet))]
                grid = np.array(draws, dtype=np.int64).reshape(samples, len(alphabet))
            # every atom of f has a column, so no atom needs an empty element
            vals = {a: _bool_rows(grid[:, i], size) for i, a in enumerate(alphabet)}
            refuted = ~_eval(f, vals, None, interior_of(frame))
            hits = refuted.any(axis=1)
            if hits.any():
                row = int(hits.argmax())
                point = size - 1 - int(refuted[row, ::-1].argmax())
                val = {a: int(v) for a, v in zip(alphabet, grid[row])}
                model = TopoModel(frame, val) if topo else KripkeModel(frame, val)
                return {"model": model, "point": point, "mode": mode}
    return None
