"""Concrete topological cylindric set algebras of finite dimension.

An n-tuple s over base 0..u-1 is encoded as the integer sum(s_i * u**i)
(little-endian in the index) and a TupleSet is an int bitmask over the
u**n codes. The hard cap u**n <= 2**24 keeps exhaustive operations in
memory.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Optional, Sequence, Tuple

from .errors import IndexOutOfRange, NoChangSystem, NoTopology, NotSubsetOfUnit, TooLarge
from .topology import FiniteTopology, coproduct, make_topology

CODE_CAP = 1 << 24


class ChangSystem:
    """Per-point family of subsets of the base, no closure conditions."""

    __slots__ = ("base_size", "families")

    def __init__(self, base_size: int, families: Sequence[Iterable]):
        if len(families) != base_size:
            raise ValueError("one family per point required")
        fams = []
        full = (1 << base_size) - 1
        for fam in families:
            cur = set()
            for member in fam:
                m = member if isinstance(member, int) else _bits(member, base_size)
                if m & ~full:
                    raise ValueError("family member not a subset of the base")
                cur.add(m)
            fams.append(frozenset(cur))
        self.base_size = base_size
        self.families = tuple(fams)

    @staticmethod
    def from_topology(t: FiniteTopology) -> "ChangSystem":
        fams = []
        for x in range(t.size):
            fams.append(frozenset(
                a for a in range(1 << t.size) if t.interior_bits(a) >> x & 1
            ))
        return ChangSystem(t.size, fams)


def chang_from_topology(t: FiniteTopology) -> ChangSystem:
    """Chang system of a topology: V(x) is the neighbourhood filter
    {A : x in int A}, the unique system whose boxes coincide with the
    interior operators (and the only one below the identity)."""
    return ChangSystem.from_topology(t)


def _bits(points, size):
    m = 0
    for p in points:
        if not 0 <= p < size:
            raise ValueError(f"point {p} outside base")
        m |= 1 << p
    return m


class SetAlgebraSpace:
    """Ambient data of a full set algebra: dimension, base, optional topology/Chang."""

    def __init__(
        self,
        dim: int,
        base_size: int,
        topology: Optional[FiniteTopology] = None,
        chang: Optional[ChangSystem] = None,
    ):
        if dim < 1:
            raise ValueError("dimension must be at least 1")
        if topology is not None and topology.size != base_size:
            raise ValueError("topology size must equal the base size")
        if chang is not None and chang.base_size != base_size:
            raise ValueError("Chang system base must equal the base size")
        if base_size ** dim > CODE_CAP:
            raise TooLarge(f"u^n = {base_size ** dim} exceeds the cap {CODE_CAP}")
        self.dim = dim
        self.base_size = base_size
        self.topology = topology
        self.chang = chang
        self.ncodes = base_size ** dim
        self.full_bits = (1 << self.ncodes) - 1
        self._fibers = {}
        self._int_tables = {}
        self._diags = {}

    def __eq__(self, other):
        return (
            isinstance(other, SetAlgebraSpace)
            and self.dim == other.dim
            and self.base_size == other.base_size
            and self.topology == other.topology
            and (self.chang.families if self.chang else None)
            == (other.chang.families if other.chang else None)
        )

    def __hash__(self):
        return hash((self.dim, self.base_size, self.topology))

    # -- coding ----------------------------------------------------------

    def encode(self, s: Sequence[int]) -> int:
        code = 0
        for i in reversed(range(self.dim)):
            code = code * self.base_size + s[i]
        return code

    def decode(self, code: int) -> Tuple[int, ...]:
        out = []
        for _ in range(self.dim):
            out.append(code % self.base_size)
            code //= self.base_size
        return tuple(out)

    def tuples(self):
        return itertools.product(range(self.base_size), repeat=self.dim)

    def _axis(self, k: int):
        """(stride, rest_count, base codes) for fibers along axis k."""
        if not 0 <= k < self.dim:
            raise IndexOutOfRange(f"axis {k} outside dimension {self.dim}")
        if k not in self._fibers:
            u = self.base_size
            stride = u ** k
            rest = self.ncodes // u
            bases = []
            for r in range(rest):
                low = r % stride
                high = r // stride
                bases.append(low + high * stride * u)
            fibermasks = []
            for b in bases:
                m = 0
                for a in range(u):
                    m |= 1 << (b + a * stride)
                fibermasks.append(m)
            self._fibers[k] = (stride, bases, fibermasks)
        return self._fibers[k]

    def _interior_table(self, dual: bool):
        if self.topology is None:
            raise NoTopology("space has no topology")
        key = dual
        if key not in self._int_tables:
            t = self.topology
            table = []
            for m in range(1 << self.base_size):
                table.append(t.closure_bits(m) if dual else t.interior_bits(m))
            self._int_tables[key] = table
        return self._int_tables[key]

    # -- elements ----------------------------------------------------------

    def element(self, members: Iterable[Sequence[int]]) -> "TupleSet":
        bits = 0
        for s in members:
            if len(s) != self.dim or any(not 0 <= v < self.base_size for v in s):
                raise ValueError(f"tuple {s} does not fit the space")
            bits |= 1 << self.encode(s)
        return TupleSet(self, bits)

    def from_bits(self, bits: int) -> "TupleSet":
        if bits & ~self.full_bits:
            raise ValueError("bits outside the unit")
        return TupleSet(self, bits)

    def unit(self) -> "TupleSet":
        return TupleSet(self, self.full_bits)

    def empty(self) -> "TupleSet":
        return TupleSet(self, 0)

    def all_elements(self):
        for bits in range(self.full_bits + 1):
            yield TupleSet(self, bits)


class TupleSet:
    """An element of a set algebra: a set of dim-tuples as a code bitmask."""

    __slots__ = ("space", "bits")

    def __init__(self, space: SetAlgebraSpace, bits: int):
        self.space = space
        self.bits = bits

    def members(self):
        sp = self.space
        bits = self.bits
        code = 0
        while bits:
            if bits & 1:
                yield sp.decode(code)
            bits >>= 1
            code += 1

    def __eq__(self, other):
        return (
            isinstance(other, TupleSet)
            and self.space == other.space
            and self.bits == other.bits
        )

    def __hash__(self):
        return hash((self.space.dim, self.space.base_size, self.bits))

    def __and__(self, other):
        return TupleSet(self.space, self.bits & other.bits)

    def __or__(self, other):
        return TupleSet(self.space, self.bits | other.bits)

    def __sub__(self, other):
        return TupleSet(self.space, self.bits & ~other.bits)

    def complement(self):
        return TupleSet(self.space, self.space.full_bits & ~self.bits)

    def issubset(self, other):
        return self.bits & ~other.bits == 0

    def __repr__(self):
        return f"TupleSet({sorted(self.members())})"

    def to_json(self) -> dict:
        sp = self.space
        return {
            "dim": sp.dim,
            "base": sp.base_size,
            "topology": sp.topology.to_json() if sp.topology else None,
            "members": [c for c in range(sp.ncodes) if self.bits >> c & 1],
        }

    @staticmethod
    def from_json(doc: dict) -> "TupleSet":
        topo = FiniteTopology.from_json(doc["topology"]) if doc.get("topology") else None
        sp = SetAlgebraSpace(doc["dim"], doc["base"], topo)
        bits = 0
        for c in doc["members"]:
            bits |= 1 << c
        return sp.from_bits(bits)


# -- operations ----------------------------------------------------------


def cyl(i: int, x: TupleSet) -> TupleSet:
    """c_i X: close X under changing coordinate i."""
    sp = x.space
    _, _, fibermasks = sp._axis(i)
    out = 0
    for m in fibermasks:
        if x.bits & m:
            out |= m
    return TupleSet(sp, out)


def diag(i: int, j: int, space: SetAlgebraSpace) -> TupleSet:
    """d_ij: tuples with s_i = s_j."""
    if not (0 <= i < space.dim and 0 <= j < space.dim):
        raise IndexOutOfRange(f"diagonal indices ({i},{j}) outside dimension")
    if (i, j) not in space._diags:
        bits = 0
        for code in range(space.ncodes):
            s = space.decode(code)
            if s[i] == s[j]:
                bits |= 1 << code
        space._diags[(i, j)] = bits
    return TupleSet(space, space._diags[(i, j)])


def interior_op(k: int, x: TupleSet, dual: bool = False) -> TupleSet:
    """I_k X (or Cl_k X when dual): interior of the k-fiber, pointwise."""
    sp = x.space
    table = sp._interior_table(dual)
    stride, bases, _ = sp._axis(k)
    u = sp.base_size
    out = 0
    for b in bases:
        fiber = 0
        for a in range(u):
            if x.bits >> (b + a * stride) & 1:
                fiber |= 1 << a
        hit = table[fiber]
        for a in range(u):
            if hit >> a & 1:
                out |= 1 << (b + a * stride)
    return TupleSet(sp, out)


def box_op(k: int, x: TupleSet) -> TupleSet:
    """Chang box: s in the result iff the k-fiber of s belongs to V(s_k)."""
    sp = x.space
    if sp.chang is None:
        raise NoChangSystem("space has no Chang system")
    stride, bases, _ = sp._axis(k)
    u = sp.base_size
    out = 0
    for b in bases:
        fiber = 0
        for a in range(u):
            if x.bits >> (b + a * stride) & 1:
                fiber |= 1 << a
        for a in range(u):
            if fiber in sp.chang.families[a]:
                out |= 1 << (b + a * stride)
    return TupleSet(sp, out)


def subst(tau: Sequence[int], x: TupleSet) -> TupleSet:
    """s is in the result iff s o tau is in x."""
    sp = x.space
    if len(tau) != sp.dim or any(not 0 <= v < sp.dim for v in tau):
        raise ValueError("tau must be a total transformation of the dimension")
    out = 0
    for code in range(sp.ncodes):
        s = sp.decode(code)
        t = tuple(s[tau[i]] for i in range(sp.dim))
        if x.bits >> sp.encode(t) & 1:
            out |= 1 << code
    return TupleSet(sp, out)


def replacement(i: int, j: int, dim: int) -> Tuple[int, ...]:
    """[i|j]: identity except i goes to j."""
    tau = list(range(dim))
    tau[i] = j
    return tuple(tau)


def neat_lift(x: TupleSet, extra: int) -> TupleSet:
    """Cylinder over x in dimension dim+extra with the same base and topology."""
    if extra < 1:
        raise ValueError("extra must be at least 1")
    sp = x.space
    big = SetAlgebraSpace(sp.dim + extra, sp.base_size, sp.topology, sp.chang)
    block = sp.ncodes
    out = 0
    for h in range(big.ncodes // block):
        out |= x.bits << (h * block)
    return TupleSet(big, out)


def dimension_set(x: TupleSet) -> frozenset:
    """Delta x = {i : c_i x != x}."""
    return frozenset(i for i in range(x.space.dim) if cyl(i, x).bits != x.bits)


# -- generalized set algebras ---------------------------------------------


class GeneralizedSpace:
    """Disjoint summand spaces of equal dimension; unit is the union of units.

    Elements are stored per summand; the base conceptually carries the
    coproduct topology, realized by computing interiors summand-wise.
    """

    def __init__(self, summands: Sequence[SetAlgebraSpace]):
        if not summands:
            raise ValueError("at least one summand required")
        dim = summands[0].dim
        if any(s.dim != dim for s in summands):
            raise ValueError("summands must share a dimension")
        self.summands = tuple(summands)
        self.dim = dim
        self.offsets = []
        total = 0
        for s in summands:
            self.offsets.append(total)
            total += s.base_size
        self.total_base = total

    def element(self, parts: Sequence[TupleSet]) -> "GeneralizedElement":
        if len(parts) != len(self.summands):
            raise NotSubsetOfUnit("one part per summand required")
        for part, s in zip(parts, self.summands):
            if part.space is not s:
                raise NotSubsetOfUnit("part does not live in its summand space")
        return GeneralizedElement(self, tuple(p.bits for p in parts))

    def from_union_members(self, members: Iterable[Sequence[int]]) -> "GeneralizedElement":
        """Members are tuples over the union base (summand i shifted by offset i)."""
        parts = [0] * len(self.summands)
        for s in members:
            placed = False
            for idx, (space, off) in enumerate(zip(self.summands, self.offsets)):
                if all(off <= v < off + space.base_size for v in s):
                    local = tuple(v - off for v in s)
                    parts[idx] |= 1 << space.encode(local)
                    placed = True
                    break
            if not placed:
                raise NotSubsetOfUnit(f"tuple {s} mixes summand bases")
        return GeneralizedElement(self, tuple(parts))

    def unit(self):
        return GeneralizedElement(self, tuple(s.full_bits for s in self.summands))

    def empty(self):
        return GeneralizedElement(self, tuple(0 for _ in self.summands))

    def all_elements(self):
        ranges = [range(s.full_bits + 1) for s in self.summands]
        for combo in itertools.product(*ranges):
            yield GeneralizedElement(self, tuple(combo))

    def union_space(self) -> SetAlgebraSpace:
        """Materialized union base with the coproduct topology (oracle use)."""
        tops = []
        for s in self.summands:
            tops.append(s.topology or make_topology(s.base_size, preset="discrete"))
        return SetAlgebraSpace(self.dim, self.total_base, coproduct(tops))


class GeneralizedElement:
    __slots__ = ("gspace", "parts")

    def __init__(self, gspace: GeneralizedSpace, parts: Tuple[int, ...]):
        self.gspace = gspace
        self.parts = parts

    def __eq__(self, other):
        return (
            isinstance(other, GeneralizedElement)
            and self.gspace is other.gspace
            and self.parts == other.parts
        )

    def __hash__(self):
        return hash((id(self.gspace), self.parts))

    def _zip(self):
        return zip(self.gspace.summands, self.parts)

    def op(self, name, *args):
        out = []
        for space, bits in self._zip():
            x = TupleSet(space, bits)
            if name == "cyl":
                out.append(cyl(args[0], x).bits)
            elif name == "interior":
                out.append(interior_op(args[0], x).bits)
            else:
                raise ValueError(name)
        return GeneralizedElement(self.gspace, tuple(out))

    def __and__(self, other):
        return GeneralizedElement(
            self.gspace, tuple(a & b for a, b in zip(self.parts, other.parts))
        )

    def __or__(self, other):
        return GeneralizedElement(
            self.gspace, tuple(a | b for a, b in zip(self.parts, other.parts))
        )

    def complement(self):
        return GeneralizedElement(
            self.gspace,
            tuple(s.full_bits & ~b for s, b in self._zip()),
        )

    def union_members(self):
        for (space, bits), off in zip(self._zip(), self.gspace.offsets):
            x = TupleSet(space, bits)
            for t in x.members():
                yield tuple(v + off for v in t)


def gen_diag(i: int, j: int, g: GeneralizedSpace) -> GeneralizedElement:
    return GeneralizedElement(g, tuple(diag(i, j, s).bits for s in g.summands))


def decompose_generalized(g: GeneralizedSpace, x: GeneralizedElement) -> Tuple[TupleSet, ...]:
    """X maps to (X intersected with each summand's cartesian unit)."""
    if x.gspace is not g:
        raise NotSubsetOfUnit("element does not live in this generalized space")
    return tuple(TupleSet(space, bits) for space, bits in x._zip())
