"""Concrete topological cylindric set algebras of finite dimension.

An n-tuple s over base 0..u-1 is encoded as the integer sum(s_i * u**i)
(little-endian in the index) and a TupleSet is an int bitmask over the
u**n codes. The hard cap u**n <= 2**24 keeps exhaustive operations in
memory.

Along axis k the codes with s_k = a form the axis mask masks[a], masks[0]
shifted up by a * u**k: shifting x down by a * u**k and masking with
masks[0] moves slice a onto slice 0, every k-fiber kept in place, so c_k,
I_k and the Chang box are a few shifts, ANDs and ORs of whole bitmasks.
The row repunit `rep` copies masks[0] into every row of a packed direct
power (see `bao`); one element has rep = 1.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Optional, Sequence, Tuple

from .errors import IndexOutOfRange, NoChangSystem, NoTopology, NotSubsetOfUnit, TooLarge
from .topology import FiniteTopology, coproduct, set_of

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


def chang_from_topology(t: FiniteTopology) -> ChangSystem:
    """Chang system of a topology: V(x) is the neighbourhood filter
    {A : x in int A}, the unique system whose boxes coincide with the
    interior operators (and the only one below the identity)."""
    return ChangSystem(t.size, [[a for a in range(1 << t.size) if t.interior_bits(a) >> x & 1]
                                for x in range(t.size)])


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
        if base_size < 1:
            raise ValueError("base size must be at least 1")
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
        self._axes = {}
        self._diags = {}

    def __eq__(self, other):
        return (
            isinstance(other, SetAlgebraSpace)
            and self.dim == other.dim
            and self.base_size == other.base_size
            and self.topology == other.topology
            and self.full_bits == other.full_bits
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
        """(stride, masks) for axis k: masks[a] holds the codes with s_k = a."""
        if not 0 <= k < self.dim:
            raise IndexOutOfRange(f"axis {k} outside dimension {self.dim}")
        if k not in self._axes:
            u = self.base_size
            stride = u ** k
            # low stride bits of every block of stride * u codes of the cube
            low = ((1 << stride) - 1) * (((1 << self.ncodes) - 1) // ((1 << stride * u) - 1))
            self._axes[k] = (stride, [low << a * stride for a in range(u)])
        return self._axes[k]

    def _slices(self, k: int, x: int, rep: int):
        """(stride, masks[0] replicated by rep, slice a of x moved onto
        slice 0 for every a) along axis k."""
        stride, masks = self._axis(k)
        low = masks[0] * rep
        return stride, low, [(x >> a * stride) & low for a in range(self.base_size)]

    def cyl_bits(self, k: int, x: int, rep: int = 1) -> int:
        """c_k on bits: fold every slice onto a = 0, then spread it back."""
        stride, _, fs = self._slices(k, x, rep)
        hit = 0
        for f in fs:
            hit |= f
        return sum(hit << a * stride for a in range(self.base_size))

    def interior_bits(self, k: int, x: int, rep: int = 1) -> int:
        """I_k on bits: slice a of the result is the AND of the slices of x
        at the points of the minimal neighbourhood of a."""
        if self.topology is None:
            raise NoTopology("space has no topology")
        stride, low, fs = self._slices(k, x, rep)
        out = 0
        for a, nb in enumerate(self.topology._minnbhd):
            y = low
            for b in set_of(nb):
                y &= fs[b]
            out |= y << a * stride
        return out

    def box_bits(self, k: int, x: int, rep: int = 1) -> int:
        """Chang box on bits: slice a of the result is the OR over the
        members F of V(a) of the fibers of x that equal F."""
        if self.chang is None:
            raise NoChangSystem("space has no Chang system")
        stride, low, fs = self._slices(k, x, rep)
        out = 0
        for a, family in enumerate(self.chang.families):
            y = 0
            for member in family:
                lit = low
                for b, f in enumerate(fs):
                    lit &= f if member >> b & 1 else low ^ f
                y |= lit
            out |= y << a * stride
        return out

    def diag_bits(self, i: int, j: int) -> int:
        """d_ij on bits, built once per space: the OR over points a of the
        codes with s_i = a and s_j = a."""
        if not (0 <= i < self.dim and 0 <= j < self.dim):
            raise IndexOutOfRange(f"diagonal indices ({i},{j}) outside dimension")
        if (i, j) not in self._diags:
            bits = 0
            for mi, mj in zip(self._axis(i)[1], self._axis(j)[1]):
                bits |= mi & mj
            self._diags[(i, j)] = bits
        return self._diags[(i, j)]

    # -- elements ----------------------------------------------------------

    def element(self, members: Iterable[Sequence[int]]) -> "TupleSet":
        bits = 0
        for s in members:
            if len(s) != self.dim or any(not 0 <= v < self.base_size for v in s):
                raise ValueError(f"tuple {s} does not fit the space")
            bits |= 1 << self.encode(s)
        stray = bits & ~self.full_bits
        if stray:
            raise NotSubsetOfUnit(f"tuples {sorted(TupleSet(self, stray).members())} "
                                  "lie outside the unit")
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
        """Every subset of the unit, in ascending order of bits."""
        bits = 0
        while True:
            yield TupleSet(self, bits)
            if bits == self.full_bits:
                return
            bits = (bits - self.full_bits) & self.full_bits


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
        """ValueError for an element of a generalized space: the document
        records the cube, so its unit would read back as the whole cube."""
        sp = self.space
        if sp.full_bits != (1 << sp.ncodes) - 1:
            raise ValueError("an element of a generalized space has no JSON form: "
                             "the document names only dim and base, so its unit "
                             "would read back as the whole cube")
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
    return TupleSet(x.space, x.space.cyl_bits(i, x.bits))


def diag(i: int, j: int, space: SetAlgebraSpace) -> TupleSet:
    """d_ij: tuples with s_i = s_j."""
    return TupleSet(space, space.diag_bits(i, j))


def interior_op(k: int, x: TupleSet, dual: bool = False) -> TupleSet:
    """I_k X (or Cl_k X = -I_k -X when dual): interior of the k-fiber, pointwise."""
    negate = x.space.full_bits if dual else 0
    return TupleSet(x.space, negate ^ x.space.interior_bits(k, negate ^ x.bits))


def box_op(k: int, x: TupleSet) -> TupleSet:
    """Chang box: s in the result iff the k-fiber of s belongs to V(s_k)."""
    return TupleSet(x.space, x.space.box_bits(k, x.bits))


def subst(tau: Sequence[int], x: TupleSet) -> TupleSet:
    """s in the unit is in the result iff s o tau is in x."""
    sp = x.space
    if len(tau) != sp.dim or any(not 0 <= v < sp.dim for v in tau):
        raise ValueError("tau must be a total transformation of the dimension")
    out = 0
    for code in range(sp.ncodes):
        s = sp.decode(code)
        t = tuple(s[tau[i]] for i in range(sp.dim))
        if x.bits >> sp.encode(t) & 1:
            out |= 1 << code
    return TupleSet(sp, out & sp.full_bits)


def replacement(i: int, j: int, dim: int) -> Tuple[int, ...]:
    """[i|j]: identity except i goes to j."""
    tau = list(range(dim))
    tau[i] = j
    return tuple(tau)


def _lifted(sp: SetAlgebraSpace, extra: int) -> SetAlgebraSpace:
    """sp in dimension dim+extra; a generalized space lifts summandwise."""
    if isinstance(sp, GeneralizedSpace):
        return GeneralizedSpace([_lifted(s, extra) for s in sp.summands])
    return SetAlgebraSpace(sp.dim + extra, sp.base_size, sp.topology, sp.chang)


def neat_lift(x: TupleSet, extra: int) -> TupleSet:
    """Cylinder over x in dimension dim+extra with the same base and
    topology, inside the lifted unit."""
    if extra < 1:
        raise ValueError("extra must be at least 1")
    sp = x.space
    big = _lifted(sp, extra)
    # one copy of x per block of sp.ncodes codes of the cube
    copies = ((1 << big.ncodes) - 1) // ((1 << sp.ncodes) - 1)
    return TupleSet(big, x.bits * copies & big.full_bits)


def dimension_set(x: TupleSet) -> frozenset:
    """Delta x = {i : c_i x != x}."""
    return frozenset(i for i in range(x.space.dim) if cyl(i, x).bits != x.bits)


# -- generalized set algebras ---------------------------------------------


class GeneralizedSpace(SetAlgebraSpace):
    """Disjoint summand spaces of equal dimension >= 2, as one space.

    The base is the union of the summand bases (summand i shifted by
    offsets[i]) with the coproduct topology, present only when every
    summand has a topology. The unit V (full_bits) is the union of the
    summand cubes, elements are TupleSets below V, and each operator is the
    cube kernel followed by one AND with V (Nemeti 1995). At dimension 1 the
    union of the cubes is one cube, so c_0 would join the summands: refused.
    """

    def __init__(self, summands: Sequence[SetAlgebraSpace]):
        if not summands:
            raise ValueError("at least one summand required")
        dim = summands[0].dim
        if any(s.dim != dim for s in summands):
            raise ValueError("summands must share a dimension")
        if dim < 2:
            raise ValueError("a generalized space needs dimension at least 2: at dimension 1 "
                             "the union of the summand cubes is one cube and c_0 joins the summands")
        self.summands = tuple(summands)
        self.offsets = [sum(s.base_size for s in summands[:i]) for i in range(len(summands))]
        tops = [s.topology for s in summands]
        super().__init__(dim, sum(s.base_size for s in summands),
                         None if any(t is None for t in tops) else coproduct(tops))
        # union code of each local code, per summand
        self._codes = [[self.encode([v + off for v in s.decode(c)]) for c in range(s.ncodes)]
                       for s, off in zip(summands, self.offsets)]
        self.full_bits = sum(1 << c for codes in self._codes for c in codes)

    def cyl_bits(self, k: int, x: int, rep: int = 1) -> int:
        return self.full_bits * rep & super().cyl_bits(k, x, rep)

    def interior_bits(self, k: int, x: int, rep: int = 1) -> int:
        outside = ((1 << self.ncodes) - 1) & ~self.full_bits
        return self.full_bits * rep & super().interior_bits(k, x | outside * rep, rep)

    def diag_bits(self, i: int, j: int) -> int:
        return self.full_bits & super().diag_bits(i, j)


def decompose_generalized(g: GeneralizedSpace, x: TupleSet) -> Tuple[TupleSet, ...]:
    """X maps to (X intersected with each summand's cube), in local codes."""
    if x.space != g:
        raise NotSubsetOfUnit("element does not live in this generalized space")
    return tuple(TupleSet(s, sum(1 << c for c, u in enumerate(codes) if x.bits >> u & 1))
                 for s, codes in zip(g.summands, g._codes))
