"""Concrete topological cylindric set algebras of finite dimension.

An n-tuple s over base 0..u-1 is encoded as the integer sum(s_i * u**i)
(little-endian in the index). An element of a set algebra is a plain int
bitmask over the u**n codes, below the space's unit `full_bits`: the whole
cube for a full set algebra, the union of the summand cubes for a
generalized one. The hard cap u**n <= 2**24 keeps exhaustive operations in
memory.

The operators are the module functions `cyl`, `interior_op`, `box_op`,
`diag`, `subst` and `dimension_set`, each taking the space first. Along
axis k the codes with s_k = a form the axis mask masks[a], masks[0]
shifted up by a * u**k: shifting x down by a * u**k and masking with
masks[0] moves slice a onto slice 0, every k-fiber kept in place, so c_k,
I_k and the Chang box are a few shifts, ANDs and ORs of whole bitmasks,
relativized to the unit by one AND with it. The row repunit `rep` copies
masks[0] into every row of a packed direct power (see `bao`); one element
has rep = 1.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Optional, Sequence, Tuple

from .errors import (IndexOutOfRange, NoChangSystem, NoTopology, NotSubsetOfUnit, TooLarge,
                     json_field, json_ints, json_size)
from .topology import FiniteTopology, bits_of, coproduct, set_of

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
                m = member if isinstance(member, int) else bits_of(member, base_size)
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


class SetAlgebraSpace:
    """Ambient data of a set algebra: dimension, base, unit, optional
    topology/Chang system. `outside` holds the cube codes outside the unit
    (0 for a full set algebra)."""

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
        # with u >= 2, u^n exceeds the cap from n = 25 on: no larger power is built
        if base_size ** min(dim, CODE_CAP.bit_length()) > CODE_CAP:
            raise TooLarge(f"u^n = {base_size}^{dim} exceeds the cap {CODE_CAP}")
        self.dim = dim
        self.base_size = base_size
        self.topology = topology
        self.chang = chang
        self.ncodes = base_size ** dim
        self.full_bits = (1 << self.ncodes) - 1
        self.outside = 0
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

    # -- elements ----------------------------------------------------------

    def element(self, members: Iterable[Sequence[int]]) -> int:
        """The element holding the given tuples."""
        bits = 0
        for s in members:
            if len(s) != self.dim or any(not 0 <= v < self.base_size for v in s):
                raise ValueError(f"tuple {s} does not fit the space")
            bits |= 1 << self.encode(s)
        stray = bits & ~self.full_bits
        if stray:
            raise NotSubsetOfUnit(f"tuples {sorted(self.members(stray))} lie outside the unit")
        return bits

    def from_codes(self, codes: Iterable[int]) -> int:
        """The element holding the tuples of the given codes."""
        bits = 0
        for c in codes:
            if c < 0 or not self.full_bits >> c & 1:
                raise ValueError(f"code {c} outside the unit")
            bits |= 1 << c
        return bits

    def members(self, bits: int):
        """The tuples of an element, in ascending order of code."""
        return map(self.decode, sorted(set_of(bits)))

    def all_elements(self):
        """Every subset of the unit, in ascending order of bits."""
        bits = 0
        while True:
            yield bits
            if bits == self.full_bits:
                return
            bits = (bits - self.full_bits) & self.full_bits

    def to_json(self, bits: int) -> dict:
        """ValueError for a generalized space: the document records the
        cube, so its unit would read back as the whole cube."""
        if self.outside:
            raise ValueError("an element of a generalized space has no JSON form: "
                             "the document names only dim and base, so its unit "
                             "would read back as the whole cube")
        return {
            "dim": self.dim,
            "base": self.base_size,
            "topology": self.topology.to_json() if self.topology else None,
            "members": sorted(set_of(bits)),
        }

    @staticmethod
    def from_json(doc: dict) -> Tuple["SetAlgebraSpace", int]:
        """Inverse of to_json; a document of the wrong shape raises
        ValueError naming the field."""
        dim, base = (json_size(json_field(doc, dict, "a tuple set").get(name), f'"{name}"')
                     for name in ("dim", "base"))
        topo = doc.get("topology")
        sp = SetAlgebraSpace(dim, base, None if topo is None else FiniteTopology.from_json(topo))
        return sp, sp.from_codes(json_ints(doc.get("members"), '"members"'))


# -- operations ----------------------------------------------------------


def _slices(sp: SetAlgebraSpace, k: int, x: int, rep: int):
    """(stride, masks[0] replicated by rep, slice a of x moved onto slice 0
    for every a) along axis k."""
    stride, masks = sp._axis(k)
    low = masks[0] * rep
    return stride, low, [(x >> a * stride) & low for a in range(sp.base_size)]


def cyl(sp: SetAlgebraSpace, k: int, x: int, rep: int = 1) -> int:
    """c_k X: fold every slice onto a = 0, then spread it back."""
    stride, _, fs = _slices(sp, k, x, rep)
    hit = 0
    for f in fs:
        hit |= f
    return sp.full_bits * rep & sum(hit << a * stride for a in range(sp.base_size))


def interior_op(sp: SetAlgebraSpace, k: int, x: int, rep: int = 1) -> int:
    """I_k X: slice a of the result is the AND of the slices of X at the
    points of the minimal neighbourhood of a, codes outside the unit
    counted as members."""
    if sp.topology is None:
        raise NoTopology("space has no topology")
    stride, low, fs = _slices(sp, k, x | sp.outside * rep, rep)
    out = 0
    for a, nb in enumerate(sp.topology._minnbhd):
        y = low
        for b in set_of(nb):
            y &= fs[b]
        out |= y << a * stride
    return sp.full_bits * rep & out


def box_op(sp: SetAlgebraSpace, k: int, x: int, rep: int = 1) -> int:
    """Chang box: slice a of the result is the OR over the members F of
    V(a) of the k-fibers of X that equal F."""
    if sp.chang is None:
        raise NoChangSystem("space has no Chang system")
    stride, low, fs = _slices(sp, k, x, rep)
    out = 0
    for a, family in enumerate(sp.chang.families):
        y = 0
        for member in family:
            lit = low
            for b, f in enumerate(fs):
                lit &= f if member >> b & 1 else low ^ f
            y |= lit
        out |= y << a * stride
    return sp.full_bits * rep & out


def diag(sp: SetAlgebraSpace, i: int, j: int) -> int:
    """d_ij, built once per space: the codes of the unit with s_i = s_j."""
    if not (0 <= i < sp.dim and 0 <= j < sp.dim):
        raise IndexOutOfRange(f"diagonal indices ({i},{j}) outside dimension")
    bits = sp._diags.get((i, j))
    if bits is None:
        bits = 0
        for mi, mj in zip(sp._axis(i)[1], sp._axis(j)[1]):
            bits |= mi & mj
        bits = sp._diags[(i, j)] = sp.full_bits & bits
    return bits


def subst(sp: SetAlgebraSpace, tau: Sequence[int], x: int) -> int:
    """s in the unit is in the result iff s o tau is in X."""
    if len(tau) != sp.dim or any(not 0 <= v < sp.dim for v in tau):
        raise ValueError("tau must be a total transformation of the dimension")
    out = 0
    for code in range(sp.ncodes):
        s = sp.decode(code)
        t = tuple(s[tau[i]] for i in range(sp.dim))
        if x >> sp.encode(t) & 1:
            out |= 1 << code
    return out & sp.full_bits


def replacement(i: int, j: int, dim: int) -> Tuple[int, ...]:
    """[i|j]: identity except i goes to j."""
    tau = list(range(dim))
    tau[i] = j
    return tuple(tau)


def dimension_set(sp: SetAlgebraSpace, x: int) -> frozenset:
    """Delta X = {i : c_i X != X}."""
    return frozenset(i for i in range(sp.dim) if cyl(sp, i, x) != x)


def lifted(sp: SetAlgebraSpace, extra: int) -> SetAlgebraSpace:
    """sp in dimension dim+extra with the same base, topology and Chang
    system; a generalized space lifts summandwise."""
    if extra < 1:
        raise ValueError("extra must be at least 1")
    if isinstance(sp, GeneralizedSpace):
        return GeneralizedSpace([lifted(s, extra) for s in sp.summands])
    return SetAlgebraSpace(sp.dim + extra, sp.base_size, sp.topology, sp.chang)


def neat_lift(sp: SetAlgebraSpace, x: int, big: SetAlgebraSpace) -> int:
    """Cylinder over X in big = lifted(sp, extra), inside the lifted unit."""
    # one copy of x per block of sp.ncodes codes of the cube
    copies = ((1 << big.ncodes) - 1) // ((1 << sp.ncodes) - 1)
    return x * copies & big.full_bits


# -- generalized set algebras ---------------------------------------------


class GeneralizedSpace(SetAlgebraSpace):
    """Disjoint summand spaces of equal dimension >= 2, as one space.

    The base is the union of the summand bases (summand i shifted by
    offsets[i]) with the coproduct topology, present only when every
    summand has a topology. The unit V (full_bits) is the union of the
    summand cubes, so the module's operators relativize to it (Nemeti
    1995). At dimension 1 the union of the cubes is one cube, so c_0 would
    join the summands: refused.
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
        cube = self.full_bits
        self.full_bits = sum(1 << c for codes in self._codes for c in codes)
        self.outside = cube ^ self.full_bits


def decompose_generalized(g: GeneralizedSpace, x: int) -> Tuple[int, ...]:
    """X maps to (X intersected with each summand's cube), in local codes."""
    if x & ~g.full_bits:
        raise NotSubsetOfUnit("element does not lie below this generalized space's unit")
    return tuple(sum(1 << c for c, u in enumerate(codes) if x >> u & 1) for codes in g._codes)
