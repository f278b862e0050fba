"""Finite topological spaces, preorders, and the constructions between them.

On a finite set the topologies are the Alexandrov topologies of the
preorders (Alexandroff 1937; McKinsey and Tarski 1944): the opens are the
up-sets of the specialization preorder, x <= y iff y lies in the least open
neighbourhood of x. Topologies are enumerated as the images of the preorders;
interior and closure stay defined by the opens alone (`interior_bits`; the
preorder's box is `modal._kripke_interior_bits`). FRAME_SIZE_CAP bounds both
enumerations and the modal countermodel search.

Points of a space of size u are 0..u-1 and point-sets are int bitmasks
internally; the public API accepts any iterable of points and returns
frozensets. Opens are kept deduplicated and sorted, validated eagerly.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Optional, Sequence

from .errors import (
    EmptyList,
    MissingEmptyOrFull,
    NotClosedUnderIntersection,
    NotClosedUnderUnion,
    NotPreorder,
    OutOfRangePoint,
    SizeTooLarge,
    json_field,
    json_ints,
    json_size,
)

FRAME_SIZE_CAP = 5  # 6,942 labelled preorders, and as many topologies


def bits_of(points: Iterable[int], size: int) -> int:
    mask = 0
    for p in points:
        if not 0 <= p < size:
            raise OutOfRangePoint(f"point {p} outside 0..{size - 1}")
        mask |= 1 << p
    return mask


def set_of(bits: int) -> frozenset:
    out = []
    p = 0
    while bits:
        if bits & 1:
            out.append(p)
        bits >>= 1
        p += 1
    return frozenset(out)


class FiniteTopology:
    """A topology on {0..size-1}; `opens` is a sorted tuple of bitmasks."""

    __slots__ = ("size", "opens", "_full", "_minnbhd")

    def __init__(self, size: int, opens: Sequence[int]):
        full = (1 << size) - 1
        fam = sorted(set(opens))
        if 0 not in fam or full not in fam:
            raise MissingEmptyOrFull(size)
        for o in fam:
            if o & ~full:
                raise OutOfRangePoint(f"open {set_of(o)} not a subset of the base")
        famset = set(fam)
        for a, b in itertools.combinations(fam, 2):
            if (a | b) not in famset:
                raise NotClosedUnderUnion(set_of(a), set_of(b))
            if (a & b) not in famset:
                raise NotClosedUnderIntersection(set_of(a), set_of(b))
        self.size = size
        self.opens = tuple(fam)
        self._full = full
        # minimal open neighbourhood per point; finite spaces are Alexandrov
        nb = []
        for p in range(size):
            m = full
            for o in fam:
                if o >> p & 1:
                    m &= o
            nb.append(m)
        self._minnbhd = tuple(nb)

    def __eq__(self, other):
        return (
            isinstance(other, FiniteTopology)
            and self.size == other.size
            and self.opens == other.opens
        )

    def __hash__(self):
        return hash((self.size, self.opens))

    def __repr__(self):
        fam = [sorted(set_of(o)) for o in self.opens]
        return f"FiniteTopology(size={self.size}, opens={fam})"

    # -- bit-level core ------------------------------------------------

    def interior_bits(self, bits: int) -> int:
        out = 0
        for o in self.opens:
            if o & ~bits == 0:
                out |= o
        return out

    def closure_bits(self, bits: int) -> int:
        return self._full & ~self.interior_bits(self._full & ~bits)

    def is_open_bits(self, bits: int) -> bool:
        return bits in self.opens

    def to_json(self) -> dict:
        return {
            "size": self.size,
            "opens": sorted([sorted(set_of(o)) for o in self.opens]),
        }

    @staticmethod
    def from_json(doc: dict) -> "FiniteTopology":
        """Inverse of to_json; a document of the wrong shape raises ValueError."""
        size = json_size(json_field(doc, dict, "a topology").get("size"), '"size"')
        opens = [json_ints(o, f"opens[{i}]")
                 for i, o in enumerate(json_field(doc.get("opens"), list, '"opens"'))]
        # the full base, an open of `size` points, checked before any mask
        # as wide as `size` is built
        if size > max(map(len, opens), default=0):
            raise MissingEmptyOrFull(size)
        return make_topology(size, [bits_of(o, size) for o in opens])


class Preorder:
    """A reflexive transitive relation; `up[x]` is the successor bitmask."""

    __slots__ = ("size", "up")

    def __init__(self, size: int, leq: Iterable[tuple]):
        up = [0] * size
        for x, y in leq:
            if not (0 <= x < size and 0 <= y < size):
                raise OutOfRangePoint(f"pair ({x},{y}) outside 0..{size - 1}")
            up[x] |= 1 << y
        for x in range(size):
            if not up[x] >> x & 1:
                raise NotPreorder(f"not reflexive at {x}")
        for x in range(size):
            m = up[x]
            y = 0
            while m >> y:
                if m >> y & 1 and up[y] & ~up[x]:
                    raise NotPreorder(f"not transitive at ({x},{y})")
                y += 1
        self.size = size
        self.up = tuple(up)

    def leq(self, x: int, y: int) -> bool:
        return bool(self.up[x] >> y & 1)

    def pairs(self):
        return frozenset(
            (x, y) for x in range(self.size) for y in range(self.size) if self.leq(x, y)
        )

    def __eq__(self, other):
        return isinstance(other, Preorder) and self.size == other.size and self.up == other.up

    def __hash__(self):
        return hash((self.size, self.up))

    def __repr__(self):
        return f"Preorder(size={self.size}, leq={sorted(self.pairs())})"

    def to_json(self) -> dict:
        return {"size": self.size, "leq": sorted([list(p) for p in self.pairs()])}

    @staticmethod
    def from_json(doc: dict) -> "Preorder":
        """Inverse of to_json; a document of the wrong shape raises ValueError."""
        size = json_size(json_field(doc, dict, "a preorder").get("size"), '"size"')
        leq = [tuple(json_ints(p, f"leq[{i}]", 2))
               for i, p in enumerate(json_field(doc.get("leq"), list, '"leq"'))]
        # every point x needs its pair (x, x)
        if size > len(leq):
            raise ValueError(f'"size" {size} exceeds the {len(leq)} pairs of "leq"')
        return Preorder(size, leq)


# -- constructors -------------------------------------------------------


def make_topology(size: int, opens=None, preset: Optional[str] = None) -> FiniteTopology:
    """Build and validate a topology; `preset` overrides `opens`."""
    if preset == "discrete":
        return FiniteTopology(size, list(range(1 << size)))
    if preset == "indiscrete":
        return FiniteTopology(size, [0, (1 << size) - 1])
    if preset is not None:
        raise ValueError(f"unknown preset {preset!r}")
    if opens is None:
        raise ValueError("opens required when no preset is given")
    fam = []
    for o in opens:
        fam.append(o if isinstance(o, int) else bits_of(o, size))
    return FiniteTopology(size, fam)


def interior(t: FiniteTopology, a: Iterable[int]) -> frozenset:
    return set_of(t.interior_bits(bits_of(a, t.size)))


def closure(t: FiniteTopology, a: Iterable[int]) -> frozenset:
    return set_of(t.closure_bits(bits_of(a, t.size)))


def is_almost_discrete(t: FiniteTopology) -> bool:
    """cl(A) = int cl(A) for every open A."""
    for o in t.opens:
        c = t.closure_bits(o)
        if c != t.interior_bits(c):
            return False
    return True


def alexandrov(p: Preorder) -> FiniteTopology:
    """Opens are exactly the up-closed sets of the preorder."""
    opens = []
    for m in range(1 << p.size):
        ok = True
        for x in range(p.size):
            if m >> x & 1 and p.up[x] & ~m:
                ok = False
                break
        if ok:
            opens.append(m)
    return FiniteTopology(p.size, opens)


def specialization_preorder(t: FiniteTopology) -> Preorder:
    """x <= y iff x lies in the closure of {y}, that is iff y lies in the
    least open neighbourhood of x; this inverts alexandrov() exactly."""
    return Preorder(t.size, [(x, y) for x, nb in enumerate(t._minnbhd) for y in set_of(nb)])


def coproduct(ts: Sequence[FiniteTopology]) -> FiniteTopology:
    """Disjoint union, the finest topology whose summand traces are open:
    its opens are the unions of one shifted open per summand."""
    if not ts:
        raise EmptyList("coproduct of an empty list")
    offsets = list(itertools.accumulate((t.size for t in ts), initial=0))
    opens = [sum(o << off for o, off in zip(pick, offsets))
             for pick in itertools.product(*(t.opens for t in ts))]
    return FiniteTopology(offsets[-1], opens)


def subspace(t: FiniteTopology, s: Iterable[int]) -> FiniteTopology:
    """Trace topology on s, re-indexed to 0..|s|-1 in ascending point order."""
    sbits = bits_of(s, t.size)
    points = sorted(set_of(sbits))
    index = {p: i for i, p in enumerate(points)}
    opens = set()
    for o in t.opens:
        m = 0
        for p in points:
            if o >> p & 1:
                m |= 1 << index[p]
        opens.add(m)
    return FiniteTopology(len(points), sorted(opens))


def enumerate_topologies(size: int) -> Iterator[FiniteTopology]:
    """All distinct topologies on {0..size-1}, each exactly once:
    the Alexandrov images of the preorders, ordered by their families of
    opens read as bitmasks over the subsets."""
    if size < 0:
        raise ValueError(f"size {size} is negative")
    if size > FRAME_SIZE_CAP:
        raise SizeTooLarge(f"enumerate_topologies capped at size {FRAME_SIZE_CAP}")
    yield from sorted(map(alexandrov, enumerate_preorders(size)),
                      key=lambda t: sum(1 << o for o in t.opens))


def enumerate_preorders(size: int) -> Iterator[Preorder]:
    """All labelled preorders on {0..size-1}."""
    if size < 0:
        raise ValueError(f"size {size} is negative")
    if size > FRAME_SIZE_CAP:
        raise SizeTooLarge(f"enumerate_preorders capped at size {FRAME_SIZE_CAP}")
    if size == 0:
        yield Preorder(0, [])
        return

    # choose successor rows one by one, pruning transitivity violations among
    # the rows decided so far
    def rows(x, acc):
        if x == size:
            yield Preorder(size, [
                (i, j) for i in range(size) for j in range(size) if acc[i] >> j & 1
            ])
            return
        for m in range(1 << size):
            if not m >> x & 1:
                continue
            ok = True
            for y in range(x):
                if m >> y & 1 and acc[y] & ~m:
                    ok = False
                    break
                if acc[y] >> x & 1 and m & ~acc[y]:
                    ok = False
                    break
            if ok:
                acc.append(m)
                yield from rows(x + 1, acc)
                acc.pop()

    yield from rows(0, [])
