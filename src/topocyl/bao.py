"""Abstract finite algebras in the expanded cylindric signature.

Covers atom structures and their complex algebras, term evaluation,
equation and axiom-suite checking, neat reducts, generated subalgebras,
and a bounded representation search. Elements of complex algebras and of
concrete set-algebra views are plain int bitmasks, so Boolean operations
are machine ops.

An equation holds in A exactly when it holds in a direct power A^B, so
check_equation checks B environments as one environment of A^B. An element
of A^B packs B elements into one int, row r from bit r * W on, W being the
element width rounded up to a power-of-two number of bytes (the bits
between rows stay 0); the row repunit `rep`, with bit r * W set for every
row, replicates constants.

A bitmask algebra builds each batch as one packed column per variable,
with no Python object per environment. Sampled: random_element of width
w <= 32 is getrandbits(w), the top w bits of one 32-bit Mersenne Twister
word, and getrandbits(32 * m) is m such words, the first lowest. So one
call per batch draws the words of its rows * nvars elements in the order
the per-element draws take them, environment by environment and variable
by variable, and variable v's column is every nvars-th word from word v:
a strided cut of the words' top bytes, one shift and an AND with the
power's unit. The stream, the values and every verdict are those of the
per-element draws; a wider element is still one getrandbits. Exhaustive:
itertools.product order varies variable v every |C|^(nvars-1-v)
environments, so v's column is a slice of the carrier's bytes, each
element repeated over its run, built once per check, or of the two runs a
batch meets when a run is longer than the batch. rows_differ folds each
row onto its low byte and reads those bytes as binary digits. Any other
algebra is its own power of one row and takes its environments one by one.
"""

from __future__ import annotations

import copy
import functools
import itertools
import random
import re
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .errors import (
    IndexOutOfRange,
    NotClosed,
    SizeTooLarge,
    TooLarge,
    TooLargeForExhaustive,
    TooManyAtoms,
    UnboundVariable,
    json_field,
    json_ints,
    json_size,
)
from . import setalg as sa
from .topology import FRAME_SIZE_CAP, enumerate_topologies, make_topology, set_of

MATERIALIZE_CAP = 20
# the representation search's largest structure: 2^8 = 256 elements
REPRESENT_CAP = 8
EXHAUSTIVE_CAP = 1 << 24
# bits per packed batch of environments in check_equation
BATCH_BITS = 1 << 16
# a row's low byte, once its row is folded onto it -> the digit of its row
_ROW_DIFFERS = b"0" + b"1" * 255


class AtomStructure:
    """Finite atom structure of the expanded signature.

    T[i] maps each atom to the bitmask of its T_i-successors. D[(i,j)] is
    the bitmask of diagonal atoms. interior[i] is None for the identity
    descriptor or a table atom -> bitmask R_i[a], inducing the box
    operator I_i(X) = {a : R_i[a] subseteq X}.
    """

    def __init__(self, dim: int, num_atoms: int, T, D, interior=None):
        self.dim = dim
        self.num_atoms = num_atoms
        self.T = [list(t) for t in T]
        self.D = dict(D)
        self.interior = list(interior) if interior is not None else [None] * dim
        if len(self.T) != dim:
            raise ValueError("one accessibility relation per index required")
        for table in self.T + [desc for desc in self.interior if desc is not None]:
            if len(table) != num_atoms or any(img >> num_atoms for img in table):
                raise ValueError("a relation table must map every atom to a set of atoms")
        for (i, j) in self.D:
            if not (0 <= i < dim and 0 <= j < dim):
                raise ValueError(f'D key "{i},{j}" names an index outside 0..{dim - 1}')
        for (i, j) in itertools.product(range(dim), repeat=2):
            if (i, j) not in self.D:
                raise ValueError(f"missing diagonal atom set D[{i},{j}]")
        # interior tables are accepted even when the induced box is not a
        # legal interior, but such tables are flagged: the box is an S4
        # interior exactly when the relation is reflexive and transitive
        self.interior_flags = []
        for desc in self.interior:
            if desc is None:
                self.interior_flags.append("identity")
            elif self._s4_relation(desc):
                self.interior_flags.append("validated")
            else:
                self.interior_flags.append("flagged")

    @functools.cached_property
    def both(self) -> List[List[int]]:
        """both[i][b]: the atoms a with T_i(b, a) and T_i(a, b)."""
        return [[img & back for img, back in zip(t, _converse(t))] for t in self.T]

    @functools.cached_property
    def converse(self) -> list:
        """Per index, the converse of the interior relation (None for the
        identity): I_i(X) = -(image of -X under it), and the image of an
        atom under it is the atom's closure."""
        return [None if desc is None else _converse(desc) for desc in self.interior]

    def _s4_relation(self, table) -> bool:
        return all(table[a] >> a & 1 and not any(table[b] & ~table[a] for b in set_of(table[a]))
                   for a in range(self.num_atoms))

    @staticmethod
    def from_pairs(dim, num_atoms, pairs_per_i, diag_sets, interior=None):
        atoms = range(num_atoms)
        T = []
        for i in range(dim):
            img = [0] * num_atoms
            for a, b in pairs_per_i[i]:
                if a not in atoms or b not in atoms:
                    raise ValueError(f"pair {[a, b]} of T[{i}] names an atom outside "
                                     f"0..{num_atoms - 1}")
                img[a] |= 1 << b
            T.append(img)
        D = {}
        for (i, j), diag in diag_sets.items():
            m = 0
            for a in diag:
                if a not in atoms:
                    raise ValueError(f"D[{i},{j}] names atom {a} outside 0..{num_atoms - 1}")
                m |= 1 << a
            D[(i, j)] = m
        return AtomStructure(dim, num_atoms, T, D, interior)

    def is_atom(self, a) -> bool:
        return isinstance(a, int) and 0 <= a < self.num_atoms

    def to_json(self) -> dict:
        pairs = [[[a, b] for a, img in enumerate(t) for b in sorted(set_of(img))]
                 for t in self.T]
        diag = {}
        for (i, j), m in sorted(self.D.items()):
            diag[f"{i},{j}"] = [a for a in range(self.num_atoms) if m >> a & 1]
        interior = ["identity" if desc is None else
                    {str(a): sorted(set_of(img)) for a, img in enumerate(desc)}
                    for desc in self.interior]
        return {
            "dim": self.dim,
            "atoms": self.num_atoms,
            "T": pairs,
            "D": diag,
            "interior": interior,
        }

    @staticmethod
    def from_json(doc: dict) -> "AtomStructure":
        """Inverse of to_json; an omitted "interior" is the identity. A
        document of the wrong shape, or of more than setalg.CODE_CAP table
        entries (dim by atoms), raises ValueError naming the field."""
        json_field(doc, dict, "an atom structure")
        dim, k = (json_size(doc.get(name), f'"{name}"') for name in ("dim", "atoms"))
        if max(dim, 1) * k > sa.CODE_CAP:
            raise ValueError(f'"atoms": {k} atoms in dimension {dim} exceed the cap '
                             f"of {sa.CODE_CAP} table entries")
        for i, pairs in enumerate(json_field(doc.get("T"), list, '"T"', dim)):
            for pair in json_field(pairs, list, f"T[{i}]"):
                json_ints(pair, f"a pair of T[{i}]", 2)
        diag = {}
        for key, atoms in json_field(doc.get("D"), dict, '"D"').items():
            if not re.fullmatch(r"\d+,\d+", key):
                raise ValueError(f'D key {key!r} must be two indices "i,j"')
            i, j = (int(p) for p in key.split(","))
            diag[(i, j)] = json_ints(atoms, f"D[{key}]")
        interior = []
        descs = json_field(doc.get("interior", ["identity"] * dim), list, '"interior"', dim)
        for i, desc in enumerate(descs):
            if desc == "identity":
                interior.append(None)
                continue
            table = [0] * k
            for a, img in json_field(desc, dict, f'interior[{i}], if not "identity",').items():
                json_ints(img, f"interior[{i}] entry {a}")
                if not re.fullmatch(r"\d+", a) or not {int(a), *img} <= set(range(k)):
                    raise ValueError(f"interior[{i}] entry {a}: {img}: the key and the "
                                     f"atoms must lie in 0..{k - 1}")
                table[int(a)] = sum(1 << b for b in set(img))
            interior.append(table)
        return AtomStructure.from_pairs(dim, k, doc["T"], diag, interior)


def _converse(table) -> List[int]:
    """The converse of a relation given as a table atom -> bitmask."""
    conv = [0] * len(table)
    for a, img in enumerate(table):
        for b in set_of(img):
            conv[b] |= 1 << a
    return conv


# -- algebras ---------------------------------------------------------------


class Algebra:
    """Protocol: dim, zero, one, plus, times, minus, cyl, dg, interior, eq.
    By default an algebra packs no rows: it is its own power of one row,
    and each batch of environments is one environment."""

    dim: int

    def eq(self, a, b) -> bool:
        return a == b

    def q(self, i, a):
        return self.minus(self.cyl(i, self.minus(a)))

    def s(self, i, j, a):
        """s_i^j(x) = c_i(d_ij . x) for i != j; identity for i = j."""
        if i == j:
            return a
        return self.cyl(i, self.times(self.dg(i, j), a))

    def xnor(self, a, b):
        return self.times(
            self.plus(self.minus(a), b),
            self.plus(self.minus(b), a),
        )

    def carrier_list(self) -> list:
        raise TooLarge("carrier not enumerable for this algebra")

    def random_element(self, rng: random.Random):
        raise NotImplementedError

    def sampled_batches(self, rng: random.Random, samples: int, nvars: int):
        """`samples` environments of `nvars` variables as batches (rows,
        columns): column v holds variable v's values in the power of `rows`
        rows. The values are successive random_element(rng) draws, variable
        by variable, environment by environment."""
        for _ in range(samples):
            yield 1, [self.random_element(rng) for _ in range(nvars)]

    def enumerated_batches(self, carrier: Sequence, nvars: int):
        """Every environment of `nvars` variables over carrier, in
        itertools.product order (the last variable fastest), as batches
        (rows, columns)."""
        return ((1, list(env)) for env in itertools.product(carrier, repeat=nvars))

    def power(self, rows: int) -> "Algebra":
        return self

    def row(self, x, r: int):
        """Row r of an element of this power."""
        return x

    def rows_differ(self, a, b) -> int:
        """Bitmask of the rows where a and b differ."""
        return 0 if self.eq(a, b) else 1


class BitmaskAlgebra(Algebra):
    """Elements are int bitmasks of `width` bits; `power(rows)` is the
    direct power whose elements pack `rows` of them, and its batches of
    environments are built as whole columns (module docstring)."""

    rep = 1
    rows = 1

    def __init__(self, width: int):
        self.width = width
        self.row_bytes = 1 << max(0, (width - 1).bit_length() - 3)
        self.rows_per_batch = max(1, BATCH_BITS // (8 * self.row_bytes))
        self.zero = 0
        self.one = (1 << width) - 1
        self._powers = {}

    def plus(self, a, b):
        return a | b

    def times(self, a, b):
        return a & b

    def minus(self, a):
        return self.one & ~a

    def random_element(self, rng):
        return self.one & rng.getrandbits(self.width)

    def _batch_sizes(self, total):
        for start in range(0, total, self.rows_per_batch):
            yield start, min(self.rows_per_batch, total - start)

    def sampled_batches(self, rng, samples, nvars):
        nb, width = self.row_bytes, self.width
        # getrandbits(w) for w <= 32 is the top w bits of one 32-bit word:
        # each word's top nb bytes are one unit of an nb-byte view of it
        view = {1: "B", 2: "H", 4: "I"}.get(nb)
        for _, rows in self._batch_sizes(samples):
            p = self.power(rows)
            if view is None:
                draws = [self.random_element(rng) for _ in range(rows * nvars)]
                yield rows, [p.pack(draws[v::nvars]) for v in range(nvars)]
                continue
            words = memoryview(rng.getrandbits(32 * rows * nvars)
                               .to_bytes(4 * rows * nvars, "little")).cast(view)
            per = 4 // words.itemsize
            cols = []
            for v in range(nvars):
                cut = words[per * v + per - 1::per * nvars]
                cols.append(int.from_bytes(cut, "little") >> 8 * nb - width & p.one)
            yield rows, cols

    def enumerated_batches(self, carrier, nvars):
        nb, size = self.row_bytes, len(carrier)
        total = size ** nvars
        elems = [x.to_bytes(nb, "little") for x in carrier]
        blocks = {}
        for start, rows in self._batch_sizes(total):
            end, cols = start + rows, []
            for v in range(nvars):
                # variable v's value changes every `run` environments
                run = size ** (nvars - 1 - v)
                if run < rows:
                    # a slice of whole periods of carrier runs, built once
                    period = size * run
                    if v not in blocks:
                        blocks[v] = b"".join(e * run for e in elems) * (rows // period + 2)
                    at = start % period * nb
                    cut = blocks[v][at:at + rows * nb]
                else:
                    # the batch meets at most two runs
                    cut = b"".join(
                        elems[i % size] * (min(end, (i + 1) * run) - max(start, i * run))
                        for i in range(start // run, (end - 1) // run + 1))
                cols.append(int.from_bytes(cut, "little"))
            yield rows, cols

    def power(self, rows):
        """The power of `rows` rows, built once per instance."""
        p = self._powers.get(rows)
        if p is None:
            p = self._powers[rows] = copy.copy(self)
            stride = 8 * self.row_bytes
            p.rep = ((1 << rows * stride) - 1) // ((1 << stride) - 1)
            p.one, p.rows, p._powers = self.one * p.rep, rows, {}
        return p

    def pack(self, xs):
        n = self.row_bytes
        return int.from_bytes(b"".join(map(int.to_bytes, xs, itertools.repeat(n),
                                           itertools.repeat("little"))), "little")

    def row(self, x, r):
        stride = 8 * self.row_bytes
        return (x >> r * stride) & ((1 << stride) - 1)

    def rows_differ(self, a, b):
        nb = self.row_bytes
        x = a ^ b
        # OR each row's bytes onto its low byte, never past the row
        for k in range(nb.bit_length() - 1):
            x |= x >> (8 << k)
        # the low byte of every row, the last row first
        low = x.to_bytes(self.rows * nb, "big")[nb - 1::nb]
        return int(low.translate(_ROW_DIFFERS), 2)


class ComplexAlgebra(BitmaskAlgebra):
    """Complex algebra of a finite atom structure; elements are atom bitmasks."""

    def __init__(self, structure: AtomStructure):
        super().__init__(structure.num_atoms)
        self.structure = structure
        self.dim = structure.dim
        self.num_atoms = structure.num_atoms

    def _image(self, table, x):
        """Union of table[a] over the atoms a of x, in every row."""
        rep = self.rep
        out = 0
        for a, img in enumerate(table):
            out |= ((x >> a) & rep) * img
        return out

    def cyl(self, i, x):
        if not 0 <= i < self.dim:
            raise IndexOutOfRange(f"index {i} outside dimension {self.dim}")
        return self._image(self.structure.T[i], x)

    def dg(self, i, j):
        if not (0 <= i < self.dim and 0 <= j < self.dim):
            raise IndexOutOfRange(f"diagonal ({i},{j}) outside dimension")
        return self.structure.D[(i, j)] * self.rep

    def interior(self, i, x):
        if not 0 <= i < self.dim:
            raise IndexOutOfRange(f"index {i} outside dimension {self.dim}")
        conv = self.structure.converse[i]
        if conv is None:
            return x
        return self.one & ~self._image(conv, self.one & ~x)

    def atoms(self):
        return [1 << a for a in range(self.num_atoms)]

    def carrier_list(self):
        if self.num_atoms > MATERIALIZE_CAP:
            raise TooManyAtoms(
                f"{self.num_atoms} atoms exceeds the materialization cap {MATERIALIZE_CAP}"
            )
        return list(range(self.one + 1))


class SetAlgebra(BitmaskAlgebra):
    """Full set algebra over a space, viewed abstractly; elements are code
    bitmasks below the space's unit (all codes for a cube, the union of the
    summand cubes for a generalized space)."""

    def __init__(self, space: sa.SetAlgebraSpace, boxes: str = "topology"):
        super().__init__(space.ncodes)
        self.one = space.full_bits
        self.space = space
        self.dim = space.dim
        self._chang_box = boxes == "chang"

    # the setalg kernels are looked up at call time, so a wrapper installed
    # on the module sees every call
    def cyl(self, i, x):
        return sa.cyl(self.space, i, x, self.rep)

    def dg(self, i, j):
        return sa.diag(self.space, i, j) * self.rep

    def interior(self, i, x):
        if self._chang_box:
            return sa.box_op(self.space, i, x, self.rep)
        return sa.interior_op(self.space, i, x, self.rep)

    def carrier_list(self):
        """Every element below the unit, ascending: one value per run of
        consecutive unit bits, summed, the lowest run varying fastest (a
        cube's unit is one run, so its carrier is a plain range)."""
        if self.one.bit_count() > MATERIALIZE_CAP:
            raise TooLarge("set algebra carrier too large to enumerate")
        carrier, rest = None, self.one
        while rest:
            low = rest & -rest
            top = (rest + low) & ~rest  # the bit just past the lowest run
            run = range(0, top, low)
            carrier = list(run) if carrier is None else [y + x for y in run for x in carrier]
            rest &= ~(top - 1)
        return carrier or [0]


class SubAlgebra(Algebra):
    """A subuniverse of a parent algebra, optionally with a smaller dimension."""

    def __init__(self, parent: Algebra, carrier: Sequence, dim: Optional[int] = None):
        self.parent = parent
        self.dim = parent.dim if dim is None else dim
        self._carrier = list(carrier)
        self.zero = parent.zero
        self.one = parent.one

    def eq(self, a, b):
        return self.parent.eq(a, b)

    def plus(self, a, b):
        return self.parent.plus(a, b)

    def times(self, a, b):
        return self.parent.times(a, b)

    def minus(self, a):
        return self.parent.minus(a)

    def cyl(self, i, x):
        if not 0 <= i < self.dim:
            raise IndexOutOfRange(f"index {i} outside dimension {self.dim}")
        return self.parent.cyl(i, x)

    def dg(self, i, j):
        if not (0 <= i < self.dim and 0 <= j < self.dim):
            raise IndexOutOfRange(f"diagonal ({i},{j}) outside dimension")
        return self.parent.dg(i, j)

    def interior(self, i, x):
        if not 0 <= i < self.dim:
            raise IndexOutOfRange(f"index {i} outside dimension {self.dim}")
        return self.parent.interior(i, x)

    def carrier_list(self):
        return list(self._carrier)

    def random_element(self, rng):
        return self._carrier[rng.randrange(len(self._carrier))]


# -- atom structures of concrete spaces --------------------------------------


def atom_structure_of(space: sa.SetAlgebraSpace) -> AtomStructure:
    """Dual structure of a full set algebra: atom a is the a-th code of the
    unit V in ascending order, so a cube's atoms are its codes."""
    n = space.dim
    codes = sorted(set_of(space.full_bits))
    rank = {code: a for a, code in enumerate(codes)}

    def atoms(bits):
        return sum(1 << rank[code] for code in set_of(bits))

    T = [[atoms(sa.cyl(space, i, 1 << code)) for code in codes] for i in range(n)]
    D = {(i, j): atoms(sa.diag(space, i, j)) for i in range(n) for j in range(n)}
    interior = None
    if space.topology is not None:
        # b is in R_i[a] iff a lies in the I_i-closure of {b}
        one = space.full_bits
        interior = []
        for i in range(n):
            table = [0] * len(codes)
            for b, code in enumerate(codes):
                for a in set_of(one ^ sa.interior_op(space, i, one ^ 1 << code)):
                    table[rank[a]] |= 1 << b
            interior.append(table)
    return AtomStructure(n, len(codes), T, D, interior)


def cm(structure: AtomStructure) -> ComplexAlgebra:
    """Complex algebra of an atom structure."""
    return ComplexAlgebra(structure)


# -- terms and equations ------------------------------------------------------

Term = tuple


def var(k):
    return ("var", k)


def eval_term(alg: Algebra, t: Term, env: Dict[int, object]):
    op = t[0]
    if op == "var":
        if t[1] not in env:
            raise UnboundVariable(f"v{t[1]} unbound")
        return env[t[1]]
    if op == "zero":
        return alg.zero
    if op == "one":
        return alg.one
    if op == "plus":
        return alg.plus(eval_term(alg, t[1], env), eval_term(alg, t[2], env))
    if op == "times":
        return alg.times(eval_term(alg, t[1], env), eval_term(alg, t[2], env))
    if op == "minus":
        return alg.minus(eval_term(alg, t[1], env))
    if op == "cyl":
        return alg.cyl(t[1], eval_term(alg, t[2], env))
    if op == "diag":
        return alg.dg(t[1], t[2])
    if op == "interior":
        return alg.interior(t[1], eval_term(alg, t[2], env))
    if op == "subst":
        return alg.s(t[1], t[2], eval_term(alg, t[3], env))
    if op == "q":
        return alg.q(t[1], eval_term(alg, t[2], env))
    if op == "xnor":
        return alg.xnor(eval_term(alg, t[1], env), eval_term(alg, t[2], env))
    raise ValueError(f"bad term node {op!r}")


def term_vars(t: Term) -> frozenset:
    if t[0] == "var":
        return frozenset([t[1]])
    out = frozenset()
    for part in t[1:]:
        if isinstance(part, tuple):
            out |= term_vars(part)
    return out


class Equation:
    def __init__(self, lhs: Term, rhs: Term, rel: str = "eq"):
        if rel not in ("eq", "le"):
            raise ValueError("rel must be 'eq' or 'le'")
        self.lhs = lhs
        self.rhs = rhs
        self.rel = rel
        self.vars = tuple(sorted(term_vars(lhs) | term_vars(rhs)))


def check_equation(
    alg: Algebra,
    eq: Equation,
    mode: str = "auto",
    samples: int = 10000,
    seed: int = 0,
    guards: Sequence[Tuple[int, int]] = (),
) -> dict:
    """Verdict plus counterexample. guards are (var, k) pairs demanding
    k not in the dimension set of the environment's value for var. Sampled
    environments come from one random.Random(seed) stream of
    random_element draws, variable by variable, environment by environment.
    Each batch of environments is one environment of a direct power of alg
    (`sampled_batches`, `enumerated_batches`). samples below 1 is refused in
    every mode: a sampled check of no environment would pass vacuously."""
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    nvars = len(eq.vars)
    carrier = None
    if mode == "auto":
        try:
            carrier = alg.carrier_list()
            mode = "exhaustive" if len(carrier) ** max(nvars, 1) <= EXHAUSTIVE_CAP else "sampled"
        except (TooLarge, TooManyAtoms):
            mode = "sampled"
    if mode == "exhaustive":
        if carrier is None:
            carrier = alg.carrier_list()
        if len(carrier) ** max(nvars, 1) > EXHAUSTIVE_CAP:
            raise TooLargeForExhaustive(
                f"{len(carrier)}^{nvars} environments exceed the exhaustive cap"
            )
        batches = alg.enumerated_batches(carrier, nvars)
    elif mode == "sampled":
        batches = alg.sampled_batches(random.Random(seed), samples, nvars)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    tested = 0
    for rows, cols in batches:
        p = alg.power(rows)
        env = dict(zip(eq.vars, cols))
        skip = 0
        for v, k in guards:
            skip |= p.rows_differ(p.cyl(k, env[v]), env[v])
        if skip == (1 << rows) - 1:
            continue
        a = eval_term(p, eq.lhs, env)
        b = eval_term(p, eq.rhs, env)
        # a <= b iff a . b = a
        fails = p.rows_differ(p.times(a, b) if eq.rel == "le" else b, a) & ~skip
        if fails:
            r = (fails & -fails).bit_length() - 1
            tested += r + 1 - (skip & ((1 << r) - 1)).bit_count()
            return {"verdict": "fails", "mode": mode, "tested": tested,
                    "counterexample": {v: p.row(x, r) for v, x in env.items()}}
        tested += rows - skip.bit_count()
    return {"verdict": "holds" if tested else "vacuous", "mode": mode, "tested": tested}


# -- axiom suites -------------------------------------------------------------

V0, V1, V2 = var(0), var(1), var(2)


def _ca_axioms(dim):
    x, y, z = V0, V1, V2
    out = [
        ("BA+comm", Equation(("plus", x, y), ("plus", y, x)), ()),
        ("BA.comm", Equation(("times", x, y), ("times", y, x)), ()),
        ("BA+assoc", Equation(("plus", x, ("plus", y, z)), ("plus", ("plus", x, y), z)), ()),
        ("BA.assoc", Equation(("times", x, ("times", y, z)), ("times", ("times", x, y), z)), ()),
        ("BA absorb1", Equation(("plus", x, ("times", x, y)), x), ()),
        ("BA absorb2", Equation(("times", x, ("plus", x, y)), x), ()),
        ("BA distr", Equation(("times", x, ("plus", y, z)),
                              ("plus", ("times", x, y), ("times", x, z))), ()),
        ("BA compl1", Equation(("plus", x, ("minus", x)), ("one",)), ()),
        ("BA compl2", Equation(("times", x, ("minus", x)), ("zero",)), ()),
    ]
    for i in range(dim):
        out.append((f"CA2[c{i}0=0]", Equation(("cyl", i, ("zero",)), ("zero",)), ()))
        out.append((f"CA3[x<=c{i}x]", Equation(x, ("cyl", i, x), "le"), ()))
        out.append((f"CA4[c{i}(x.c{i}y)]",
                    Equation(("cyl", i, ("times", x, ("cyl", i, y))),
                             ("times", ("cyl", i, x), ("cyl", i, y))), ()))
    for i in range(dim):
        for j in range(i + 1, dim):
            out.append((f"CA5[c{i}c{j}=c{j}c{i}]",
                        Equation(("cyl", i, ("cyl", j, x)), ("cyl", j, ("cyl", i, x))), ()))
    for i in range(dim):
        out.append((f"CA6[d{i}{i}=1]", Equation(("diag", i, i), ("one",)), ()))
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                if k != i and k != j:
                    out.append((
                        f"CA7[d{i}{j}=c{k}(d{i}{k}.d{j}{k})]",
                        Equation(("diag", i, j),
                                 ("cyl", k, ("times", ("diag", i, k), ("diag", j, k)))),
                        (),
                    ))
    for i in range(dim):
        for j in range(dim):
            if i != j:
                out.append((
                    f"CA8[c{i}(d{i}{j}.x).c{i}(d{i}{j}.-x)=0]",
                    Equation(("times",
                              ("cyl", i, ("times", ("diag", i, j), x)),
                              ("cyl", i, ("times", ("diag", i, j), ("minus", x)))),
                             ("zero",)),
                    (),
                ))
    return out


def _box_schemas(b):
    """The interior/box schemas for box letter b (I for interiors, B for
    Chang boxes): items 1-7 of the interior-operator list and the S5 item,
    each mapping its indices to (label, equation, guards). Items 6 and 7
    take an ordered pair of distinct indices, the others one index."""
    p, q = V0, V1

    def box(i, x):
        return ("interior", i, x)

    return {
        1: lambda i: (f"[q{i}(p<->q)<=q{i}({b}{i}p<->{b}{i}q)]",
                      Equation(("q", i, ("xnor", p, q)),
                               ("q", i, ("xnor", box(i, p), box(i, q))), "le"), ()),
        2: lambda i: (f"[{b}{i}p<=p]", Equation(box(i, p), p, "le"), ()),
        3: lambda i: (f"[{b}{i}p.{b}{i}q={b}{i}(p.q)]",
                      Equation(("times", box(i, p), box(i, q)), box(i, ("times", p, q))), ()),
        4: lambda i: (f"[{b}{i}p<={b}{i}{b}{i}p]",
                      Equation(box(i, p), box(i, box(i, p)), "le"), ()),
        5: lambda i: (f"[{b}{i}1=1]", Equation(box(i, ("one",)), ("one",)), ()),
        6: lambda i, k: (f"[c{k}{b}{i}p={b}{i}p; {k} not in dim(p)]",
                         Equation(("cyl", k, box(i, p)), box(i, p)), ((0, k),)),
        7: lambda i, j: (f"[s({i}->{j}){b}{i}p={b}{j}s({i}->{j})p; {j} not in dim(p)]",
                         Equation(("subst", i, j, box(i, p)), box(j, ("subst", i, j, p))),
                         ((0, j),)),
        "S5": lambda i: (f"[-{b}{i}-p<={b}{i}-{b}{i}-p]",
                         Equation(("minus", box(i, ("minus", p))),
                                  box(i, ("minus", box(i, ("minus", p)))), "le"), ()),
    }


# Per box suite: the box letter and the groups of (name, schema) items. A
# group runs its items index by index, in its order, before the next group.
_CHANG = [[("Chang1", 1)], [("Chang2", 7)]]
_S4CHANG = _CHANG + [[("S4Chang1", 5), ("S4Chang2", 2), ("S4Chang3", 3), ("S4Chang5", 4)],
                     [("S4Chang4", 6)]]
_BOX_SUITES = {
    "TCA": ("I", [[("TCA1", 1), ("TCA2", 2), ("TCA3", 3), ("TCA4", 4), ("TCA5", 5)],
                  [("TCA6", 6)], [("TCA7", 7)]]),
    "Chang": ("B", _CHANG),
    "S4Chang": ("B", _S4CHANG),
    "S5Chang": ("B", _S4CHANG + [[("S5Chang6", "S5")]]),
}


def _box_axioms(suite, dim):
    letter, groups = _BOX_SUITES[suite]
    schemas = _box_schemas(letter)
    singles = [(i,) for i in range(dim)]
    pairs = [(i, j) for i in range(dim) for j in range(dim) if j != i]
    out = []
    for group in groups:
        for ix in pairs if group[0][1] in (6, 7) else singles:
            for name, item in group:
                label, eq, guards = schemas[item](*ix)
                out.append((name + label, eq, guards))
    return out


SUITES = ("CA", "TCA", "Chang", "S4Chang", "S5Chang")


@functools.lru_cache(maxsize=None)
def axioms_for(suite: str, dim: int) -> tuple:
    """(name, equation, guards) per axiom of the suite, built once per process."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    return tuple(_ca_axioms(dim) if suite == "CA" else _box_axioms(suite, dim))


def check_axiom_suite(
    alg: Algebra,
    suite: str,
    mode: str = "auto",
    samples: int = 2000,
    seed: int = 0,
) -> dict:
    """Per-axiom verdicts; guarded axioms are tested on guard-passing
    environments only and report 'vacuous' when none exist."""
    results = []
    for idx, (name, eq, guards) in enumerate(axioms_for(suite, alg.dim)):
        res = check_equation(alg, eq, mode=mode, samples=samples,
                             seed=seed + idx, guards=guards)
        entry = {"axiom": name, "verdict": res["verdict"], "tested": res["tested"]}
        if res["verdict"] == "fails":
            entry["counterexample"] = {f"v{k}": repr(v) for k, v in res["counterexample"].items()}
        results.append(entry)
    verdicts = [entry["verdict"] for entry in results]
    return {
        "suite": suite,
        "dim": alg.dim,
        "axioms": results,
        "failures": verdicts.count("fails"),
        "vacuous": verdicts.count("vacuous"),
        "all_pass": "fails" not in verdicts,
    }


# -- dimension sets, reducts, subalgebras -------------------------------------


def dimension_set_abs(alg: Algebra, x) -> frozenset:
    return frozenset(i for i in range(alg.dim) if not alg.eq(alg.cyl(i, x), x))


def nr(m: int, alg: Algebra) -> SubAlgebra:
    """Neat m-reduct: elements whose dimension set lies below m."""
    if not 1 <= m <= alg.dim:
        raise IndexOutOfRange(f"neat reduct dimension {m} outside 1..{alg.dim}")
    carrier = [x for x in alg.carrier_list()
               if dimension_set_abs(alg, x) <= set(range(m))]
    out = SubAlgebra(alg, carrier, dim=m)
    members = set(carrier)
    for x in carrier:
        for i in range(m):
            for val in (alg.cyl(i, x), alg.interior(i, x)):
                if val not in members:
                    raise NotClosed(f"neat reduct not closed at index {i}")
        if alg.minus(x) not in members:
            raise NotClosed("neat reduct not closed under complement")
    return out


def sg(alg: Algebra, gens: Iterable) -> SubAlgebra:
    """Least subuniverse containing gens, closed under every operation."""
    current = {alg.zero, alg.one}
    for i in range(alg.dim):
        for j in range(alg.dim):
            current.add(alg.dg(i, j))
    current |= set(gens)
    while True:
        new = set()
        items = list(current)
        for x in items:
            cand = [alg.minus(x)]
            for i in range(alg.dim):
                cand.append(alg.cyl(i, x))
                cand.append(alg.interior(i, x))
            for c in cand:
                if c not in current:
                    new.add(c)
        for x, y in itertools.combinations(items, 2):
            for c in (alg.plus(x, y), alg.times(x, y)):
                if c not in current:
                    new.add(c)
        if not new:
            break
        current |= new
    return SubAlgebra(alg, sorted(current))


# -- bounded representation search --------------------------------------------


class Representation(NamedTuple):
    """An embedding of a complex algebra: atom a goes to atom_images[a]."""

    space: sa.SetAlgebraSpace
    atom_images: List[int]

    def to_json(self):
        return {
            "base": self.space.base_size,
            "topology": self.space.topology.to_json() if self.space.topology else None,
            "atom_images": [sorted(set_of(img)) for img in self.atom_images],
        }


def try_represent(structure: AtomStructure, max_base: int = 3) -> dict:
    """Bounded search for an embedding of cm(structure) into a full
    topological set algebra of base at most max_base: the discrete
    topology first, then the others in enumeration order. Only the closure
    condition reads the topology, and with identity interiors it holds on
    the discrete one, so such a structure tries the discrete one alone.
    Any other structure is refused at a base past FRAME_SIZE_CAP, the last
    size whose topologies are enumerated.

    Failure is a bounded-search-exhausted report, never a proof of
    non-representability. A represented algebra satisfies every CA axiom,
    so the CA check runs only after the search is exhausted: a structure
    that fails it is reported with the violated axioms.
    """
    if max_base < 1:
        raise ValueError(f"max_base must be at least 1, got {max_base}")
    if structure.num_atoms > REPRESENT_CAP:
        raise TooLarge(f"representation search capped at {REPRESENT_CAP} atoms")
    for u in range(1, max_base + 1):
        discrete = make_topology(u, preset="discrete")
        topologies = [discrete]
        if any(desc is not None for desc in structure.interior):
            if u > FRAME_SIZE_CAP:
                raise SizeTooLarge(f"a structure with an interior table is searched "
                                   f"on bases up to {FRAME_SIZE_CAP}")
            topologies = itertools.chain(
                topologies, (t for t in enumerate_topologies(u) if t != discrete))
        for topo in topologies:
            space = sa.SetAlgebraSpace(structure.dim, u, topo)
            rep = _search_assignment(structure, space)
            if rep is not None:
                return {"found": True, "representation": rep}
    report = check_axiom_suite(cm(structure), "CA", mode="auto", samples=500)
    if not report["all_pass"]:
        bad = [a["axiom"] for a in report["axioms"] if a["verdict"] == "fails"]
        return {"found": False, "reason": "CA axiom fails", "violated": bad}
    if not structure.num_atoms:
        return {"found": False, "reason": "no atoms"}
    return {"found": False, "reason": "bounded search exhausted",
            "max_base": max_base}


def _search_assignment(structure: AtomStructure, space) -> Optional[Representation]:
    """The first labelling of the codes with atoms, codes ascending and each
    code's atoms ascending, that _embeds accepts.

    A code's candidates are the atoms whose D-membership is the code's
    diagonal pattern. Labelling code c with atom a leaves to each later code
    of c's i-fiber (the codes differing from c only at i) the candidates in
    both[i][a]. Every atom x with T_i(x, b) for a label b of a fiber must
    label one of its codes, so while the fiber fills, the atoms still needed
    must fit its unlabelled codes, each one a candidate of such a code.
    With an interior table, a closed fiber must also meet the closure
    condition on its own points. These cuts, like the count of atoms still
    unused, drop only labellings that _embeds refuses: the map must send
    D_ij to d_ij, c_i of a code's label must hold the labels of its
    fiber-mates, each code labelled b lies in c_i of the image of every x
    with T_i(x, b), and C_i of an atom's image is the image of its
    closure."""
    k, ncodes, n, u = structure.num_atoms, space.ncodes, structure.dim, space.base_size
    both, T, closure = structure.both, structure.T, structure.converse
    fibers, candidates = _code_tables(n, u, k, tuple(structure.D.items()))
    label = [0] * ncodes

    def labelled(c, a, candidates):
        """The candidates once c is labelled a, or None if a cut fires."""
        label[c] = a
        rest = list(candidates)
        for i in range(n):
            later, reach = set_of(fibers[c][i] >> c + 1 << c + 1), 0
            for f in later:
                rest[f] &= both[i][a]
                if not rest[f]:
                    return None
                reach |= rest[f]
            # the back condition on the fiber so far: equal to the check
            # of the whole fiber once c closes it
            labels = sum({1 << label[f] for f in set_of(fibers[c][i] & (2 << c) - 1)})
            need = sum(1 << x for x in range(k) if T[i][x] & labels) & ~labels
            if need.bit_count() > len(later) or need & ~reach:
                return None
            if not later and closure[i] is not None:
                # c closes its i-fiber: C_i acts on each fiber alone, as
                # the closure of the points where each atom lies
                points = [0] * k
                for f in set_of(fibers[c][i]):
                    points[label[f]] |= 1 << f // u ** i % u
                if any(space.topology.closure_bits(points[x]) != sum(
                        points[b] for b in set_of(closure[i][x])) for x in range(k)):
                    return None
        return rest

    def backtrack(c, candidates, used):
        if c == ncodes:
            images = [sum(1 << f for f, b in enumerate(label) if b == a) for a in range(k)]
            return Representation(space, images) if _embeds(structure, space, images) else None
        if k - used.bit_count() > ncodes - c:
            return None
        for a in range(k):
            rest = labelled(c, a, candidates) if candidates[c] >> a & 1 else None
            if rest is not None:
                found = backtrack(c + 1, rest, used | 1 << a)
                if found is not None:
                    return found
        return None

    return backtrack(0, candidates, 0)


@functools.lru_cache(maxsize=None)
def _code_tables(dim: int, u: int, num_atoms: int, diagonals: tuple) -> tuple:
    """Per code of the cube of dimension dim over u points: its i-fiber for
    each axis i, and its candidates among num_atoms atoms with diagonal
    atom sets `diagonals` ((i, j), D_ij). Neither reads a topology, so the
    search builds them once per base and reads them on every topology."""
    space = sa.SetAlgebraSpace(dim, u)
    fibers = tuple(tuple(sa.cyl(space, i, 1 << c) for i in range(dim))
                   for c in range(space.ncodes))
    candidates = []
    for c in range(space.ncodes):
        m = (1 << num_atoms) - 1
        for (i, j), d in diagonals:
            m &= d if sa.diag(space, i, j) >> c & 1 else ~d
        candidates.append(m)
    return fibers, tuple(candidates)


def _embeds(structure: AtomStructure, space, images) -> bool:
    """Whether atom a -> images[a] extends to an embedding of cm(structure)
    into the full set algebra on `space`, the map sending an element to the
    union of its atoms' images.

    The images must be non-empty; the labelling makes them partition the
    unit, so the map is an injective Boolean homomorphism. c_i, the closure
    C_i(x) = -I_i(-x) and the map are additive (they send a join to the join
    of the values, and 0 to 0), so the map commutes with c_i and C_i on
    every element once it does on every atom; commuting with C_i and with
    complement, it commutes with I_i. What is left is that D_ij goes to
    d_ij."""
    one = space.full_bits

    def image(x):
        return sum(images[a] for a in set_of(x))

    if not all(images):
        return False
    for i in range(structure.dim):
        closure = structure.converse[i]
        for a, img in enumerate(images):
            if image(structure.T[i][a]) != sa.cyl(space, i, img):
                return False
            if one ^ sa.interior_op(space, i, one ^ img) != (
                    img if closure is None else image(closure[a])):
                return False
    return all(image(d) == sa.diag(space, i, j) for (i, j), d in structure.D.items())
