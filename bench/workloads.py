"""The four benchmark workloads: seeded inputs, tasks and expected verdicts.

A workload is a fixed list of tasks. `build(name, seed)` is its set-up: it
generates every input from the seed (the program never sees the seed) and
builds the spaces and structures the tasks run on. A task is one verdict;
`Task.run` calls only the program's public API and `Task.check` compares the
result with an expectation derived without the code under test (a theorem,
a classical truth table, or the regression fixture), returning the fields
that enter the result digest.

Each workload keeps its cost independent of the seed: the seed changes what
is computed (environment streams, formulas, atom samples, presets, orders),
never how many tasks of each kind there are or how large they are.
"""

from __future__ import annotations

import itertools
import random
from typing import Callable, List, NamedTuple

import numpy as np

from topocyl import bao, games, modal, rainbow, setalg, topology

# -- expectations ---------------------------------------------------------------

ATOM_COUNT_N3 = 10894256      # regression fixture of the n = 3 rainbow atom table
EXPECT_SUITE_PASSES = True    # soundness of CA / TCA / S4Chang in full set algebras
EXPECT_WINNER = "exists"      # full set algebras are representable


class Task(NamedTuple):
    name: str
    kind: str
    inputs: object            # what the seed generated for this task (JSON-able)
    run: Callable[[], object]
    check: Callable[[object], tuple]   # result -> (ok, digest payload)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


# -- setalg-sweep ---------------------------------------------------------------

SETALG_SHAPES = ((2, 2), (2, 3), (3, 2), (3, 3))
SETALG_SUITES = (("CA", "topology"), ("TCA", "topology"), ("S4Chang", "chang"))
SETALG_SAMPLES = 24


def _check_suite(rep):
    payload = {
        "all_pass": rep["all_pass"],
        "axioms": [[a["axiom"], a["verdict"], a["tested"]] for a in rep["axioms"]],
    }
    return rep["all_pass"] is EXPECT_SUITE_PASSES, payload


def build_setalg_sweep(seed: int) -> List[Task]:
    rng = _rng("setalg-sweep", seed)
    tasks = []
    for n, u in SETALG_SHAPES:
        for t_idx, topo in enumerate(topology.enumerate_topologies(u)):
            # one space serves all three suites
            space = setalg.SetAlgebraSpace(n, u, topo, setalg.chang_from_topology(topo))
            for suite, boxes in SETALG_SUITES:
                alg = bao.SetAlgebra(space, boxes)
                env_seed = rng.randrange(1 << 31)
                tasks.append(Task(
                    f"{n}x{u}/top{t_idx}/{suite}", f"suite:{suite}:{n}x{u}", env_seed,
                    lambda alg=alg, suite=suite, env_seed=env_seed: bao.check_axiom_suite(
                        alg, suite, mode="sampled", samples=SETALG_SAMPLES, seed=env_seed),
                    _check_suite,
                ))
    return tasks


# -- rainbow-algebra -------------------------------------------------------------

RAINBOW_SINGLETONS = 4
RAINBOW_AXIOM_SAMPLES = 1
# 20 small batches: with them the median task falls in the middle of the
# CA7 / CA2 group of like tasks, not at its edge
RAINBOW_VALID_BATCHES = 20
RAINBOW_VALID_BATCH = 50


def _check_atom_count(codes):
    count = int(codes.shape[0])
    increasing = bool((np.diff(codes) > 0).all())
    return count == ATOM_COUNT_N3 and increasing, {"atoms": count, "increasing": increasing}


def _check_frame(res):
    return res["d_ii"] and res["c_i0"] and res["ca8_max"] <= 1, res


def _check_true(res):
    return res is True, res


def _check_singleton(res):
    return res["x<=c_i x"] and res["commute"], res


def _check_holds(res):
    payload = {"verdict": res["verdict"], "tested": res["tested"]}
    return res["verdict"] == "holds", payload


def _check_all_valid(flags):
    return all(flags), {"valid": sum(flags), "of": len(flags)}


def build_rainbow_algebra(seed: int) -> List[Task]:
    rng = _rng("rainbow-algebra", seed)
    structure = rainbow.build_atom_structure(rainbow.signature(3))
    alg = structure.cm()
    codes = structure.codes
    natoms = structure.num_atoms

    def frame(i):
        inv = structure.groups(i)
        ngroups = int(inv.max()) + 1
        worst = 0
        for j in range(3):
            if j != i:
                hits = np.bincount(inv[structure.diag_mask(i, j)], minlength=ngroups)
                worst = max(worst, int(hits.max(initial=0)))
        return {"d_ii": bool(structure.diag_mask(i, i).all()),
                "c_i0": bool(alg.eq(alg.cyl(i, alg.zero), alg.zero)),
                "ca8_max": worst}

    def ca7(i, j, k):
        lhs = alg.dg(i, j)
        rhs = alg.cyl(k, alg.times(alg.dg(i, k), alg.dg(j, k)))
        return bool(alg.eq(lhs, rhs))

    def singleton(code):
        x = alg.atom_singleton(code)
        pos = structure.index_of(code)
        below = commute = True
        for i in range(3):
            below &= bool(alg.cyl(i, x)[pos])
            for j in range(i + 1, 3):
                commute &= bool(alg.eq(alg.cyl(i, alg.cyl(j, x)), alg.cyl(j, alg.cyl(i, x))))
        return {"x<=c_i x": below, "commute": commute}

    tasks = [Task("atom-count", "atom-count", None, lambda: structure.codes,
                  _check_atom_count)]
    for i in range(3):
        tasks.append(Task(f"frame/{i}", "frame", i, lambda i=i: frame(i), _check_frame))
    for i, j, k in itertools.product(range(3), repeat=3):
        if k != i and k != j:
            tasks.append(Task(f"CA7/{i}{j}{k}", "ca7", [i, j, k],
                              lambda i=i, j=j, k=k: ca7(i, j, k), _check_true))
    for idx in range(RAINBOW_SINGLETONS):
        code = int(codes[rng.randrange(natoms)])
        tasks.append(Task(f"singleton/{idx}", "singleton", code,
                          lambda code=code: singleton(code), _check_singleton))
    for name, eq, guards in bao.axioms_for("CA", 3):
        env_seed = rng.randrange(1 << 31)
        tasks.append(Task(
            f"axiom/{name}", "axiom", env_seed,
            lambda eq=eq, guards=guards, env_seed=env_seed: bao.check_equation(
                alg, eq, mode="sampled", samples=RAINBOW_AXIOM_SAMPLES, seed=env_seed,
                guards=guards),
            _check_holds,
        ))
    sample = rng.sample(range(natoms), RAINBOW_VALID_BATCHES * RAINBOW_VALID_BATCH)
    for b in range(RAINBOW_VALID_BATCHES):
        batch = [int(codes[i]) for i in
                 sample[b * RAINBOW_VALID_BATCH:(b + 1) * RAINBOW_VALID_BATCH]]
        tasks.append(Task(
            f"valid-atoms/{b}", "valid-atoms", batch[:4],
            lambda batch=batch: [bool(structure.table.valid_atom(c)) for c in batch],
            _check_all_valid,
        ))
    return tasks


# -- games ----------------------------------------------------------------------

GAME_PRESETS = ("discrete", "indiscrete")
# (n, u, m, rounds, mode). Cells whose solve costs more than about 0.7 s are
# left out (r=3 with m>=4; u=3 with r=2 and m>=4; n=3 with m>=4; up to 24 s
# each) so that a run holds enough passes for a steady per-task minimum.
GAME_CELLS = tuple(
    (2, u, m, r, mode)
    for u in (2, 3) for m in (3, 4, 5) for r in (1, 2, 3) for mode in "FG"
    if not (r == 3 and m >= 4) and not (u == 3 and r == 2 and m >= 4)
) + tuple((3, 2, 3, 1, mode) for mode in "FG")


def _check_solve(out):
    res, replay = out
    payload = {"winner": res["winner"], "replay_ok": replay["ok"]}
    return res["winner"] == EXPECT_WINNER and replay["ok"] is True, payload


def _check_script(out):
    proof, replay = out
    payload = {"all_lines_dead": proof["all_lines_dead"], "stats": proof["stats"],
               "replay_ok": replay["ok"], "dead_ends": replay.get("dead_ends")}
    return proof["all_lines_dead"] is True and replay["ok"] is True, payload


def build_games(seed: int) -> List[Task]:
    rng = _rng("games", seed)
    structures = {}
    for n, u in sorted({(c[0], c[1]) for c in GAME_CELLS}):
        for preset in GAME_PRESETS:
            space = setalg.SetAlgebraSpace(n, u, topology.make_topology(u, preset=preset))
            structures[(n, u, preset)] = bao.atom_structure_of(space)
    rs = rainbow.build_atom_structure(rainbow.signature(3))

    def solve(s, m, r, mode):
        res = games.solve_bounded(s, m, r, mode)
        return res, games.verify_transcript(s, res)

    def script(tints):
        proof = games.verify_forall_script(rs, tints)
        return proof, games.verify_transcript(rs, proof)

    tasks = []
    for n, u, m, r, mode in GAME_CELLS:
        # the generic backend reads only T and D, so the preset changes the
        # input structure but not the size of the search
        preset = rng.choice(GAME_PRESETS)
        s = structures[(n, u, preset)]
        tasks.append(Task(
            f"solve/fullset:{n},{u},{preset}/m{m}/r{r}/{mode}", "solve", preset,
            lambda s=s, m=m, r=r, mode=mode: solve(s, m, r, mode), _check_solve,
        ))
    orders = list(itertools.permutations(rs.sig.tints))
    rng.shuffle(orders)
    for tints in orders:
        tasks.append(Task(f"script/{''.join(map(str, tints))}", "script", list(tints),
                          lambda tints=tints: script(tints), _check_script))
    return tasks


# -- modal-transfer --------------------------------------------------------------

MODAL_FRAME_SAMPLE_4 = 12      # size-4 preorders drawn per pass (all of sizes 1-3 run)
MODAL_FORMULAS = 48            # formulas per frame in the Kripke/Alexandrov batches
MODAL_NONTAUTOLOGIES = 8
MODAL_SEARCH_SIZE = 4

# S4 theorems: no countermodel exists at any size
THEOREMS = (
    lambda a, b: ("imp", ("I", ("imp", a, b)), ("imp", ("I", a), ("I", b))),
    lambda a, b: ("imp", ("I", a), ("I", ("I", a))),
    lambda a, b: ("imp", ("I", ("and", a, b)), ("and", ("I", a), ("I", b))),
)
# S4 non-theorems whose I-free skeleton is a classical tautology, so their
# smallest countermodel has at least two points (T, 5, non-additivity, .2,
# .3 and McKinsey); substituting literals of distinct atoms keeps both facts
NON_THEOREMS = (
    lambda p, q: ("imp", p, ("I", p)),
    lambda p, q: ("imp", ("not", ("I", p)), ("I", ("not", ("I", p)))),
    lambda p, q: ("imp", ("I", ("or", p, q)), ("or", ("I", p), ("I", q))),
    lambda p, q: ("imp", ("not", ("I", ("not", ("I", p)))),
                  ("I", ("not", ("I", ("not", p))))),
    lambda p, q: ("or", ("I", ("imp", ("I", p), q)), ("I", ("imp", ("I", q), p))),
    lambda p, q: ("imp", ("I", ("not", ("I", ("not", p)))),
                  ("not", ("I", ("not", ("I", p))))),
)


def random_formula(rng: random.Random, nodes: int, depth: int):
    """Formula over p0, p1 with exactly `nodes` nodes and I-depth <= depth."""
    if nodes == 1:
        return ("atom", rng.randrange(2))
    ops = ["not"] + (["I"] if depth > 0 else [])
    if nodes >= 3:
        ops += ["and", "or", "imp"]
    op = rng.choice(ops)
    if op == "not":
        return ("not", random_formula(rng, nodes - 1, depth))
    if op == "I":
        return ("I", random_formula(rng, nodes - 1, depth - 1))
    left = rng.randrange(1, nodes - 1)
    return (op, random_formula(rng, left, depth), random_formula(rng, nodes - 1 - left, depth))


def _signature(f) -> tuple:
    """(nodes, I nodes, negations): what an evaluation of f costs."""
    if f[0] == "atom":
        return (1, 0, 0)
    sub = [_signature(g) for g in f[1:]]
    return (1 + sum(s[0] for s in sub), (f[0] == "I") + sum(s[1] for s in sub),
            (f[0] == "not") + sum(s[2] for s in sub))


def _formula_like(rng: random.Random, signature: tuple, depth: int):
    """A random formula of the given signature, so that the seed changes the
    formula but not what evaluating it costs."""
    while True:
        f = random_formula(rng, signature[0], depth)
        if _signature(f) == signature:
            return f


def _atoms(f) -> set:
    if f[0] == "atom":
        return {f[1]}
    return set().union(*(_atoms(g) for g in f[1:]))


def _classical(f, v) -> bool:
    """Truth value with I read as the identity (the one-point models)."""
    op = f[0]
    if op == "atom":
        return v[f[1]]
    if op == "not":
        return not _classical(f[1], v)
    if op == "I":
        return _classical(f[1], v)
    a, b = _classical(f[1], v), _classical(f[2], v)
    return {"and": a and b, "or": a or b, "imp": (not a) or b}[op]


def _is_tautology(f) -> bool:
    return all(_classical(f, v) for v in itertools.product((False, True), repeat=2))


def _check_agreement(pairs):
    agree = all(np.array_equal(a, b) for a, b in pairs)
    return agree, {"agree": agree, "formulas": len(pairs)}


def _refutes_other_semantics(f, res) -> bool:
    model, point = res["model"], res["point"]
    if res["mode"] == "topo":
        other = modal.KripkeModel(topology.specialization_preorder(model.topology),
                                  model.valuation)
        return point not in modal.eval_kripke(other, f)
    other = modal.TopoModel(topology.alexandrov(model.preorder), model.valuation)
    return point not in modal.eval_topo(other, f)


def _size(res):
    if res is None:
        return None
    m = res["model"]
    return m.topology.size if res["mode"] == "topo" else m.preorder.size


def _countermodel_check(f, expect: str):
    """expect: 'none' (theorem), 'size1' (classical non-tautology) or
    'size2+' (non-theorem with a tautological skeleton)."""

    def check(out):
        sizes = {mode: _size(res) for mode, res in out.items()}
        payload = {"topo": sizes["topo"], "kripke": sizes["kripke"]}
        if sizes["topo"] != sizes["kripke"]:
            return False, payload
        size = sizes["topo"]
        if expect == "none":
            return size is None, payload
        if size is None or not all(_refutes_other_semantics(f, r) for r in out.values()):
            return False, payload
        return (size == 1) if expect == "size1" else (size >= 2), payload

    return check


def build_modal_transfer(seed: int) -> List[Task]:
    rng = _rng("modal-transfer", seed)
    frames = [p for size in (1, 2, 3) for p in topology.enumerate_preorders(size)]
    frames += rng.sample(list(topology.enumerate_preorders(4)), MODAL_FRAME_SAMPLE_4)
    shapes = random.Random("modal-transfer:shapes")
    formulas = [_formula_like(rng, _signature(random_formula(shapes, shapes.randint(3, 9), 3)), 3)
                for _ in range(MODAL_FORMULAS)]
    vals = {}
    for size in (1, 2, 3, 4):
        grid = np.array(list(itertools.product(range(1 << size), repeat=2)))
        bits = (grid[:, :, None] >> np.arange(size)) & 1
        vals[size] = {0: bits[:, 0, :].astype(bool), 1: bits[:, 1, :].astype(bool)}

    def batches(p, t):
        return [(modal.eval_kripke_batch(p, vals[p.size], f),
                 modal.eval_topo_batch(t, vals[p.size], f)) for f in formulas]

    def search(f):
        return {mode: modal.find_countermodel(f, MODAL_SEARCH_SIZE, mode)
                for mode in ("topo", "kripke")}

    tasks = []
    for idx, p in enumerate(frames):
        t = topology.alexandrov(p)
        tasks.append(Task(f"kripke-alexandrov/{p.size}/{idx}", "kripke-alexandrov",
                          p.to_json(), lambda p=p, t=t: batches(p, t), _check_agreement))

    searches = []
    for k, make in enumerate(THEOREMS):
        # the exhaustive search costs the same for every substitution of
        # this shape: each slot a connective over both atoms, the slots'
        # connectives a fixed set in seeded order (theorem 1 has one slot)
        x, y = rng.sample((0, 1), 2)
        ops = ("or", "or") if k == 1 else rng.sample(("and", "imp"), 2)
        a, b = (ops[0], ("atom", x), ("atom", y)), (ops[1], ("atom", y), ("atom", x))
        searches.append((f"theorem/{k}", make(a, b), "none"))
    for k in range(MODAL_NONTAUTOLOGIES):
        while True:
            f = random_formula(rng, 8, 3)
            if not _is_tautology(f):
                break
        searches.append((f"non-tautology/{k}", f, "size1"))
    for k, make in enumerate(NON_THEOREMS):
        lits = []
        for a in rng.sample((0, 1), 2):
            lit = ("atom", a)
            lits.append(("not", lit) if rng.random() < 0.5 else lit)
        searches.append((f"non-theorem/{k}", make(*lits), "size2+"))
    for name, f, expect in searches:
        tasks.append(Task(f"countermodel/{name}", f"countermodel:{expect}", modal.unparse(f),
                          lambda f=f: search(f), _countermodel_check(f, expect)))
    return tasks


WORKLOADS = {
    "setalg-sweep": build_setalg_sweep,
    "rainbow-algebra": build_rainbow_algebra,
    "games": build_games,
    "modal-transfer": build_modal_transfer,
}


def build(name: str, seed: int) -> List[Task]:
    return WORKLOADS[name](seed)
