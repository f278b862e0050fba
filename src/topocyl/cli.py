"""Command-line front end: reproducible experiments with JSON artifacts.

Exit status: 0 when the run's verdict matches --expect (or no expectation
was given and the command ran), 1 on a verdict mismatch, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from . import bao, games, modal, rainbow, setalg, topology
from .errors import WorkbenchError
from .report import emit, make_report


def _topology_arg(arg: str, size: int) -> topology.FiniteTopology:
    if arg in ("discrete", "indiscrete"):
        return topology.make_topology(size, preset=arg)
    return topology.FiniteTopology.from_json(_json_arg(arg))


def _json_arg(arg: str):
    """A JSON document given inline or, when arg ends in .json, as a file."""
    if not arg.endswith(".json"):
        return json.loads(arg)
    with open(arg, encoding="utf-8") as fh:
        return json.load(fh)


def _structure_arg(arg: str):
    """fullset:N,U[,topology] | rainbow:3 | path to an atom-structure JSON."""
    if arg.startswith("fullset:"):
        parts = arg.split(":", 1)[1].split(",")
        n, u = int(parts[0]), int(parts[1])
        preset = parts[2] if len(parts) > 2 else "discrete"
        topo = topology.make_topology(u, preset=preset)
        return bao.atom_structure_of(setalg.SetAlgebraSpace(n, u, topo))
    if arg.startswith("rainbow:"):
        n = int(arg.split(":", 1)[1])
        return rainbow.build_atom_structure(rainbow.signature(n))
    with open(arg, encoding="utf-8") as fh:
        return _atom_structure_from_json(json.load(fh))


def _atom_structure_from_json(doc: dict) -> bao.AtomStructure:
    dim, k = doc["dim"], doc["atoms"]
    pairs = [[tuple(p) for p in rel] for rel in doc["T"]]
    diag = {}
    for key, atoms in doc["D"].items():
        i, j = (int(p) for p in key.split(","))
        diag[(i, j)] = atoms
    interior = []
    for desc in doc.get("interior", ["identity"] * dim):
        if desc == "identity":
            interior.append(None)
        else:
            table = [0] * k
            for a, img in desc.items():
                m = 0
                for b in img:
                    m |= 1 << b
                table[int(a)] = m
            interior.append(table)
    return bao.AtomStructure.from_pairs(dim, k, pairs, diag, interior)


def _finish(args, results: dict, verdict, command: str) -> int:
    config = {
        "seed": getattr(args, "seed", None),
        "samples": getattr(args, "samples", None),
        "max_size": getattr(args, "max_size", None),
        "rounds": getattr(args, "rounds", None),
        "nodes": getattr(args, "nodes", None),
        "expect": getattr(args, "expect", None),
    }
    results = dict(results)
    results["verdict"] = str(verdict)
    emit(make_report(command, config, results), getattr(args, "out", None))
    if args.expect is not None and str(verdict) != args.expect:
        return 1
    return 0


# -- topo ----------------------------------------------------------------


def cmd_topo_enum(args):
    tops = list(topology.enumerate_topologies(args.max_size))
    results = {
        "size": args.max_size,
        "count": len(tops),
        "topologies": [t.to_json() for t in tops] if args.max_size <= 3 else "elided",
    }
    return _finish(args, results, len(tops), "topo enum")


def cmd_topo_check(args):
    doc = _json_arg(args.json)
    try:
        t = topology.FiniteTopology.from_json(doc)
        results = {"topology": t.to_json(),
                   "almost_discrete": topology.is_almost_discrete(t)}
        verdict = "valid"
    except WorkbenchError as exc:
        results = {"error": type(exc).__name__, "detail": str(exc)}
        verdict = "invalid"
    return _finish(args, results, verdict, "topo check")


# -- modal ---------------------------------------------------------------


def cmd_modal_eval(args):
    f = modal.parse(args.formula)
    with open(args.model, encoding="utf-8") as fh:
        doc = json.load(fh)
    valuation = {int(k): v for k, v in doc["valuation"].items()}
    if doc["kind"] == "topo":
        m = modal.TopoModel(topology.FiniteTopology.from_json(doc["topology"]), valuation)
        sat = modal.eval_topo(m, f)
    elif doc["kind"] == "kripke":
        m = modal.KripkeModel(topology.Preorder.from_json(doc["preorder"]), valuation)
        sat = modal.eval_kripke(m, f)
    else:
        m = modal.DynamicModel(
            topology.FiniteTopology.from_json(doc["topology"]), doc["map"], valuation)
        sat = modal.eval_dynamic(m, f)
    results = {"formula": modal.unparse(f), "satisfying": sorted(sat)}
    return _finish(args, results, sorted(sat), "modal eval")


def cmd_modal_countermodel(args):
    f = modal.parse(args.formula)
    found = modal.find_countermodel(f, args.max_size, args.mode,
                                    seed=args.seed, samples=args.samples)
    if found is None:
        results = {"formula": modal.unparse(f), "found": False,
                   "note": f"no countermodel within size {args.max_size}; "
                           "this is not a validity proof"}
        verdict = "none"
    else:
        model = found["model"]
        if args.mode == "topo":
            frame = model.topology.to_json()
        else:
            frame = model.preorder.to_json()
        results = {
            "formula": modal.unparse(f),
            "found": True,
            "frame": frame,
            "valuation": {str(k): sorted(topology.set_of(v))
                          for k, v in model.valuation.items()},
            "point": found["point"],
        }
        verdict = "found"
    return _finish(args, results, verdict, "modal countermodel")


def cmd_modal_equiv(args):
    rng = random.Random(args.seed)
    mismatches = []
    checked = 0
    for size in range(1, args.max_size + 1):
        preorders = list(topology.enumerate_preorders(size))
        if size >= 4:
            preorders = [preorders[rng.randrange(len(preorders))]
                         for _ in range(min(len(preorders), args.samples))]
        for p in preorders:
            t = topology.alexandrov(p)
            for _ in range(args.formulas_per_frame):
                f = modal.random_formula(rng, 2, args.depth)
                val = {0: rng.randrange(1 << size), 1: rng.randrange(1 << size)}
                a = modal.eval_kripke(modal.KripkeModel(p, val), f)
                b = modal.eval_topo(modal.TopoModel(t, val), f)
                checked += 1
                if a != b:
                    mismatches.append({"size": size, "formula": modal.unparse(f)})
    results = {"checked": checked, "equal": not mismatches, "mismatches": mismatches}
    return _finish(args, results, str(not mismatches).lower(), "modal equiv")


# -- setalg ---------------------------------------------------------------


def _space_from_args(args) -> setalg.SetAlgebraSpace:
    topo = _topology_arg(args.topology, args.base) if args.topology else None
    chang = setalg.chang_from_topology(topo) if (topo and args.chang) else None
    return setalg.SetAlgebraSpace(args.dim, args.base, topo, chang)


def cmd_setalg_op(args):
    sp = _space_from_args(args)
    x = sp.from_bits(sum(1 << c for c in args.members))
    if args.op == "cyl":
        out = setalg.cyl(args.i, x)
    elif args.op == "diag":
        out = setalg.diag(args.i, args.j, sp)
    elif args.op == "interior":
        out = setalg.interior_op(args.i, x)
    elif args.op == "closure":
        out = setalg.interior_op(args.i, x, dual=True)
    elif args.op == "box":
        out = setalg.box_op(args.i, x)
    elif args.op == "subst":
        tau = [int(p) for p in args.tau.split(",")]
        out = setalg.subst(tau, x)
    elif args.op == "dimset":
        results = {"dimension_set": sorted(setalg.dimension_set(x))}
        return _finish(args, results, sorted(setalg.dimension_set(x)), "setalg op")
    else:
        raise WorkbenchError(f"unknown op {args.op}")
    results = {"op": args.op, "input": x.to_json(), "output": out.to_json()}
    return _finish(args, results, out.to_json()["members"], "setalg op")


def cmd_setalg_axioms(args):
    sp = _space_from_args(args)
    alg = bao.SetAlgebra(sp, boxes="chang" if args.chang else "topology")
    rep = bao.check_axiom_suite(alg, args.suite, mode="sampled",
                                samples=args.samples, seed=args.seed)
    return _finish(args, rep, str(rep["all_pass"]).lower(), "setalg axioms")


def cmd_setalg_witness_nonadditive(args):
    sp = setalg.SetAlgebraSpace(2, 2, topology.make_topology(2, preset="indiscrete"))
    x1 = sp.element([(0, 0)])
    x2 = sp.element([(1, 0)])
    both = x1 | x2
    lhs = setalg.interior_op(0, x1) | setalg.interior_op(0, x2)
    rhs = setalg.interior_op(0, both)
    results = {
        "space": "indiscrete base of size 2, dimension 2",
        "I0_first": sorted(lhs.members()),
        "I0_union": sorted(rhs.members()),
        "union": sorted(both.members()),
        "witnessed": lhs.bits == 0 and rhs.bits == both.bits,
    }
    return _finish(args, results, str(results["witnessed"]).lower(),
                   "setalg witness-nonadditive")


def cmd_setalg_witness_nontermdef(args):
    disc = setalg.SetAlgebraSpace(2, 2, topology.make_topology(2, preset="discrete"))
    indisc = setalg.SetAlgebraSpace(2, 2, topology.make_topology(2, preset="indiscrete"))
    x_d = disc.element([(0, 0)])
    x_i = indisc.element([(0, 0)])
    same_cyl = all(
        setalg.cyl(i, x_d).bits == setalg.cyl(i, x_i).bits for i in (0, 1)
    ) and all(
        setalg.diag(i, j, disc).bits == setalg.diag(i, j, indisc).bits
        for i in (0, 1) for j in (0, 1)
    )
    results = {
        "element": [[0, 0]],
        "interior_discrete": sorted(setalg.interior_op(0, x_d).members()),
        "interior_indiscrete": sorted(setalg.interior_op(0, x_i).members()),
        "cylindric_reducts_agree": same_cyl,
        "witnessed": same_cyl
        and setalg.interior_op(0, x_d).bits != setalg.interior_op(0, x_i).bits,
    }
    return _finish(args, results, str(results["witnessed"]).lower(),
                   "setalg witness-nontermdef")


# -- bao -----------------------------------------------------------------


def cmd_bao_cm(args):
    s = _structure_arg(args.structure)
    if isinstance(s, rainbow.RainbowStructure):
        results = s.to_json_head()
    else:
        alg = bao.cm(s)
        results = {"dim": s.dim, "atoms": s.num_atoms,
                   "carrier": 1 << s.num_atoms,
                   "interior_flags": s.interior_flags,
                   "structure": s.to_json() if s.num_atoms <= 12 else "elided"}
    return _finish(args, results, "ok", "bao cm")


def cmd_bao_check(args):
    s = _structure_arg(args.structure)
    if isinstance(s, rainbow.RainbowStructure):
        alg = s.cm()
    else:
        alg = bao.cm(s)
    rep = bao.check_axiom_suite(alg, args.suite, mode="sampled",
                                samples=args.samples, seed=args.seed)
    return _finish(args, rep, str(rep["all_pass"]).lower(), "bao check")


def cmd_bao_nr(args):
    s = _structure_arg(args.structure)
    alg = bao.cm(s)
    sub = bao.nr(args.m, alg)
    results = {"dim": args.m, "carrier_size": len(sub.carrier_list())}
    return _finish(args, results, len(sub.carrier_list()), "bao nr")


def cmd_bao_sg(args):
    s = _structure_arg(args.structure)
    alg = bao.cm(s)
    gens = [int(g) for g in args.gens.split(",")] if args.gens else []
    sub = bao.sg(alg, gens)
    results = {"generators": gens, "carrier_size": len(sub.carrier_list())}
    return _finish(args, results, len(sub.carrier_list()), "bao sg")


def cmd_bao_represent(args):
    s = _structure_arg(args.structure)
    alg = bao.cm(s)
    rep = bao.try_represent(alg, max_base=args.max_base)
    results = {"found": rep["found"]}
    if rep["found"]:
        results["representation"] = rep["representation"].to_json()
    else:
        results["reason"] = rep["reason"]
    return _finish(args, results, str(rep["found"]).lower(), "bao represent")


# -- rainbow ---------------------------------------------------------------


def cmd_rainbow_atoms(args):
    sig = rainbow.signature(args.n)
    table = rainbow.enumerate_atoms(sig)
    sample = []
    for code in table.codes[: args.limit]:
        blocks, g = table.graph_of(int(code))
        sample.append({"code": int(code), "kernel": [list(b) for b in blocks],
                       "graph": g.to_json()})
    results = {"signature": sig.summary(), "atom_count": table.count,
               "first_atoms": sample}
    return _finish(args, results, table.count, "rainbow atoms")


def cmd_rainbow_structure(args):
    s = rainbow.build_atom_structure(rainbow.signature(args.n))
    return _finish(args, s.to_json_head(args.limit), s.num_atoms, "rainbow structure")


# -- game ------------------------------------------------------------------


def cmd_game_solve(args):
    s = _structure_arg(args.structure)
    try:
        res = games.solve_bounded(s, args.nodes, args.rounds, args.mode)
        verdict = res["winner"]
    except WorkbenchError as exc:
        res = {"error": type(exc).__name__, "detail": str(exc)}
        verdict = "inconclusive"
    return _finish(args, res, verdict, "game solve")


def cmd_game_script(args):
    s = rainbow.build_atom_structure(rainbow.signature(args.n))
    tints = tuple(int(t) for t in args.tints.split(",")) if args.tints else None
    proof = games.verify_forall_script(s, tints=tints)
    return _finish(args, proof, str(proof["all_lines_dead"]).lower(), "game script")


def cmd_game_verify_transcript(args):
    with open(args.transcript, encoding="utf-8") as fh:
        doc = json.load(fh)
    artifact = doc["results"] if "results" in doc else doc
    s = _structure_arg(args.structure)
    res = games.verify_transcript(s, artifact)
    return _finish(args, res, str(res["ok"]).lower(), "game verify-transcript")


# -- parser -----------------------------------------------------------------


COMMON_DEFAULTS = {"seed": 0, "samples": 1000, "out": None, "expect": None}


def _common(p):
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--expect", default=None)
    p.add_argument("--config", default=None,
                   help="JSON file of defaults; explicit flags win")


def _apply_config(args):
    cfg = {}
    if getattr(args, "config", None):
        with open(args.config, encoding="utf-8") as fh:
            cfg = json.load(fh)
    for key, builtin in COMMON_DEFAULTS.items():
        if getattr(args, key, None) is None:
            setattr(args, key, cfg.get(key, builtin))


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="topocyl",
                                 description="finite-model workbench for "
                                             "topological cylindric algebras")
    sub = ap.add_subparsers(dest="group", required=True)

    topo = sub.add_parser("topo").add_subparsers(dest="cmd", required=True)
    p = topo.add_parser("enum")
    p.add_argument("--max-size", dest="max_size", type=int, default=3)
    _common(p)
    p.set_defaults(fn=cmd_topo_enum)
    p = topo.add_parser("check")
    p.add_argument("--json", required=True)
    _common(p)
    p.set_defaults(fn=cmd_topo_check)

    mod = sub.add_parser("modal").add_subparsers(dest="cmd", required=True)
    p = mod.add_parser("eval")
    p.add_argument("--formula", required=True)
    p.add_argument("--model", required=True)
    _common(p)
    p.set_defaults(fn=cmd_modal_eval)
    p = mod.add_parser("countermodel")
    p.add_argument("--formula", required=True)
    p.add_argument("--max-size", dest="max_size", type=int, default=3)
    p.add_argument("--mode", choices=("topo", "kripke"), default="topo")
    _common(p)
    p.set_defaults(fn=cmd_modal_countermodel)
    p = mod.add_parser("equiv")
    p.add_argument("--max-size", dest="max_size", type=int, default=3)
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--formulas-per-frame", type=int, default=20)
    _common(p)
    p.set_defaults(fn=cmd_modal_equiv)

    sal = sub.add_parser("setalg").add_subparsers(dest="cmd", required=True)
    p = sal.add_parser("op")
    p.add_argument("--op", required=True,
                   choices=("cyl", "diag", "interior", "closure", "box",
                            "subst", "dimset"))
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--base", type=int, required=True)
    p.add_argument("--topology", default=None)
    p.add_argument("--chang", action="store_true")
    p.add_argument("--members", type=int, nargs="*", default=[])
    p.add_argument("--i", type=int, default=0)
    p.add_argument("--j", type=int, default=0)
    p.add_argument("--tau", default=None)
    _common(p)
    p.set_defaults(fn=cmd_setalg_op)
    p = sal.add_parser("axioms")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--base", type=int, required=True)
    p.add_argument("--topology", default="discrete")
    p.add_argument("--chang", action="store_true")
    p.add_argument("--suite", choices=bao.SUITES, default="TCA")
    _common(p)
    p.set_defaults(fn=cmd_setalg_axioms)
    p = sal.add_parser("witness-nonadditive")
    _common(p)
    p.set_defaults(fn=cmd_setalg_witness_nonadditive)
    p = sal.add_parser("witness-nontermdef")
    _common(p)
    p.set_defaults(fn=cmd_setalg_witness_nontermdef)

    b = sub.add_parser("bao").add_subparsers(dest="cmd", required=True)
    p = b.add_parser("cm")
    p.add_argument("--structure", required=True)
    _common(p)
    p.set_defaults(fn=cmd_bao_cm)
    p = b.add_parser("check")
    p.add_argument("--structure", required=True)
    p.add_argument("--suite", choices=bao.SUITES, default="CA")
    _common(p)
    p.set_defaults(fn=cmd_bao_check)
    p = b.add_parser("nr")
    p.add_argument("--structure", required=True)
    p.add_argument("--m", type=int, required=True)
    _common(p)
    p.set_defaults(fn=cmd_bao_nr)
    p = b.add_parser("sg")
    p.add_argument("--structure", required=True)
    p.add_argument("--gens", default=None)
    _common(p)
    p.set_defaults(fn=cmd_bao_sg)
    p = b.add_parser("represent")
    p.add_argument("--structure", required=True)
    p.add_argument("--max-base", dest="max_base", type=int, default=3)
    _common(p)
    p.set_defaults(fn=cmd_bao_represent)

    rb = sub.add_parser("rainbow").add_subparsers(dest="cmd", required=True)
    p = rb.add_parser("atoms")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--limit", type=int, default=8)
    _common(p)
    p.set_defaults(fn=cmd_rainbow_atoms)
    p = rb.add_parser("structure")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--limit", type=int, default=8)
    _common(p)
    p.set_defaults(fn=cmd_rainbow_structure)

    g = sub.add_parser("game").add_subparsers(dest="cmd", required=True)
    p = g.add_parser("solve")
    p.add_argument("--structure", required=True)
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--rounds", type=int, required=True)
    p.add_argument("--mode", choices=("F", "G"), default="F")
    _common(p)
    p.set_defaults(fn=cmd_game_solve)
    p = g.add_parser("script")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--tints", default=None)
    _common(p)
    p.set_defaults(fn=cmd_game_script)
    p = g.add_parser("verify-transcript")
    p.add_argument("--transcript", required=True)
    p.add_argument("--structure", required=True)
    _common(p)
    p.set_defaults(fn=cmd_game_verify_transcript)

    return ap


def dispatch(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        _apply_config(args)
        return args.fn(args)
    except WorkbenchError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError, ValueError, SyntaxError, KeyError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
