"""Command-line front end: reproducible experiments with JSON artifacts.

`COMMANDS` is the one table of the commands: group -> command -> (handler,
the command's own flags). `build_parser` is built from it, and each report
names its command as "group cmd".

Exit status: 0 when the run's verdict matches --expect (or no expectation
was given and the command ran), 1 on a verdict mismatch, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import random
import reprlib
import sys

from . import bao, games, modal, rainbow, setalg, topology
from .errors import WorkbenchError, json_field, json_ints
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
    """fullset:N,U[,preset] | rainbow:3 | path to an atom-structure JSON."""
    if arg.startswith("fullset:"):
        parts = arg.split(":", 1)[1].split(",")
        if len(parts) not in (2, 3) or not all(p.isdigit() for p in parts[:2]):
            raise ValueError(f"--structure {arg}: the form is fullset:N,U[,preset]")
        n, u = int(parts[0]), int(parts[1])
        preset = parts[2] if len(parts) > 2 else "discrete"
        topo = topology.make_topology(u, preset=preset)
        return bao.atom_structure_of(setalg.SetAlgebraSpace(n, u, topo))
    if arg.startswith("rainbow:"):
        n = arg.split(":", 1)[1]
        if not n.isdigit():
            raise ValueError(f"--structure {arg}: the form is rainbow:N")
        return rainbow.build_atom_structure(rainbow.signature(int(n)))
    with open(arg, encoding="utf-8") as fh:
        return bao.AtomStructure.from_json(json.load(fh))


def _int_list(flag: str, arg: str, example: str) -> list:
    """The comma-separated integers of a flag's value."""
    try:
        return [int(p) for p in arg.split(",")]
    except ValueError:
        raise ValueError(f"{flag} {arg}: the form is comma-separated integers "
                         f"such as {example}") from None


def _explicit_structure_arg(args):
    """The --structure of a bao command that builds `bao.cm`, which needs
    the explicit T and D tables a rainbow structure does not carry."""
    if args.structure.startswith("rainbow:"):
        raise ValueError(f"bao {args.cmd} needs an explicit atom structure "
                         f"(fullset:N,U or a JSON file), not {args.structure}")
    return _structure_arg(args.structure)


def _finish(args, results: dict, verdict) -> int:
    """Emit the report. Its config echoes the same six keys for every
    command: seed and samples always (built-in or --config values where the
    command takes no such flag), the others None where it takes none."""
    config = {key: getattr(args, key, None)
              for key in ("seed", "samples", "max_size", "rounds", "nodes", "expect")}
    results = dict(results, verdict=str(verdict))
    emit(make_report(f"{args.group} {args.cmd}", config, results), args.out)
    return int(args.expect is not None and str(verdict) != args.expect)


# -- topo ----------------------------------------------------------------


def cmd_topo_enum(args):
    tops = list(topology.enumerate_topologies(args.max_size))
    results = {
        "size": args.max_size,
        "count": len(tops),
        "topologies": [t.to_json() for t in tops] if args.max_size <= 3 else "elided",
    }
    return _finish(args, results, len(tops))


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
    return _finish(args, results, verdict)


# -- modal ---------------------------------------------------------------


# model kind -> (the model its JSON document builds given the valuation,
# the evaluator of formulas on that model)
MODEL_KINDS = {
    "topo": (lambda doc, val: modal.TopoModel(
        topology.FiniteTopology.from_json(doc.get("topology")), val), modal.eval_topo),
    "kripke": (lambda doc, val: modal.KripkeModel(
        topology.Preorder.from_json(doc.get("preorder")), val), modal.eval_kripke),
    "dynamic": (lambda doc, val: modal.DynamicModel(
        topology.FiniteTopology.from_json(doc.get("topology")),
        json_ints(doc.get("map"), '"map"'), val), modal.eval_dynamic),
}


def cmd_modal_eval(args):
    f = modal.parse(args.formula)
    with open(args.model, encoding="utf-8") as fh:
        doc = json.load(fh)
    kind = json_field(doc, dict, "a model").get("kind")
    if not isinstance(kind, str) or kind not in MODEL_KINDS:
        raise ValueError(f"model kind {kind!r}: the model JSON needs \"kind\" "
                         f"set to one of {', '.join(MODEL_KINDS)}")
    valuation = {}
    for key, v in json_field(doc.get("valuation"), dict, '"valuation"').items():
        try:
            k = int(key)
        except ValueError:
            k = -1
        # one spelling per index, the one countermodel writes: str(k)
        if k < 0 or str(k) != key:
            raise ValueError(f"valuation key {reprlib.repr(key)}: keys are variable indices "
                             "(\"0\" for p0)")
        valuation[k] = v
    model, evaluate = MODEL_KINDS[kind]
    sat = evaluate(model(doc, valuation), f)
    results = {"formula": modal.unparse(f), "satisfying": sorted(sat)}
    return _finish(args, results, sorted(sat))


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
        frame = model.topology if args.mode == "topo" else model.preorder
        results = {
            "formula": modal.unparse(f),
            "found": True,
            "frame": frame.to_json(),
            "valuation": {str(k): sorted(topology.set_of(v))
                          for k, v in model.valuation.items()},
            "point": found["point"],
        }
        verdict = "found"
    return _finish(args, results, verdict)


def cmd_modal_equiv(args):
    for flag, value, least in (("--max-size", args.max_size, 1),
                               ("--formulas-per-frame", args.formulas_per_frame, 1),
                               ("--samples", args.samples, 1), ("--depth", args.depth, 0)):
        if value < least:
            raise ValueError(f"{flag} must be at least {least}, got {value}")
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
    return _finish(args, results, str(not mismatches).lower())


# -- setalg ---------------------------------------------------------------


def _space_from_args(args) -> setalg.SetAlgebraSpace:
    if args.chang and not args.topology:
        raise ValueError("--chang needs --topology: the Chang system is built from the topology")
    topo = _topology_arg(args.topology, args.base) if args.topology else None
    chang = setalg.chang_from_topology(topo) if (topo and args.chang) else None
    return setalg.SetAlgebraSpace(args.dim, args.base, topo, chang)


def _tau_arg(args) -> list:
    if args.tau is None:
        raise ValueError("--op subst needs --tau, the images of 0..dim-1 such as 1,0")
    return _int_list("--tau", args.tau, "1,0")


# --op name -> its kernel call on (space, args, element); every op but
# dimset answers an element, dimset the sorted list of its axes
SETALG_OPS = {
    "cyl": lambda sp, a, x: setalg.cyl(sp, a.i, x),
    "diag": lambda sp, a, x: setalg.diag(sp, a.i, a.j),
    "interior": lambda sp, a, x: setalg.interior_op(sp, a.i, x),
    "closure": lambda sp, a, x: sp.full_bits ^ setalg.interior_op(sp, a.i, sp.full_bits ^ x),
    "box": lambda sp, a, x: setalg.box_op(sp, a.i, x),
    "subst": lambda sp, a, x: setalg.subst(sp, _tau_arg(a), x),
    "dimset": lambda sp, a, x: sorted(setalg.dimension_set(sp, x)),
}


def cmd_setalg_op(args):
    sp = _space_from_args(args)
    x = sp.from_codes(args.members)
    out = SETALG_OPS[args.op](sp, args, x)
    if isinstance(out, list):
        return _finish(args, {"dimension_set": out}, out)
    results = {"op": args.op, "input": sp.to_json(x), "output": sp.to_json(out)}
    return _finish(args, results, results["output"]["members"])


def cmd_setalg_axioms(args):
    sp = _space_from_args(args)
    alg = bao.SetAlgebra(sp, boxes="chang" if args.chang else "topology")
    rep = bao.check_axiom_suite(alg, args.suite, mode="sampled",
                                samples=args.samples, seed=args.seed)
    return _finish(args, rep, str(rep["all_pass"]).lower())


def cmd_setalg_witness_nonadditive(args):
    sp = setalg.SetAlgebraSpace(2, 2, topology.make_topology(2, preset="indiscrete"))
    x1 = sp.element([(0, 0)])
    x2 = sp.element([(1, 0)])
    both = x1 | x2
    lhs = setalg.interior_op(sp, 0, x1) | setalg.interior_op(sp, 0, x2)
    rhs = setalg.interior_op(sp, 0, both)
    results = {
        "space": "indiscrete base of size 2, dimension 2",
        "I0_first": list(sp.members(lhs)),
        "I0_union": list(sp.members(rhs)),
        "union": list(sp.members(both)),
        "witnessed": lhs == 0 and rhs == both,
    }
    return _finish(args, results, str(results["witnessed"]).lower())


def cmd_setalg_witness_nontermdef(args):
    disc = setalg.SetAlgebraSpace(2, 2, topology.make_topology(2, preset="discrete"))
    indisc = setalg.SetAlgebraSpace(2, 2, topology.make_topology(2, preset="indiscrete"))
    x_d = disc.element([(0, 0)])
    x_i = indisc.element([(0, 0)])
    same_cyl = all(
        setalg.cyl(disc, i, x_d) == setalg.cyl(indisc, i, x_i) for i in (0, 1)
    ) and all(
        setalg.diag(disc, i, j) == setalg.diag(indisc, i, j)
        for i in (0, 1) for j in (0, 1)
    )
    i_d = setalg.interior_op(disc, 0, x_d)
    i_i = setalg.interior_op(indisc, 0, x_i)
    results = {
        "element": [[0, 0]],
        "interior_discrete": list(disc.members(i_d)),
        "interior_indiscrete": list(indisc.members(i_i)),
        "cylindric_reducts_agree": same_cyl,
        "witnessed": same_cyl and i_d != i_i,
    }
    return _finish(args, results, str(results["witnessed"]).lower())


# -- bao -----------------------------------------------------------------


def cmd_bao_cm(args):
    s = _structure_arg(args.structure)
    if isinstance(s, rainbow.RainbowStructure):
        results = s.to_json_head()
    else:
        results = {"dim": s.dim, "atoms": s.num_atoms,
                   "carrier": 1 << s.num_atoms,
                   "interior_flags": s.interior_flags,
                   "structure": s.to_json() if s.num_atoms <= 12 else "elided"}
    return _finish(args, results, "ok")


def cmd_bao_check(args):
    s = _structure_arg(args.structure)
    if isinstance(s, rainbow.RainbowStructure):
        alg = s.cm()
    else:
        alg = bao.cm(s)
    rep = bao.check_axiom_suite(alg, args.suite, mode="sampled",
                                samples=args.samples, seed=args.seed)
    return _finish(args, rep, str(rep["all_pass"]).lower())


def cmd_bao_nr(args):
    alg = bao.cm(_explicit_structure_arg(args))
    sub = bao.nr(args.m, alg)
    results = {"dim": args.m, "carrier_size": len(sub.carrier_list())}
    return _finish(args, results, len(sub.carrier_list()))


def cmd_bao_sg(args):
    alg = bao.cm(_explicit_structure_arg(args))
    gens = _int_list("--gens", args.gens, "1,6") if args.gens else []
    for g in gens:
        if not 0 <= g <= alg.one:
            raise ValueError(f"--gens {g}: not an element; the elements are 0..{alg.one}")
    sub = bao.sg(alg, gens)
    results = {"generators": gens, "carrier_size": len(sub.carrier_list())}
    return _finish(args, results, len(sub.carrier_list()))


def cmd_bao_represent(args):
    rep = bao.try_represent(_explicit_structure_arg(args), max_base=args.max_base)
    results = dict(rep)
    if rep["found"]:
        results["representation"] = rep["representation"].to_json()
    return _finish(args, results, str(rep["found"]).lower())


# -- rainbow ---------------------------------------------------------------


def _check_limit(args):
    """--limit counts atoms from the first; a negative one is refused
    before the atom table is built."""
    if args.limit < 0:
        raise ValueError(f"--limit must be at least 0, got {args.limit}")


def cmd_rainbow_atoms(args):
    _check_limit(args)
    sig = rainbow.signature(args.n)
    table = rainbow.enumerate_atoms(sig)
    results = {"signature": sig.summary(), "atom_count": table.count,
               "first_atoms": table.first_atoms(args.limit)}
    return _finish(args, results, table.count)


def cmd_rainbow_structure(args):
    _check_limit(args)
    s = rainbow.build_atom_structure(rainbow.signature(args.n))
    return _finish(args, s.to_json_head(args.limit), s.num_atoms)


# -- game ------------------------------------------------------------------


def cmd_game_solve(args):
    s = _structure_arg(args.structure)
    try:
        res = games.solve_bounded(s, args.nodes, args.rounds, args.mode)
        verdict = res["winner"]
    except WorkbenchError as exc:
        res = {"error": type(exc).__name__, "detail": str(exc)}
        verdict = "inconclusive"
    return _finish(args, res, verdict)


def cmd_game_script(args):
    sig = rainbow.signature(args.n)
    tints = _int_list("--tints", args.tints, "1,4,2,3") if args.tints else None
    if tints is not None and sorted(tints) != list(sig.tints):
        raise ValueError(f"--tints {args.tints}: the form is a permutation of "
                         f"1..{args.n + 1} such as "
                         f"{','.join(map(str, games.default_script_tints(args.n)))}")
    proof = games.verify_forall_script(rainbow.build_atom_structure(sig), tints=tints)
    return _finish(args, proof, str(proof["all_lines_dead"]).lower())


def cmd_game_verify_transcript(args):
    with open(args.transcript, encoding="utf-8") as fh:
        doc = json.load(fh)
    artifact = doc.get("results", doc) if isinstance(doc, dict) else doc
    s = _structure_arg(args.structure)
    res = games.verify_transcript(s, artifact)
    return _finish(args, res, str(res["ok"]).lower())


# -- command table ------------------------------------------------------------
#
# A flag is (option string, argparse keywords); a spec several commands
# share is written once.

STRUCTURE = ("--structure", {"required": True})
FORMULA = ("--formula", {"required": True})
MAX_SIZE = ("--max-size", {"type": int, "default": 3})
SPACE = (("--dim", {"type": int, "required": True}), ("--base", {"type": int, "required": True}))
CHANG = ("--chang", {"action": "store_true"})
RAINBOW_N = ("--n", {"type": int, "default": 3})
RAINBOW = (RAINBOW_N, ("--limit", {"type": int, "default": 8}))
# only the commands that draw samples take --seed and --samples
SAMPLING = (("--seed", {"type": int}), ("--samples", {"type": int}))
COMMON = (("--out", {}), ("--expect", {}),
          ("--config", {"help": "JSON file of defaults; explicit flags win"}))

COMMANDS = {
    "topo": {
        "enum": (cmd_topo_enum, (MAX_SIZE,)),
        "check": (cmd_topo_check, (("--json", {"required": True}),)),
    },
    "modal": {
        "eval": (cmd_modal_eval, (FORMULA, ("--model", {"required": True}))),
        "countermodel": (cmd_modal_countermodel, (
            FORMULA, MAX_SIZE, ("--mode", {"choices": ("topo", "kripke"), "default": "topo"}),
            *SAMPLING)),
        "equiv": (cmd_modal_equiv, (
            MAX_SIZE, ("--depth", {"type": int, "default": 3}),
            ("--formulas-per-frame", {"type": int, "default": 20}), *SAMPLING)),
    },
    "setalg": {
        "op": (cmd_setalg_op, (
            ("--op", {"required": True, "choices": tuple(SETALG_OPS)}), *SPACE,
            ("--topology", {}), CHANG, ("--members", {"type": int, "nargs": "*", "default": []}),
            ("--i", {"type": int, "default": 0}), ("--j", {"type": int, "default": 0}),
            ("--tau", {}))),
        "axioms": (cmd_setalg_axioms, (
            *SPACE, ("--topology", {"default": "discrete"}), CHANG,
            ("--suite", {"choices": bao.SUITES, "default": "TCA"}), *SAMPLING)),
        "witness-nonadditive": (cmd_setalg_witness_nonadditive, ()),
        "witness-nontermdef": (cmd_setalg_witness_nontermdef, ()),
    },
    "bao": {
        "cm": (cmd_bao_cm, (STRUCTURE,)),
        "check": (cmd_bao_check, (
            STRUCTURE, ("--suite", {"choices": bao.SUITES, "default": "CA"}), *SAMPLING)),
        "nr": (cmd_bao_nr, (STRUCTURE, ("--m", {"type": int, "required": True}))),
        "sg": (cmd_bao_sg, (STRUCTURE, ("--gens", {}))),
        "represent": (cmd_bao_represent, (STRUCTURE, ("--max-base", {"type": int, "default": 3}))),
    },
    "rainbow": {
        "atoms": (cmd_rainbow_atoms, RAINBOW),
        "structure": (cmd_rainbow_structure, RAINBOW),
    },
    "game": {
        "solve": (cmd_game_solve, (
            STRUCTURE, ("--nodes", {"type": int, "required": True}),
            ("--rounds", {"type": int, "required": True}),
            ("--mode", {"choices": ("F", "G"), "default": "F"}))),
        "script": (cmd_game_script, (RAINBOW_N, ("--tints", {}))),
        "verify-transcript": (cmd_game_verify_transcript, (
            ("--transcript", {"required": True}), STRUCTURE)),
    },
}

# built-in values of the flags --config may set; a command without --seed
# or --samples still echoes them in its report's config
COMMON_DEFAULTS = {"seed": 0, "samples": 1000, "out": None, "expect": None}


def _apply_config(args):
    cfg = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            cfg = json_field(json.load(fh), dict, "a --config file")
    for key, builtin in COMMON_DEFAULTS.items():
        if getattr(args, key, None) is None:
            setattr(args, key, cfg.get(key, builtin))


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="topocyl",
                                 description="finite-model workbench for "
                                             "topological cylindric algebras")
    groups = ap.add_subparsers(dest="group", required=True)
    for group, commands in COMMANDS.items():
        sub = groups.add_parser(group).add_subparsers(dest="cmd", required=True)
        for name, (fn, flags) in commands.items():
            p = sub.add_parser(name)
            for flag, kw in (*flags, *COMMON):
                p.add_argument(flag, **kw)
            p.set_defaults(fn=fn)
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
