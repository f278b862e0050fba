import argparse
import hashlib
import itertools
import json
import reprlib
import shlex
import time
from pathlib import Path

import pytest

from topocyl import bao as B
from topocyl import rainbow
from topocyl.cli import build_parser, dispatch
from topocyl.report import render


def run(tmp_path, *argv):
    out = tmp_path / "report.json"
    code = dispatch(list(argv) + ["--out", str(out)])
    doc = json.loads(out.read_text()) if out.exists() else None
    return code, doc


def test_topo_enum(tmp_path):
    code, doc = run(tmp_path, "topo", "enum", "--max-size", "2")
    assert code == 0
    assert doc["results"]["count"] == 4
    assert doc["version"]


def test_topo_enum_reaches_the_frame_size_cap(tmp_path):
    code, doc = run(tmp_path, "topo", "enum", "--max-size", "5")
    assert code == 0
    assert doc["results"]["count"] == 6942 and doc["results"]["topologies"] == "elided"
    assert dispatch(["topo", "enum", "--max-size", "6"]) == 2


def test_expectation_mismatch_gives_one(tmp_path):
    code, _ = run(tmp_path, "topo", "enum", "--max-size", "2", "--expect", "5")
    assert code == 1


def test_usage_error_gives_two(tmp_path):
    assert dispatch(["topo", "enum", "--max-size", "9"]) == 2
    assert dispatch(["bogus"]) == 2
    assert dispatch(["modal", "eval", "--formula", "p0&", "--model", "x"]) == 2


def test_topo_check(tmp_path):
    code, doc = run(tmp_path, "topo", "check",
                    "--json", '{"size":2,"opens":[[],[0],[0,1]]}')
    assert code == 0 and doc["results"]["verdict"] == "valid"
    code, doc = run(tmp_path, "topo", "check",
                    "--json", '{"size":2,"opens":[[],[0]]}')
    assert code == 0 and doc["results"]["verdict"] == "invalid"
    # no open can be the full base, so no mask of 10^9 bits is built
    code, doc = run(tmp_path, "topo", "check",
                    "--json", '{"size":1000000000,"opens":[[],[0]]}')
    assert code == 0 and doc["results"]["error"] == "MissingEmptyOrFull"
    path = tmp_path / "topology.json"
    path.write_text('{"size":2,"opens":[[],[0],[0,1]]}')
    code, doc = run(tmp_path, "topo", "check", "--json", str(path))
    assert code == 0 and doc["results"]["verdict"] == "valid"
    assert doc["results"]["topology"] == {"size": 2, "opens": [[], [0], [0, 1]]}


def test_modal_eval(tmp_path):
    model = tmp_path / "model.json"
    model.write_text(json.dumps({
        "kind": "topo",
        "topology": {"size": 2, "opens": [[], [0, 1]]},
        "valuation": {"0": [0]},
    }))
    code, doc = run(tmp_path, "modal", "eval", "--formula", "I p0",
                    "--model", str(model))
    assert code == 0
    assert doc["results"]["satisfying"] == []


def test_modal_eval_model_kinds(tmp_path, capsys):
    """The model JSON's "kind" is topo, kripke or dynamic; a missing or
    unknown kind is a usage error that names the accepted kinds."""
    model = tmp_path / "model.json"
    base = {"topology": {"size": 2, "opens": [[], [0], [0, 1]]},
            "valuation": {"0": [0]}}
    for kind in (None, "topx", [1]):
        doc = dict(base, map=[0, 1]) if kind is None else dict(base, kind=kind)
        model.write_text(json.dumps(doc))
        code = dispatch(["modal", "eval", "--formula", "p0", "--model", str(model)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"usage error: model kind {kind!r}")
        assert "topo, kripke, dynamic" in err
    model.write_text(json.dumps(dict(base, kind="dynamic", map=[0, 0])))
    code, doc = run(tmp_path, "modal", "eval", "--formula", "X p0", "--model", str(model))
    assert code == 0 and doc["results"]["satisfying"] == [0, 1]


def test_malformed_valuation_is_a_usage_error(tmp_path, capsys):
    model = tmp_path / "model.json"
    for value in ("ab", None, [0, "x"]):
        model.write_text(json.dumps({
            "kind": "topo",
            "topology": {"size": 2, "opens": [[], [0], [0, 1]]},
            "valuation": {"0": value},
        }))
        code = dispatch(["modal", "eval", "--formula", "p0", "--model", str(model)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("usage error: valuation of p0") and err.count("\n") == 1


def test_structure_naming_atoms_out_of_range_is_a_usage_error(tmp_path, capsys):
    diag = {"0,0": [0, 1], "0,1": [0], "1,0": [0], "1,1": [0, 1]}
    good_T = [[[0, 0], [1, 1]], [[0, 0], [1, 1]]]
    cases = [
        ({"T": [[[5, 0]], [[0, 0]]]}, "pair [5, 0] of T[0]"),
        ({"T": [[[-1, 0]], [[0, 0]]]}, "pair [-1, 0] of T[0]"),
        ({"T": good_T, "D": dict(diag, **{"0,1": [2]})}, "D[0,1] names atom 2"),
        ({"T": good_T, "interior": [{"7": [0]}, "identity"]}, "interior[0] entry 7"),
        ({"T": good_T, "interior": [{"-1": [0]}, "identity"]}, "interior[0] entry -1"),
        ({"T": good_T, "interior": ["identity", {"0": [-2]}]}, "interior[1] entry 0"),
    ]
    path = tmp_path / "s.json"
    for fields, named in cases:
        path.write_text(json.dumps(dict({"dim": 2, "atoms": 2, "D": diag}, **fields)))
        code = dispatch(["bao", "cm", "--structure", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("usage error: ") and named in err and err.count("\n") == 1


def test_structure_of_the_wrong_shape_is_a_usage_error(tmp_path, capsys):
    """An atom-structure document whose fields have the wrong JSON shape is
    refused with one line naming the field, not a traceback."""
    diag = {"0,0": [0, 1], "0,1": [0], "1,0": [0], "1,1": [0, 1]}
    good = {"dim": 2, "atoms": 2, "D": diag, "T": [[[0, 0], [1, 1]], [[0, 0], [1, 1]]]}
    cases = [
        (dict(good, interior=[[0], "identity"]), "interior[0]"),
        (dict(good, T=[[[0, 0], [1, 1]]]), '"T" must be a list of 2 entries'),
        ([good], "an atom structure must be an object"),
        (dict(good, T=[[[0, 0], [1]], [[0, 0]]]), "a pair of T[0]"),
        (dict(good, D=dict(diag, **{"1,1": 1})), "D[1,1]"),
        (dict(good, D=dict(diag, x=[0])), "D key 'x'"),
        (dict(good, interior=[{"0": 0}, "identity"]), "interior[0] entry 0"),
        (dict(good, dim="2"), '"dim"'),
        (dict(good, interior=[{"x": [0]}, "identity"]), "interior[0] entry x"),
        (dict(good, atoms=-1), '"atoms" must be a non-negative integer'),
    ]
    path = tmp_path / "s.json"
    for doc, named in cases:
        path.write_text(json.dumps(doc))
        code = dispatch(["bao", "cm", "--structure", str(path)])
        err = capsys.readouterr().err
        assert code == 2, doc
        assert err.startswith("usage error: ") and named in err and err.count("\n") == 1, err
    path.write_text(json.dumps(good))
    assert dispatch(["bao", "cm", "--structure", str(path)]) == 0
    capsys.readouterr()


def test_game_solve_rejects_negative_rounds(tmp_path, capsys):
    for mode in ("F", "G"):
        code = dispatch(["game", "solve", "--structure", "fullset:2,2", "--nodes", "3",
                         "--rounds", "-1", "--mode", mode])
        err = capsys.readouterr().err
        assert code == 2 and err == "usage error: rounds must be at least 0, got -1\n"
    code = dispatch(["game", "solve", "--structure", "fullset:2,2", "--nodes", "0",
                     "--rounds", "1"])
    assert code == 2 and "node budget" in capsys.readouterr().err


def test_setalg_rejects_empty_base(capsys):
    code = dispatch(["setalg", "axioms", "--dim", "2", "--base", "0", "--topology",
                     "discrete", "--suite", "CA", "--samples", "5"])
    assert code == 2
    assert capsys.readouterr().err == "usage error: base size must be at least 1\n"


def test_subst_without_tau_is_a_usage_error(capsys):
    code = dispatch(["setalg", "op", "--op", "subst", "--dim", "2", "--base", "2",
                     "--members", "1"])
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("usage error: --op subst needs --tau")
    assert err.count("\n") == 1


def test_fullset_structure_without_base_is_a_usage_error(capsys):
    for argv in (["bao", "cm"], ["bao", "check"], ["game", "solve", "--nodes", "3",
                                                   "--rounds", "1"]):
        for arg in ("fullset:2", "fullset:2,x", "fullset:"):
            code = dispatch(argv + ["--structure", arg])
            err = capsys.readouterr().err
            assert code == 2, (argv, arg)
            assert err == f"usage error: --structure {arg}: the form is fullset:N,U[,preset]\n"


def test_fullset_structure_with_an_unknown_preset_is_a_usage_error(capsys):
    """The third part of fullset:N,U,preset is discrete or indiscrete;
    "none" is no synonym for leaving it out."""
    for preset in ("bogus", "none"):
        assert dispatch(["bao", "cm", "--structure", f"fullset:2,2,{preset}"]) == 2, preset
        assert capsys.readouterr().err == f"usage error: unknown preset {preset!r}\n"


def test_sg_generators_must_be_elements(capsys):
    """fullset:2,2 has 4 atoms, so its elements are 0..15."""
    for gens in ("99999", "-3", "1,16"):
        code = dispatch(["bao", "sg", "--structure", "fullset:2,2", "--gens", gens])
        bad = gens.split(",")[-1]
        assert code == 2, gens
        assert capsys.readouterr().err == \
            f"usage error: --gens {bad}: not an element; the elements are 0..15\n"
    assert dispatch(["bao", "sg", "--structure", "fullset:2,2", "--gens", "0,15"]) == 0


def test_rainbow_structure_without_a_dimension_is_a_usage_error(capsys):
    for arg in ("rainbow:x", "rainbow:", "rainbow:3,4"):
        assert dispatch(["bao", "cm", "--structure", arg]) == 2, arg
        assert capsys.readouterr().err == f"usage error: --structure {arg}: the form is rainbow:N\n"


def test_integer_list_flags_name_the_flag(capsys):
    for argv, flag, value, example in (
            (["bao", "sg", "--structure", "fullset:2,2"], "--gens", "a", "1,6"),
            (["setalg", "op", "--op", "subst", "--dim", "2", "--base", "2", "--members", "1"],
             "--tau", "1,b", "1,0"),
            (["game", "script"], "--tints", "1,x", "1,4,2,3")):
        assert dispatch(argv + [flag, value]) == 2, flag
        assert capsys.readouterr().err == (f"usage error: {flag} {value}: the form is "
                                           f"comma-separated integers such as {example}\n")


def test_equiv_bounds_below_one_are_usage_errors(tmp_path, capsys):
    """An equivalence check over no frames or no formulas checked nothing."""
    for flag, value in (("--max-size", "0"), ("--formulas-per-frame", "0"),
                        ("--samples", "0"), ("--samples", "-2")):
        code, doc = run(tmp_path, "modal", "equiv", flag, value, "--expect", "true")
        assert code == 2 and doc is None, (flag, value)
        assert capsys.readouterr().err == f"usage error: {flag} must be at least 1, got {value}\n"


def test_equiv_negative_depth_is_a_usage_error(tmp_path, capsys):
    """A negative depth would run depth-0 formulas as if asked for; depth 0
    itself is a check of atoms and constants."""
    for value in ("-1", "-3"):
        code, doc = run(tmp_path, "modal", "equiv", "--max-size", "2", "--depth", value,
                        "--expect", "true")
        assert code == 2 and doc is None, value
        assert capsys.readouterr().err == f"usage error: --depth must be at least 0, got {value}\n"
    code, doc = run(tmp_path, "modal", "equiv", "--max-size", "2", "--depth", "0",
                    "--expect", "true")
    assert code == 0 and doc["results"]["equal"] is True


def test_rainbow_negative_limit_is_a_usage_error(tmp_path, capsys, monkeypatch):
    """--limit counts atoms from the first: 0 lists none, and a negative
    value is refused before the 10.9M-atom table is built."""
    code, doc = run(tmp_path, "rainbow", "atoms", "--n", "3", "--limit", "0")
    assert code == 0 and doc["results"]["first_atoms"] == []

    def build(sig):
        raise AssertionError("the atom table was built")

    monkeypatch.setattr(rainbow, "enumerate_atoms", build)
    for cmd in ("atoms", "structure"):
        for value in ("-1", "-10894250"):
            assert dispatch(["rainbow", cmd, "--n", "3", "--limit", value]) == 2, (cmd, value)
            assert capsys.readouterr().err == \
                f"usage error: --limit must be at least 0, got {value}\n"


def test_topo_enum_negative_size_is_a_usage_error(capsys):
    assert dispatch(["topo", "enum", "--max-size", "-1"]) == 2
    assert capsys.readouterr().err == "usage error: size -1 is negative\n"


def test_modal_equiv(tmp_path):
    code, doc = run(tmp_path, "modal", "equiv", "--max-size", "3",
                    "--depth", "3", "--seed", "7", "--expect", "true")
    assert code == 0
    assert doc["results"]["equal"] is True


def test_modal_countermodel(tmp_path):
    code, doc = run(tmp_path, "modal", "countermodel", "--formula", "p0 -> I p0",
                    "--max-size", "2", "--expect", "found")
    assert code == 0
    assert doc["results"]["found"]


def test_countermodel_bounds_below_one_are_usage_errors(tmp_path, capsys):
    """A bound below 1 is bad input, not an empty search that satisfies
    --expect none."""
    for flag, value, name in (("--max-size", "0", "max_size"), ("--max-size", "-1", "max_size"),
                              ("--samples", "0", "samples"), ("--samples", "-3", "samples")):
        code, doc = run(tmp_path, "modal", "countermodel", "--formula", "p0 -> I p0",
                        flag, value, "--expect", "none")
        assert code == 2 and doc is None, (flag, value)
        assert capsys.readouterr().err == \
            f"usage error: {name} must be at least 1, got {value}\n"


def test_check_samples_below_one_are_usage_errors(tmp_path, capsys):
    """A check of no sampled environment checked nothing, so it is refused
    before any draw, also when the value comes from --config, instead of
    reporting every axiom vacuous and all_pass true."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"samples": 0}))
    commands = (["bao", "check", "--structure", "fullset:2,2", "--suite", "CA"],
                ["setalg", "axioms", "--dim", "2", "--base", "2", "--topology", "discrete",
                 "--suite", "CA"])
    for argv in commands:
        for flags, value in ((["--samples", "0"], 0), (["--samples", "-5"], -5),
                             (["--config", str(cfg)], 0)):
            code, doc = run(tmp_path, *argv, *flags, "--expect", "true")
            assert code == 2 and doc is None, (argv, flags)
            assert capsys.readouterr().err == \
                f"usage error: samples must be at least 1, got {value}\n"


def test_setalg_witnesses(tmp_path):
    code, doc = run(tmp_path, "setalg", "witness-nonadditive", "--expect", "true")
    assert code == 0
    r = doc["results"]
    assert r["I0_first"] == [] and r["I0_union"] == [[0, 0], [1, 0]]
    code, doc = run(tmp_path, "setalg", "witness-nontermdef", "--expect", "true")
    assert code == 0


def test_setalg_op_and_axioms(tmp_path):
    code, doc = run(tmp_path, "setalg", "op", "--op", "cyl", "--dim", "2",
                    "--base", "2", "--members", "0", "--i", "0")
    assert code == 0
    assert doc["results"]["output"]["members"] == [0, 1]
    code, doc = run(tmp_path, "setalg", "axioms", "--dim", "2", "--base", "2",
                    "--topology", "indiscrete", "--suite", "TCA",
                    "--samples", "150", "--expect", "true")
    assert code == 0


def test_bao_commands(tmp_path):
    code, doc = run(tmp_path, "bao", "check", "--structure", "fullset:2,2",
                    "--suite", "CA", "--samples", "100", "--expect", "true")
    assert code == 0
    code, doc = run(tmp_path, "bao", "nr", "--structure", "fullset:3,2", "--m", "2")
    assert code == 0 and doc["results"]["carrier_size"] == 16
    code, doc = run(tmp_path, "bao", "sg", "--structure", "fullset:2,2")
    assert code == 0 and doc["results"]["carrier_size"] == 4
    code, doc = run(tmp_path, "bao", "represent", "--structure", "fullset:2,2",
                    "--max-base", "2", "--expect", "true")
    assert code == 0


def test_bao_represent_reaches_base_five_with_identity_interiors(tmp_path):
    """G_5 (T_0 = T_1 full, atom 0 alone on d_01 and d_10) has least base 5;
    with identity interiors only the discrete topology is searched."""
    dump = tmp_path / "G5.json"
    dump.write_text(json.dumps(B.AtomStructure(
        2, 5, [[31] * 5] * 2, {(0, 0): 31, (1, 1): 31, (0, 1): 1, (1, 0): 1}).to_json()))
    code, doc = run(tmp_path, "bao", "represent", "--structure", str(dump),
                    "--max-base", "5", "--expect", "true")
    assert code == 0 and doc["results"]["found"] is True
    assert doc["results"]["representation"]["base"] == 5


def test_bao_represent_exhausts_fullset_three_two_on_base_one(tmp_path):
    """fullset:3,2 needs base 2, so with --max-base 1 the search comes up
    empty and the exhaustive CA check runs, its three-variable axioms over
    256^3 environments each; the report is the one recorded while that
    check built one tuple per environment and the command took 32 s."""
    code, doc = run(tmp_path, "bao", "represent", "--structure", "fullset:3,2",
                    "--max-base", "1", "--expect", "false")
    assert code == 0
    assert doc["results"] == {"found": False, "reason": "bounded search exhausted",
                              "max_base": 1, "verdict": "false"}


def test_bao_represent_base_below_one_is_a_usage_error(tmp_path, capsys):
    """A search over no base searched nothing, so it is refused instead of
    reported as a bounded search exhausted."""
    for value in ("0", "-2"):
        code, doc = run(tmp_path, "bao", "represent", "--structure", "fullset:2,2",
                        "--max-base", value, "--expect", "false")
        assert code == 2 and doc is None, value
        assert capsys.readouterr().err == \
            f"usage error: max_base must be at least 1, got {value}\n"


def test_bao_represent_reports_the_violated_axioms(tmp_path):
    """A structure that fails the CA suite is reported with the axioms it
    violates and the search bound, as try_represent returns them."""
    dump = tmp_path / "one-atom.json"
    dump.write_text(json.dumps(B.AtomStructure.from_pairs(
        2, 1, [[], [(0, 0)]], {key: [0] for key in itertools.product(range(2), repeat=2)}
    ).to_json()))
    code, doc = run(tmp_path, "bao", "represent", "--structure", str(dump),
                    "--max-base", "2", "--expect", "false")
    res = doc["results"]
    assert code == 0 and res["found"] is False and res["reason"] == "CA axiom fails"
    assert {"CA3[x<=c0x]", "CA7[d11=c0(d10.d10)]"} <= set(res["violated"])


def test_game_solve_and_replay(tmp_path):
    out = tmp_path / "solve.json"
    code = dispatch(["game", "solve", "--structure", "fullset:2,2",
                     "--nodes", "5", "--rounds", "3", "--expect", "exists",
                     "--out", str(out)])
    assert code == 0
    code = dispatch(["game", "verify-transcript", "--transcript", str(out),
                     "--structure", "fullset:2,2", "--expect", "true",
                     "--out", str(tmp_path / "verify.json")])
    assert code == 0


def test_verify_transcript_refuses_malformed_networks(tmp_path):
    """A play whose Exists network is not an object of nodes and "(u,v)"
    labels replays as ok: false naming the field, not as a traceback."""
    play = tmp_path / "play.json"
    assert dispatch(["game", "solve", "--structure", "fullset:2,2", "--nodes", "3",
                     "--rounds", "2", "--out", str(play)]) == 0
    doc = json.loads(play.read_text())
    for network, field in (({"nodes": [0, 1], "labels": [1]}, "labels"),
                           ({"nodes": [0, 1]}, "labels")):
        doc["results"]["principal_play"][1]["exists"] = {"network": network}
        forged = tmp_path / "forged.json"
        forged.write_text(json.dumps(doc))
        code, report = run(tmp_path, "game", "verify-transcript", "--transcript", str(forged),
                           "--structure", "fullset:2,2", "--expect", "true")
        assert code == 1
        assert report["results"]["ok"] is False
        assert report["results"]["reason"] == \
            f"round 1: network {field} must be an object, got {network.get(field)!r}"


def test_forged_plays_replay_as_refuted(tmp_path, capsys):
    """A play whose round-1 network omits the move's new node, on fullset:2,2
    and on rainbow:3, and a rainbow dead-end claimed where Exists has more
    than 4,096 responses, each replay as ok: false with exit 0, not as a
    usage error or an exhausted budget."""
    assert dispatch(["game", "solve", "--structure", "fullset:2,2", "--nodes", "5",
                     "--rounds", "3", "--out", str(tmp_path / "play.json")]) == 0
    assert dispatch(["game", "script", "--n", "3", "--out", str(tmp_path / "proof.json")]) == 0
    play = json.loads((tmp_path / "play.json").read_text())["results"]
    records = play["principal_play"]
    proof = json.loads((tmp_path / "proof.json").read_text())["results"]
    tree = proof["tree"]
    net = tree["responses"][0]["network"]
    s = rainbow.build_atom_structure(rainbow.signature(3))
    atom = s.table.atom_of_tuple(rainbow.ColouredGraph.from_json(net["graph"], s.sig), (0, 2, 1))
    zeroth = {"round": 0, "forall": {"initial_atom": proof["zeroth_atom"]},
              "exists": {"network": {"graph": proof["zeroth_graph"]}}}
    first = {"round": 1, "forall": tree["forall"], "exists": {"network": net}}
    demand = {"round": 2, "forall": {"network": 0, "face": [0, 2], "k": 4, "atom": atom, "l": 2},
              "exists": "dead-end"}
    extend = "round 1 network does not extend the network it answers"
    cases = [
        ("fullset:2,2", dict(play, principal_play=[records[0], dict(records[1],
                                                                    exists=records[0]["exists"])]),
         extend),
        ("rainbow:3", {"mode": "F", "nodes": 6, "rounds": 2,
                       "principal_play": [zeroth, dict(first, exists=zeroth["exists"])]}, extend),
        ("rainbow:3", {"mode": "F", "nodes": 6, "rounds": 2,
                       "principal_play": [zeroth, first, demand]},
         "claimed dead-end at round 2 has responses"),
    ]
    capsys.readouterr()
    for structure, doc, reason in cases:
        (tmp_path / "forged.json").write_text(json.dumps(doc))
        code = dispatch(["game", "verify-transcript", "--transcript", str(tmp_path / "forged.json"),
                         "--structure", structure])
        out, err = capsys.readouterr()
        assert code == 0 and err == "", (structure, err)
        assert json.loads(out)["results"] == {"ok": False, "reason": reason, "verdict": "false"}


def test_second_key_spellings_replay_as_refuted(tmp_path, capsys):
    """A play that labels a node tuple under a second spelling of its key, a
    "( 0,0)" label on fullset:2,2 and a "(0,01)" edge on rainbow:3, or lists
    its network's nodes out of order, replays as ok: false naming the key
    or the nodes, with exit 0; the later label no longer overrides the
    first."""
    assert dispatch(["game", "solve", "--structure", "fullset:2,2", "--nodes", "5",
                     "--rounds", "3", "--out", str(tmp_path / "play.json")]) == 0
    assert dispatch(["game", "script", "--n", "3", "--out", str(tmp_path / "proof.json")]) == 0
    play = json.loads((tmp_path / "play.json").read_text())["results"]
    labels = play["principal_play"][1]["exists"]["network"]["labels"]
    assert labels["(0,0)"] == 0
    labels["( 0,0)"] = 1
    reordered = json.loads(json.dumps(play))
    network = reordered["principal_play"][1]["exists"]["network"]
    network["nodes"] = network["nodes"][::-1]
    graph = json.loads((tmp_path / "proof.json").read_text())["results"]["zeroth_graph"]
    graph["edges"]["(0,01)"] = "w1"
    zeroth = {"mode": "F", "nodes": 6, "rounds": 0, "principal_play": [
        {"round": 0, "forall": {"initial_atom": 0}, "exists": {"network": {"graph": graph}}}]}
    cases = [("fullset:2,2", play, "round 1: network label key '( 0,0)' is not a tuple of 2 "
                                   "nodes in its one spelling (u,v,...)"),
             ("fullset:2,2", reordered,
              f"round 1: network nodes must be strictly increasing, got {network['nodes']}"),
             ("rainbow:3", zeroth,
              "round 0: graph edge key '(0,01)' is not (u,v) with nodes u < v")]
    capsys.readouterr()
    for structure, doc, reason in cases:
        (tmp_path / "forged.json").write_text(json.dumps(doc))
        code = dispatch(["game", "verify-transcript", "--transcript", str(tmp_path / "forged.json"),
                         "--structure", structure])
        out, err = capsys.readouterr()
        assert code == 0 and err == "", (structure, err)
        assert json.loads(out)["results"] == {"ok": False, "reason": reason, "verdict": "false"}


def test_incomplete_graph_documents_are_refused_while_read(tmp_path, capsys):
    """A graph document labels every pair of its nodes or is refused while it
    is read, naming the first unlabelled pair, before its node count sizes
    anything: counts of 10^6 and 10^8 are refused in milliseconds. A forged
    zeroth graph and a forged round-1 network replay as ok: false, exit 0."""
    sig = rainbow.signature(3)
    for count in (10**6, 10**8):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"^graph edges leave \(0,1\) unlabelled$"):
            rainbow.ColouredGraph.from_json({"nodes": count}, sig)
        assert time.perf_counter() - start < 0.01, count
    assert dispatch(["game", "script", "--n", "3", "--out", str(tmp_path / "proof.json")]) == 0
    proof = json.loads((tmp_path / "proof.json").read_text())["results"]
    tree = proof["tree"]
    graph = dict(tree["responses"][0]["network"]["graph"])
    assert graph["nodes"] == 4
    graph["edges"] = {k: c for k, c in graph["edges"].items() if k != "(1,3)"}
    zeroth = {"round": 0, "forall": {"initial_atom": proof["zeroth_atom"]},
              "exists": {"network": {"graph": proof["zeroth_graph"]}}}
    first = {"round": 1, "forall": tree["forall"], "exists": {"network": {"graph": graph}}}
    cases = [(dict(proof, zeroth_graph=dict(proof["zeroth_graph"], nodes=10**8)),
              "graph edges leave (0,3) unlabelled"),
             ({"mode": "F", "nodes": 6, "rounds": 2, "principal_play": [zeroth, first]},
              "round 1: graph edges leave (1,3) unlabelled")]
    capsys.readouterr()
    for doc, reason in cases:
        (tmp_path / "forged.json").write_text(json.dumps(doc))
        code = dispatch(["game", "verify-transcript", "--transcript", str(tmp_path / "forged.json"),
                         "--structure", "rainbow:3"])
        out, err = capsys.readouterr()
        assert code == 0 and err == "", err
        assert json.loads(out)["results"] == {"ok": False, "reason": reason, "verdict": "false"}


def test_unsupported_rainbow_dimensions_are_refused_at_once(capsys):
    """A rainbow dimension other than 3 is refused before any table of it
    is built: at n = 2000 the red colours alone number about four million."""
    for argv in (["rainbow", "atoms", "--n", "2000"], ["rainbow", "structure", "--n", "2000"],
                 ["game", "script", "--n", "2000"], ["bao", "cm", "--structure", "rainbow:2000"]):
        start = time.perf_counter()
        code = dispatch(argv)
        elapsed = time.perf_counter() - start
        assert code == 2 and capsys.readouterr().err.startswith("error: DimUnsupported:"), argv
        assert elapsed < 0.5, (argv, elapsed)


def test_chang_without_topology_is_a_usage_error(capsys):
    """setalg op builds a Chang system only from --topology, so --chang
    alone is refused, naming both flags, for every operator."""
    for op in ("cyl", "box"):
        code = dispatch(["setalg", "op", "--op", op, "--dim", "2", "--base", "2", "--chang",
                         "--members", "0"])
        assert code == 2, op
        assert capsys.readouterr().err == ("usage error: --chang needs --topology: the Chang "
                                           "system is built from the topology\n"), op
    assert dispatch(["setalg", "op", "--op", "box", "--dim", "2", "--base", "2", "--topology",
                     "discrete", "--chang", "--members", "0"]) == 0


def test_reports_byte_identical(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    dispatch(["setalg", "witness-nonadditive", "--out", str(a)])
    dispatch(["setalg", "witness-nonadditive", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_config_file_overrides_defaults(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 11, "samples": 123}))
    code, doc = run(tmp_path, "modal", "equiv", "--max-size", "1",
                    "--config", str(cfg))
    assert code == 0
    assert doc["config"]["seed"] == 11 and doc["config"]["samples"] == 123
    # explicit flags beat the config file
    code, doc = run(tmp_path, "modal", "equiv", "--max-size", "1",
                    "--config", str(cfg), "--seed", "5")
    assert doc["config"]["seed"] == 5


def test_report_shape(tmp_path):
    code, doc = run(tmp_path, "modal", "equiv", "--max-size", "1", "--seed", "3")
    assert set(doc) == {"command", "config", "results", "version"}
    assert doc["config"]["seed"] == 3
    assert render(doc).endswith("\n")


COMMON_FLAGS = ["--out", "--expect", "--config"]
SAMPLING_FLAGS = ["--seed", "--samples"]
# the option strings of each command, --help aside
COMMAND_FLAGS = {
    "topo enum": ["--max-size"],
    "topo check": ["--json"],
    "modal eval": ["--formula", "--model"],
    "modal countermodel": ["--formula", "--max-size", "--mode", *SAMPLING_FLAGS],
    "modal equiv": ["--max-size", "--depth", "--formulas-per-frame", *SAMPLING_FLAGS],
    "setalg op": ["--op", "--dim", "--base", "--topology", "--chang", "--members", "--i", "--j",
                  "--tau"],
    "setalg axioms": ["--dim", "--base", "--topology", "--chang", "--suite", *SAMPLING_FLAGS],
    "setalg witness-nonadditive": [],
    "setalg witness-nontermdef": [],
    "bao cm": ["--structure"],
    "bao check": ["--structure", "--suite", *SAMPLING_FLAGS],
    "bao nr": ["--structure", "--m"],
    "bao sg": ["--structure", "--gens"],
    "bao represent": ["--structure", "--max-base"],
    "rainbow atoms": ["--n", "--limit"],
    "rainbow structure": ["--n", "--limit"],
    "game solve": ["--structure", "--nodes", "--rounds", "--mode"],
    "game script": ["--n", "--tints"],
    "game verify-transcript": ["--transcript", "--structure"],
}


def _subcommands(parser):
    return next(a.choices for a in parser._actions
                if isinstance(a, argparse._SubParsersAction))


def test_each_command_takes_exactly_its_own_flags(capsys):
    """The parser's flags per command are this table's; only the four
    commands that draw samples take --seed and --samples."""
    found = {}
    for group, group_parser in _subcommands(build_parser()).items():
        for cmd, parser in _subcommands(group_parser).items():
            found[f"{group} {cmd}"] = [s for a in parser._actions for s in a.option_strings
                                       if s not in ("-h", "--help")]
    assert found == {cmd: flags + COMMON_FLAGS for cmd, flags in COMMAND_FLAGS.items()}
    assert sum(map(len, found.values())) == 110
    required = {"topo check": "--json {}", "modal eval": "--formula p0 --model m.json",
                "setalg op": "--op cyl --dim 2 --base 2", "bao nr": "--m 2",
                "game solve": "--nodes 3 --rounds 1", "game verify-transcript": "--transcript t"}
    for cmd, flags in COMMAND_FLAGS.items():
        if "--seed" not in flags:
            argv = [*cmd.split(), *shlex.split(required.get(cmd, ""))]
            if "--structure" in flags:
                argv += ["--structure", "fullset:2,2"]
            assert dispatch(argv + ["--seed", "1"]) == 2, cmd
            assert capsys.readouterr().err.endswith(
                "error: unrecognized arguments: --seed 1\n"), cmd


def test_modal_eval_valuation_keys_are_variable_indices(tmp_path, capsys):
    model = tmp_path / "model.json"
    model.write_text(json.dumps({
        "kind": "topo",
        "topology": {"size": 2, "opens": [[], [0], [0, 1]]},
        "valuation": {"x": [0]},
    }))
    code = dispatch(["modal", "eval", "--formula", "p0", "--model", str(model)])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "usage error: valuation key 'x': keys are variable indices (\"0\" for p0)\n"


def _eval_valuation(tmp_path, valuation, formula="p0"):
    model = tmp_path / "model.json"
    model.write_text(json.dumps({
        "kind": "topo",
        "topology": {"size": 2, "opens": [[], [0], [0, 1]]},
        "valuation": valuation,
    }))
    return run(tmp_path, "modal", "eval", "--formula", formula, "--model", str(model))


@pytest.mark.parametrize("key", ["01", "+1", " 1", "1_0", "-1",
                                 pytest.param("1" * 5000, id="5000-digits")])
def test_modal_eval_valuation_keys_have_one_spelling(tmp_path, capsys, key):
    """int() reads each of these keys as an index, or refuses one too long
    to convert with a message naming no field; only str(k), the key
    countermodel writes, names p{k}."""
    code, _ = _eval_valuation(tmp_path, {key: [0]}, "p1")
    assert code == 2
    assert capsys.readouterr().err == (f"usage error: valuation key {reprlib.repr(key)}: "
                                       "keys are variable indices (\"0\" for p0)\n")


def test_modal_eval_reads_the_keys_countermodel_writes(tmp_path):
    code, doc = _eval_valuation(tmp_path, {"0": [0], "10": 2}, "p10 & ~p0")
    assert code == 0 and doc["results"]["satisfying"] == [1]


@pytest.mark.parametrize("value", [True, [True], [0, False]])
def test_modal_eval_valuations_refuse_json_booleans(tmp_path, capsys, value):
    """true is neither the bitmask 1 nor the point 1."""
    code, _ = _eval_valuation(tmp_path, {"0": value})
    assert code == 2
    assert capsys.readouterr().err == (
        "usage error: valuation of p0 is not a bitmask or a list of points\n")


def test_bao_commands_on_rainbow_are_usage_errors(capsys):
    """nr, sg and represent build the explicit complex algebra, which the
    rainbow structure does not have."""
    for argv in (["nr", "--m", "2"], ["sg"], ["represent"]):
        code = dispatch(["bao", *argv, "--structure", "rainbow:3"])
        err = capsys.readouterr().err
        assert code == 2, argv
        assert err.startswith(f"usage error: bao {argv[0]} needs an explicit atom structure")
        assert err.count("\n") == 1


# stdout sha1 of rainbow commands, recorded before the CLI and the game
# script read atoms through the atom table's one decoder
RAINBOW_STDOUT_PINS = [
    (["rainbow", "atoms", "--n", "3", "--limit", "2"], "436dd9af779a38aca94859cac2b5fc480d57f03a"),
    (["rainbow", "structure", "--n", "3", "--limit", "2"],
     "a862a67c808418032b74e6a52fafcacb06e0dad6"),
    (["bao", "cm", "--structure", "rainbow:3"], "cb52d82b18e29e7049844f29285cb61b5044f2c1"),
    (["game", "script", "--n", "3"], "a5ea3450d52a3ece03335d363200b7cf87a96467"),
    (shlex.split("setalg op --op interior --dim 2 --base 2 --topology indiscrete "
                 "--members 0 --i 0"), "d5408d1b4caa7fc9d32a3452a6f91c572f0d84f1"),
    (shlex.split("setalg axioms --dim 2 --base 3 --topology indiscrete --suite TCA "
                 "--samples 800"), "c6121552fe482fe19b1128a975141d7cd0049386"),
    (["setalg", "witness-nonadditive"], "3743211c4b8a4feac06638477200f5dd22b32c24"),
    (["setalg", "witness-nontermdef"], "bc1a8b8f05a4affe32251122142937fb473d6eeb"),
    # the README's two `game solve` reports
    (shlex.split("game solve --structure fullset:2,2 --nodes 5 --rounds 3 --expect exists"),
     "81beb948d90277213f3123d3f3a759229a1c7c12"),
    (shlex.split("game solve --structure fullset:2,3 --nodes 5 --rounds 3"),
     "5a823ef3d45184c3def96c87847826d726cd0de1"),
    # the README's `modal countermodel` and `modal equiv` reports
    (shlex.split('modal countermodel --formula "p0 -> I p0" --max-size 3 --mode topo'),
     "dda42ddc3aef9fdd6dd0d5a696c4204065294f4b"),
    (shlex.split("modal equiv --max-size 4 --depth 3 --seed 7 --expect true"),
     "bcc3c41ef702a7ef476df9cd3d2482208d9a39d3"),
    # the README's `topo enum` and `topo check` reports, recorded before the
    # parser was built from one command table
    (shlex.split("topo enum --max-size 3"), "fb158334fcd0a972a4c801a2bc94ada3162c901d"),
    (["topo", "check", "--json", '{"size":2,"opens":[[],[0],[0,1]]}'],
     "742c5f566e94343cdf413e95f392ebfcce8e3ad8"),
]


@pytest.mark.parametrize("argv, digest", RAINBOW_STDOUT_PINS)
def test_rainbow_stdout_pinned(capsys, argv, digest):
    assert dispatch(argv) == 0
    assert hashlib.sha1(capsys.readouterr().out.encode()).hexdigest() == digest


def test_readme_file_reports_pinned(tmp_path, capsys):
    """The README reports that read a file: `modal eval` on a model of each
    kind, and `game verify-transcript` on the proof of `game script` and on
    the play of `game solve`. No report echoes a path, so each stdout sha1,
    recorded before the parser was built from one command table, is fixed."""
    topo = {"size": 2, "opens": [[], [0], [0, 1]]}
    models = {
        "topo": {"kind": "topo", "topology": topo, "valuation": {"0": [0]}},
        "kripke": {"kind": "kripke", "preorder": {"size": 2, "leq": [[0, 0], [0, 1], [1, 1]]},
                   "valuation": {"0": [1]}},
        "dynamic": {"kind": "dynamic", "topology": topo, "map": [0, 0],
                    "valuation": {"0": [0]}},
    }
    proof, play = str(tmp_path / "proof.json"), str(tmp_path / "play.json")
    assert dispatch(["game", "script", "--n", "3", "--out", proof]) == 0
    assert dispatch(shlex.split("game solve --structure fullset:2,2 --nodes 5 --rounds 3 "
                                "--out") + [play]) == 0
    cases = [(["game", "verify-transcript", "--transcript", proof, "--structure", "rainbow:3"],
              "2551220d0cadcbd5a77b2b23bce293abbab37b4b"),
             (["game", "verify-transcript", "--transcript", play, "--structure", "fullset:2,2"],
              "8f3f7bf33448c04ccfe19dc5476ceaf3724fa72b")]
    for kind, doc in models.items():
        model = tmp_path / f"{kind}.json"
        model.write_text(json.dumps(doc))
        cases.append((["modal", "eval", "--formula", "I p0 -> p0", "--model", str(model)],
                      "de5109d33a1ca8d56d4d1ba22779068904a814df"))
    capsys.readouterr()
    for argv, digest in cases:
        assert dispatch(argv) == 0, argv
        assert hashlib.sha1(capsys.readouterr().out.encode()).hexdigest() == digest, argv


SIERPINSKI = '{"size":2,"opens":[[],[0],[0,1]]}'

# stdout sha1 of every other `setalg op` and of the `bao` commands on
# `fullset:` structures, recorded while set-algebra elements were still
# wrapped in a tuple-set object
SETALG_STDOUT_PINS = [
    (shlex.split("setalg op --op cyl --dim 2 --base 3 --topology indiscrete --members 0 4 --i 1"),
     "7306fb3e453e3a9e5103cf793631bc1bba2ae72b"),
    (shlex.split("setalg op --op diag --dim 3 --base 2 --i 0 --j 2"),
     "d033ae09e6768307bf1dd0a07eadf2b30029edd7"),
    (["setalg", "op", "--op", "closure", "--dim", "2", "--base", "2", "--topology", SIERPINSKI,
      "--members", "0", "--i", "0"], "360d9c574bcee5ed4763494a5c79641936a3371f"),
    (["setalg", "op", "--op", "box", "--dim", "2", "--base", "2", "--topology", SIERPINSKI,
      "--chang", "--members", "0", "1", "--i", "1"], "dae6ebc44d7bd362431ee6b66df24d6acc8c2d74"),
    (shlex.split("setalg op --op subst --dim 2 --base 3 --members 1 5 --tau 1,0"),
     "8fd2f06ee91edb89e58353709c89fc5e8f1053b6"),
    (shlex.split("setalg op --op dimset --dim 2 --base 2 --members 0 1"),
     "b09be76dbf52ecba358ad4d01d00f07b0bd176bc"),
    (shlex.split("bao cm --structure fullset:2,2"), "f6af4903fb2d1fe7c9cdca140df3cffddcba0ce8"),
    (shlex.split("bao cm --structure fullset:2,3,indiscrete"),
     "edeb3e7cba88a69367c61143a467af389299f664"),
    (shlex.split("bao represent --structure fullset:2,2 --max-base 2"),
     "0e18e01d39ad50ea9531f7a6b72d974bb01cc98e"),
    (shlex.split("bao nr --structure fullset:3,2 --m 2"),
     "6b054e3230c4c6af2cf867a8d88961388ebecde1"),
    (shlex.split("bao sg --structure fullset:2,2 --gens 1,2"),
     "a8be366be30bea69b7436b988249814320979e3e"),
]


@pytest.mark.parametrize("argv, digest", SETALG_STDOUT_PINS)
def test_setalg_stdout_pinned(capsys, argv, digest):
    assert dispatch(argv) == 0
    assert hashlib.sha1(capsys.readouterr().out.encode()).hexdigest() == digest


def test_modal_eval_valuation_must_be_an_object(tmp_path, capsys):
    model = tmp_path / "model.json"
    base = {"kind": "topo", "topology": {"size": 2, "opens": [[], [0], [0, 1]]}}
    for valuation in ([[0]], "p0", 3, None, "missing"):
        doc = base if valuation == "missing" else dict(base, valuation=valuation)
        model.write_text(json.dumps(doc))
        code = dispatch(["modal", "eval", "--formula", "p0", "--model", str(model)])
        err = capsys.readouterr().err
        assert code == 2, valuation
        assert err.startswith('usage error: "valuation"') and err.count("\n") == 1, err


def test_readme_cli_lines_parse():
    """Every command of README's CLI block parses, so a documented flag
    cannot be dropped from the parser unnoticed."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```")[1]
    lines = [line for line in block.splitlines() if line.startswith("topocyl ")]
    assert len(lines) >= 19
    parser = build_parser()
    for line in lines:
        assert callable(parser.parse_args(shlex.split(line)[1:]).fn), line


def test_malformed_documents_are_refused_naming_the_field(tmp_path, capsys):
    """Every reader of a JSON document refuses one of the wrong shape:
    exit 2 with a usage error, or a replay reporting "ok": false, either
    way with a message that names the field and never a traceback (an
    exception escaping `dispatch` is what `main` prints as one)."""
    assert dispatch(["game", "script", "--out", str(tmp_path / "proof.json")]) == 0
    proof = json.loads((tmp_path / "proof.json").read_text())["results"]
    assert dispatch(["game", "solve", "--structure", "fullset:2,2", "--nodes", "3",
                     "--rounds", "2", "--out", str(tmp_path / "play.json")]) == 0
    play = json.loads((tmp_path / "play.json").read_text())["results"]
    records = play["principal_play"]
    tree = proof["tree"]
    first = tree["responses"][0]
    topo = {"size": 2, "opens": [[], [0], [0, 1]]}
    diag = {"0,0": [0, 1], "0,1": [0], "1,0": [0], "1,1": [0, 1]}
    structure = {"dim": 2, "atoms": 2, "D": diag, "T": [[[0, 0], [1, 1]], [[0, 0], [1, 1]]]}
    numbers = itertools.count()

    def path(doc):
        name = tmp_path / f"doc{next(numbers)}.json"
        name.write_text(json.dumps(doc))
        return str(name)

    def model(**fields):
        doc = dict({"kind": "topo", "topology": topo, "valuation": {"0": [0]}}, **fields)
        return ["modal", "eval", "--formula", "p0", "--model", path(doc)]

    def replay(doc, structure="rainbow:3"):
        return ["game", "verify-transcript", "--transcript", path(doc), "--structure", structure]

    def forged(r, **fields):
        return dict(play, principal_play=[dict(rec, **fields) if rec["round"] == r else rec
                                          for rec in records])

    cases = [
        (["topo", "check", "--json", "[1]"], "a topology must be an object"),
        (["topo", "enum", "--config", path([1])], "a --config file must be an object"),
        (["topo", "check", "--json", '{"size": "2", "opens": []}'], '"size" must be an integer'),
        (["topo", "check", "--json", '{"size": -1, "opens": []}'],
         '"size" must be a non-negative integer, got -1'),
        (["topo", "check", "--json", '{"size": 2}'], '"opens" must be a list'),
        (["topo", "check", "--json", '{"size": 2, "opens": [[], [0, "a"]]}'],
         "opens[1] must be a list of integers"),
        (["setalg", "axioms", "--dim", "2", "--base", "2", "--topology", "[1]"],
         "a topology must be an object"),
        (["modal", "eval", "--formula", "p0", "--model", path([1])], "a model must be an object"),
        (model(topology=[1]), "a topology must be an object"),
        (model(kind="kripke"), "a preorder must be an object"),
        (model(kind="kripke", preorder={"size": 2, "leq": [[0]]}),
         "leq[0] must be a list of 2 integers"),
        (model(kind="kripke", preorder={"size": -2, "leq": []}),
         '"size" must be a non-negative integer, got -2'),
        (model(kind="kripke", preorder={"size": 10**9, "leq": [[0, 0]]}),
         '"size" 1000000000 exceeds the 1 pairs of "leq"'),
        (model(kind="dynamic", map=5), '"map" must be a list of integers'),
        (model(kind="dynamic"), '"map" must be a list of integers'),
        (model(valuation=[[0]]), '"valuation" must be an object'),
        (model(kind="topx"), "model kind 'topx'"),
        (["bao", "cm", "--structure", path([structure])], "an atom structure must be an object"),
        (["bao", "cm", "--structure", path(dict(structure, interior=[[0], "identity"]))],
         "interior[0]"),
        (["bao", "cm", "--structure", path(dict(structure, D=dict(diag, **{"1,1": 1})))],
         "D[1,1]"),
        (["bao", "cm", "--structure", path(dict(structure, D=dict(diag, **{"5,7": [0]})))],
         'D key "5,7" names an index outside 0..1'),
        (["game", "script", "--tints", "1,2"],
         "--tints 1,2: the form is a permutation of 1..4"),
        (["game", "script", "--tints", "1,1,2,3"], "--tints 1,1,2,3: the form is a permutation"),
        (["game", "script", "--tints", "1,x"], "--tints 1,x: the form is comma-separated"),
        (replay([1], "fullset:2,2"), "a game artifact must be an object"),
        (replay(proof, "fullset:2,2"), 'kind "forall-script" replays only against rainbow:3'),
        (replay(dict(proof, tree=5)), "round 1: tree must be an object, got 5"),
        (replay(dict(proof, node_budget="x")), '"node_budget" must be an integer'),
        (replay(dict(proof, round_bound=None)), '"round_bound" must be an integer'),
        (replay(dict(proof, zeroth_graph=[1])), "graph must be an object"),
        (replay(dict(proof, tree=dict(tree, forall=None))), "round 1: forall must be an object"),
        (replay(dict(proof, tree=dict(tree, round=2))), "round 1: tree round must be 1"),
        (replay(dict(proof, tree=dict(tree, responses=5))), "round 1: responses"),
        (replay(dict(proof, tree=dict(tree, responses=[1]))),
         "round 1: a response must be an object"),
        (replay(dict(proof, tree=dict(tree, responses=[dict(first, subtree=[1])]
                                      + tree["responses"][1:]))),
         "round 2: subtree must be an object"),
        (replay({"mode": "F", "nodes": 3}, "fullset:2,2"), "principal_play"),
        (replay(forged(1, exists={"network": {"nodes": [0, 1], "labels": [1]}}), "fullset:2,2"),
         "round 1: network labels must be an object, got [1]"),
        (replay(forged(1, exists=[1]), "fullset:2,2"), "round 1: exists"),
        (replay(forged(1, forall=dict(records[1]["forall"], face=0)), "fullset:2,2"),
         "round 1: forall face must be a list of integers"),
        # a Forall atom outside 0..num_atoms-1 is an illegal move
        (replay(forged(1, forall=dict(records[1]["forall"], atom=-1)), "fullset:2,2"),
         "illegal move at round 1"),
        (replay(forged(1, forall=dict(records[1]["forall"], atom=10**30)), "fullset:2,2"),
         "illegal move at round 1"),
        (replay(forged(0, forall={"initial_atom": "0"}), "fullset:2,2"),
         "round 0: forall initial_atom must be an integer"),
        (replay(forged(1, exists="dead-end"), "fullset:2,2"),
         "round 1: a dead-end must be the last record"),
    ]
    for argv, named in cases:
        code = dispatch(argv)
        out, err = capsys.readouterr()
        assert "Traceback" not in err, (argv, err)
        if code == 2:
            assert err.startswith("usage error: ") and named in err, (argv, err)
        else:
            results = json.loads(out)["results"]
            assert code == 0 and results["ok"] is False, (argv, results)
            assert named in results["reason"], (argv, results)
