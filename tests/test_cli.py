import json

from topocyl.cli import dispatch
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


def test_reports_byte_identical(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    dispatch(["setalg", "witness-nonadditive", "--out", str(a)])
    dispatch(["setalg", "witness-nonadditive", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_config_file_overrides_defaults(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 11, "samples": 123}))
    code, doc = run(tmp_path, "topo", "enum", "--max-size", "1",
                    "--config", str(cfg))
    assert code == 0
    assert doc["config"]["seed"] == 11 and doc["config"]["samples"] == 123
    # explicit flags beat the config file
    code, doc = run(tmp_path, "topo", "enum", "--max-size", "1",
                    "--config", str(cfg), "--seed", "5")
    assert doc["config"]["seed"] == 5


def test_report_shape(tmp_path):
    code, doc = run(tmp_path, "topo", "enum", "--max-size", "1", "--seed", "3")
    assert set(doc) == {"command", "config", "results", "version"}
    assert doc["config"]["seed"] == 3
    assert render(doc).endswith("\n")
