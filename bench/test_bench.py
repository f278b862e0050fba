"""Tests of the benchmark itself (not part of the program's test suite).

    python3 -m pytest -q bench/test_bench.py

They check that traced runs repeat their call counts and digests exactly,
that the seed changes the generated inputs but not the shape of the task
list, that a wrong expected verdict is counted as a failure, that latencies
are scaled by the reference samples taken around them, that the
printed result matches BENCHMARK.json, and that the benchmark refuses to
report anything when the program's sources are missing.
"""

import collections
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import reference  # noqa: E402
import run  # noqa: E402

run.import_program()

import workloads  # noqa: E402
from topocyl import modal, topology  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _cli(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True,
        text=True, timeout=600)
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    digest = next(line.split()[1] for line in lines if line.startswith("digest "))
    return json.loads(lines[-1]), digest


def test_untraced_run_prints_every_end_to_end_metric():
    doc, _ = _result(_cli("--workload", "setalg-sweep", "--seed", "5", "--seconds", "0",
                          "--trace", "0"))
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] > 0
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == want
    assert all(v["value"] > 0 for v in doc["metrics"].values())


def test_traced_runs_repeat_call_counts_and_digests():
    runs = [_result(_cli("--workload", "setalg-sweep", "--seed", "5", "--seconds", "0",
                         "--trace", "1")) for _ in range(2)]
    names = [m["name"] for m in SPEC["per_layer"]]
    counts = []
    for doc, _ in runs:
        assert doc["correct"]
        assert list(doc["metrics"]) == names
        counts.append({k: v["value"] for k, v in doc["metrics"].items()
                       if v["unit"] in ("count", "ratio")})
    assert counts[0] == counts[1]
    assert counts[0]["bao.eval_term.calls"] > 0 and counts[0]["setalg.decode.calls"] > 0
    assert runs[0][1] == runs[1][1]


def test_cli_lists_every_workload():
    assert sorted(run.WORKLOADS) == sorted(workloads.WORKLOADS)
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_changes_inputs_but_not_task_list_shape(name):
    def shape_and_inputs(seed):
        tasks = workloads.build(name, seed)
        return collections.Counter(t.kind for t in tasks), [t.inputs for t in tasks]

    shape1, inputs1 = shape_and_inputs(1)
    shape2, inputs2 = shape_and_inputs(2)
    assert shape1 == shape2
    assert inputs1 != inputs2
    assert shape_and_inputs(1) == (shape1, inputs1)


def test_wrong_expected_verdict_is_reported_as_failure(monkeypatch):
    monkeypatch.setattr(workloads, "EXPECT_SUITE_PASSES", False)
    res = run.measure("setalg-sweep", 5, 0, trace=False)
    assert res["failed"] == res["attempted"] > 0
    assert not res["correct"]


def test_scale_uses_reference_samples_taken_during_a_span():
    unit = reference.REF_UNIT_S["python"]
    samples = [(i / 10, unit) for i in range(5)] + [(5 + i / 10, 2 * unit) for i in range(5)]
    at_unit, at_half_speed = reference.scale("python", [(0, 0.4, 1.0), (5, 5.4, 1.0)], samples)
    assert at_unit == pytest.approx(1.0) and at_half_speed == pytest.approx(0.5)


def test_checks_reject_wrong_results():
    assert not workloads._check_atom_count(np.arange(10))[0]
    assert not workloads._check_solve(({"winner": "forall"}, {"ok": True}))[0]
    assert not workloads._check_solve(({"winner": "exists"}, {"ok": False}))[0]
    theorem = ("imp", ("I", ("atom", 0)), ("atom", 0))
    model = modal.KripkeModel(topology.Preorder(1, [(0, 0)]), {0: 0})
    found = {"model": model, "point": 0, "mode": "kripke"}
    assert not workloads._countermodel_check(theorem, "none")({"topo": None, "kripke": found})[0]
    assert not workloads._countermodel_check(theorem, "size1")({"topo": None, "kripke": None})[0]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _cli("--workload", "games", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
