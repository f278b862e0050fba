"""The benchmark's traced run patches names in `topocyl` from outside, and
its workloads call the program's public API; a refactor that drops or moves
a name either uses must fail here, not only in a benchmark run. The
benchmark files are read, never edited."""

import importlib.util
from pathlib import Path

from topocyl import bao, games
from topocyl import setalg as S
from topocyl import topology as T

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_install_and_uninstall():
    tracing = _load_bench("tracing")
    sites = [(owner, attr) for _, _, points in tracing.PATCH_POINTS for owner, attr in points]
    originals = [tracing._lookup(owner, attr) for owner, attr in sites]
    s = bao.atom_structure_of(S.SetAlgebraSpace(2, 2, T.make_topology(2, preset="discrete")))
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert all(tracing._lookup(o, a) is not f for (o, a), f in zip(sites, originals))
        res = games.solve_bounded(s, 3, 1, "F")
    finally:
        tracer.uninstall()
    assert all(tracing._lookup(o, a) is f for (o, a), f in zip(sites, originals))
    snap = tracer.snapshot()
    assert snap["games.solve_bounded.calls"] == 1
    assert snap["games.states"] == res["states_explored"]
    assert snap["games.canonical.calls"] > 0 and snap["games.complete.calls"] > 0


def test_set_algebra_operators_reach_the_traced_kernels():
    """bao.SetAlgebra runs c_i, I_k, d_ij and the Chang box through the
    setalg module functions, so the benchmark's wrappers count them."""
    tracing = _load_bench("tracing")
    topo = T.make_topology(2, preset="indiscrete")
    sp = S.SetAlgebraSpace(2, 2, topo, S.chang_from_topology(topo))
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for boxes in ("chang", "topology"):
            bao.check_axiom_suite(bao.SetAlgebra(sp, boxes=boxes), "TCA", mode="sampled",
                                  samples=20, seed=1)
    finally:
        tracer.uninstall()
    snap = tracer.snapshot()
    for name in ("setalg.cyl", "setalg.interior_op", "setalg.diag", "setalg.box_op"):
        assert snap[f"{name}.calls"] > 0, name


def test_each_workload_task_kind_passes_its_own_check():
    """Every workload builds at seed 1, and the first task of each kind
    runs and passes the check the benchmark applies to it."""
    workloads = _load_bench("workloads")
    for name in workloads.WORKLOADS:
        first = {}
        for task in workloads.build(name, 1):
            first.setdefault(task.kind, task)
        for task in first.values():
            ok, _ = task.check(task.run())
            assert ok, f"{name}: {task.name}"
