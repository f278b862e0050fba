"""topocyl benchmark: time to verdicts on four workloads.

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1 [--record]

One process runs one workload as a closed loop: a single client in one
thread issues the workload's tasks one after another, each a verdict that
is checked against an expectation derived independently of the program.
A pass is set-up (imports excepted) followed by every task; passes repeat
until --seconds have elapsed, at least one. `--workload all` runs the four
workloads one after another, each in its own process.

  setalg-sweep     axiom suites on full topological set algebras: millions
                   of int-bitmask ops, bound by the term interpreter and
                   c_i / I_k / d_ij; (3,3) widens the working set to 27 codes
  rainbow-algebra  CA conditions on the 10,894,256-atom rainbow complex
                   algebra: a few dozen numpy passes over 10.9M-element arrays,
                   interpreter overhead negligible, memory-bound
  games            bounded game solves with replay and Forall's scripted win
                   for all 24 tint orders: pure-Python search
  modal-transfer   Kripke vs Alexandrov batch agreement and countermodel
                   search in both semantics: the only load on modal and
                   topology.interior_bits

--trace 0 prints the end-to-end metrics. A reference loop is timed after
every task, and each task's latency is scaled to the reference speed
(bench/reference.py: other tenants of a shared machine slow whole stretches
of a run, so raw times do not repeat from run to run); a task's latency is
the median of its scaled latencies over the untraced passes. wall_s, the
time to all verdicts, sums them;
verdict_p50_s is their median and verdict_tail_s the highest whole
percentile that leaves at least ten tasks beyond it. setup_s is the median
import time in fresh interpreters plus the median per-pass set-up, both
scaled the same way;
peak_rss_mb is the process's peak resident memory. failed_frac and the
result digest are printed above the JSON line.

--trace 1 alternates untraced and traced passes, prints the per-layer
metrics of bench/tracing.py (call counts from a traced pass, self times as
medians over traced passes) and the tracing overhead (traced minus
untraced wall_s), and writes the task spans to bench/out/. The last line
of output is always one JSON object. --record stores the run's result
digest for its seed in bench/baseline.json; later runs of that seed must
reproduce it.
"""

import os

# one BLAS / OpenMP thread, set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

import reference  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
BASELINE = BENCH / "baseline.json"
TRACE_DIR = BENCH / "out"
TAIL_BEYOND = 10
IMPORT_SAMPLES = 5
# run in a fresh interpreter: the time a CLI user waits for the imports
IMPORT_PROBE = ("import time; t = time.perf_counter(); import sys; "
                "sys.path[:0] = [{src!r}, {bench!r}]; import tracing, workloads; "
                "print(time.perf_counter() - t)")

WORKLOADS = ("setalg-sweep", "rainbow-algebra", "games", "modal-transfer")
# the reference loop whose speed tracks each workload's (bench/reference.py)
REFERENCE = {"setalg-sweep": "python", "rainbow-algebra": "numpy", "games": "python",
             "modal-transfer": "python"}
END_TO_END_UNITS = {"wall_s": "s", "verdict_p50_s": "s", "verdict_tail_s": "s",
                    "setup_s": "s", "peak_rss_mb": "MB"}


def import_program():
    """Import topocyl from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    import topocyl

    if Path(topocyl.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"topocyl resolved to {topocyl.__file__}, not under {SRC}")


def machine_facts() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    mem = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "mem_total_mb": round(mem / 2 ** 20), "python": platform.python_version(),
            "numpy": numpy.__version__, "blas_threads": 1}


def _digest(*parts) -> str:
    text = json.dumps(parts, sort_keys=True, default=str, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def run_pass(workload: str, seed: int, tracer=None) -> dict:
    """Set up once, run every task with a reference sample after each (and,
    untraced, on a timer during it), then check every verdict untraced."""
    import workloads
    from topocyl.errors import BudgetExceeded

    clock = time.perf_counter
    kind = REFERENCE[workload]
    outcomes, spans = [], []
    sampler = reference.Sampler(kind, clock)
    gc.collect()
    with tracer if tracer is not None else nullcontext():
        sampler.take()
        # the timer's samples would count in the traced passes' layer times
        with sampler if tracer is None else nullcontext():
            t0 = clock()
            tasks = workloads.build(workload, seed)
            end = clock()
            build = (t0, end, end - t0 - sampler.busy(t0, end))
            sampler.take()
            for task in tasks:
                t = clock()
                try:
                    result = tracer.task(task.name, task.run) if tracer else task.run()
                    error = None
                except BudgetExceeded as exc:
                    result, error = None, f"inconclusive: budget exceeded ({exc})"
                except Exception as exc:  # a crashing task is a failed verdict, not a crashed run
                    result, error = None, f"raised {type(exc).__name__}: {exc}"
                end = clock()
                outcomes.append((task, result, error))
                spans.append((t, end, end - t - sampler.busy(t, end)))
                sampler.take()
    samples = sampler.samples
    records = []
    build_s, *scaled = reference.scale(kind, [build] + spans, samples)
    for (task, result, error), span, latency in zip(outcomes, spans, scaled):
        payload = None
        if error is None:
            try:
                ok, payload = task.check(result)
            except Exception as exc:
                ok, error = False, f"check raised {type(exc).__name__}: {exc}"
            else:
                if not ok:
                    error = f"unexpected verdict {payload}"
        records.append({"name": task.name, "latency": latency, "raw": span[2], "error": error,
                        "digest": _digest(task.name, payload)[:12] if error is None else "failed"})
    return {"build_s": build_s, "wall_s": sum(r["latency"] for r in records),
            "raw_wall_s": sum(r["raw"] for r in records),
            "ref_s": statistics.median(dt for _, dt in samples), "records": records}


def import_seconds() -> list:
    """Import time of the program and the benchmark in fresh interpreters,
    each scaled by python reference samples taken around it."""
    code = IMPORT_PROBE.format(src=str(SRC), bench=str(BENCH))
    sampler = reference.Sampler("python")
    out = []
    for _ in range(IMPORT_SAMPLES):
        for _ in range(3):
            sampler.take()
        t = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=120, check=True)
        end = time.perf_counter()
        for _ in range(3):
            sampler.take()
        span = (t, end, float(proc.stdout))
        out.append(reference.scale("python", [span], sampler.samples[-6:])[0])
    return out


def task_latencies(passes) -> list:
    """Each task's median scaled latency over the passes."""
    per_task = zip(*([r["latency"] for r in p["records"]] for p in passes))
    return [statistics.median(lat) for lat in per_task]


def _tail(latencies):
    """Latency at the highest whole percentile leaving at least TAIL_BEYOND
    tasks beyond it (nearest rank)."""
    pct = max(0, math.floor(100 * (1 - TAIL_BEYOND / len(latencies))))
    ordered = sorted(latencies)
    return ordered[max(1, math.ceil(pct / 100 * len(ordered))) - 1], pct


def _load_baseline() -> dict:
    if BASELINE.exists():
        with open(BASELINE, encoding="utf-8") as fh:
            return json.load(fh)
    return {"machine": {}, "digests": {}}


def _judge(workload, seed, passes, problems):
    """Mark tasks whose digest differs from the first pass or from the
    recorded one; returns (attempted, failed, task digests, workload
    digest, how it compares with the recorded one)."""
    first = [r["digest"] for r in passes[0]["records"]]
    recorded = _load_baseline()["digests"].get(workload, {}).get(str(seed))
    if recorded is not None and len(recorded["tasks"]) != len(first):
        problems.append(f"recorded digest has {len(recorded['tasks'])} tasks, run has {len(first)}")
        recorded = None
    attempted = failed = 0
    for p in passes:
        for idx, r in enumerate(p["records"]):
            attempted += 1
            if r["error"] is None and r["digest"] != first[idx]:
                r["error"] = "digest differs between passes"
            if r["error"] is None and recorded is not None and r["digest"] != recorded["tasks"][idx]:
                r["error"] = f"digest {r['digest']} != recorded {recorded['tasks'][idx]}"
            if r["error"] is not None:
                failed += 1
                if len(problems) < 10:
                    problems.append(f"task {r['name']}: {r['error']}")
    digest = _digest(workload, seed, first)[:32]
    if recorded is None:
        note = "no recorded digest for this seed"
    else:
        note = "matches recorded" if digest == recorded["digest"] else "DIFFERS from recorded"
    return attempted, failed, first, digest, note


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Time the imports, then run passes for `seconds` (at least one; in
    trace mode at least one untraced and one traced, alternating) and
    summarise them."""
    from tracing import Tracer

    imports = import_seconds()
    tracer = Tracer() if trace else None
    passes, layers = [], []
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        p = run_pass(workload, seed, tracer if traced else None)
        p["traced"] = traced
        if traced:
            layers.append(tracer.snapshot())
            p["spans"] = tracer.spans
        passes.append(p)
        enough = len(passes) >= (2 if trace else 1)
        if enough and time.perf_counter() - start >= seconds:
            break
    problems = []
    attempted, failed, task_digests, digest, note = _judge(workload, seed, passes, problems)
    plain = [p for p in passes if not p["traced"]]
    out = {
        "workload": workload, "seed": seed, "passes": len(passes),
        "tasks_per_pass": len(task_digests), "attempted": attempted, "failed": failed,
        "digest": digest, "digest_note": note, "task_digests": task_digests,
        "problems": problems, "build_s": [p["build_s"] for p in passes],
        "pass_wall_s": [p["wall_s"] for p in passes],
        "pass_raw_wall_s": [p["raw_wall_s"] for p in passes],
        "pass_ref_s": [p["ref_s"] for p in passes],
        "pass_traced": [p["traced"] for p in passes],
    }
    latencies = task_latencies(plain)
    tail, pct = _tail(latencies)
    out["import_s"] = imports
    out["tail_percentile"] = pct
    out["end_to_end"] = {
        "wall_s": sum(latencies),
        "verdict_p50_s": statistics.median(latencies),
        "verdict_tail_s": tail,
        "setup_s": statistics.median(imports) + statistics.median(p["build_s"] for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if trace:
        counts = [{k: v for k, v in snap.items() if not k.endswith("_s")} for snap in layers]
        if any(c != counts[0] for c in counts[1:]):
            problems.append("per-layer counts differ between traced passes")
        per_layer = dict(layers[0])
        for key in per_layer:
            if key.endswith("_s"):
                per_layer[key] = statistics.median(snap[key] for snap in layers)
        traced_wall = sum(task_latencies([p for p in passes if p["traced"]]))
        per_layer["trace.wall_s"] = traced_wall
        per_layer["trace.untraced_wall_s"] = out["end_to_end"]["wall_s"]
        per_layer["trace.overhead_s"] = traced_wall - out["end_to_end"]["wall_s"]
        out["per_layer"] = per_layer
        out["spans"] = [p.get("spans") for p in passes if p["traced"]]
    out["correct"] = failed == 0 and not problems and note != "DIFFERS from recorded"
    return out


def _unit(name: str) -> str:
    if name.endswith("_ratio"):
        return "ratio"
    return "s" if name.endswith("_s") else "count"


def _print_report(res: dict, machine: dict, trace: bool) -> dict:
    print("machine: " + " ".join(f"{k}={v!r}" for k, v in machine.items()))
    print(f"workload {res['workload']} seed {res['seed']}: closed loop, 1 client, 1 thread; "
          f"{res['tasks_per_pass']} tasks/pass x {res['passes']} passes")
    for p in res["problems"]:
        print(f"  problem: {p}")
    e2e = res["end_to_end"]
    plain = [i for i, traced in enumerate(res["pass_traced"]) if not traced]
    n = res["tasks_per_pass"]

    def listed(key, fmt):
        return ", ".join(format(res[key][i], fmt) for i in plain)

    print(f"wall_s {e2e['wall_s']:.4f} s  (sum of each task's median scaled latency over "
          f"{len(plain)} untraced passes; scaled pass sums {listed('pass_wall_s', '.3f')} s; "
          f"raw {listed('pass_raw_wall_s', '.3f')} s; {REFERENCE[res['workload']]} reference "
          f"loop median {listed('pass_ref_s', '.6f')} s, scale unit {reference.REF_UNIT_S[REFERENCE[res['workload']]]} s)")
    print(f"verdict_p50_s {e2e['verdict_p50_s']:.6f} s  (median of n={n} per-task latencies, "
          f"{n * len(plain)} samples)")
    print(f"verdict_tail_s {e2e['verdict_tail_s']:.6f} s  (p{res['tail_percentile']} of n={n}: "
          f">= {TAIL_BEYOND} tasks beyond it)")
    print(f"setup_s {e2e['setup_s']:.4f} s  (median of {len(res['import_s'])} fresh-interpreter "
          f"imports + median set-up of {len(res['build_s'])} passes, both scaled)")
    print(f"peak_rss_mb {e2e['peak_rss_mb']:.1f} MB")
    print(f"failed_frac {res['failed'] / res['attempted']:.4f}  "
          f"({res['failed']} of {res['attempted']} tasks)")
    print(f"digest {res['digest']}  ({res['digest_note']})")
    if trace:
        layer = res["per_layer"]
        for key, value in layer.items():
            print(f"  {key} {value:.6f}" if isinstance(value, float) else f"  {key} {value}")
        print(f"tracing overhead {layer['trace.overhead_s']:+.4f} s on wall_s "
              f"{layer['trace.untraced_wall_s']:.4f} s")
        return {k: {"value": v, "unit": _unit(k)} for k, v in layer.items()}
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}


def _record(res: dict, machine: dict) -> None:
    doc = _load_baseline()
    doc["machine"] = machine
    doc["digests"].setdefault(res["workload"], {})[str(res["seed"])] = {
        "digest": res["digest"], "tasks": res["task_digests"]}
    with open(BASELINE, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def run_all(args) -> int:
    """Run every workload in a process of its own, so that each peak_rss_mb
    belongs to one workload, and print their reports and a combined line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--record"] if args.record else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=1800)
        if proc.returncode != 0:
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            return proc.returncode
        *report, last = proc.stdout.strip().splitlines()
        print("\n".join(report))
        doc = json.loads(last)
        combined["correct"] = combined["correct"] and doc["correct"]
        combined["attempted"] += doc["attempted"]
        combined["failed"] += doc["failed"]
        for key, value in doc["metrics"].items():
            combined["metrics"][f"{name}/{key}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this run's result digest for its seed")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        import_program()
    except ImportError as exc:
        print(f"error: cannot import the program from {SRC}: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH))
    import tracing  # noqa: F401  (imports every program module)
    import workloads  # noqa: F401

    machine = machine_facts()
    res = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    metrics = _print_report(res, machine, bool(args.trace))
    if args.trace:
        from tracing import write_trace

        write_trace(TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.json", {
            "machine": machine, "workload": args.workload, "seed": args.seed,
            "per_layer": res["per_layer"], "pass_wall_s": res["pass_wall_s"],
            "task_spans": res["spans"]})
    if args.record:
        if not res["correct"]:
            print("error: not recording the digest of an incorrect run", file=sys.stderr)
            return 1
        _record(res, machine)
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
