"""Timing wrappers installed from outside the program, for the traced run.

Each wrapper replaces a public name *where its callers look it up*: module
attributes for module-level functions (including the copies other modules
import by name), class attributes for methods. Every name a metric lists
gets its own wrapper feeding the metric's one aggregate; a call goes
through one name, so it is counted once. Nothing here touches `src/`;
`uninstall` puts every original back.

Hot primitives are not recorded as individual spans: each wrapper adds its
call count, total time and self time (total minus the time of wrapped calls
made inside it) to one aggregate. Every task of a traced pass is kept as a
full span.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from topocyl import bao, games, modal, rainbow, setalg, topology
from topocyl.errors import BudgetExceeded

# (metric name, wrapper kind, [(owner, attribute), ...])
_TIMED = "timed"
_COUNTED = "counted"
_GENERATOR = "generator"

PATCH_POINTS = [
    ("topology.interior_bits", _TIMED, [(topology.FiniteTopology, "interior_bits")]),
    ("topology.enumerate_topologies", _GENERATOR,
     [(topology, "enumerate_topologies"), (modal, "enumerate_topologies"),
      (bao, "enumerate_topologies")]),
    ("topology.enumerate_preorders", _GENERATOR,
     [(topology, "enumerate_preorders"), (modal, "enumerate_preorders")]),
    ("modal.eval_kripke_batch", _TIMED, [(modal, "eval_kripke_batch")]),
    ("modal.eval_topo_batch", _TIMED, [(modal, "eval_topo_batch")]),
    ("modal.find_countermodel", _TIMED, [(modal, "find_countermodel")]),
    ("setalg.cyl", _TIMED, [(setalg, "cyl")]),
    ("setalg.interior_op", _TIMED, [(setalg, "interior_op")]),
    ("setalg.diag", _TIMED, [(setalg, "diag")]),
    ("setalg.box_op", _TIMED, [(setalg, "box_op")]),
    ("setalg.decode", _COUNTED, [(setalg.SetAlgebraSpace, "decode")]),
    ("bao.eval_term", _TIMED, [(bao, "eval_term")]),
    ("bao.check_equation", _TIMED, [(bao, "check_equation")]),
    ("bao.atom_structure_of", _TIMED, [(bao, "atom_structure_of")]),
    ("rainbow.enumerate_atoms", _TIMED, [(rainbow, "enumerate_atoms")]),
    ("rainbow.groups", _TIMED, [(rainbow.RainbowStructure, "groups")]),
    ("rainbow.cyl", _TIMED, [(rainbow.RainbowComplexAlgebra, "cyl")]),
    ("rainbow.random_element", _TIMED, [(rainbow.RainbowComplexAlgebra, "random_element")]),
    ("rainbow.plus", _TIMED, [(rainbow.RainbowComplexAlgebra, "plus")]),
    ("rainbow.times", _TIMED, [(rainbow.RainbowComplexAlgebra, "times")]),
    ("rainbow.minus", _TIMED, [(rainbow.RainbowComplexAlgebra, "minus")]),
    ("rainbow.valid_atom", _TIMED, [(rainbow.AtomTable, "valid_atom")]),
    ("rainbow.is_valid_coloured_graph", _TIMED,
     [(rainbow, "is_valid_coloured_graph"), (games, "is_valid_coloured_graph")]),
    ("games.solve_bounded", _TIMED, [(games, "solve_bounded")]),
    ("games.canonical", _TIMED,
     [(games.GenericBackend, "canonical"), (games.RainbowBackend, "canonical")]),
    ("games.responses", _TIMED,
     [(games.GenericBackend, "responses"), (games.RainbowBackend, "responses")]),
    ("games.initial_networks", _TIMED,
     [(games.GenericBackend, "initial_networks"), (games.RainbowBackend, "initial_networks")]),
    ("games.forall_moves", _TIMED,
     [(games.GenericBackend, "forall_moves"), (games.RainbowBackend, "forall_moves")]),
    ("games.complete", _TIMED, [(games.GenericBackend, "_complete")]),
    ("games.verify_transcript", _TIMED, [(games, "verify_transcript")]),
    ("games.verify_forall_script", _TIMED, [(games, "verify_forall_script")]),
]

# counts taken from results at the wrapped boundaries
COUNTERS = ("bao.envs_drawn", "bao.envs_tested", "games.states", "games.budget_exceeded")


def layer_metric_names():
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = []
    for name, kind, _ in PATCH_POINTS:
        names.append(f"{name}.calls")
        if kind != _COUNTED:
            names.append(f"{name}.self_s")
    names.extend(COUNTERS)
    names.append("bao.guard_pass_ratio")
    return names


class Tracer:
    """Installs the wrappers and accumulates one aggregate per metric name."""

    def __init__(self):
        self.reset()
        self._saved = []

    def reset(self):
        # per name: [calls, self seconds]; the stack holds, per open span,
        # the time already covered by wrapped calls inside it
        self.stats = {name: [0, 0.0] for name, _, _ in PATCH_POINTS}
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.spans = []
        self._stack = [0.0]
        self._t0 = time.perf_counter()

    # -- wrappers --------------------------------------------------------

    def _timed(self, fn, st):
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                st[0] += 1
                st[1] += dt - stack.pop()
                stack[-1] += dt

        return wrapper

    def _counted(self, fn, st):
        def wrapper(*args, **kwargs):
            st[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _generator(self, fn, st):
        """Times each step of the generator; the consumer's work between
        steps is not counted."""
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            st[0] += 1
            it = fn(*args, **kwargs)
            while True:
                stack.append(0.0)
                t0 = clock()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    dt = clock() - t0
                    st[1] += dt - stack.pop()
                    stack[-1] += dt
                yield item

        return wrapper

    def _check_equation_counts(self, fn):
        counters = self.counters

        def wrapper(alg, eq, mode="auto", samples=10000, seed=0, guards=()):
            res = fn(alg, eq, mode=mode, samples=samples, seed=seed, guards=guards)
            # a failing check stops early, so then only the tested
            # environments are known to have been drawn
            drawn = samples if res["verdict"] != "fails" else res["tested"]
            counters["bao.envs_drawn"] += drawn
            counters["bao.envs_tested"] += res["tested"]
            return res

        return wrapper

    def _solve_counts(self, fn):
        counters = self.counters

        def wrapper(*args, **kwargs):
            try:
                res = fn(*args, **kwargs)
            except BudgetExceeded:
                counters["games.budget_exceeded"] += 1
                raise
            counters["games.states"] += res["states_explored"]
            return res

        return wrapper

    # -- install / uninstall --------------------------------------------------

    def install(self):
        """Patch every name; the aggregates start from zero."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        self.reset()
        make = {_TIMED: self._timed, _COUNTED: self._counted, _GENERATOR: self._generator}
        for name, kind, sites in PATCH_POINTS:
            for owner, attr in sites:
                orig = _lookup(owner, attr)
                wrapped = make[kind](orig, self.stats[name])
                if name == "bao.check_equation":
                    wrapped = self._check_equation_counts(wrapped)
                elif name == "games.solve_bounded":
                    wrapped = self._solve_counts(wrapped)
                self._saved.append((owner, attr, orig))
                setattr(owner, attr, wrapped)

    def uninstall(self):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- task spans -------------------------------------------------------------

    def task(self, name: str, fn):
        """Run fn as one task span; returns its result or raises."""
        stack = self._stack
        stack.append(0.0)
        t0 = time.perf_counter()
        status = "error"
        try:
            out = fn()
            status = "ok"
            return out
        finally:
            dt = time.perf_counter() - t0
            child = stack.pop()
            stack[-1] += dt
            self.spans.append({"task": name, "start_s": t0 - self._t0, "dur_s": dt,
                               "self_s": dt - child, "status": status})

    # -- results ----------------------------------------------------------------

    def snapshot(self) -> dict:
        """Per-layer values accumulated since the last reset."""
        out = {}
        for name, kind, _ in PATCH_POINTS:
            calls, self_s = self.stats[name]
            out[f"{name}.calls"] = calls
            if kind != _COUNTED:
                out[f"{name}.self_s"] = self_s
        out.update(self.counters)
        drawn = self.counters["bao.envs_drawn"]
        out["bao.guard_pass_ratio"] = self.counters["bao.envs_tested"] / drawn if drawn else 0.0
        return out


def _lookup(owner, attr):
    # class attributes are read from the class dict so that a method is
    # restored as the plain function it was
    if isinstance(owner, type):
        return owner.__dict__[attr]
    return getattr(owner, attr)


def write_trace(path: Path, doc: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
