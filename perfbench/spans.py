"""Outside-in span recording for damflow.

Nothing here edits damflow's sources: the recorder wraps the public
functions of each layer from the outside, patching every name a function is
bound to (damflow imports several of them into other modules at import
time, so patching only the defining module would miss those callers) and
restoring the originals afterwards.

A span is ``[name, start, end, parent, run]``: ``parent`` is the index of
the enclosing span (``None`` at the top), ``run`` the repetition it belongs
to.  Spans stay in memory until the benchmark writes them out; a layer's
self time is its span's duration minus the time its child spans cover.
"""

import collections
import functools
import os
import time

import scipy.sparse.linalg as spla

import damflow
from damflow import assembly, certify, cli, config, evolution, io, nonlinear, stationary


class Patcher:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self):
        self._saved = []

    def set(self, obj, attr, value):
        self._saved.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def restore(self):
        while self._saved:
            obj, attr, old = self._saved.pop()
            setattr(obj, attr, old)


class SpanRecorder:
    """In-memory spans plus per-run counters taken at the same boundaries."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans = []
        self.run = 0
        self.counts = collections.defaultdict(collections.Counter)
        self._stack = []

    def count(self, key, n=1):
        self.counts[self.run][key] += n

    def wrap(self, fn, name, after=None):
        """``fn`` inside a span; ``after(result, args, kwargs)`` runs once it closes."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else None,
                          self.run])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
            if after is not None:
                after(result, args, kwargs)
            return result

        return wrapper

    def self_times(self):
        """{run: {name: [calls, self seconds]}} derived from the spans."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, run in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out = collections.defaultdict(lambda: collections.defaultdict(lambda: [0, 0.0]))
        for (name, start, end, parent, run), child in zip(self.spans, covered):
            entry = out[run][name]
            entry[0] += 1
            entry[1] += (end - start) - child
        return out

    def dump(self):
        return [{"name": name, "start": start - self.t0, "end": end - self.t0,
                 "parent": parent, "run": run}
                for name, start, end, parent, run in self.spans]


def _file_bytes(rec, key):
    """Hook counting the size of the file named by the call's path argument."""
    def after(result, args, kwargs):
        rec.count(key, os.path.getsize(kwargs.get("path", args[0])))
    return after


def instrument(rec):
    """Wrap every layer boundary of damflow in spans; returns the Patcher."""
    p = Patcher()

    def bind(modules, attr, name, after=None):
        wrapped = rec.wrap(getattr(modules[0], attr), name, after)
        for module in modules:
            p.set(module, attr, wrapped)

    # assembly: Q1 methods on the class, the two Dirichlet treatments at
    # every module that imported them, the linear solver and its Krylov calls
    Q1 = assembly.Q1Assembler
    for attr, name in (("__init__", "assembly.q1_init"), ("stiffness", "assembly.stiffness"),
                       ("mass", "assembly.mass"), ("lumped_mass", "assembly.lumped_mass"),
                       ("interp_at_quad", "assembly.interp"),
                       ("gravity_vector", "assembly.gravity_vector"),
                       ("gravity_jacobian", "assembly.gravity_jacobian"),
                       ("energy", "assembly.energy"), ("integrate", "assembly.integrate")):
        bind([Q1], attr, name)
    bind([assembly, stationary, evolution, certify], "apply_dirichlet_matrix",
         "assembly.dirichlet_matrix")
    bind([assembly, stationary, evolution], "apply_dirichlet_system",
         "assembly.dirichlet_system")

    linsolve = assembly.LinearSolver.solve

    def solve(self, A, b, symmetric):
        before = self.fallbacks
        try:
            return linsolve(self, A, b, symmetric)
        finally:
            rec.count("assembly.linsolve.lu_fallbacks", self.fallbacks - before)

    p.set(assembly.LinearSolver, "solve", rec.wrap(solve, "assembly.linsolve"))

    def counting(krylov):
        # the injected callback runs once per Krylov iteration and leaves
        # the iterates untouched
        def run(*args, callback=None, **kwargs):
            rec.count("assembly.linsolve.krylov_attempts")

            def tick(xk):
                rec.count("assembly.linsolve.krylov_iters")
                if callback is not None:
                    callback(xk)

            return krylov(*args, callback=tick, **kwargs)

        return run

    # assembly.spla is scipy.sparse.linalg itself, restored afterwards
    p.set(spla, "cg", counting(spla.cg))
    p.set(spla, "bicgstab", counting(spla.bicgstab))

    # nonlinear: newton_picard_solve at both import sites, plus the callables it is given
    original = nonlinear.newton_picard_solve

    def newton_picard_solve(v0, residual_fn, jacobian_fn, picard_fn, linsolver, **kwargs):
        v, stats = original(v0, rec.wrap(residual_fn, "nonlinear.residual"),
                            rec.wrap(jacobian_fn, "nonlinear.jacobian"),
                            rec.wrap(picard_fn, "nonlinear.picard_build"), linsolver, **kwargs)
        if "+" in stats.method:
            rec.count("nonlinear.path_fallbacks")
        return v, stats

    wrapped = rec.wrap(newton_picard_solve, "nonlinear.solve")
    for module in (nonlinear, stationary, evolution):
        p.set(module, "newton_picard_solve", wrapped)

    def stationary_done(result, args, kwargs):
        rec.count("stationary.continuation_steps", result.diagnostics["continuation_steps"])
        rec.count("stationary.clamped_nodes", result.diagnostics["clamped_nodes"])

    # config imports solve_stationary lazily from the module, so patching
    # the module covers it
    bind([stationary, cli, damflow], "solve_stationary", "stationary.solve", stationary_done)

    def step_done(result, args, kwargs):
        rec.count("evolution.dt_halvings", result[1].dt_halvings)

    bind([evolution, damflow], "step", "evolution.step", step_done)

    # certify
    p.set(certify.DualSolver, "__init__",
          rec.wrap(certify.DualSolver.__init__, "certify.dual_factor"))
    p.set(certify.DualSolver, "solve", rec.wrap(certify.DualSolver.solve, "certify.dual_solve"))
    bind([certify, cli, damflow], "gronwall_monitor", "certify.monitor")

    # io, config and cli
    bind([io, cli], "write_solution_csv", "io.csv_write", _file_bytes(rec, "io.csv_write.bytes"))
    bind([cli, config, damflow.problem_data, damflow], "load_solution_csv", "io.csv_read",
         _file_bytes(rec, "io.csv_read.bytes"))
    bind([io, cli], "write_json", "io.json_write")
    bind([config, cli], "build_problem", "config.build_problem")
    bind([cli], "cmd_run", "cli.run")
    bind([cli], "cmd_compare", "cli.compare")
    return p


def layer_metrics(times, counts):
    """Per-layer metrics of one traced run from its self times and counters."""
    def calls(name):
        return float(times[name][0]) if name in times else 0.0

    def self_s(name):
        return times[name][1] if name in times else 0.0

    m = {}
    for layer in ("assembly.dirichlet_matrix", "assembly.gravity_jacobian", "assembly.linsolve",
                  "assembly.q1_init", "assembly.gravity_vector", "assembly.dirichlet_system",
                  "certify.dual_factor", "certify.dual_solve", "io.csv_write", "io.csv_read",
                  "config.build_problem"):
        m[f"{layer}.calls"] = calls(layer)
        m[f"{layer}.s"] = self_s(layer)
    for layer in ("assembly.stiffness", "assembly.interp", "nonlinear.jacobian",
                  "nonlinear.picard_build", "certify.monitor", "io.json_write",
                  "cli.run", "cli.compare"):
        m[f"{layer}.s"] = self_s(layer)

    attempts = counts["assembly.linsolve.krylov_attempts"]
    fallbacks = counts["assembly.linsolve.lu_fallbacks"]
    m["assembly.linsolve.krylov_iters"] = float(counts["assembly.linsolve.krylov_iters"])
    m["assembly.linsolve.lu_fallbacks"] = float(fallbacks)
    m["assembly.linsolve.krylov_ok_ratio"] = (attempts - fallbacks) / attempts if attempts else 1.0

    # one Jacobian build per Newton iteration, one frozen-penalty build per
    # Picard iteration
    m["nonlinear.solves"] = calls("nonlinear.solve")
    m["nonlinear.s"] = self_s("nonlinear.solve")
    m["nonlinear.newton_iters"] = calls("nonlinear.jacobian")
    m["nonlinear.picard_iters"] = calls("nonlinear.picard_build")
    m["nonlinear.path_fallbacks"] = float(counts["nonlinear.path_fallbacks"])
    m["nonlinear.residual.evals"] = calls("nonlinear.residual")
    m["nonlinear.residual.s"] = self_s("nonlinear.residual")
    evals = m["nonlinear.residual.evals"]
    m["nonlinear.accept_ratio"] = m["nonlinear.newton_iters"] / evals if evals else 0.0

    m["stationary.solves"] = calls("stationary.solve")
    m["stationary.s"] = self_s("stationary.solve")
    m["stationary.continuation_steps"] = float(counts["stationary.continuation_steps"])
    m["stationary.clamped_nodes"] = float(counts["stationary.clamped_nodes"])

    m["evolution.steps"] = calls("evolution.step")
    m["evolution.step.s"] = self_s("evolution.step")
    m["evolution.dt_halvings"] = float(counts["evolution.dt_halvings"])

    m["io.csv_write.bytes"] = float(counts["io.csv_write.bytes"])
    m["io.csv_read.bytes"] = float(counts["io.csv_read.bytes"])
    return m


class StepClock:
    """Per-step latencies in ms, taken with tracing off.

    On the unsteady workloads a step is one ``evolution.step`` call.  The
    stationary workload has no time steps; there a step is one Newton or
    Picard iteration, timed from one Jacobian (or Picard) build to the next.
    """

    def __init__(self, per_iteration):
        self.per_iteration = per_iteration
        self.samples_ms = []

    def install(self):
        p = Patcher()
        samples = self.samples_ms
        if not self.per_iteration:
            step = evolution.step

            def timed_step(*args, **kwargs):
                t = time.perf_counter()
                result = step(*args, **kwargs)
                samples.append((time.perf_counter() - t) * 1e3)
                return result

            p.set(evolution, "step", timed_step)
            return p

        original = stationary.newton_picard_solve

        def newton_picard_solve(v0, residual_fn, jacobian_fn, picard_fn, linsolver, **kwargs):
            marks = []

            def marked(fn):
                def call(*args):
                    marks.append(time.perf_counter())
                    return fn(*args)
                return call

            try:
                return original(v0, residual_fn, marked(jacobian_fn), marked(picard_fn),
                                linsolver, **kwargs)
            finally:
                marks.append(time.perf_counter())
                samples.extend((b - a) * 1e3 for a, b in zip(marks, marks[1:]))

        p.set(stationary, "newton_picard_solve", newton_picard_solve)
        return p
