"""damflow benchmark: time to a verified penalized solution, and where it went.

Run one workload (from the root of a checkout):

    python3 perfbench/run.py --workload dam_stationary --seed 0 --seconds 38 --trace 0

The run builds the workload's inputs from the seed, repeats the workload
until the next repetition would end after ``--seconds``, checks every
result, and prints its metrics, the last line being one JSON object.  With
``--trace 0`` the metrics are end to end; with ``--trace 1`` the run
alternates untraced and traced repetitions and reports per-layer counts and
self times instead.  Every run also saves a full record (environment stamp
included) under ``.perfbench_out/``.

Compare two sets of saved records, e.g. a parent commit against a change:

    python3 perfbench/run.py --compare PARENT_DIR CHANGE_DIR
"""

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
WORK = os.path.join(ROOT, ".perfbench_work")
REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# setup_s is the median import time of this many fresh interpreters plus
# the median of as many input builds
SETUP_REPEATS = 3
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
                "import damflow.cli; print(time.perf_counter() - t)")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("BASE_DIR", "NEW_DIR"),
                        help="print saved results of two benchmark sets side by side")
    parser.add_argument("--write-reference", action="store_true",
                        help="store the default seed's final state as the committed reference")
    args = parser.parse_args(argv)
    if args.compare is None and args.workload is None:
        parser.error("--workload is required unless --compare is given")
    return args


def main(argv=None):
    args = parse_args(argv)
    if args.compare:
        import compare
        return compare.main(args.compare[0], args.compare[1], ROOT)
    if not os.path.isfile(os.path.join(SRC, "damflow", "__init__.py")):
        print(f"damflow sources not found under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, SRC)

    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.write_reference and args.seed != workloads.DEFAULT_SEED:
        print("--write-reference needs the default seed", file=sys.stderr)
        return 2
    bench = Bench(args)
    try:
        return bench.run()
    finally:
        bench.cleanup()


class Rep:
    """One repetition of a workload: its timing, step samples and failures."""

    def __init__(self, traced):
        self.traced = traced
        self.solve_s = 0.0
        self.wall_s = 0.0
        self.steps_ms = []
        self.failed_ops = set()
        self.messages = []
        self.layers = None


class Bench:
    def __init__(self, args):
        import spans
        import workloads

        self.args = args
        self.spans = spans
        self.workloads = workloads
        self.wl = workloads.WORKLOADS[args.workload]
        self.work_dir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
        self.recorder = spans.SpanRecorder() if args.trace else None

    def cleanup(self):
        import shutil
        shutil.rmtree(self.work_dir, ignore_errors=True)
        if os.path.isdir(WORK) and not os.listdir(WORK):
            os.rmdir(WORK)

    def setup(self):
        """Inputs, and the median import time plus the median build time."""
        import subprocess
        imports = []
        for _ in range(SETUP_REPEATS):
            probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE, SRC], check=True,
                                   capture_output=True, text=True, timeout=120)
            imports.append(float(probe.stdout.split()[-1]))
        os.makedirs(self.work_dir, exist_ok=True)
        builds = []
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            inputs = self.wl.build(self.args.seed, self.work_dir)
            builds.append(time.perf_counter() - t)
        return inputs, statistics.median(imports) + statistics.median(builds)

    def rep(self, inputs, traced, index):
        wl, rep = self.wl, Rep(traced)
        wl.reset(inputs)
        gc.collect()
        results = []

        def call(fn, *args, **kwargs):
            results.append(fn(*args, **kwargs))
            return results[-1]

        if traced:
            self.recorder.run = index
            patch = self.spans.instrument(self.recorder)
        else:
            clock = self.spans.StepClock(wl.step_is_iteration)
            patch = clock.install()
        t = time.perf_counter()
        try:
            wl.solve(inputs, call)
        except Exception as exc:  # a failed solve is counted, never raised
            rep.failed_ops.update(range(len(results), wl.n_ops))
            rep.messages.append(f"operation {len(results)}: {type(exc).__name__}: {exc}")
        finally:
            rep.solve_s = time.perf_counter() - t
            patch.restore()
        if not traced:
            rep.steps_ms = wl.step_latencies(clock.samples_ms)

        try:
            for op, message in wl.check(inputs, results):
                rep.failed_ops.add(op)
                rep.messages.append(message)
            if self.args.seed == self.workloads.DEFAULT_SEED and len(results) == wl.n_ops:
                self.check_reference(inputs, results, rep)
        except Exception as exc:  # a check that cannot read a result fails the rep
            rep.failed_ops.update(range(wl.n_ops))
            rep.messages.append(f"check: {type(exc).__name__}: {exc}")
        if traced:
            times = self.recorder.self_times()[index]
            rep.layers = self.spans.layer_metrics(times, self.recorder.counts[index])
        return rep

    def check_reference(self, inputs, results, rep):
        op, observed = self.wl.final(inputs, results)
        refs = {}
        if os.path.exists(REFERENCE):
            with open(REFERENCE) as f:
                refs = json.load(f)
        if self.args.write_reference:
            refs[self.wl.name] = observed
            with open(REFERENCE, "w") as f:
                json.dump(refs, f, indent=1, sort_keys=True)
                f.write("\n")
            return
        for message in self.workloads.reference_failures(observed, refs.get(self.wl.name)):
            rep.failed_ops.add(op)
            rep.messages.append(f"reference: {message}")

    def run(self):
        args = self.args
        inputs, setup_s = self.setup()
        reps = []
        start = time.perf_counter()
        while True:
            traced = bool(args.trace) and len(reps) % 2 == 1
            t = time.perf_counter()
            reps.append(self.rep(inputs, traced, len(reps)))
            reps[-1].wall_s = time.perf_counter() - t
            kinds = {r.traced for r in reps}
            complete = kinds == {False, True} if args.trace else True
            # stop before a repetition that would end past the time budget
            if complete and time.perf_counter() - start + reps[-1].wall_s > args.seconds:
                break

        attempted = self.wl.n_ops * len(reps)
        failed = sum(len(r.failed_ops) for r in reps)
        plain = [r for r in reps if not r.traced]
        solve_s = statistics.median(r.solve_s for r in plain)
        if args.trace:
            metrics = self.layer_metrics(reps, solve_s)
        else:
            metrics = self.end_to_end(plain, setup_s, solve_s)

        record = {"workload": self.wl.name, "seed": args.seed, "trace": args.trace,
                  "params": inputs.params, "seconds": args.seconds, "reps": len(reps),
                  "rep_solve_s": [r.solve_s for r in reps],
                  "rep_traced": [r.traced for r in reps],
                  "step_samples": sum(len(r.steps_ms) for r in plain),
                  "attempted": attempted, "failed": failed,
                  "fail_frac": failed / attempted,
                  "failures": [m for r in reps for m in r.messages],
                  "metrics": metrics, "env": environment()}
        self.save(record)
        self.report(record)
        result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
                  "metrics": {name: {"value": value, "unit": unit}
                              for name, (value, unit) in metrics.items()}}
        print(json.dumps(result), flush=True)
        return 0

    def end_to_end(self, plain, setup_s, solve_s):
        import numpy as np
        steps = np.concatenate([r.steps_ms for r in plain])
        # a run whose solves all failed before the first step reports 0 and correct=false
        p50, p90 = np.percentile(steps, [50, 90]) if steps.size else (0.0, 0.0)
        return {"setup_s": (setup_s, "s"),
                "solve_s": (solve_s, "s"),
                "step_ms_p50": (float(p50), "ms"),
                "step_ms_p90": (float(p90), "ms"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                                "MB")}

    def layer_metrics(self, reps, plain_solve_s):
        traced = [r for r in reps if r.traced]
        names = traced[0].layers
        metrics = {}
        for name in names:
            unit = ("s" if name.endswith(".s") else
                    "ratio" if name.endswith("_ratio") else
                    "bytes" if name.endswith(".bytes") else "count")
            metrics[name] = (statistics.median(r.layers[name] for r in traced), unit)
        traced_s = statistics.median(r.solve_s for r in traced)
        metrics["tracing.overhead_frac"] = (traced_s / plain_solve_s - 1.0, "ratio")
        return metrics

    def save(self, record):
        stem = (f"{record['workload']}-seed{record['seed']}-trace{record['trace']}-"
                f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}")
        os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
        with open(os.path.join(OUT, "results", stem + ".json"), "w") as f:
            json.dump(record, f, indent=1)
        if self.recorder is not None:
            os.makedirs(os.path.join(OUT, "spans"), exist_ok=True)
            with open(os.path.join(OUT, "spans", stem + ".json"), "w") as f:
                json.dump({"workload": record["workload"], "seed": record["seed"],
                           "spans": self.recorder.dump()}, f)

    def report(self, record):
        print(f"workload {record['workload']} seed {record['seed']} "
              f"params {record['params']} reps {record['reps']} "
              f"(traced {sum(record['rep_traced'])})")
        print(f"  fail_frac {record['fail_frac']:.4g} "
              f"({record['failed']} of {record['attempted']} operations)")
        for message in record["failures"]:
            print(f"  FAILED {message}")
        if not record["trace"]:
            print(f"  step samples {record['step_samples']}")
        for name, (value, unit) in record["metrics"].items():
            print(f"  {name:40s} {value:14.6g} {unit}")


def environment():
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "machine": platform.machine(),
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS}}


if __name__ == "__main__":
    sys.exit(main())
