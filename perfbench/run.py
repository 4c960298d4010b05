#!/usr/bin/env python3
"""Pipeline benchmark: one closed-loop caller driving the package's public API.

Usage (from the repository root):

    python3 perfbench/run.py --workload <family|refine|eccentric|normalize|all>
                             --seed <n> --seconds <s> --trace <0|1>

A run imports the package from ./src, sets up its workload (several times,
for the set-up time), makes one untimed warm-up pass, then repeats timed
passes while the next one should end within --seconds (at least two).
Every pass is checked for correctness.
With --trace 0 it prints the end-to-end metrics; with --trace 1 it times one
more untraced pass and then traced passes, and prints per-layer metrics
(calls, inclusive and self time per public function, and solver counts).
The last line of standard output is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
The process exits 0 when every check passes, 1 when a check fails and 2
when the package cannot be found.
"""

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_out"
WORKLOADS = ("family", "refine", "eccentric", "normalize")
SETUP_REPEATS = 11
# one BLAS thread: the matrices are small, and a single thread keeps
# timings steady on a shared machine (at most nproc in any case)
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402  (after the thread pinning above)

sys.path.insert(0, str(HERE))
import tracer      # noqa: E402
import workloads   # noqa: E402


class PackageMissing(Exception):
    pass


def import_package(fresh):
    """Import the package from ./src; with fresh=True drop it from the
    module cache first, so the import is timed in full."""
    if not (SRC / "bishopdiscs" / "__init__.py").is_file():
        raise PackageMissing(f"no package at {SRC / 'bishopdiscs'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if fresh:
        for key in [k for k in sys.modules if k == "bishopdiscs" or k.startswith("bishopdiscs.")]:
            del sys.modules[key]
    package = importlib.import_module("bishopdiscs")
    importlib.import_module("bishopdiscs.cli")
    importlib.import_module("bishopdiscs.specio")
    if SRC.resolve() not in Path(package.__file__).resolve().parents:
        raise PackageMissing(f"bishopdiscs imported from {package.__file__}, not {SRC}")
    return package


def git_commit():
    """HEAD of the checkout, read from .git without starting git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        ref_file = ROOT / ".git" / name
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas_version,
            "blas_threads": BLAS_THREADS, "commit": git_commit()}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


MIN_PASSES = 2


class Run:
    """One workload run: per-pass timings and tallies, and failed checks."""

    def __init__(self, workload, seconds, reference):
        self.workload = workload
        self.seconds = seconds
        self.reference = reference
        self.checks_failed = []
        self.passes = []       # (seconds, attempted, converged) per timed pass
        self.cpu_times = []    # process CPU seconds per timed pass (contention shows as a gap)

    def check(self, inputs, outputs, first=None):
        try:
            fails = self.workload.check(inputs, outputs, self.reference, first)
        except Exception:                       # an untyped error is a failed check
            fails = ["check raised:\n" + traceback.format_exc()]
        self.checks_failed.extend(fails)

    def timed_pass(self, inputs, first):
        start, cpu_start = time.perf_counter(), time.process_time()
        outputs = self.workload.run(inputs)
        elapsed = time.perf_counter() - start
        self.cpu_times.append(time.process_time() - cpu_start)
        self.passes.append((elapsed, *self.workload.tally(outputs)))
        self.check(inputs, outputs, first)

    def loop(self, inputs, first, before_pass=None, after_pass=None):
        """Timed passes, back to back, while the next one should end before
        the deadline (and at least MIN_PASSES of them)."""
        deadline = time.perf_counter() + self.seconds
        done = 0
        while done < MIN_PASSES or time.perf_counter() + self.passes[-1][0] <= deadline:
            if before_pass is not None:
                inputs = before_pass()
            self.timed_pass(inputs, first)
            if after_pass is not None:
                after_pass()
            done += 1

    def totals(self, passes=None):
        passes = self.passes if passes is None else passes
        attempted = sum(p[1] for p in passes)
        converged = sum(p[2] for p in passes)
        return attempted, converged

    def failed(self):
        """Slices that broke their gate: those that must converge and did
        not (a typed failure is an allowed outcome where must_converge is
        False)."""
        attempted, converged = self.totals()
        return attempted - converged if self.workload.must_converge else 0

    @staticmethod
    def rate(passes):
        return statistics.median(converged / elapsed for elapsed, _, converged in passes)


def measure(name, seed, seconds, trace):
    """One workload run; returns (result dict, info lines)."""
    run_start = time.perf_counter()
    workload = workloads.make(WORK_DIR)[name]
    reference = json.loads((HERE / "reference.json").read_text())[name]
    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        import_package(fresh=True)
        inputs = workload.setup(seed)
        setup_times.append(time.perf_counter() - start)
    run = Run(workload, seconds, reference)
    info = [f"# setup: {SETUP_REPEATS} repeats, seconds {[round(t, 4) for t in setup_times]}"]
    metrics = {}
    crashed = False
    try:
        warm = workload.run(inputs)                 # untimed warm-up pass
        run.check(inputs, warm)
        if not trace:
            run.loop(inputs, warm)
            attempted, converged = run.totals()
            metrics["setup_s"] = (statistics.median(setup_times), "s")
            metrics["slices_per_s"] = (run.rate(run.passes), "1/s")
            metrics["converged_frac"] = (converged / attempted, "fraction")
            metrics["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        else:
            run.timed_pass(inputs, warm)            # untraced, for the tracing overhead
            recorder = tracer.Recorder()
            recorder.install()
            try:
                # a traced pass repeats set-up, so set-up layers (specio.load) show
                run.loop(None, warm, before_pass=lambda: workload.setup(seed),
                         after_pass=recorder.end_pass)
            finally:
                recorder.uninstall()
            WORK_DIR.mkdir(exist_ok=True)
            span_file = WORK_DIR / f"spans-{name}.json"
            recorder.write(span_file)
            traced = run.passes[1:]
            metrics.update(layer_metrics(recorder, run.totals(traced)[0] / len(traced)))
            metrics["bench.untraced_slices_per_s"] = (run.rate(run.passes[:1]), "1/s")
            metrics["bench.traced_slices_per_s"] = (run.rate(traced), "1/s")
            info.append(f"# spans of the last traced pass written to {span_file}")
            mean_pass = statistics.fmean(p[0] for p in traced)
            shares = sorted(((s / mean_pass, name) for name, (_, s, _) in
                             recorder.per_pass()[0].items() if s > 0), reverse=True)
            info.append("# inclusive share of traced pass time: " + ", ".join(
                f"{name} {share:.1%}" for share, name in shares[:10]))
    except Exception:                               # untyped error: a failed run
        crashed = True
        run.checks_failed.append("pass raised:\n" + traceback.format_exc())

    attempted, converged = run.totals()
    times = [p[0] for p in run.passes] or [0.0]
    q1, q2, q3 = quartiles(times)
    info.append(f"# passes: {len(run.passes)} timed{' (first untraced)' if trace else ''}, "
                f"pass seconds median {q2:.4f}, quartiles {q1:.4f} .. {q3:.4f}, "
                f"cpu seconds median {statistics.median(run.cpu_times or [0.0]):.4f}")
    info.append(f"# slices: {attempted} attempted, {converged} converged, "
                f"failed_frac {1.0 - converged / max(attempted, 1):.4f}")
    info.append(f"# checks_failed: {len(run.checks_failed)}")
    info.extend(f"#   FAILED {msg}" for msg in run.checks_failed[:20])
    info.append(f"# run seconds {time.perf_counter() - run_start:.2f}")
    result = {
        "correct": not run.checks_failed,
        "attempted": max(attempted, 1),
        "failed": run.failed() + int(crashed),
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit) in metrics.items()},
    }
    return result, info


def layer_metrics(recorder, slices_per_pass):
    """Per traced pass: calls, inclusive and self seconds per span, counts."""
    spans, counts = recorder.per_pass()
    out = {}
    for name, (calls, inclusive, self_s) in spans.items():
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.s"] = (inclusive, "s")
        out[f"{name}.self_s"] = (self_s, "s")
    for key, value in counts.items():
        out[key] = (value, "count")
    solves = spans["solver.solve_slice"][0]
    out["discs.solves_per_slice"] = (solves / slices_per_pass, "solves/slice")
    out["discs.useful_solve_ratio"] = (slices_per_pass / solves if solves else 0.0,
                                       "slices/solve")
    return out


def run_all(args):
    """Every workload in turn, each in its own process (clean peak RSS)."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        if proc.returncode not in (0, 1) or not lines:
            print(f"[{name}] exited with {proc.returncode}", file=sys.stderr)
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = entry
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    try:
        import_package(fresh=False)
    except PackageMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("# env " + json.dumps(environment(), sort_keys=True))
    print(f"# workload {args.workload}, seed {args.seed}, seconds {args.seconds}, "
          f"trace {args.trace}, closed loop with one caller")
    result, info = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in info:
        print(line)
    for key, entry in result["metrics"].items():
        print(f"{key} {entry['value']!r} {entry['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
