"""Benchmark of the segreform CLI: closed-loop pipelines and a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload exact-algebra --seed 1 --seconds 30 --trace 0

With `--trace 0` one client runs the workload's pipelines back to back, each
CLI invocation a child process started after the previous one ended, for
about `--seconds`; it prints the end-to-end metrics.  With
`--trace 1` it runs the first pipeline of the same seed in-process through
`segreform.cli.main`, traced, then each invocation again untraced and
traced, and prints the per-layer metrics.  Every report is checked; the
last line of output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path
from typing import NamedTuple

from checks import check_invocation
from tracer import COUNTERS, MODULES, Tracer, import_split
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCHEMA = SRC / "segreform" / "report_schema.json"
WORK = ROOT / ".perfbench"
CLI = [sys.executable, "-m", "segreform.cli"]
SETUP_REPS = 4          # set-up samples before and again after the loop
IMPORTTIME_REPS = 3
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Child(NamedTuple):
    code: int
    wall_s: float
    cpu_s: float
    maxrss_kib: int
    stdout: str
    stderr: str


def run_child(cmd, env, out_path):
    """Run cmd to completion, with its CPU time and peak RSS from wait4."""
    with open(out_path, "w+b") as out, open(f"{out_path}.err", "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
                     out.read().decode(errors="replace"), err.read().decode(errors="replace"))


def run_import(env, workdir, *flags):
    """A fresh interpreter that imports segreform.cli and exits."""
    child = run_child([sys.executable, *flags, "-c", "import segreform.cli"], env,
                      workdir / "import.out")
    if child.code != 0:
        raise RuntimeError(f"import segreform.cli failed:\n{child.stderr}")
    return child


def time_imports(env, workdir, reps):
    return [run_import(env, workdir).wall_s for _ in range(reps)]


def median_import_split(env, workdir):
    """Median import self time of numpy, scipy and segreform modules, after a warm-up."""
    splits = [import_split(run_import(env, workdir, "-X", "importtime").stderr)
              for _ in range(IMPORTTIME_REPS + 1)][1:]
    return {pkg: statistics.median(s[pkg] for s in splits) for pkg in splits[0]}


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def pipelines(workload, seed, workdir):
    """Yield the argv lists of each successive pipeline for this seed."""
    rng = random.Random(seed)
    index = 0
    while True:
        inst_seed, mc_seed = rng.randrange(2**31), rng.randrange(2**31)
        rel = workdir.relative_to(ROOT)
        yield WORKLOADS[workload](inst_seed, mc_seed,
                                  lambda name, i=index: str(rel / f"p{i}-{name}"))
        index += 1


class Tally:
    """Invocation verdicts of a run."""

    def __init__(self):
        self.schema = json.loads(SCHEMA.read_text(encoding="utf-8"))
        self.attempted = 0
        self.failures = []      # {"argv", "wrong", "failed_rows"} per failed invocation
        self.exact_residuals = []
        self.mismatch = None    # why the run is wrong apart from any one invocation

    def add(self, argv, exit_code, stdout):
        outcome = check_invocation(argv, exit_code, stdout, self.schema,
                                   lambda p: (ROOT / p).read_text(encoding="utf-8"))
        self.attempted += 1
        self.exact_residuals += outcome.exact_residuals
        if outcome.failed:
            self.failures.append({"argv": argv, "wrong": outcome.wrong,
                                  "failed_rows": outcome.failed_rows})

    @property
    def correct(self):
        return self.mismatch is None and not any(f["wrong"] for f in self.failures)


def closed_loop(workload, seed, seconds, workdir, env):
    time_imports(env, workdir, 1)  # warm-up: byte-code and file caches
    # half the set-up samples before the loop and half after, so they see
    # the same machine as the pipelines do
    setup = time_imports(env, workdir, SETUP_REPS)
    runs = []   # per pipeline: (wall, [(argv, Child)])
    source = pipelines(workload, seed, workdir)
    start = time.perf_counter()
    # at least one pipeline; then another while ending after it, at the mean
    # pipeline time, lands nearer to `seconds` than stopping now
    while not runs or (time.perf_counter() - start
                       + statistics.fmean(wall for wall, _ in runs) / 2 <= seconds):
        argvs = next(source)
        t0 = time.perf_counter()
        done = [(argv, run_child(CLI + argv, env, workdir / "cli.out")) for argv in argvs]
        runs.append((time.perf_counter() - t0, done))
    elapsed = time.perf_counter() - start
    setup += time_imports(env, workdir, SETUP_REPS)

    tally = Tally()
    for _, done in runs:
        for argv, child in done:
            tally.add(argv, child.code, child.stdout)
    walls = [wall for wall, _ in runs]
    cpus = [sum(child.cpu_s for _, child in done) for _, done in runs]
    metrics = {
        "throughput_pipelines_per_s": (len(runs) / elapsed, "1/s"),
        "pipeline_p50_s": (statistics.median(walls), "s"),
        "cpu_s_per_pipeline": (statistics.median(cpus), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (max(c.maxrss_kib for _, done in runs for _, c in done) / 1024, "MB"),
    }
    detail = {"pipelines": len(runs), "elapsed_s": elapsed, "pipeline_walls_s": walls,
              "pipeline_cpu_s": cpus, "setup_s": setup,
              "invocation_walls_s": [[c.wall_s for _, c in done] for _, done in runs]}
    return metrics, tally, detail


def call_main(cli, argv):
    """Run segreform.cli.main(argv) in-process; return (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a verdict on this invocation, not on the benchmark
            code = -1
            print(traceback.format_exc())
    return code, buf.getvalue()


def traced(workload, seed, workdir, env):
    imports = median_import_split(env, workdir)
    sys.path.insert(0, str(SRC))
    import segreform.cli as cli

    argvs = next(pipelines(workload, seed, workdir))
    tally = Tally()
    tracer = Tracer()

    def run(argv, trace):
        if trace:
            tracer.install()
        try:
            start = time.perf_counter()
            code, stdout = call_main(cli, argv)
            wall = time.perf_counter() - start
        finally:
            tracer.uninstall()
        tally.add(argv, code, stdout)
        return wall

    # Pass 1, traced, runs as cold as in-process can and gives the spans.
    # Pass 2 runs each invocation untraced and then traced, back to back, so
    # the machine's drift in speed cancels from the overhead.
    for argv in argvs:
        run(argv, trace=True)
    self_s, counts, spans = tracer.self_seconds(), tracer.counts(), len(tracer.spans)
    tracer.write_spans(WORK / f"{workload}-seed{seed}-spans.tsv")
    tracer.reset()
    untraced_s = traced_s = 0.0
    for argv in argvs:
        untraced_s += run(argv, trace=False)
        traced_s += run(argv, trace=True)
    repeat = tracer.counts()

    mismatch = {k: (counts[k], repeat[k]) for k in counts if counts[k] != repeat[k]}
    if mismatch:
        tally.mismatch = f"work counts differ between traced passes: {mismatch}"
    metrics = {f"{m}.self_s": (self_s[m], "s") for m in MODULES}
    metrics.update({c: (counts[c], "B" if c == "report.bytes_out" else "count")
                    for c in COUNTERS})
    metrics["report.max_exact_residual"] = (max(tally.exact_residuals, default=0.0), "1")
    for pkg in ("numpy", "scipy", "segreform"):
        metrics[f"setup.import_{pkg}_s"] = (imports[pkg], "s")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    metrics["trace.spans"] = (spans, "count")
    detail = {"untraced_s": untraced_s, "traced_s": traced_s, "argvs": argvs}
    return metrics, tally, detail


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def environment():
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy"),
            "blas_env": {k: os.environ[k] for k in BLAS_VARS if k in os.environ}}


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM raises KeyboardInterrupt, so run_child kills and reaps its child
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    if not (SRC / "segreform" / "cli.py").is_file():
        print(f"segreform sources not found under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    workdir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = child_env()
    try:
        if args.trace:
            metrics, tally, detail = traced(args.workload, args.seed, workdir, env)
        else:
            metrics, tally, detail = closed_loop(args.workload, args.seed, args.seconds,
                                                 workdir, env)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    want = expected_metrics(args.trace)
    got = {name: unit for name, (_, unit) in metrics.items()}
    if got != want:
        raise RuntimeError(f"metrics {got} do not match BENCHMARK.json {want}")
    error_rate = len(tally.failures) / tally.attempted
    results = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "environment": environment(),
               "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
               "error_rate": error_rate, "attempted": tally.attempted,
               "failures": tally.failures, "mismatch": tally.mismatch, "detail": detail}
    results_path = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    results_path.write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")

    if not args.trace:
        print(f"{detail['pipelines']} pipelines in {detail['elapsed_s']:.1f} s "
              f"(the samples of pipeline_p50_s and cpu_s_per_pipeline); "
              f"{len(detail['setup_s'])} set-up samples")
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value if isinstance(value, int) else format(value, '.6g')} {unit}")
    print(f"{'error_rate':32s} {error_rate:.6g} ratio "
          f"({len(tally.failures)} of {tally.attempted} invocations)")
    for failure in tally.failures:
        print(f"  failed: {' '.join(failure['argv'])}: "
              f"{failure['wrong'] or 'rows ' + ', '.join(failure['failed_rows'])}")
    if tally.mismatch:
        print(f"  wrong: {tally.mismatch}")
    print(f"environment: {json.dumps(results['environment'])}")
    print(f"results: {results_path.relative_to(ROOT)}")
    print(json.dumps({"correct": tally.correct, "attempted": tally.attempted,
                      "failed": len(tally.failures),
                      "metrics": results["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
