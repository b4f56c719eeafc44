#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload derive|bound|count --seed N \\
        --seconds S --trace 0|1

Run it from the repository root; it imports abelint from `src/`.  The
workload's inputs come from the seed.  One caller runs the workload's jobs
back to back (a closed loop), in whole passes over the job list, until
--seconds have passed and, untraced, at least MIN_PASSES passes were made;
no pass starts that would end after MAX_SECONDS.  Each job's output is checked,
outside the timed call.  A job's latency is its median over the passes.

Times are in reference seconds, measured by perfbench/clock.py: the speed
of a shared VM drifts by up to 2x within seconds to minutes, so a fixed
pure-Python loop runs every few hundredths of a second inside each timed
call, and each stretch of the call is scaled by how long that loop took
there.  The collector runs before each pass, outside its time.  The
unscaled times are in the metadata line.

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  --trace 1 runs
each job twice in a row, untraced and then with the wrappers of
perfbench/tracing.py installed, and reports the per-layer metrics per pass
(unscaled, probes left out), plus the tracing overhead: the sum over jobs
of the median traced minus untraced time, in reference seconds.  Spans are
written to perfbench/out/.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  The line before it holds
the run's metadata and result fingerprints.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter

import clock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 3
SETUP_CODE = "import abelint, sympy"   # sympy is abelint's lazy import
# a fresh interpreter times SETUP_CODE with the reference clock
SETUP_CHILD = (f"import clock; _, err, raw, ref = clock.RefClock().time("
               f"lambda: exec({SETUP_CODE!r})); "
               f"exit(repr(err)) if err else print(raw, ref)")
MIN_PASSES = 2
MAX_SECONDS = 40


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def measure_setup():
    """Median time of `import abelint` plus its lazy imports in a fresh
    interpreter, as (unscaled, reference) seconds.  The child times its own
    imports, so the interpreter's start-up (a few hundredths of a second)
    is left out."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, HERE]))
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", SETUP_CHILD], env=env, cwd=ROOT,
                              capture_output=True, text=True)
        if proc.returncode != 0:
            fail(f"set-up failed: {proc.stderr.strip()}")
        times.append([float(x) for x in proc.stdout.split()])
    return (statistics.median(raw for raw, _ in times),
            statistics.median(ref for _, ref in times))


def attempt(job, res, clk, tracer=None):
    """Run one job, check its output and return its (unscaled, reference)
    time."""
    if tracer is not None:
        tracer.job = res["attempted"]
        tracer.active = True
    out, err, raw, ref = clk.time(job.run)   # a raising job fails
    if tracer is not None:
        tracer.active = False
    if err is None:
        try:
            ok, info = job.check(out)
        except Exception as exc:
            ok, info = False, {"error": f"check raised {exc!r}"}
    else:
        ok, info = False, {"error": repr(err)}
    del out   # freed before the next job, for peak_rss_mb
    res["attempted"] += 1
    if not ok:
        res["failed"] += 1
        res["failures"].append({"kind": job.kind, **job.info,
                                **{k: str(v) for k, v in info.items()}})
    if "bounds" in info:
        res["bounds"].setdefault(job.kind, []).extend(info["bounds"])
    elif job.kind not in res["info"]:
        res["info"][job.kind] = {k: (v if isinstance(v, (int, str)) else float(v))
                                 for k, v in info.items()}
    return raw, ref


def run_passes(jobs, seconds, clk, tracer=None):
    """Whole passes over `jobs`, see the module docstring.  With a tracer,
    each job also runs traced right after its untraced run; the pair sees
    the same machine, so one pass is enough.  `samples` and `traced` hold
    each job's (unscaled, reference) times."""
    min_passes = MIN_PASSES if tracer is None else 1
    res = {"passes": 0, "samples": [[] for _ in jobs], "traced": [[] for _ in jobs],
           "attempted": 0, "failed": 0, "bounds": {}, "failures": [], "info": {}}
    start = perf_counter()
    while True:
        gc.collect()   # every pass starts from the same heap
        pass_start = perf_counter()
        for i, job in enumerate(jobs):
            res["samples"][i].append(attempt(job, res, clk))
            if tracer is not None:
                tracer.install()
                try:
                    res["traced"][i].append(attempt(job, res, clk, tracer))
                finally:
                    tracer.uninstall()
        res["passes"] += 1
        elapsed, last = perf_counter() - start, perf_counter() - pass_start
        if elapsed >= seconds and (res["passes"] >= min_passes or
                                   elapsed + last > MAX_SECONDS):
            break
    res["latencies"] = [statistics.median(ref for _, ref in x) for x in res["samples"]]
    res["unscaled"] = [statistics.median(raw for raw, _ in x) for x in res["samples"]]
    return res


def quantile(values, q):
    """Nearest-rank percentile: the smallest value with q% of them at or below."""
    return sorted(values)[math.ceil(q / 100 * len(values)) - 1]


def kind_latencies(jobs, latencies):
    """Median job latency of each kind of job."""
    by_kind = {}
    for job, dt in zip(jobs, latencies):
        by_kind.setdefault(job.kind, []).append(dt)
    return {k: statistics.median(v) for k, v in by_kind.items()}


def bound_log10_ratio(bounds):
    """Median over the kinds of bound job of each kind's median
    log10(certified bound / max(empirical count, 1)); 0 when no bound job
    succeeded, which only happens in a run that is not correct."""
    per_kind = [statistics.median(math.log10(b) - math.log10(max(e, 1)) for b, e in pairs)
                for pairs in bounds.values()]
    return statistics.median(per_kind) if per_kind else 0.0


def times(latencies, setup_s):
    """wall_s is the sum of the job latencies: one pass's time in the jobs,
    checks excluded, with each job at its median over the passes."""
    return {"wall_s": sum(latencies),
            "job_p50_s": quantile(latencies, 50),
            "job_p95_s": quantile(latencies, 95),
            "setup_s": setup_s}


def end_to_end(res, setup_s):
    """The end-to-end metrics, times in reference seconds."""
    return {
        **times(res["latencies"], setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "bound_log10_ratio": bound_log10_ratio(res["bounds"]),
    }


def per_layer(totals, passes, overhead_s):
    """Per-layer metrics per pass, named <module>.<function>.<stat>."""
    out = {f"{name}.{key}": agg[key] / passes for name, agg in totals.items()
           for key in ("calls", "s", "self_s", "failed")}
    # solve_linear calls made inside a division, and how many gave one
    attempts = totals.get("linalg.solve_linear", {}).get("sites", {}).get("division", 0)
    divisions = sum(out.get(f"division.{f}.calls", 0) - out.get(f"division.{f}.failed", 0)
                    for f in ("divide_two_form", "divide_one_form")) * passes
    out["division.solve_attempts"] = attempts / passes
    out["division.useful_ratio"] = divisions / attempts if attempts else 0.0
    out["counting.rhs_evals"] = out.get("counting.rhs_evals.calls", 0)
    out["trace.overhead_s"] = overhead_s
    return out


def metadata():
    import numpy
    import scipy
    import sympy
    src_lines = 0
    for dirpath, _, files in os.walk(os.path.join(SRC, "abelint")):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f)) as fh:
                    src_lines += sum(1 for _ in fh)
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "sympy": sympy.__version__,
            "commit": git_commit(), "src_lines": src_lines}


def git_commit():
    """HEAD of the checkout; None when it is not a git repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "abelint", "__init__.py")):
        fail(f"no abelint sources under {SRC}; run from a full checkout")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    sys.path[:0] = [SRC, HERE]
    import abelint  # noqa: F401  (fail here, before any result, if broken)
    import sympy    # noqa: F401  (lazy import of abelint, paid in setup_s)
    import workloads
    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; "
             f"choose from {sorted(workloads.WORKLOADS)}")

    clk = clock.RefClock()
    setup = measure_setup() if not args.trace else None
    jobs = workloads.WORKLOADS[args.workload](args.seed)
    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    tracer = extra = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer(clk)
    res = run_passes(jobs, args.seconds, clk, tracer)
    if not args.trace:
        values = end_to_end(res, setup[1])
        extra = {"unscaled_s": times(res["unscaled"], setup[0])}
        wanted = spec["end_to_end"]
    else:
        tracer.write_spans(os.path.join(OUT, f"spans-{tag}.jsonl"))
        overhead = sum(statistics.median(t[1] - u[1] for t, u in zip(traced, untraced))
                       for traced, untraced in zip(res["traced"], res["samples"]))
        values = per_layer(tracer.totals(), res["passes"], overhead)
        wanted = spec["per_layer"]

    # a layer the workload never calls reads 0
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
               for m in wanted}
    meta = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "passes": res["passes"], "jobs_per_pass": len(jobs),
            "kind_latency_s": kind_latencies(jobs, res["latencies"]),
            "failed_frac": res["failed"] / res["attempted"],
            "fingerprints": res["info"], "failures": res["failures"][:20],
            "bounds": {k: sorted(set(v)) for k, v in res["bounds"].items()},
            "probe_s": {"ref": clock.PROBE_REF_S,
                        "median": statistics.median(clk.probes),
                        "min": min(clk.probes), "max": max(clk.probes)},
            **(extra or {}), **metadata()}
    record = {"meta": meta, "metrics": metrics}
    if args.trace:
        record["layers"] = tracer.totals()
    with open(os.path.join(OUT, f"{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    print(json.dumps({"meta": meta}, default=str))
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
