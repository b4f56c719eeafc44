#!/usr/bin/env python3
"""The benchmark's own tests: its checks catch corrupted results.

    python3 perfbench/selftest.py        (or: pytest perfbench/selftest.py)

Each test feeds a check one correct output and one corrupted copy, and
expects only the first to pass.  The last test runs the benchmark in a
directory that holds only BENCHMARK.json and perfbench/, where it must fail
without printing a result.
"""

from __future__ import annotations

import copy
import json
import os
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import numpy as np  # noqa: E402

import checks  # noqa: E402
import clock  # noqa: E402
import workloads  # noqa: E402
from run import run_passes  # noqa: E402


def _elliptic_A():
    return checks.load_json(os.path.join(workloads.DATA, "elliptic_A.json"))


def test_perturbed_A_entry_is_caught():
    A = _elliptic_A()
    check = workloads._check_A(A)
    assert check((None, json.dumps({"A": A})))[0]
    bad = copy.deepcopy(A)
    entry = next(e for row in bad["data"] for e in row if e["num"]["terms"])
    exp, coef = entry["num"]["terms"][0]
    entry["num"]["terms"][0] = [exp, str(Fraction(coef) + Fraction(1, 1000))]
    assert not check((None, json.dumps({"A": bad})))[0]


def operator_json(text):
    from abelint import parsing, serialize
    return json.loads(serialize.dumps(parsing.parse_operator(text)))


def test_scalar_residual_catches_a_wrong_operator():
    A = _elliptic_A()
    # the classical Picard-Fuchs operator of the first period, in t
    good = operator_json("(108*t^2-16)*D^2 + 15")
    bad = operator_json("(108*t^2-16)*D^2 + 16")
    check = workloads._check_elliptic_operator(A)
    assert check(json.dumps({"operator": good}))[0]
    assert not check(json.dumps({"operator": bad}))[0]


def test_circle_operator_check():
    def check(text):
        return workloads._check_circle_operator(
            json.dumps({"operator": operator_json(text)}))[0]
    assert check("t*D - 1") and not check("t*D - 2")


def test_wrong_count_is_caught():
    rng = random.Random(5)
    for maker in (workloads._poly_job, workloads._sincos_job):
        job = maker(rng, 0.5)
        n = job.run()
        assert job.check(n)[0]
        assert not job.check(n + 1)[0]


def test_wrong_monodromy_and_continuation_are_caught():
    job = workloads._monodromy_job(random.Random(3), 0.2)
    M, qu = job.run()
    assert job.check((M, qu))[0]
    assert not job.check((M * np.exp(0.01j), qu))[0]
    A_text = json.dumps({"A": _elliptic_A()})
    job = workloads._continue_job(random.Random(3), 0.5, A_text)
    X = job.run()
    assert job.check(X)[0]
    assert not job.check(X * (1 + 1e-6))[0]


def test_unsound_bound_is_caught():
    check = workloads._check_annulus(0.5, 4.0, workloads.SIN_ZEROS)
    assert check({"bound": 35, "empirical": 2, "order": 2})[0]
    assert not check({"bound": 1, "empirical": 2, "order": 2})[0]
    assert not check({"bound": 35, "empirical": 1, "order": 2})[0]


def test_raising_job_counts_as_failed():
    def boom():
        raise ZeroDivisionError("corrupted")
    jobs = [workloads.Job("ok", lambda: 1, lambda out: (out == 1, {})),
            workloads.Job("boom", boom, lambda out: (True, {}))]
    res = run_passes(jobs, 0.0, clock.RefClock())
    assert res["passes"] >= 1
    assert (res["attempted"], res["failed"]) == (2 * res["passes"], res["passes"])


def test_clock_probes_inside_a_call():
    """A call of 0.3 s is probed every INTERVAL_S; its unscaled time leaves
    the probes out, and its reference time follows the probe's speed."""
    clk = clock.RefClock()

    def busy():
        t0 = perf_counter()
        while perf_counter() - t0 < 0.3:
            pass
        return "done"
    out, err, raw, ref = clk.time(busy)
    inside = len(clk.probes) - 2
    assert (out, err) == ("done", None)
    assert inside >= 0.3 / clock.INTERVAL_S / 2
    assert 0.3 - inside * max(clk.probes) <= raw <= 0.3 + 0.01
    speed = [clock.PROBE_REF_S / p for p in clk.probes]
    assert raw * min(speed) <= ref <= raw * max(speed)
    _, err, _, _ = clk.time(lambda: 1 / 0)
    assert isinstance(err, ZeroDivisionError)


def test_fails_without_sources():
    where = os.path.join(HERE, "out", "stripped")
    shutil.rmtree(where, ignore_errors=True)
    os.makedirs(where)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), where)
    shutil.copytree(HERE, os.path.join(where, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "count",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=where, capture_output=True, text=True, timeout=180)
    shutil.rmtree(where)
    assert proc.returncode != 0 and '"correct"' not in proc.stdout


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"PASS {name}")
