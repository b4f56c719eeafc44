"""The benchmark's tracer finds every abelint name it wraps and puts the
originals back, so a renamed or deleted function fails here rather than in
the next traced benchmark run."""

import os

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import clock
    import tracing
    return tracing.Tracer(clock.RefClock())


def test_tracer_install_and_uninstall(tracer):
    from abelint import counting, operators, picard_fuchs
    spans = {name: getattr(counting, name) for name in
             ("continue_solution", "variation_of_argument", "monodromy")}
    rhs = operators.DiffOperator.__dict__["companion_rhs"]
    ode_eval = picard_fuchs.LinearODESystem.__dict__["eval"]
    tracer.install()
    try:
        assert all(getattr(counting, name) is not fn for name, fn in spans.items())
        assert operators.DiffOperator.__dict__["companion_rhs"] is not rhs
    finally:
        tracer.uninstall()
    assert all(getattr(counting, name) is fn for name, fn in spans.items())
    assert operators.DiffOperator.__dict__["companion_rhs"] is rhs
    assert picard_fuchs.LinearODESystem.__dict__["eval"] is ode_eval


def test_traced_periods_job_records_its_spans(tracer):
    """A traced `periods` job passes its check and records the spans of its
    zero count and the argument variation under it.  Continuation writes
    A(t) into its step, so the job makes no call of `LinearODESystem.eval`
    for the tracer to count."""
    import workloads
    job = next(j for j in workloads.count(1) if j.kind == "periods")
    tracer.install()
    try:
        tracer.active = True
        ok, _ = job.check(job.run())
    finally:
        tracer.active = False
        tracer.uninstall()
    assert ok
    names = {span[1] for span in tracer.spans}
    assert {"counting.count_zeros", "counting.variation_of_argument"} <= names


def test_traced_derive_random_job_records_its_spans(tracer):
    """A traced `derive-random` job passes its check and records the spans of
    the derivation's divisions, the pencil restriction and its solve."""
    import workloads
    job = next(j for j in workloads.derive(1) if j.kind == "derive-random")
    tracer.install()
    try:
        tracer.active = True
        ok, _ = job.check(job.run())
    finally:
        tracer.active = False
        tracer.uninstall()
    assert ok
    names = {span[1] for span in tracer.spans}
    assert {"picard_fuchs.restrict_to_pencil", "division.divide_two_form",
            "linalg.solve_linear"} <= names
