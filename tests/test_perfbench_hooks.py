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
