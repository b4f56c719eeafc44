"""Oval tracing and quadrature against closed-form references."""

import math
from fractions import Fraction

import numpy as np
import pytest

from abelint.errors import SeedOffCurve, UnsupportedInput
from abelint.integrals import (abelian_integral, count_real_zeros,
                               critical_values, trace_oval)
from abelint.polynomials import MultiPoly

X = ("x1", "x2")


def circle_poly():
    x1 = MultiPoly.var("x1", X)
    x2 = MultiPoly.var("x2", X)
    return (x1 * x1 + x2 * x2) * MultiPoly.const(Fraction(1, 2), X)


def elliptic_poly():
    x1 = MultiPoly.var("x1", X)
    x2 = MultiPoly.var("x2", X)
    return x2 * x2 * MultiPoly.const(Fraction(1, 2), X) + x1 ** 3 - x1


def test_circle_area_integral():
    # H = (x1^2 + x2^2)/2 = t is the circle of radius sqrt(2t):
    # integral of x1 dx2 (alpha = (0,0)) is the enclosed area = 2 pi t
    H = circle_poly()
    for t in (0.3, 1.0, 2.5):
        vals = abelian_integral(H, t, (math.sqrt(2 * t), 0.0), [(0, 0)])
        assert abs(vals[0] - 2 * math.pi * t) < 1e-8 * max(t, 1)


def test_trace_oval_perimeter():
    H = circle_poly()
    info = trace_oval(H, 0.5, (1.0, 0.0))
    assert abs(info["perimeter"] - 2 * math.pi) < 1e-3
    assert abs(info["area"] - math.pi) < 1e-3


def test_critical_values_elliptic():
    crit = critical_values(elliptic_poly())
    ref = 2 / (3 * math.sqrt(3))
    assert np.allclose(crit, [-ref, ref], atol=1e-8)


def test_seed_off_curve():
    H = circle_poly()
    with pytest.raises(SeedOffCurve):
        # gradient vanishes at the origin; projection cannot move
        abelian_integral(H, 1.0, (0.0, 0.0), [(0, 0)])


def test_level_curve_variables():
    """H may carry unused variables; any other variable that occurs is
    rejected."""
    H = circle_poly().extend(("l00",))
    vals = abelian_integral(H, 0.5, (1.0, 0.0), [(0, 0)])
    assert abs(vals[0] - math.pi) < 1e-8
    with pytest.raises(UnsupportedInput):
        abelian_integral(H + MultiPoly.var("l00", H.vars), 0.5, (1.0, 0.0), [(0, 0)])


def test_count_real_zeros():
    n, zeros = count_real_zeros(lambda t: (t - 0.25) * (t + 0.5), -1.0, 1.0)
    assert n == 2
    assert np.allclose(sorted(zeros), [-0.5, 0.25], atol=1e-9)
    n2, _ = count_real_zeros(lambda t: t * t + 1, -1.0, 1.0)
    assert n2 == 0


def test_elliptic_period_positive(elliptic):
    X0 = elliptic.periods(0.0)
    assert X0[0] > 0 and X0[2] > 0          # I00, I10 positive on the oval
    assert abs(X0[1]) < 1e-9 and abs(X0[3]) < 1e-9   # odd-parity entries vanish
