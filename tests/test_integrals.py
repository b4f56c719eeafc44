"""Oval tracing and quadrature against closed-form references."""

import math
import os
import random
from fractions import Fraction

import numpy as np
import pytest

from abelint import dop853, integrals
from abelint.division import basis_exponents
from abelint.errors import SeedOffCurve, ToleranceNotMet, UnsupportedInput
from abelint.integrals import (abelian_integral, count_real_zeros,
                               critical_values, trace_oval)
from abelint.parsing import parse_poly
from abelint.polynomials import MultiPoly
from oval_oracle import polar_area_perimeter

X = ("x1", "x2")
PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


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
    assert abs(info["perimeter"] - 2 * math.pi) < 1e-10
    assert abs(info["area"] - math.pi) < 1e-10


@pytest.mark.parametrize("t", [-0.2, 0.0, 0.2])
def test_elliptic_periods_match_quadrature(t, monkeypatch):
    """Against the benchmark's reference: scipy's quad of the
    one-dimensional integrals that Green's formula gives."""
    monkeypatch.syspath_prepend(PERFBENCH)
    from checks import elliptic_periods
    ref = elliptic_periods(t)
    vals = abelian_integral(elliptic_poly(), t, (0.5, 1.0), basis_exponents(2))
    assert np.max(np.abs(np.array(vals) - ref)) <= 1e-10 * np.max(np.abs(ref))


def bean(x1, x2):
    return x2 * x2 + (x1 * x1 - 1) ** 2


def bean_gradient(x1, x2):
    return 4 * x1 * (x1 * x1 - 1), 2 * x2


def test_non_convex_oval_closes_at_its_start():
    """{x2^2 + (x1^2 - 1)^2 = 1.05} is a peanut around both wells, and its
    normal line at the seed crosses it 4 times; only the crossing at the
    start closes the oval."""
    t, seed = 1.05, (1.345, 0.627)
    info = trace_oval(parse_poly("x2^2 + (x1^2 - 1)^2", X), t, seed)
    x0, y0 = info["start"]
    gx, gy = bean_gradient(x0, y0)
    g = math.hypot(gx, gy)
    side = [bean(x0 + s * gx / g, y0 + s * gy / g) > t
            for s in np.linspace(-4.0, 4.0, 8001)]
    assert sum(a != b for a, b in zip(side, side[1:])) == 4
    area, perimeter = polar_area_perimeter(bean, bean_gradient, t, (0.0, 0.0))
    assert info["ccw"]
    assert abs(info["area"] - area) <= 1e-10 * area
    assert abs(info["perimeter"] - perimeter) <= 1e-10 * perimeter


def test_drift_off_the_curve_is_caught(monkeypatch):
    """A field turned 1e-6 rad off the tangent still closes, and its passes
    agree, but its path leaves the curve: ToleranceNotMet."""
    field = integrals._field

    def turned(curve, forms):
        rhs = field(curve, forms)[0]

        def turned_rhs(s, y):
            d = rhs(s, y)
            d[0], d[1] = d[0] - 1e-6 * d[1], d[1] + 1e-6 * d[0]
            return d
        # the generic step, which calls the turned field at every stage
        return turned_rhs, dop853.step_function(len(forms) + 3)
    monkeypatch.setattr(integrals, "_field", turned)
    with pytest.raises(ToleranceNotMet, match="drifted"):
        abelian_integral(circle_poly(), 0.5, (1.0, 0.0), [(0, 0)])


def test_critical_values_elliptic():
    crit = critical_values(elliptic_poly())
    ref = 2 / (3 * math.sqrt(3))
    assert np.allclose(crit, [-ref, ref], atol=1e-8)


def test_seed_off_curve():
    H = circle_poly()
    with pytest.raises(SeedOffCurve):
        # gradient vanishes at the origin; projection cannot move
        abelian_integral(H, 1.0, (0.0, 0.0), [(0, 0)])
    with pytest.raises(SeedOffCurve):
        # x1^3 at the seed is beyond the float range
        abelian_integral(elliptic_poly(), 0.1, (1e200, 0.0), [(0, 0)])


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


# float.hex of the results of the DOP853 passes, which must keep every
# float operation in its order.  The odd-parity entries (alphas (0, 1) and
# (1, 1)) vanish on these ovals; their values are rounding noise.
GOLDEN_ELLIPTIC = {
    -0.2: ["0x1.45712bb3c1821p-1", "0x1.a6b3c05400000p-40",
           "0x1.67b45c1f1eeaap-2", "-0x1.58554e0000000p-45"],
    0.0: ["0x1.5b04bb131a30fp+0", "0x1.9c108c0000000p-40",
          "0x1.69a2028bb3924p-1", "-0x1.5e86f60000000p-41"],
    0.2: ["0x1.108494f55d002p+1", "0x1.3814e00000000p-39",
          "0x1.05c7b6db1ee6dp+0", "-0x1.c142660000000p-41"],
}
GOLDEN_QUARTIC = [
    "0x1.55ef37c304f50p+0", "-0x1.d86cce0000000p-42", "0x1.b5b6e2c143a61p-3",
    "-0x1.0c2bc00000000p-41", "0x1.5d6875db45a85p-4", "-0x1.2135cb2000000p-44",
    "0x1.0702a7d39955ep-3", "-0x1.9b13950000000p-43", "0x1.5111e8a2d834fp-6",
]


def test_abelian_integral_golden():
    H = parse_poly("x2^2/2 + x1^3 - x1", X)
    for t, ref in GOLDEN_ELLIPTIC.items():
        vals = abelian_integral(H, t, (0.5, 1.0), basis_exponents(2))
        assert [v.hex() for v in vals] == ref
    H = parse_poly("(x1^2 + x2^2)^2/4 + (x1 - x2)^2/2 + x1^2/2", X)
    vals = abelian_integral(H, 0.3, (0.6, 0.0), basis_exponents(3))
    assert [v.hex() for v in vals] == GOLDEN_QUARTIC


def test_trace_oval_golden():
    for H, t, seed, ref in (
            (parse_poly("x1^2/2 + x2^2/2", X), 0.5, (1.0, 0.0),
             ("0x1.921fb54441923p+2", "0x1.921fb5443ff23p+1",
              ("0x1.0000000000000p+0", "0x0.0p+0"))),
            (parse_poly("x2^2/2 + x1^3 - x1", X), 0.0, (0.5, 1.0),
             ("0x1.18d9d3a79781ap+2", "0x1.5b04bb1318650p+0",
              ("0x1.0fe627bbe5d99p-1", "0x1.bf1b3be46d3abp-1")))):
        info = trace_oval(H, t, seed)
        assert info["ccw"]
        assert (info["perimeter"].hex(), info["area"].hex(),
                tuple(float(v).hex() for v in info["start"])) == ref


def test_oval_step_matches_generic_step():
    """The oval step, with the lines of the unit tangent and the integrand
    sums written into its stages, returns bit for bit what the generic
    step returns with `_field`; a Hamiltonian with one coefficient changed
    changes the result."""
    curve = integrals.LevelCurve(elliptic_poly())
    forms = [MultiPoly(X, {(a1 + 1, a2): Fraction(1, a1 + 1)}) for a1, a2 in basis_exponents(2)]
    field, step = integrals._field(curve, forms)
    changed = integrals._field(integrals.LevelCurve(
        elliptic_poly() + MultiPoly(X, {(1, 0): Fraction(1, 2 ** 40)})), forms)[1]
    n = len(forms) + 3
    generic = dop853.step_function(n)
    rng = random.Random(7)
    for t in (-0.2, 0.0, 0.2):
        x0, y0 = curve.project((0.5, 1.0), t)
        for _ in range(5):
            y = [x0 + rng.uniform(-1e-3, 1e-3), y0] + [rng.uniform(-2, 2) for _ in range(n - 2)]
            s, h, tol = rng.uniform(0, 3), rng.uniform(0.01, 0.3), 10 ** rng.uniform(-12, -8)
            f = field(s, y)
            got, want, other = (stepper(field, s, h, y, f, tol, tol)
                                for stepper in (step, generic, changed))
            assert [v.hex() for v in got[0] + got[1] + [got[2]]] == \
                [v.hex() for v in want[0] + want[1] + [want[2]]]
            assert other[0] != want[0]
