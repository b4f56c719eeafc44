"""Oval tracing and quadrature against closed-form references."""

import math
from fractions import Fraction

import numpy as np
import pytest

from abelint.division import basis_exponents
from abelint.errors import SeedOffCurve, UnsupportedInput
from abelint.integrals import (abelian_integral, count_real_zeros,
                               critical_values, trace_oval)
from abelint.parsing import parse_poly
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


# float.hex of the results, written with an earlier tracer on numpy arrays:
# the tracer must keep every float operation in that order.
GOLDEN_ELLIPTIC = {
    -0.2: ["0x1.45712bb42ecccp-1", "0x1.1607e8bcf5555p-34",
           "0x1.67b45c1f9991dp-2", "0x1.403237a199555p-35"],
    0.0: ["0x1.5b04bb1273f4dp+0", "-0x1.18b8c41755555p-33",
          "0x1.69a2028b0b52bp-1", "-0x1.1cf059416aaabp-34"],
    0.2: ["0x1.108494facbed5p+1", "0x1.6c1ba9a4b2aabp-29",
          "0x1.05c7b6dfd1729p+0", "0x1.3a8a9fa311555p-30"],
}
GOLDEN_QUARTIC = [
    "0x1.55ef37c2e8265p+0", "0x1.f13348f000000p-43", "0x1.b5b6e2c06433dp-3",
    "0x1.2941e8eaaaaabp-42", "0x1.5d6875da5f23cp-4", "0x1.6525223f80000p-44",
    "0x1.0702a7d32c585p-3", "0x1.275e778400000p-44", "0x1.5111e8a0fcbabp-6",
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
             ("0x1.921f47829b175p+2", "0x1.921dfe3e0fc48p+1",
              ("0x1.0000000000000p+0", "0x0.0p+0"))),
            (parse_poly("x2^2/2 + x1^3 - x1", X), 0.0, (0.5, 1.0),
             ("0x1.1910c66e54405p+2", "0x1.5b014bd6099b6p+0",
              ("0x1.0fe627bbe5d99p-1", "0x1.bf1b3be46d3abp-1")))):
        info = trace_oval(H, t, seed)
        assert info["ccw"]
        assert (info["perimeter"].hex(), info["area"].hex(),
                tuple(float(v).hex() for v in info["start"])) == ref
