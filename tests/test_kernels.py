"""The generated straight-line kernels against the loops they replace.

`integrals` once summed each polynomial with a loop over its terms, and
`DiffOperator.companion_rhs` filled its matrix from `eval_complex`; both
loops are kept here as references.  The kernels must give the same floats,
bit for bit (signed zeros included), and the same errors, except that a
leading coefficient that is 0 in floats raises NumericOverflow instead of
ZeroDivisionError.  `LinearODESystem.eval`'s kernel is checked against its
loop in test_picard_fuchs; here, that constants never reach kernel source.
"""

import math
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abelint import polynomials
from abelint.errors import (NotClosed, NumericOverflow, SeedOffCurve,
                            UnsupportedInput)
from abelint.integrals import LevelCurve, _compile
from abelint.linalg import FieldMatrix
from abelint.operators import DiffOperator
from abelint.parsing import parse_operator, parse_poly
from abelint.picard_fuchs import LinearODESystem
from abelint.polynomials import MultiPoly
from abelint.qi import GaussianRational
from abelint.ratfunc import RatFunc

X = ("x1", "x2")


def loop_compile(poly):
    """The term loop of `integrals` before its kernels were generated."""
    terms = [(e, complex(c) if not isinstance(c, (int, float)) else float(c))
             for e, c in poly.terms.items()]
    terms = [(e, c.real if isinstance(c, complex) and c.imag == 0 else c)
             for e, c in terms]

    def fn(x1, x2):
        s = 0.0
        for (e1, e2), c in terms:
            s += c * x1 ** e1 * x2 ** e2
        return s
    return fn


def loop_tangent(H):
    fx, fy = loop_compile(H.diff("x1")), loop_compile(H.diff("x2"))

    def tangent(x, y):
        g0, g1 = fx(x, y), fy(x, y)
        n = math.hypot(g0, g1)
        if n < 1e-14:
            raise NotClosed("level curve passes through a critical point")
        return -g1 / n, g0 / n
    return tangent


def loop_companion(D, t):
    """`companion_rhs` before its kernel was generated."""
    k = D.order
    p0 = D.coeffs[0].eval_complex({"t": t})
    M = np.zeros((k, k), dtype=complex)
    for i in range(k - 1):
        M[i, i + 1] = 1.0
    for j in range(1, k + 1):
        M[k - 1, k - j] = -D.coeffs[j].eval_complex({"t": t}) / p0
    return M


def _system(rows):
    return LinearODESystem(FieldMatrix(rows), MultiPoly.const(1, ("t",)))


def _rf(num, den="1"):
    return RatFunc(parse_poly(num, ("t",)), parse_poly(den, ("t",)))


def bits(v):
    """The exact value of a float, a complex or a tuple of them."""
    if isinstance(v, tuple):
        return tuple(bits(x) for x in v)
    if isinstance(v, complex):
        return ("c", struct.pack("dd", v.real, v.imag))
    return ("f", struct.pack("d", v))


def outcome(fn, *args):
    try:
        return fn(*args)
    except (ArithmeticError, NotClosed, NumericOverflow) as exc:
        return type(exc)


rationals = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 12))
gaussians = st.builds(GaussianRational, rationals, rationals)
points = st.floats(-3.0, 3.0, allow_nan=False)


def polys(variables, coefficients):
    """Polynomials with exponents 0 to 3, including zero and constant ones."""
    exps = st.tuples(*[st.integers(0, 3)] * len(variables))
    return st.dictionaries(exps, coefficients, max_size=6).map(
        lambda terms: MultiPoly(variables, terms))


@settings(max_examples=300, deadline=None)
@given(polys(X, rationals | gaussians), points, points)
def test_polynomial_kernel_matches_term_loop(H, x, y):
    got = _compile([H, H.diff("x1")])(x, y)
    want = (loop_compile(H)(x, y), loop_compile(H.diff("x1"))(x, y))
    assert bits(got) == bits(want)


@settings(max_examples=300, deadline=None)
@given(polys(X, rationals), points, points)
def test_level_curve_kernels_match_term_loop(H, x, y):
    curve = LevelCurve(H)
    assert bits(curve.f(x, y)) == bits(loop_compile(H)(x, y))
    assert bits(curve.grad(x, y)) == bits(
        (loop_compile(H.diff("x1"))(x, y), loop_compile(H.diff("x2"))(x, y)))
    got, want = outcome(curve.tangent, x, y), outcome(loop_tangent(H), x, y)
    assert got == want if isinstance(want, type) else bits(got) == bits(want)


def test_kernels_of_constant_and_zero_polynomials():
    for H in (MultiPoly.zero(X), MultiPoly.const(Fraction(-3, 7), X)):
        for x, y in ((0.5, -2.0), (-0.0, 0.0)):
            assert bits(_compile([H])(x, y)) == bits((loop_compile(H)(x, y),))
    assert _compile([])(1.0, 2.0) == ()


@settings(max_examples=300, deadline=None)
@given(st.lists(polys(("t",), rationals | gaussians), min_size=2, max_size=4),
       points, points, st.sampled_from([complex, np.complex128]))
def test_companion_kernel_matches_eval_complex(coeffs, re, im, kind):
    if coeffs[0].is_zero():
        coeffs[0] = MultiPoly.const(1, ("t",))
    D = DiffOperator(coeffs)
    if D.order == 0:
        return
    t = kind(complex(re, im))
    with np.errstate(divide="ignore", invalid="ignore"):   # numpy's t at p0(t) = 0
        got, want = outcome(D.companion_rhs, t), outcome(loop_companion, D, t)
    if want is ZeroDivisionError:
        # a leading coefficient that is 0 in floats exits as NumericOverflow
        want = NumericOverflow
    if isinstance(want, type):
        assert got == want
    else:
        got = np.array(got)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_companion_kernel_of_many_terms():
    # more terms than one line of the generated sum holds
    D = parse_operator("(" + " + ".join(f"{k % 7 - 3}/{k + 1}*t^{k}" for k in range(200))
                       + ")*D^2 + t^3*D - 5")
    for t in (0.3 - 0.9j, -1.01 + 0.2j):
        assert np.array(D.companion_rhs(t)).tobytes() == loop_companion(D, t).tobytes()


def test_float_overflow_keeps_its_errors():
    # t ** 200 and a coefficient beyond the float range
    with pytest.raises(NumericOverflow):
        parse_operator("t^200*D + 1").companion_rhs(1e3 + 0j)
    with pytest.raises(NumericOverflow):
        parse_operator("10^400*D + 1").companion_rhs(0.5 + 0j)
    # a leading coefficient or a denominator that underflows to 0
    with pytest.raises(NumericOverflow, match="leading coefficient rounds to 0"):
        parse_operator("t^400*D + 1").companion_rhs(0.01 + 0j)
    t400 = RatFunc(MultiPoly.const(1, ("t",)), parse_poly("t^400", ("t",)))
    with pytest.raises(NumericOverflow, match="denominator of A"):
        _system([[t400]]).eval(0.01)
    with pytest.raises(NumericOverflow):
        _system([[RatFunc(parse_poly("10^400*t", ("t",)))]]).eval(0.5)
    # x1 ** 3 beyond the float range inside the Newton projection
    curve = LevelCurve(parse_poly("x2^2/2 + x1^3 - x1", X))
    with pytest.raises(SeedOffCurve):
        curve.project((1e200, 0.0), 0.1)
    with pytest.raises(OverflowError):
        curve.tangent(1e200, 0.0)


def test_companion_kernel_needs_order_one():
    with pytest.raises(UnsupportedInput):
        parse_operator("7").companion_rhs(0.5 + 0j)


def test_companion_kernel_takes_only_t():
    # a variable name is never written into the generated source
    for name in ("x", "__import__('os').getpid()"):
        c = MultiPoly.var(name, tuple(sorted(("t", name))))
        with pytest.raises(UnsupportedInput):
            DiffOperator([MultiPoly.const(1, ("t",)), c]).companion_rhs(0.5 + 0j)


def test_system_constants_stay_out_of_kernel_source(monkeypatch):
    """Coefficients reach the `eval` kernel as closure values, so its source
    holds only the shape of A, and systems of one shape share its code."""
    sources = []
    factory = polynomials._kernel_factory

    def recording(source):
        sources.append(source)
        return factory(source)
    monkeypatch.setattr(polynomials, "_kernel_factory", recording)
    M = _system([[_rf("12345/678*t + 98765", "t^2 + 1"), _rf("0")],
                 [_rf("1"), _rf("t", "t^2 + 1")]])
    assert M.eval(0.5)[0][0] == (12345 / 678 * 0.5 + 98765) / (0.5 ** 2 + 1)
    assert len(sources) == 1
    assert "12345" not in sources[0] and "678" not in sources[0]
    assert "98765" not in sources[0]
    # the denominators t^2 + 1 and 1, each evaluated once
    assert "d1 = " in sources[0] and "d2 = " not in sources[0]


def test_systems_of_one_shape_share_their_kernel():
    def shaped(a, b):
        return _system([[_rf(f"{a}*t + {b}", f"t^2 + {b}"), _rf("0")],
                        [_rf(f"{b}"), _rf("t", f"t^2 + {b}")]])
    shaped(3, 7).eval(0.5)
    before = polynomials._kernel_factory.cache_info()
    one, other = shaped(11, 5), shaped(Fraction(-2, 9), 13)
    assert one.eval(0.5) != other.eval(0.5)
    after = polynomials._kernel_factory.cache_info()
    assert after.misses == before.misses and after.hits == before.hits + 2
