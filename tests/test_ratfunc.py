"""Rational function canonicalization and the size calculus."""

import math
import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from abelint.polynomials import MultiPoly, primitive_parts
from abelint.qi import GaussianRational
from abelint.ratfunc import (RatFunc, integer_cleared, raw_prod_size,
                             raw_sum_size, size_of)
from abelint.serialize import dumps

T = ("t",)


def upoly(coeffs):
    return MultiPoly(T, {(i,): Fraction(c) for i, c in enumerate(coeffs) if c})


def rand_ratfunc(rng, deg=4, span=8):
    num = upoly([rng.randint(-span, span) for _ in range(deg + 1)])
    den = upoly([rng.randint(-span, span) for _ in range(deg + 1)])
    if den.is_zero():
        den = upoly([1])
    return RatFunc(num, den)


def test_canonical_cancellation():
    t = MultiPoly.var("t")
    one = MultiPoly.const(Fraction(1), T)
    r = RatFunc(t ** 5 - one, t - one)
    assert r.den == one                      # geometric sum cancels
    assert size_of(r) == 6                   # 5 unit terms plus ||den|| = 1
    assert r == RatFunc(t ** 4 + t ** 3 + t ** 2 + t + one)


def test_gaussian_multiples_share_one_representative():
    """1/((1+2i)t + 1) and i/((-2+i)t + i) are one function: equal, with one
    hash and one encoding."""
    t = MultiPoly.var("t")
    i = GaussianRational(0, 1)
    r1 = RatFunc(MultiPoly.const(1, T), t * GaussianRational(1, 2) + 1)
    r2 = RatFunc(MultiPoly.const(i, T), t * GaussianRational(-2, 1) + i)
    assert r1 == r2
    assert hash(r1) == hash(r2)
    assert dumps(r1) == dumps(r2)


def test_integer_cleared_properties():
    rng = random.Random(7)
    for _ in range(50):
        r = rand_ratfunc(rng)
        if r.is_zero():
            continue
        p, q = integer_cleared(r)
        assert primitive_parts((p,))[0].denominator == 1
        assert primitive_parts((q,))[0].denominator == 1
        assert RatFunc(p, q) == r


def test_field_axioms():
    rng = random.Random(8)
    for _ in range(30):
        a, b = rand_ratfunc(rng), rand_ratfunc(rng)
        assert (a + b) - b == a
        if not b.is_zero():
            assert (a * b) / b == a
        assert a * (a + b) == a * a + a * b


def test_diff_quotient_rule():
    rng = random.Random(9)
    for _ in range(20):
        a, b = rand_ratfunc(rng, deg=3), rand_ratfunc(rng, deg=3)
        assert (a * b).diff("t") == a.diff("t") * b + a * b.diff("t")


def test_size_arithmetic_inequalities():
    rng = random.Random(10)
    for _ in range(200):
        r1, r2 = rand_ratfunc(rng, deg=3), rand_ratfunc(rng, deg=3)
        if r1.is_zero() or r2.is_zero():
            continue
        s1, s2 = size_of(r1), size_of(r2)
        assert raw_sum_size(r1, r2) <= 3 * s1 * s2
        assert raw_prod_size(r1, r2) <= 2 * s1 * s2


rational = st.fractions(min_value=-9, max_value=9, max_denominator=6)
# real, purely imaginary and mixed Q(i) coefficients: |c| of a mixed one is a
# float, which makes the whole l1 norm a float
coefficient = st.one_of(rational, st.builds(GaussianRational, st.just(0), rational),
                        st.builds(GaussianRational, rational, rational))


@st.composite
def tx_polys(draw, nonzero=False):
    terms = {(draw(st.integers(0, 3)), draw(st.integers(0, 2))): draw(coefficient)
             for _ in range(draw(st.integers(1 if nonzero else 0, 4)))}
    p = MultiPoly(("t", "x"), terms)
    return MultiPoly.const(draw(rational.filter(bool)), ("t", "x")) if nonzero and \
        p.is_zero() else p


def _size_by_parts(r):
    """The reference route of `size_of`: the norms of the built parts."""
    num, den = integer_cleared(r)
    return num.l1_norm() + den.l1_norm()


@given(tx_polys(), tx_polys(nonzero=True), st.booleans())
@settings(max_examples=200, deadline=None)
def test_size_of_matches_the_cleared_parts(num, den, cancel):
    """`size_of` takes the norms coefficient by coefficient without building
    `integer_cleared(r)`, and gives the same value and type: a Fraction, or
    a float when a coefficient of a part has two nonzero parts.  Kept
    uncancelled, a denominator may lead with a Q(i) coefficient."""
    r = RatFunc(num, den) if cancel else RatFunc(num, den, canonical=True)
    got, want = size_of(r), _size_by_parts(r)
    assert type(got) is type(want)
    assert got == want


def test_size_of_mixed_gaussian_coefficients():
    """A mixed coefficient makes the size a float, and a Q(i)-led
    denominator is divided out first."""
    t = MultiPoly.var("t")
    r = RatFunc(t * GaussianRational(3, 4) + 2, t * GaussianRational(1, 1) + 1, canonical=True)
    assert type(size_of(r)) is float
    assert size_of(r) == _size_by_parts(r)
    # (3 + 4i) / ((2 + 2i) t) = (7 + i) / (4 t): the lead 2 + 2i, then the
    # content 1/4 of t and (7 + i)/4
    r = RatFunc(MultiPoly.const(GaussianRational(3, 4), T), t * GaussianRational(2, 2),
                canonical=True)
    assert size_of(r) == _size_by_parts(r) == math.sqrt(50) + 4
