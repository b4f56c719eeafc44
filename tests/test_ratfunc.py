"""Rational function canonicalization and the size calculus."""

import random
from fractions import Fraction

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
