"""Rational functions num/den over Q or Q(i) with canonical representatives.

Canonical form: gcd(num, den) = 1 and den in the normal form of
`primitive_parts`, with a positive integer leading coefficient (graded lex)
and content 1; every rational function has exactly one such representative.
`size_of` measures the canonical representative after clearing to coprime
integer coefficients, as an upper bound for the minimum over all
representations.  The normal-form rule (`primitive_parts`), the lcm, the
exact rank and the roots of a polynomial belong to `polynomials`; this
module applies the first two to num/den pairs.
"""

from __future__ import annotations

from fractions import Fraction

from .polynomials import MultiPoly, poly_lcm, primitive_parts
from .qi import GaussianRational


class RatFunc:
    __slots__ = ("num", "den")

    def __init__(self, num, den=None, canonical=False):
        if not isinstance(num, MultiPoly):
            num = MultiPoly.const(num)
        if den is None:
            den = MultiPoly.const(1, num.vars)
            canonical = True  # num/1 is already in canonical form
        elif not isinstance(den, MultiPoly):
            den = MultiPoly.const(den, num.vars)
        num, den = MultiPoly.align(num, den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if not canonical:
            num, den = _cancel(num, den)
        self.num = num
        self.den = den

    # -- constructors ---------------------------------------------------------
    @staticmethod
    def zero(variables=()):
        return RatFunc(MultiPoly.zero(variables), canonical=True)

    @staticmethod
    def const(c, variables=()):
        return RatFunc(MultiPoly.const(c, variables))

    @staticmethod
    def coerce(x, variables=()):
        if isinstance(x, RatFunc):
            return x
        if isinstance(x, MultiPoly):
            return RatFunc(x)
        if isinstance(x, (int, Fraction, GaussianRational)):
            return RatFunc.const(x, variables)
        raise TypeError(f"cannot coerce {type(x).__name__} to RatFunc")

    # -- predicates -------------------------------------------------------------
    def is_zero(self):
        return self.num.is_zero()

    def is_poly(self):
        return self.den.is_constant()

    def as_poly(self):
        if not self.is_poly():
            raise ValueError("not a polynomial")
        return self.num.divexact(self.den.constant_value())

    def cleared(self, den):
        """self * den as a polynomial, for a multiple den of self.den.

        Equal to (self * RatFunc(den)).as_poly() without cancelling a gcd.
        """
        return self.num * den.divexact(self.den)

    @property
    def vars(self):
        return self.num.vars

    # -- arithmetic --------------------------------------------------------------
    def __add__(self, other):
        try:
            o = RatFunc.coerce(other, self.vars)
        except TypeError:
            return NotImplemented
        return RatFunc(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __sub__(self, other):
        try:
            o = RatFunc.coerce(other, self.vars)
        except TypeError:
            return NotImplemented
        return RatFunc(self.num * o.den - o.num * self.den, self.den * o.den)

    def __rsub__(self, other):
        return -(self - other)

    def __neg__(self):
        return RatFunc(-self.num, self.den, canonical=True)

    def __mul__(self, other):
        try:
            o = RatFunc.coerce(other, self.vars)
        except TypeError:
            return NotImplemented
        return RatFunc(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = RatFunc.coerce(other, self.vars)
        if o.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        return RatFunc.coerce(other, self.vars) / self

    def __eq__(self, other):
        try:
            o = RatFunc.coerce(other, self.vars)
        except TypeError:
            return NotImplemented
        return (self.num * o.den - o.num * self.den).is_zero()

    def __hash__(self):
        return hash((self.num, self.den))

    # -- calculus -------------------------------------------------------------
    def diff(self, name):
        return RatFunc(self.num.diff(name) * self.den - self.num * self.den.diff(name),
                       self.den * self.den)

    def subs(self, mapping):
        num = self.num.subs(mapping)
        den = self.den.subs(mapping)
        return RatFunc(num, den)

    def eval_complex(self, point):
        d = self.den.eval_complex(point)
        n = self.num.eval_complex(point)
        return n / d

    def __repr__(self):
        if self.den == MultiPoly.const(1, self.den.vars):
            return repr(self.num)
        return f"({self.num}) / ({self.den})"


def _cancel(num, den):
    if num.is_zero():
        return num, MultiPoly.const(1, num.vars)
    g = MultiPoly.gcd(num, den)
    if not g.is_constant():
        num = num.divexact(g)
        den = den.divexact(g)
    # normalize den by the rule of primitive_parts
    c, prim = den.primitive()
    num = num.divexact(c)
    return num, prim


def integer_cleared(r: RatFunc):
    """(P, Q) with integer coprime coefficients representing r = P/Q."""
    _, (den, num) = primitive_parts((r.den, r.num))
    return num, den


def size_of(r: RatFunc) -> Fraction:
    """l1 size of the canonical integer representation ||P|| + ||Q||.

    Upper bound for the representation-minimizing size.
    """
    num, den = integer_cleared(r)
    return num.l1_norm() + den.l1_norm()


def raw_sum_size(r1: RatFunc, r2: RatFunc) -> Fraction:
    """Size of the un-cancelled composite (p1 q2 + p2 q1)/(q1 q2)."""
    p1, q1 = integer_cleared(r1)
    p2, q2 = integer_cleared(r2)
    return (p1 * q2 + p2 * q1).l1_norm() + (q1 * q2).l1_norm()


def raw_prod_size(r1: RatFunc, r2: RatFunc) -> Fraction:
    """Size of the un-cancelled composite (p1 p2)/(q1 q2)."""
    p1, q1 = integer_cleared(r1)
    p2, q2 = integer_cleared(r2)
    return (p1 * p2).l1_norm() + (q1 * q2).l1_norm()


def ratfunc_lcm_den(rs):
    """lcm of denominators of a list of rational functions, over the union
    of their variables.  A canonical constant denominator is 1, and it and a
    denominator already taken are skipped."""
    acc = MultiPoly.const(1)
    names = set()
    taken = set()
    for r in rs:
        names.update(r.den.vars)
        if not r.den.is_constant() and r.den not in taken:
            taken.add(r.den)
            _, acc = poly_lcm(acc, r.den).primitive()
    return acc.extend(names)
