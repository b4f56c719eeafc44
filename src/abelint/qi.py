"""Exact Gaussian rationals a + b*i with Fraction components.

Used for operator coefficients after pullback by complex Moebius maps and for
symmetrization across circles and lines.  Arithmetic is exact.  Inside
polynomials the coefficients live in sympy's QQ_I; this class is how they
enter and leave.
"""

from __future__ import annotations

from fractions import Fraction


def _frac(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot build Fraction from {type(x).__name__}")


class GaussianRational:
    """a + b*i with exact rational a, b."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = _frac(re)
        self.im = _frac(im)

    # -- coercion helpers -------------------------------------------------
    @staticmethod
    def coerce(x) -> "GaussianRational":
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, (int, Fraction)):
            return GaussianRational(x, 0)
        if isinstance(x, complex):
            raise TypeError("floats are not exact; build GaussianRational from Fractions")
        raise TypeError(f"cannot coerce {type(x).__name__} to GaussianRational")

    # -- arithmetic --------------------------------------------------------
    def __add__(self, other):
        o = GaussianRational.coerce(other)
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = GaussianRational.coerce(other)
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        return GaussianRational.coerce(other) - self

    def __mul__(self, other):
        o = GaussianRational.coerce(other)
        return GaussianRational(self.re * o.re - self.im * o.im,
                                self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = GaussianRational.coerce(other)
        n2 = o.re * o.re + o.im * o.im
        if n2 == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        return GaussianRational((self.re * o.re + self.im * o.im) / n2,
                                (self.im * o.re - self.re * o.im) / n2)

    def __rtruediv__(self, other):
        return GaussianRational.coerce(other) / self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __pos__(self):
        return self

    def __eq__(self, other):
        try:
            o = GaussianRational.coerce(other)
        except TypeError:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    # -- structure ----------------------------------------------------------
    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        if self.im == 0:
            return f"{self.re}"
        if self.re == 0:
            return f"{self.im}*i"
        sign = "+" if self.im > 0 else "-"
        return f"({self.re}{sign}{abs(self.im)}*i)"
