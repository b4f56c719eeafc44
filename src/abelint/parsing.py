"""Text input: exact polynomial and differential-operator expressions.

Numbers are parsed exactly: integers, decimals (0.25 -> 1/4), a decimal
exponent (1e-3 -> 1/1000, 2.5E2 -> 250) and explicit fractions; x1e2 is a
name.  `i` is the imaginary unit; `D` is reserved for d/dt in operator
expressions and rejected as a variable name everywhere else.  Operator
expressions must be polynomial in D with coefficients polynomial in t
(coefficients to the left of D powers, e.g. "(t^2-1)*D^2 + t*D - 1").
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction

from .errors import ParseError
from .polynomials import MultiPoly
from .qi import GaussianRational

_TOKEN = re.compile(r"\s*(?:(\d+(?:\.\d+)?(?:[eE]([+-]?\d+))?)|([A-Za-z_][A-Za-z_0-9]*)"
                    r"|(\*\*|[-+*/^()]))")


# the most bits that a power, nested or not, may add to its base's coefficients;
# timed, the largest allowed parse fast: 3^5000 in 0.1 ms, (t+1)^10000 in 0.13 s
MAX_POWER_BITS = 10_000


def _bits_per_power(value):
    """log2 of the lcm L of the denominators of value's real and imaginary
    parts and of L times their l1 norm: what a power adds to the bounds."""
    parts = [q for c in (value.terms.values() if isinstance(value, MultiPoly) else [value])
             for q in ((c.re, c.im) if isinstance(c, GaussianRational) else (c,))]
    den = math.lcm(*(q.denominator for q in parts))
    return max(max(int(sum(abs(q) * den for q in parts)) - 1, 0).bit_length(),
               (den - 1).bit_length())


def _number(text, exponent):
    """The exact value of a number token.  Its digits and its exponent are
    held to the interpreter's limit on the digits of an integer, so that no
    input builds an unbounded integer."""
    limit = sys.get_int_max_str_digits()
    if limit and (len(text) > limit or (exponent and abs(int(exponent)) > limit)):
        raise ParseError(f"a number has more than {limit} digits")
    return Fraction(text)


def _tokenize(text):
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip() == "":
                break
            raise ParseError(f"unexpected character {text[pos]!r} at position {pos}")
        num, exponent, name, op = m.groups()
        if num is not None:
            out.append(("num", _number(num, exponent)))
        elif name is not None:
            out.append(("name", name))
        else:
            out.append(("op", "^" if op == "**" else op))
        pos = m.end()
    out.append(("end", None))
    return out


class _Parser:
    """Expressions over a commutative polynomial ring; D is just a variable
    here and the operator layer reinterprets it afterwards."""

    def __init__(self, tokens, variables):
        self.toks = tokens
        self.i = 0
        self.vars = tuple(variables)

    def peek(self):
        return self.toks[self.i]

    def next(self):
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, val = self.next()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}, got {val!r}")

    def parse(self):
        v = self.expr()
        kind, val = self.next()
        if kind != "end":
            raise ParseError(f"trailing input near {val!r}")
        return v

    def expr(self):
        v = self.term()
        while True:
            kind, val = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                rhs = self.term()
                v = v + rhs if val == "+" else v - rhs
            else:
                return v

    def term(self):
        v = self.power()
        while True:
            kind, val = self.peek()
            if kind == "op" and val in "*/":
                self.next()
                rhs = self.power()
                if val == "*":
                    v = v * rhs
                else:
                    v = self.divide(v, rhs)
            elif kind in ("num", "name") or (kind == "op" and val == "("):
                # implicit multiplication: 2t, 3(t+1), t(t-1)
                rhs = self.power()
                v = v * rhs
            else:
                return v

    def power(self):
        base = self.atom()
        kind, val = self.peek()
        if kind == "op" and val == "^":
            self.next()
            kind, e = self.next()
            if kind == "op" and e == "-":
                raise ParseError("negative exponents are not supported")
            if kind != "num" or e.denominator != 1:
                raise ParseError("exponent must be a nonnegative integer")
            if e * _bits_per_power(base) > MAX_POWER_BITS:
                raise ParseError(f"a power would add more than {MAX_POWER_BITS} bits")
            return self.raise_to(base, int(e))
        return base

    def atom(self):
        kind, val = self.next()
        if kind == "num":
            return self.number(val)
        if kind == "name":
            return self.name(val)
        if kind == "op" and val == "(":
            v = self.expr()
            self.expect_op(")")
            return v
        if kind == "op" and val == "-":
            return -self.power()
        if kind == "op" and val == "+":
            return self.power()
        raise ParseError(f"unexpected token {val!r}")

    # -- the values: polynomials over self.vars ------------------------------
    def number(self, val):
        return MultiPoly.const(val, self.vars)

    def name(self, val):
        if val == "i":
            return MultiPoly.const(GaussianRational(0, 1), self.vars)
        if val not in self.vars:
            raise ParseError(f"unknown variable {val!r} "
                             f"(expected one of {list(self.vars)})")
        return MultiPoly.var(val, self.vars)

    def divide(self, v, rhs):
        if rhs.total_degree() > 0:
            raise ParseError("division only by constants")
        c = rhs.terms.get(tuple([0] * len(rhs.vars)))
        if not c:
            raise ParseError("division by zero")
        return v * MultiPoly.const(1 / c, v.vars)

    def raise_to(self, base, k):
        return base ** k


class _ScalarParser(_Parser):
    """Constant expressions evaluated on exact scalars, Fraction and
    GaussianRational, with the values and errors of `_Parser` over no
    variables."""

    def __init__(self, tokens):
        super().__init__(tokens, ())

    def number(self, val):
        return val

    def name(self, val):
        if val == "i":
            return GaussianRational(0, 1)
        return super().name(val)

    def divide(self, v, rhs):
        if not rhs:
            raise ParseError("division by zero")
        return v * (1 / rhs)

    def raise_to(self, base, k):
        if isinstance(base, Fraction):
            return base ** k
        # square and multiply: GaussianRational has no power of its own
        out = Fraction(1)
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out


def parse_poly(text: str, variables=("x1", "x2")) -> MultiPoly:
    """Exact multivariate polynomial; D is rejected as a variable name."""
    if "D" in variables:
        raise ParseError("'D' is reserved for the derivation symbol")
    p = _Parser(_tokenize(text), variables)
    return p.parse()


def parse_operator(text: str):
    """Differential operator in t and D; returns a DiffOperator."""
    from .operators import DiffOperator
    p = _Parser(_tokenize(text), ("t", "D"))
    poly = p.parse()
    if poly.is_zero():
        raise ParseError("zero operator")
    by_order = poly.coeff_split(("D",))   # (j,) -> coefficient of D^j
    k = max(j for (j,) in by_order)
    return DiffOperator([by_order.get((j,), MultiPoly.zero(("t",)))
                         for j in range(k, -1, -1)])


def parse_number(text: str):
    """Exact scalar: Fraction, or GaussianRational when the value is not real."""
    c = _ScalarParser(_tokenize(text)).parse()
    return c.re if isinstance(c, GaussianRational) and not c.im else c


def parse_complex(text: str) -> complex:
    """Numeric complex literal like '0.3 - 1.2i'."""
    c = parse_number(text)
    try:
        if isinstance(c, GaussianRational):
            return complex(c)
        return complex(float(c), 0.0)
    except OverflowError:
        raise ParseError(f"{text!r} is beyond the float range") from None
