"""Text input: exact polynomial and differential-operator expressions.

Numbers are parsed exactly: integers, decimals (0.25 -> 1/4) and explicit
fractions.  `i` is the imaginary unit; `D` is reserved for d/dt in operator
expressions and rejected as a variable name everywhere else.  Operator
expressions must be polynomial in D with coefficients polynomial in t
(coefficients to the left of D powers, e.g. "(t^2-1)*D^2 + t*D - 1").
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ParseError
from .polynomials import MultiPoly
from .qi import GaussianRational

_TOKEN = re.compile(r"\s*(?:(\d+\.\d+|\d+)|([A-Za-z_][A-Za-z_0-9]*)"
                    r"|(\*\*|[-+*/^()]))")


def _tokenize(text):
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip() == "":
                break
            raise ParseError(f"unexpected character {text[pos]!r} at position {pos}")
        num, name, op = m.groups()
        if num is not None:
            out.append(("num", Fraction(num)))
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
                    if rhs.total_degree() > 0:
                        raise ParseError("division only by constants")
                    c = rhs.terms.get(tuple([0] * len(rhs.vars)))
                    if not c:
                        raise ParseError("division by zero")
                    v = v * MultiPoly.const(1 / c, v.vars)
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
            return base ** int(e)
        return base

    def atom(self):
        kind, val = self.next()
        if kind == "num":
            return MultiPoly.const(val, self.vars)
        if kind == "name":
            if val == "i":
                return MultiPoly.const(GaussianRational(0, 1), self.vars)
            if val not in self.vars:
                raise ParseError(f"unknown variable {val!r} "
                                 f"(expected one of {list(self.vars)})")
            return MultiPoly.var(val, self.vars)
        if kind == "op" and val == "(":
            v = self.expr()
            self.expect_op(")")
            return v
        if kind == "op" and val == "-":
            return -self.power()
        if kind == "op" and val == "+":
            return self.power()
        raise ParseError(f"unexpected token {val!r}")


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
    """Exact scalar: Fraction, or GaussianRational when i appears."""
    p = _Parser(_tokenize(text), ())
    poly = p.parse()
    c = poly.terms.get((), Fraction(0)) if poly.vars == () else None
    if c is None:
        raise ParseError("expected a constant")
    return c


def parse_complex(text: str) -> complex:
    """Numeric complex literal like '0.3 - 1.2i'."""
    c = parse_number(text)
    if isinstance(c, GaussianRational):
        return complex(c)
    return complex(float(c), 0.0)
