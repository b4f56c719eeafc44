"""Sparse multivariate polynomials over Q (or Q(i)) with exact coefficients.

A MultiPoly is a sorted tuple of variable names plus one element of sympy's
sparse ring Q[vars], or Q(i)[vars] when some coefficient has a nonzero
imaginary part, under graded lexicographic order.  Two polynomials in
different variables are lifted to the ring of the union before they meet.
Arithmetic, exact division, gcd, differentiation and substitution are ring
calls; coefficients leave the module as Fraction or GaussianRational.  The
graded lexicographic order fixes leading terms, canonical signs and printed
order.

The module owns the normal forms that the other layers share: the
normal-form rule (`primitive_parts`: divide by the leading coefficient of the
first nonzero polynomial, then by the positive joint rational content),
which gives every object over Q or Q(i) one representative, the lcm, the
exact rank at a point and the roots of a univariate polynomial.  It is the
only module that imports sympy.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache, reduce

import numpy as np
from sympy import Symbol
from sympy.polys.domains import QQ, QQ_I
from sympy.polys.matrices import DomainMatrix
from sympy.polys.orderings import grlex
from sympy.polys.polyerrors import ExactQuotientFailed
from sympy.polys.rings import PolyRing

from .errors import NumericOverflow, UnsupportedInput
from .qi import GaussianRational

NEG_INF = float("-inf")


@lru_cache(maxsize=None)
def _ring(variables, domain):
    return PolyRing([Symbol(v) for v in variables], domain, grlex)


def _domain_of(coeffs):
    gauss = any(isinstance(c, GaussianRational) and c.im for c in coeffs)
    return QQ_I if gauss else QQ


def _coef_in(c, domain):
    """Fraction, int or GaussianRational as an element of `domain`."""
    if isinstance(c, GaussianRational):
        re, im = QQ(c.re.numerator, c.re.denominator), QQ(c.im.numerator, c.im.denominator)
        return re if domain is QQ else QQ_I.dtype.new(re, im)
    if isinstance(c, (int, Fraction)):
        q = QQ(c.numerator, c.denominator)
        return q if domain is QQ else QQ_I.dtype.new(q, QQ.zero)
    raise TypeError(f"unsupported coefficient type {type(c).__name__}")


def _frac(q):
    return Fraction(int(q.numerator), int(q.denominator))


def _abs_float(c):
    """|c| of a Gaussian c as the float sqrt(|c|^2), or, where |c|^2 is
    beyond the float range, as the hypot of its parts."""
    try:
        return math.sqrt(float(c.x * c.x + c.y * c.y))
    except OverflowError:
        return math.hypot(float(c.x), float(c.y))


def _complex(c):
    return complex(c) if isinstance(c, GaussianRational) else complex(float(c), 0)


def _log2_abs(c):
    """An integer within 2 of log2 |c| for a nonzero Fraction or GaussianRational."""
    parts = (c.re, c.im) if isinstance(c, GaussianRational) else (c,)
    return max(q.numerator.bit_length() - q.denominator.bit_length()
               for q in map(Fraction, parts) if q)


def _coef_out(c, domain):
    if domain is QQ:
        return _frac(c)
    return GaussianRational(_frac(c.x), _frac(c.y)) if c.y else _frac(c.x)


def _in_ring(p, vs, domain):
    """p's ring element in the ring over vs, which holds every variable p uses."""
    return p.poly.set_ring(_ring(vs, domain))


def _common(a, b):
    """(vars, f, g): a and b as elements of one ring."""
    f, g = a.poly, b.poly
    if f.ring is g.ring:
        return a.vars, f, g
    vs = a.vars if a.vars == b.vars else tuple(sorted(set(a.vars) | set(b.vars)))
    domain = QQ_I if QQ_I in (f.ring.domain, g.ring.domain) else QQ
    return vs, _in_ring(a, vs, domain), _in_ring(b, vs, domain)


class MultiPoly:
    __slots__ = ("vars", "poly", "_numeric")

    def __init__(self, variables, terms=None):
        vs = tuple(variables)
        if list(vs) != sorted(vs):
            raise ValueError("variables must be sorted")
        terms = terms or {}
        domain = _domain_of(terms.values())
        clean = {}
        for exp, c in terms.items():
            c = _coef_in(c, domain)
            exp = tuple(int(e) for e in exp)
            if len(exp) != len(vs):
                raise ValueError("exponent arity mismatch")
            if any(e < 0 for e in exp):
                raise ValueError("negative exponent")
            if c:
                clean[exp] = c
        self.vars = vs
        self.poly = _ring(vs, domain).dtype(clean)
        self._numeric = None

    @staticmethod
    def _new(vs, f):
        """Wrap ring element f over vs, back in Q when no coefficient is complex."""
        if f.ring.domain is QQ_I and not any(c.y for c in f.values()):
            f = _ring(vs, QQ).dtype({m: c.x for m, c in f.items()})
        p = object.__new__(MultiPoly)
        p.vars = vs
        p.poly = f
        p._numeric = None
        return p

    # -- constructors --------------------------------------------------------
    @staticmethod
    def zero(variables=()):
        return MultiPoly(sorted(variables), {})

    @staticmethod
    def const(c, variables=()):
        vs = tuple(sorted(variables))
        domain = _domain_of((c,))
        c = _coef_in(c, domain)
        return MultiPoly._new(vs, _ring(vs, domain).dtype({(0,) * len(vs): c} if c else {}))

    @staticmethod
    def var(name, variables=None):
        vs = sorted(set(variables or ()) | {name})
        exp = tuple(1 if v == name else 0 for v in vs)
        return MultiPoly(vs, {exp: 1})

    # -- variable management ---------------------------------------------------
    def _lift(self, vs):
        return MultiPoly._new(vs, _in_ring(self, vs, self.poly.ring.domain))

    def extend(self, variables):
        """Reinterpret over a superset of variables."""
        vs = tuple(sorted(set(self.vars) | set(variables)))
        return self if vs == self.vars else self._lift(vs)

    def shrink(self):
        """Drop variables that do not occur."""
        degs = self.poly.degrees() if self.poly else [0] * len(self.vars)
        vs = tuple(v for v, d in zip(self.vars, degs) if d > 0)
        return self if vs == self.vars else self._lift(vs)

    @staticmethod
    def align(a, b):
        vs = sorted(set(a.vars) | set(b.vars))
        return a.extend(vs), b.extend(vs)

    # -- predicates / inspection ------------------------------------------------
    @property
    def terms(self):
        """{exponent: Fraction or GaussianRational}."""
        domain = self.poly.ring.domain
        return {m: _coef_out(c, domain) for m, c in self.poly.items()}

    def nterms(self):
        return len(self.poly)

    def is_zero(self):
        return not self.poly

    def is_constant(self):
        return self.poly.is_ground

    def constant_value(self):
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return self.coeff([0] * len(self.vars))

    def total_degree(self):
        if not self.poly:
            return NEG_INF
        return max(sum(e) for e in self.poly.itermonoms())

    def degree_in(self, names):
        """Total degree counting only the listed variables."""
        if isinstance(names, str):
            names = (names,)
        idx = [self.vars.index(v) for v in names if v in self.vars]
        if not self.poly:
            return NEG_INF
        return max(sum(e[i] for i in idx) for e in self.poly.itermonoms())

    def coeff(self, exp):
        domain = self.poly.ring.domain
        return _coef_out(self.poly.get(tuple(exp), domain.zero), domain)

    def has_gaussian(self):
        return self.poly.ring.domain is QQ_I

    # -- arithmetic -----------------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, MultiPoly):
            return other
        if isinstance(other, (int, Fraction, GaussianRational)):
            return MultiPoly.const(other, self.vars)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        vs, f, g = _common(self, o)
        return MultiPoly._new(vs, f + g)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        vs, f, g = _common(self, o)
        return MultiPoly._new(vs, f - g)

    def __rsub__(self, other):
        return -(self - other)

    def __neg__(self):
        return MultiPoly._new(self.vars, -self.poly)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        vs, f, g = _common(self, o)
        return MultiPoly._new(vs, f * g)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power of polynomial")
        if k == 0:
            return MultiPoly.const(1, self.vars)
        return MultiPoly._new(self.vars, self.poly ** k)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = MultiPoly.const(other, self.vars)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        _, f, g = _common(self, other)
        return f == g

    def __hash__(self):
        p = self.shrink()
        return hash((p.vars, frozenset(p.poly.items())))

    # -- calculus ---------------------------------------------------------------
    def diff(self, name):
        if name not in self.vars:
            return MultiPoly.zero(self.vars)
        return MultiPoly._new(self.vars, self.poly.diff(self.vars.index(name)))

    def subs(self, mapping):
        """Substitute variables by polynomials/constants; absent names ignored."""
        mapping = {k: (v if isinstance(v, MultiPoly) else MultiPoly.const(v))
                   for k, v in mapping.items() if k in self.vars}
        if not mapping:
            return self
        out = {v for v in self.vars if v not in mapping}
        out = tuple(sorted(out.union(*(p.vars for p in mapping.values()))))
        gauss = any(p.has_gaussian() for p in (self, *mapping.values()))
        domain = QQ_I if gauss else QQ
        vs = tuple(sorted(set(self.vars) | set(out)))
        R = _ring(vs, domain)
        f = self.poly.set_ring(R).compose(
            [(R.gens[vs.index(k)], p.poly.set_ring(R)) for k, p in mapping.items()])
        return MultiPoly._new(out, f.set_ring(_ring(out, domain)))

    def eval_complex(self, point):
        """Numeric evaluation; point maps every variable to a complex number.
        A coefficient or power beyond the float range raises NumericOverflow."""
        try:
            if self._numeric is None:
                domain = self.poly.ring.domain
                self._numeric = [
                    (complex(float(c), 0.0) if domain is QQ else complex(float(c.x), float(c.y)),
                     [(v, e) for v, e in zip(self.vars, exp) if e])
                    for exp, c in self.poly.items()]
            total = 0j
            for v, mono in self._numeric:
                for name, e in mono:
                    v *= point[name] ** e
                total += v
        except OverflowError as exc:
            raise NumericOverflow(f"polynomial evaluation exceeds the float range: {exc}") from None
        return total

    # -- norms / content -----------------------------------------------------------
    def l1_norm(self):
        """Sum of absolute values of coefficients; exact when all are exact."""
        if not self.has_gaussian():
            return _frac(self.poly.l1_norm())
        total = Fraction(0)
        try:
            for c in self.poly.itercoeffs():
                total = total + (_abs_float(c) if c.x and c.y else _frac(abs(c.x or c.y)))
        except OverflowError:
            total = math.inf
        if total == math.inf:
            raise NumericOverflow("l1 norm of a Q(i) polynomial exceeds the float range")
        return total

    def conj_coeffs(self):
        if not self.has_gaussian():
            return self
        new = QQ_I.dtype.new
        return MultiPoly._new(self.vars, self.poly.ring.dtype(
            {m: new(c.x, -c.y) for m, c in self.poly.items()}))

    def primitive(self):
        """(c, self / c) for the scalar c of `primitive_parts`: the part has a
        positive integer leading coefficient and content 1."""
        c, (prim,) = primitive_parts((self,))
        return c, prim

    def descending(self):
        """self with its terms stored in descending graded-lex order, the
        order in which numeric evaluation sums them."""
        return MultiPoly._new(self.vars, self.poly.new(self.poly.terms()))

    # -- division ------------------------------------------------------------------
    def divexact(self, divisor):
        """Exact division; raises ValueError if the division is not exact."""
        vs, f, g = _common(self, self._coerce(divisor))
        if not g:
            raise ZeroDivisionError("polynomial division by zero")
        if g.is_ground:
            return MultiPoly._new(vs, f.quo_ground(g.LC))
        try:
            return MultiPoly._new(vs, f.exquo(g))
        except ExactQuotientFailed:
            raise ValueError("inexact polynomial division") from None

    # -- univariate views -------------------------------------------------------
    def effective_vars(self):
        return self.shrink().vars

    def univar_coeffs(self, name):
        """Dense coefficient list [c0, c1, ...] of a univariate polynomial."""
        p = self.shrink()
        if p.vars not in ((), (name,)):
            raise UnsupportedInput(f"polynomial is not univariate in {name}: vars {p.vars}")
        if p.vars == ():
            return [p.constant_value()]
        domain = p.poly.ring.domain
        return [_coef_out(c, domain) for c in reversed(p.poly.to_dense())]

    def univar_roots(self, name):
        """np.roots of a univariate polynomial in `name`; empty for a constant.
        When a coefficient overflows the floats, or a nonzero one underflows
        to 0, all are first scaled exactly by one power of two, which leaves
        the roots as they are."""
        cs = self.univar_coeffs(name)
        try:
            fs = [_complex(c) for c in cs]
            in_range = all(f or not c for c, f in zip(cs, fs))
        except OverflowError:
            in_range = False
        if not in_range:
            scale = Fraction(2) ** -max(_log2_abs(c) for c in cs if c)
            fs = [_complex(c * scale) for c in cs]
        while len(fs) > 1 and fs[-1] == 0:
            fs.pop()
        if len(fs) <= 1:
            return np.array([], dtype=complex)
        return np.roots(fs[::-1])

    def coeff_split(self, front):
        """Group terms by exponents of `front` variables.

        Returns dict: exponent-tuple over `front` -> MultiPoly in the rest.
        """
        fidx = [self.vars.index(v) if v in self.vars else None for v in front]
        rest = tuple(v for v in self.vars if v not in front)
        ridx = [self.vars.index(v) for v in rest]
        out = {}
        for exp, c in self.poly.items():
            fexp = tuple(exp[i] if i is not None else 0 for i in fidx)
            out.setdefault(fexp, {})[tuple(exp[i] for i in ridx)] = c
        R = _ring(rest, self.poly.ring.domain)
        return {fe: MultiPoly._new(rest, R.dtype(d)) for fe, d in out.items()}

    # -- gcd ----------------------------------------------------------------------
    @staticmethod
    def gcd(a, b):
        """Primitive gcd, and 1 for coprime arguments: the one ring gcd over
        Q or Q(i), made unique by primitive(), which removes the scalar."""
        a = a.shrink()
        b = b.shrink()
        if a.is_zero():
            return b.primitive()[1] if not b.is_zero() else b
        if b.is_zero():
            return a.primitive()[1]
        vs, f, g = _common(a, b)
        if f.is_ground or g.is_ground:
            return MultiPoly.const(1, vs)
        return MultiPoly._new(vs, f.gcd(g)).primitive()[1]

    # -- output ---------------------------------------------------------------
    def __repr__(self):
        if not self.poly:
            return "0"
        terms = self.terms
        bits = []
        for exp in sorted(terms, key=lambda e: (sum(e), e), reverse=True):
            c = terms[exp]
            mono = "*".join(f"{v}^{e}" if e > 1 else v
                            for v, e in zip(self.vars, exp) if e)
            if mono:
                bits.append(f"{c}*{mono}" if c != 1 else mono)
            else:
                bits.append(f"{c}")
        return " + ".join(bits)


def _content(polys):
    """Joint positive rational content of polys: the gcd of their rational
    coefficients, or of the real and imaginary parts of Gaussian ones."""
    parts = (q for p in polys for c in p.poly.itercoeffs()
             for q in ((c.x, c.y) if p.has_gaussian() else (c,)))
    return _frac(reduce(QQ.gcd, parts, QQ.zero))


def primitive_parts(polys):
    """(c, [p / c for p in polys]) for c the graded-lex leading coefficient u
    of the first nonzero p times the positive joint rational content of the
    p / u; (0, polys) when every p is zero.  The leading coefficient of the
    first nonzero part is then a positive integer and the joint content of
    the parts is 1, so Gaussian multiples of polys have the same parts.  Over
    Q, c is the joint content signed by the lead.

    This is the canonical form of a denominator, of a cleared rational
    function [den, num] and of an operator's coefficient list.
    """
    polys = list(polys)
    first = next((p for p in polys if p.poly), None)
    if first is None:
        return Fraction(0), polys
    lead = _coef_out(first.poly.LC, first.poly.ring.domain)
    if isinstance(lead, GaussianRational):
        polys = [p.divexact(lead) for p in polys]
        c = _content(polys)
        return lead * c, [p.divexact(c) for p in polys]
    c = _content(polys) if lead > 0 else -_content(polys)
    return c, [p.divexact(c) for p in polys]


def poly_lcm(a, b):
    g = MultiPoly.gcd(a, b)
    if g.is_zero():
        return g
    return a.extend(sorted(set(a.vars) | set(b.vars))).divexact(g) * b


def rank_at_point(rows):
    """Exact rank over Q or Q(i) of a matrix of MultiPoly at one fixed point.

    The k-th variable in sorted order takes the value 2 - 3/(5 + 2k), so t
    alone is 7/5.  The rank at a point is at most the generic rank; for
    constant entries it is the exact rank.
    """
    vs = sorted(set().union(*(p.vars for row in rows for p in row)))
    domain = QQ_I if any(p.has_gaussian() for row in rows for p in row) else QQ
    point = {v: QQ(2) - QQ(3, 5 + 2 * k) for k, v in enumerate(vs)}

    def value(p):
        return domain.convert(p.poly(*(point[v] for v in p.vars)) if p.vars else p.poly.LC)

    vals = [[value(p) for p in row] for row in rows]
    return DomainMatrix(vals, (len(rows), len(rows[0])), domain).rank()
