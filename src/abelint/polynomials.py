"""Polynomials over Q (or Q(i)) with exact coefficients: sparse multivariate
ones, and dense univariate lists for the exact algebra in t.

A MultiPoly is a sorted tuple of variable names plus one element of sympy's
sparse ring Q[vars], or Q(i)[vars] when some coefficient has a nonzero
imaginary part, under graded lexicographic order.  `integer_parts` scales
polynomials jointly into Z[vars] or Z[i][vars], whose integer coefficients
are native ints rather than Python fractions; the pencil restriction, and
the relation search and the pullback of `operators`, run there, the
divisions stay over Q.  Two
polynomials meet in the smallest of these rings that holds both, lifted to
the union of their variables; a scalar is built in its partner's ring when
that ring holds it, and an exact quotient that Z or Z[i] does not hold is
taken over Q or Q(i).  A lift moves exponents through a cached table of
variable positions and converts coefficients only when the domain changes.
Arithmetic, exact division, gcd, differentiation and substitution are ring
calls; coefficients leave the module as Fraction or GaussianRational.  The graded lexicographic order fixes
leading terms, canonical signs and printed order.

Every polynomial that the relation search, the pullback, the univariate
solves of `linalg`, and the translation, pencil restriction and
cancellation of `picard_fuchs` compute with is univariate in t, so they
run on dense coefficient lists instead: sympy's `dup` format, highest
degree first and [] for zero, over one domain K (Z or Z[i], or Q or Q(i)
for rows that hand in fractions), with sympy's `densearith`, `densetools`
and `euclidtools` routines, which this module re-exports (`dup_add`,
`dup_diff`, `dup_gcd`, ...).  Products and exact quotients, where the time
goes, are `dense_mul` and `dense_exquo`: schoolbook multiplication and
long division like sympy's `dup_mul` and `dup_exquo`, but over the nonzero
coefficients only, since the restriction's rows fill about every other
degree and the pullbacks multiply by monomials.  `to_dense` and
`from_dense` convert where a polynomial enters or leaves that algebra;
`dense_translated` leaves it as p(t - s) + c s, its terms in the order
sympy's substitution stored them, and `dense_pencil` enters it from a
polynomial in more variables by the substitution of the pencil.  The
normal-form rule and the joint content apply to dense lists as they do to
MultiPolys (`dense_cancel`, `dense_integer_parts`), and
`cleared_l1_norms` takes the l1 norms of the parts of `primitive_parts`
without building them.  `residue` maps a dense list to its value at one
fixed integer point modulo one fixed 61-bit prime p = 1 (mod 4), sending
i to a fixed square root of -1 mod p: a ring homomorphism, so a minor
that is nonzero mod p is nonzero over Q(t) or Q(i)(t), which makes the
rank mod p a sound refutation for `linalg`.

The module owns the normal forms that the other layers share: the
normal-form rule (`primitive_parts`: divide by the leading coefficient of the
first nonzero polynomial, then by the positive joint rational content),
which gives every object over Q or Q(i) one representative, the lcm, the
reduced row echelon form (`rref`) of a sparse matrix of exact scalars,
the one place where such a matrix is brought to Q or Q(i) and back, and
the roots of a univariate polynomial.  It is the only module that imports
sympy, and no module imports numpy at module level.  `straight_lines`
generates the source lines of the float programs of the numeric layers:
Horner evaluations, sums of terms and quotients written out as one
expression each, with the float operations of the loop they replace, the
coefficients as bound values and what reads no argument in setup lines; `straight_line` compiles such a
program into a kernel, and `_generate` compiles the generated steps and
right-hand sides of the integrator, into which the same lines are written.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache, reduce
from typing import NamedTuple

from sympy import Symbol
from sympy.polys.densearith import dup_add, dup_mul_ground, dup_neg, dup_pow, dup_sub
from sympy.polys.densetools import dup_diff, dup_primitive
from sympy.polys.domains import QQ, QQ_I, ZZ, ZZ_I
from sympy.polys.euclidtools import dup_gcd
from sympy.polys.matrices import DomainMatrix
from sympy.polys.orderings import grlex
from sympy.polys.polyerrors import ExactQuotientFailed
from sympy.polys.rings import PolyRing

from .errors import NumericOverflow, UnsupportedInput
from .qi import GaussianRational

NEG_INF = float("-inf")

# the four coefficient domains: the fields Q and Q(i), and the integer rings
# Z and Z[i] that `integer_parts` brings polynomials to
_FIELD = {ZZ: QQ, ZZ_I: QQ_I, QQ: QQ, QQ_I: QQ_I}
_REAL = {QQ_I: QQ, ZZ_I: ZZ}   # the Gaussian domains and their real parts


@lru_cache(maxsize=None)
def _ring(variables, domain):
    return PolyRing([Symbol(v) for v in variables], domain, grlex)


def _domain_of(coeffs):
    gauss = any(isinstance(c, GaussianRational) and c.im for c in coeffs)
    return QQ_I if gauss else QQ


def _join(a, b):
    """The smallest of Z, Z[i], Q and Q(i) that holds domains a and b."""
    if a is b:
        return a
    gauss = a in _REAL or b in _REAL
    if a.is_Field or b.is_Field:
        return QQ_I if gauss else QQ
    return ZZ_I if gauss else ZZ


def _scalar_domain(c):
    """The smallest domain that holds the int, Fraction or GaussianRational c."""
    if isinstance(c, int):
        return ZZ
    if isinstance(c, Fraction):
        return ZZ if c.denominator == 1 else QQ
    if isinstance(c, GaussianRational):
        integral = c.re.denominator == 1 and c.im.denominator == 1
        return (ZZ_I if integral else QQ_I) if c.im else (ZZ if integral else QQ)
    raise TypeError(f"unsupported coefficient type {type(c).__name__}")


def _coef_in(c, domain):
    """Fraction, int or GaussianRational as an element of `domain`, which
    holds it."""
    re, im = (c.re, c.im) if isinstance(c, GaussianRational) else (c, 0)
    if not domain.is_Field:
        return domain.dtype.new(int(re), int(im)) if domain is ZZ_I else int(re)
    re, im = QQ(re.numerator, re.denominator), QQ(im.numerator, im.denominator)
    return re if domain is QQ else QQ_I.dtype.new(re, im)


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


def _floats(coeffs):
    """The complex values of coeffs (Fractions or GaussianRationals), or
    None when one is beyond the float range or a nonzero one rounds to 0."""
    try:
        fs = [_complex(c) for c in coeffs]
    except OverflowError:
        return None
    return fs if all(f or not c for c, f in zip(coeffs, fs)) else None


def unit_scale(coeffs):
    """The power of two 2^-k, with k within 2 of log2 of the largest |c| for
    c in coeffs (Fractions or GaussianRationals, not all 0), that brings the
    largest near 1."""
    return Fraction(2) ** -max(_log2_abs(c) for c in coeffs if c)


def float_overflow(exc):
    """The NumericOverflow for an OverflowError of a polynomial evaluation."""
    return NumericOverflow(f"polynomial evaluation exceeds the float range: {exc}")


def _coef_out(c, domain):
    if domain not in _REAL:
        return _frac(c)
    return GaussianRational(_frac(c.x), _frac(c.y)) if c.y else _frac(c.x)


@lru_cache(maxsize=None)
def _positions(old, new):
    """Per variable of new, its index among old, or None where old lacks it."""
    return tuple(old.index(v) if v in old else None for v in new)


def _moved(f, old, vs, domain):
    """Ring element f over the variables old in the ring over vs and domain,
    which hold every variable and coefficient f uses, its terms in f's
    stored order.  Exponents move through a cached position tuple and
    coefficients are converted only when the domain changes: sympy's
    `set_ring` finds each variable by comparing Symbols, which prints them."""
    R = _ring(vs, domain)
    if f.ring is R:
        return f
    terms = f.items()
    if old != vs:
        pos = _positions(old, vs)
        terms = [(tuple(m[i] if i is not None else 0 for i in pos), c) for m, c in terms]
    src = f.ring.domain
    if src is not domain:
        terms = [(m, domain.convert_from(c, src)) for m, c in terms]
    return R.dtype(terms)


def _in_ring(p, vs, domain):
    """p's ring element in the ring over vs and domain, which hold every
    variable and coefficient p uses."""
    return _moved(p.poly, p.vars, vs, domain)


def _common(a, b):
    """(vars, f, g): a and b as elements of one ring, over the smallest
    domain that holds both; a zero operand, which every ring holds, takes
    the other's domain."""
    f, g = a.poly, b.poly
    if f.ring is g.ring:
        return a.vars, f, g
    vs = a.vars if a.vars == b.vars else tuple(sorted(set(a.vars) | set(b.vars)))
    fd, gd = f.ring.domain, g.ring.domain
    domain = _join(fd if f else gd, gd if g else fd)
    return vs, _in_ring(a, vs, domain), _in_ring(b, vs, domain)


def _operands(a, other):
    """(vars, f, g): MultiPoly a and other, a MultiPoly or an exact scalar,
    as elements of one ring; None for any other type.  A scalar is built in
    a's ring when that ring holds it."""
    if isinstance(other, MultiPoly):
        return _common(a, other)
    if not isinstance(other, (int, Fraction, GaussianRational)):
        return None
    domain = _join(a.poly.ring.domain, _scalar_domain(other))
    R = _ring(a.vars, domain)
    c = _coef_in(other, domain)
    return a.vars, _in_ring(a, a.vars, domain), R.dtype({R.zero_monom: c} if c else {})


def _exquo(f, g):
    """f / g for ring elements f and g of one ring when g divides f there,
    else None."""
    try:
        return f.exquo(g)
    except ExactQuotientFailed:
        return None


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
        """Wrap ring element f over vs, back in Q or Z when no coefficient is
        complex."""
        real = _REAL.get(f.ring.domain)
        if real is not None and not any(c.y for c in f.values()):
            f = _ring(vs, real).dtype({m: c.x for m, c in f.items()})
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
        return self.poly.ring.domain in _REAL

    def over_field(self):
        """self over Q or Q(i)."""
        domain = self.poly.ring.domain
        if domain.is_Field:
            return self
        return MultiPoly._new(self.vars, _in_ring(self, self.vars, _FIELD[domain]))

    # -- arithmetic -----------------------------------------------------------
    def __add__(self, other):
        ops = _operands(self, other)
        if ops is None:
            return NotImplemented
        vs, f, g = ops
        return MultiPoly._new(vs, f + g)

    __radd__ = __add__

    def __sub__(self, other):
        ops = _operands(self, other)
        if ops is None:
            return NotImplemented
        vs, f, g = ops
        return MultiPoly._new(vs, f - g)

    def __rsub__(self, other):
        return -(self - other)

    def __neg__(self):
        return MultiPoly._new(self.vars, -self.poly)

    def __mul__(self, other):
        ops = _operands(self, other)
        if ops is None:
            return NotImplemented
        vs, f, g = ops
        return MultiPoly._new(vs, f * g)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power of polynomial")
        if k == 0:
            return MultiPoly._new(self.vars, self.poly.ring.one)
        return MultiPoly._new(self.vars, self.poly ** k)

    def __eq__(self, other):
        ops = _operands(self, other)
        if ops is None:
            return NotImplemented
        _, f, g = ops
        return f == g

    def __hash__(self):
        p = self.shrink()
        return hash((p.vars, frozenset(p.poly.items())))

    # -- calculus ---------------------------------------------------------------
    def diff(self, name):
        if name not in self.vars:
            return MultiPoly._new(self.vars, self.poly.ring.zero)
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
        f = _in_ring(self, vs, domain).compose(
            [(R.gens[vs.index(k)], _in_ring(p, vs, domain)) for k, p in mapping.items()])
        return MultiPoly._new(out, _moved(f, vs, out, domain))

    def numeric_terms(self):
        """(complex coefficient, [(variable, exponent), ...]) per stored term,
        nonzero exponents only: what `eval_complex` sums.  A coefficient
        beyond the float range raises NumericOverflow."""
        if self._numeric is None:
            domain = self.poly.ring.domain
            try:
                self._numeric = [
                    (complex(float(c), 0.0) if domain not in _REAL
                     else complex(float(c.x), float(c.y)),
                     [(v, e) for v, e in zip(self.vars, exp) if e])
                    for exp, c in self.poly.items()]
            except OverflowError as exc:
                raise float_overflow(exc) from None
        return self._numeric

    def in_float_range(self):
        """self, when every coefficient has a float value, nonzero where it
        is nonzero; otherwise self scaled exactly by `unit_scale` of its
        coefficients, which moves no zero."""
        cs = list(self.terms.values())
        return self if _floats(cs) is not None else self * unit_scale(cs)

    def eval_complex(self, point):
        """Numeric evaluation; point maps every variable to a complex number.
        A coefficient or power beyond the float range raises NumericOverflow."""
        try:
            total = 0j
            for v, mono in self.numeric_terms():
                for name, e in mono:
                    v *= point[name] ** e
                total += v
        except OverflowError as exc:
            raise float_overflow(exc) from None
        return total

    # -- norms / content -----------------------------------------------------------
    def l1_norm(self):
        """Sum of absolute values of coefficients; exact when all are exact."""
        if not self.has_gaussian():
            return _frac(self.poly.l1_norm())
        return _gaussian_l1(self.poly.itercoeffs())

    def conj_coeffs(self):
        if not self.has_gaussian():
            return self
        new = self.poly.ring.domain.dtype.new
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
        """Exact division; raises ValueError if the division is not exact.
        Over Z or Z[i] a quotient that the ring does not hold is taken over
        Q or Q(i), never truncated."""
        vs, f, g = _operands(self, divisor)
        if not g:
            raise ZeroDivisionError("polynomial division by zero")
        domain = f.ring.domain
        if g.is_ground:
            c = g.LC
            if domain.is_Field:
                return MultiPoly._new(vs, f.quo_ground(c))
            # sympy's quo_ground drops the terms of a ring that c does not divide
            if not any(x % c for x in f.itercoeffs()):
                return MultiPoly._new(vs, f.new([(m, x // c) for m, x in f.iterterms()]))
        else:
            h = _exquo(f, g)
            if h is not None:
                return MultiPoly._new(vs, h)
            if domain.is_Field:
                raise ValueError("inexact polynomial division")
        field = _FIELD[domain]
        return MultiPoly._new(vs, _moved(f, vs, vs, field)).divexact(
            MultiPoly._new(vs, _moved(g, vs, vs, field)))

    # -- univariate views -------------------------------------------------------
    def effective_vars(self):
        return self.shrink().vars

    def univar_coeffs(self, name):
        """Dense coefficient list [c0, c1, ...] of a polynomial in name alone
        or a constant, read in its own ring; [0] for zero."""
        domain = self.poly.ring.domain
        return [_coef_out(c, domain) for c in reversed(_dense(self, name, domain))] or [Fraction(0)]

    def univar_roots(self, name):
        """np.roots of a univariate polynomial in `name`; empty for a constant.
        When a coefficient overflows the floats, or a nonzero one underflows
        to 0, all are first scaled exactly by one power of two, which leaves
        the roots as they are.  When the leading coefficient still underflows,
        the coefficients span more than the float range and some root is
        out of reach: that raises NumericOverflow."""
        import numpy as np
        cs = self.univar_coeffs(name)
        fs = _floats(cs)
        if fs is None:
            scale = unit_scale(cs)
            fs = [_complex(c * scale) for c in cs]
            if not fs[-1]:
                raise NumericOverflow(
                    f"the roots of a polynomial of degree {len(cs) - 1} in {name} are "
                    "beyond the float range: its coefficients span more than that range")
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
        the domain of a and b, made unique by primitive(), which removes the
        scalar."""
        a = a.shrink()
        b = b.shrink()
        if a.is_zero():
            return b.primitive()[1] if not b.is_zero() else b
        if b.is_zero():
            return a.primitive()[1]
        vs, f, g = _common(a, b)
        if f.is_ground or g.is_ground:
            return MultiPoly._new(vs, f.ring.one)
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


def _parts(coeffs, domain):
    """The rationals of sympy coefficients over domain: the real and
    imaginary parts of each over Q(i) or Z[i], else the coefficients."""
    if domain in _REAL:
        return (q for c in coeffs for q in (c.x, c.y))
    return coeffs


def _content(parts):
    """Joint positive rational content of the rationals parts: the gcd of
    their numerators over the lcm of their denominators."""
    num, den = 0, 1
    for q in parts:
        num = math.gcd(num, q.numerator)
        den = math.lcm(den, q.denominator)
    return Fraction(num, den)


def _gaussian_l1(coeffs):
    """Sum of |c| over sympy coefficients over Q(i) or Z[i], in their order:
    exact, except that |c| of a coefficient with two nonzero parts is a
    float, which makes the sum one."""
    total = Fraction(0)
    try:
        for c in coeffs:
            total = total + (_abs_float(c) if c.x and c.y else _frac(abs(c.x or c.y)))
    except OverflowError:
        total = math.inf
    if total == math.inf:
        raise NumericOverflow("l1 norm of a Q(i) polynomial exceeds the float range")
    return total


def _normal_scalar(lead, groups):
    """The scalar c of the normal-form rule for polynomials whose leading
    coefficient, that of the first nonzero one, is lead (a Fraction or
    GaussianRational), and whose sympy coefficients the pairs (domain,
    coefficients) of groups hold: lead times the positive joint rational
    content of the p / lead when lead is not real, else the positive joint
    content signed by lead."""
    if isinstance(lead, GaussianRational):
        u = _coef_in(lead, QQ_I)
        return lead * _content(_parts((QQ_I.quo(QQ_I.convert_from(c, K), u)
                                       for K, cs in groups for c in cs), QQ_I))
    c = _content(q for K, cs in groups for q in _parts(cs, K))
    return c if lead > 0 else -c


def _polys_scalar(polys):
    """`_normal_scalar` of the MultiPolys polys, or None when all are zero."""
    first = next((p.poly for p in polys if p.poly), None)
    if first is None:
        return None
    return _normal_scalar(_coef_out(first.LC, first.ring.domain),
                          [(p.poly.ring.domain, p.poly.itercoeffs()) for p in polys])


def primitive_parts(polys):
    """(c, [p / c for p in polys]) for c the graded-lex leading coefficient u
    of the first nonzero p times the positive joint rational content of the
    p / u; (0, polys) when every p is zero.  The leading coefficient of the
    first nonzero part is then a positive integer and the joint content of
    the parts is 1, so Gaussian multiples of polys have the same parts.  Over
    Q, c is the joint content signed by the lead.

    This is the canonical form of a denominator, of a cleared rational
    function [den, num] and of an operator's coefficient list.  The rule
    itself is `_normal_scalar`, which `dense_cancel` and `cleared_l1_norms`
    apply too.
    """
    polys = list(polys)
    c = _polys_scalar(polys)
    if c is None:
        return Fraction(0), polys
    return c, [p.divexact(c) for p in polys]


def cleared_l1_norms(polys):
    """[part.l1_norm() for part in primitive_parts(polys)[1]], each of the
    same value and type, without building the parts: a real p over a real
    c gives ||p||_1 / |c| exactly, and any other p sums |x / c| over its
    coefficients x in stored order, as `l1_norm` sums its part."""
    polys = list(polys)
    c = _polys_scalar(polys)
    if c is None:
        return [p.l1_norm() for p in polys]
    out = []
    for p in polys:
        domain = p.poly.ring.domain
        if domain not in _REAL and not isinstance(c, GaussianRational):
            s = p.poly.l1_norm()
            out.append(Fraction(s.numerator * c.denominator, s.denominator * abs(c.numerator)))
            continue
        u = _coef_in(c, QQ_I)
        qs = [QQ_I.quo(QQ_I.convert_from(x, domain), u) for x in p.poly.itercoeffs()]
        out.append(_gaussian_l1(qs) if any(q.y for q in qs)
                   else _frac(sum((abs(q.x) for q in qs), QQ.zero)))
    return out


def _scaler(c):
    """x -> x / c for rationals x whose quotient by the positive rational c
    is an integer."""
    num, den = c.numerator, c.denominator
    return lambda x: x.numerator * den // (x.denominator * num)


def integer_parts(polys):
    """(c, [p / c for p in polys]) for c the positive joint rational content
    of polys (1 when every p is zero): each part over Z, or over Z[i] when a
    coefficient is complex, with joint content 1.  Sums, differences,
    products, derivatives, exact quotients and gcds of the parts stay in
    that ring; a quotient that the ring does not hold is taken over the
    field."""
    polys = list(polys)
    c = _content(q for p in polys for q in _parts(p.poly.itercoeffs(), p.poly.ring.domain))
    c = c or Fraction(1)
    scaled = _scaler(c)
    parts = []
    for p in polys:
        if p.has_gaussian():
            new = ZZ_I.dtype.new
            f = _ring(p.vars, ZZ_I).dtype(
                {m: new(scaled(x.x), scaled(x.y)) for m, x in p.poly.items()})
        else:
            f = _ring(p.vars, ZZ).dtype({m: scaled(x) for m, x in p.poly.items()})
        parts.append(MultiPoly._new(p.vars, f))
    return c, parts


def poly_lcm(a, b):
    g = MultiPoly.gcd(a, b)
    if g.is_zero():
        return g
    return a.extend(sorted(set(a.vars) | set(b.vars))).divexact(g) * b


# ---------------------------------------------------------------------------
# dense univariate lists


def to_dense(polys, var="t"):
    """(lists, K): polys, each a polynomial in var alone or a constant, as
    dense coefficient lists, highest degree first and [] for zero, over K,
    the smallest of Z, Z[i], Q and Q(i) that holds them all.  A polynomial
    that uses another variable raises UnsupportedInput."""
    polys = list(polys)
    K = ZZ
    for p in polys:
        if p.poly:
            K = _join(K, p.poly.ring.domain)
    return [_dense(p, var, K) for p in polys], K


def _dense(p, var, K):
    f = p.poly
    if not f:
        return []
    src = f.ring.domain
    i = p.vars.index(var) if var in p.vars else None
    coeffs = {}
    for m, c in f.items():
        e = m[i] if i is not None else 0
        if sum(m) != e:
            raise UnsupportedInput(
                f"polynomial is not univariate in {var}: vars {p.effective_vars()}")
        coeffs[e] = c if src is K else K.convert_from(c, src)
    n = max(coeffs)
    out = [K.zero] * (n + 1)
    for e, c in coeffs.items():
        out[n - e] = c
    return out


def from_dense(f, K, variables=("t",), var="t"):
    """The MultiPoly over variables (which hold var) of the dense list f over
    K, its terms stored in descending order, and over Z or Q when no
    coefficient is complex."""
    vs = tuple(variables)
    i, n = vs.index(var), len(f) - 1
    base = [0] * len(vs)
    terms = {}
    for k, c in enumerate(f):
        if c:
            base[i] = n - k
            terms[tuple(base)] = c
    return MultiPoly._new(vs, _ring(vs, K).dtype(terms))


def dense_mul(f, g, K):
    """f g for dense lists over K.  The products of zero coefficients are
    skipped, which sympy's `dup_mul` forms: the rows of the pencil
    restriction fill only every other degree, and a monomial factor costs
    one pass over the other."""
    if not (f and g):
        return []
    nf = [(i, c) for i, c in enumerate(f) if c]
    ng = [(j, c) for j, c in enumerate(g) if c]
    h = [K.zero] * (len(f) + len(g) - 1)
    for i, a in nf:
        for j, b in ng:
            h[i + j] += a * b
    return h


def dense_exquo(f, g, K):
    """f / g for dense lists over K when g divides f there; else
    ExactQuotientFailed.  Long division from the leading term, skipping the
    zero coefficients of g and of the quotient."""
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    m = len(f) - len(g)
    if not f:
        return []
    if m < 0:
        raise ExactQuotientFailed(f, g, K)
    lc, tail = g[0], [(j, c) for j, c in enumerate(g) if j and c]
    r, q = list(f), [K.zero] * (m + 1)
    for k in range(m + 1):
        if r[k]:
            c, rem = K.div(r[k], lc)
            if rem:
                raise ExactQuotientFailed(f, g, K)
            q[k] = c
            for j, b in tail:
                r[k + j] -= c * b
    if any(r[m + 1:]):
        raise ExactQuotientFailed(f, g, K)
    return q


def dense_gcd(f, g, K):
    """gcd(f, g) of dense lists over K, primitive over Z or Z[i] (up to a
    unit) and monic over a field."""
    h = dup_gcd(f, g, K)
    return h if K.is_Field else dup_primitive(h, K)[1]


def dense_integer_parts(fs, K):
    """`integer_parts` of the dense lists fs over K: (parts, R), each part
    f / c over R, which is Z, or Z[i] when K is Gaussian, for c the
    positive joint rational content of fs (1 when every f is zero)."""
    scaled = _scaler(_content(q for f in fs for q in _parts(f, K)) or Fraction(1))
    if K in _REAL:
        new = ZZ_I.dtype.new
        return [[new(scaled(x.x), scaled(x.y)) for x in f] for f in fs], ZZ_I
    return [[scaled(x) for x in f] for f in fs], ZZ


def dense_cancel(num, den, K):
    """num/den in the canonical form of `RatFunc`, for dense lists over Z or
    Z[i], den nonzero: cancelled by `dense_gcd`, then both divided by the
    scalar c of `primitive_parts` for den.  Returns ((num, D), (den, D')),
    each quotient by c over the domain in which `MultiPoly.divexact` takes
    it: the ring that holds K and c when c divides every coefficient there,
    else its field."""
    if len(num) > 1 and len(den) > 1:
        g = dense_gcd(num, den, K)
        if len(g) > 1:
            num, den = dense_exquo(num, g, K), dense_exquo(den, g, K)
    c = _normal_scalar(_coef_out(den[0], K), [(K, den)])
    return _quo_ground(num, c, K), _quo_ground(den, c, K)


def _quo_ground(f, c, K):
    """(f / c, D) for the dense list f over K and a nonzero Fraction or
    GaussianRational c, D as `dense_cancel` describes it."""
    D = _join(K, _scalar_domain(c))
    if D is not K:
        f = [D.convert_from(x, K) for x in f]
    u = _coef_in(c, D)
    if D.is_Field:
        return [D.quo(x, u) for x in f], D
    if not any(x % u for x in f):
        return [x // u for x in f], D
    F = _FIELD[D]
    u = _coef_in(c, F)
    return [F.quo(F.convert_from(x, D), u) for x in f], F


def dense_pencil(polys, var, line, value):
    """(lists, K, leftover): each of polys with var -> 0 and line -> value -
    var, as a dense list in var over K, Q or Q(i), the field that holds
    them all, and the names of the other variables that a term of the
    result uses.  A term with a positive power of var drops out, and line^a
    becomes (value - var)^a, from one table of the powers.  No two
    surviving terms cancel, since their monomials in the other variables
    differ or their powers of (value - var) have different degrees."""
    polys = list(polys)
    K = QQ_I if any(p.poly.ring.domain in _REAL for p in polys) else QQ
    step = _coef_in(value, K)
    powers = [[K.one]]   # (value - var)^a from the constant term up
    out, leftover = [], set()
    for p in polys:
        vs, src = p.vars, p.poly.ring.domain
        i = vs.index(var) if var in vs else None
        j = vs.index(line) if line in vs else None
        acc = []
        for m, c in p.poly.items():
            if i is not None and m[i]:
                continue
            a = m[j] if j is not None else 0
            if sum(m) != a:
                leftover.update(v for v, e in zip(vs, m) if e and v != line)
                continue
            while len(powers) <= a:
                low = powers[-1]
                powers.append([step * x - y for x, y in zip(low + [K.zero], [K.zero] + low)])
            if src is not K:
                c = K.convert_from(c, src)
            acc += [K.zero] * (a + 1 - len(acc))
            for k, x in enumerate(powers[a]):
                if x:
                    acc[k] += c * x
        while acc and not acc[-1]:
            acc.pop()
        out.append(acc[::-1])
    return out, K, leftover


@lru_cache(maxsize=None)
def _binomial_terms(k):
    """((a, b), n) per term n s^a t^b of (t - s)^k, in the order in which
    sympy's ring power stores the terms of t - s raised to k."""
    R = _ring(("s", "t"), ZZ)
    return tuple((m, int(n)) for m, n in (R.dtype({(0, 1): 1, (1, 0): -1}) ** k).items())


def dense_translated(f, K, variables, var, by, plus=0):
    """f(var - by) + plus by for the dense list f over K, as a MultiPoly over
    variables (which hold var and by) and over Q or Q(i), by the binomial
    expansion: for each nonzero coefficient c of var^k, from the constant
    term up, the terms of c (var - by)^k in the order of `_binomial_terms`,
    then plus by, which updates its term in place, deletes it when it
    cancels, or comes last.  That is the order in which sympy's `compose`
    and sum store the terms of a polynomial in var whose terms are stored
    from the constant term up; no two of its powers share a term."""
    vs = tuple(variables)
    i, j = vs.index(by), vs.index(var)
    F = _FIELD[K]
    base = [0] * len(vs)
    terms = {}
    for k, c in enumerate(reversed(f)):
        if c:
            c = F.convert_from(c, K)
            for (base[i], base[j]), n in _binomial_terms(k):
                terms[tuple(base)] = c * n
    if plus:
        base[i], base[j] = 1, 0
        key = tuple(base)
        c = terms.get(key, F.zero) + plus
        if c:
            terms[key] = c
        else:
            del terms[key]
    return MultiPoly._new(vs, _ring(vs, F).dtype(terms))


# 61-bit prime p = 1 (mod 4), a square root of -1 mod p and an integer point:
# `residue` evaluates a dense list there, mod p, with i -> SQRT_MINUS_ONE,
# a ring homomorphism from Z[i][t] (and from the rationals whose
# denominators p does not divide) onto the integers mod p
MODULUS = 2305843009213693921
SQRT_MINUS_ONE = 583529827753931384
POINT = 1414213562373095048


def _coef_mod_p(c, K):
    if K is ZZ:
        return c % MODULUS
    if K is ZZ_I:
        return (c.x + SQRT_MINUS_ONE * c.y) % MODULUS
    parts = (c.x, c.y) if K is QQ_I else (c, QQ.zero)
    re, im = (int(q.numerator) * pow(int(q.denominator), -1, MODULUS) for q in parts)
    return (re + SQRT_MINUS_ONE * im) % MODULUS


def residue(f, K):
    """f(POINT) mod MODULUS for a dense list f over K; None when a
    denominator of a coefficient over Q or Q(i) is divisible by MODULUS."""
    v = 0
    try:
        for c in f:
            v = (v * POINT + _coef_mod_p(c, K)) % MODULUS
    except ValueError:   # pow(denominator, -1, MODULUS) of a multiple of MODULUS
        return None
    return v


def rref(rows, shape):
    """Reduced row echelon form over Q, or over Q(i) when a scalar is
    complex, of the matrix of the given shape whose rows, in any order, are
    given by their nonzero Fraction, int or GaussianRational entries
    {label: {column: scalar}}, by sympy's sparse elimination: (pivots, R),
    R[i] the nonzero entries {column: scalar} of row i < len(pivots), whose
    pivot column is pivots[i]; the rows after them are zero."""
    domain = _domain_of(c for row in rows.values() for c in row.values())
    data = {i: {j: _coef_in(c, domain) for j, c in row.items()}
            for i, row in enumerate(rows.values()) if row}
    R, pivots = DomainMatrix(data, shape, domain).rref()
    return pivots, [{j: _coef_out(c, domain) for j, c in R.rep.get(i, {}).items()}
                    for i in range(len(pivots))]


# ---------------------------------------------------------------------------
# straight-line numeric kernels

TERMS_PER_LINE = 64   # a longer chain of + can exhaust the compiler's recursion


@lru_cache(maxsize=256)
def _kernel_factory(source):
    scope = {}
    exec(compile(source, "<abelint kernel>", "exec"), scope)
    return scope["make"]


def _sum(terms):
    """The source of the left-to-right sum of terms."""
    return " + ".join(terms)


def _generate(params, setup, name, args, lines):
    """The function make(*params) of the source that runs the setup lines
    and returns the function name(args) with the body lines."""
    return _kernel_factory("".join([f"def make({', '.join(params)}):\n"]
                                   + [f"    {line}\n" for line in setup]
                                   + [f"    def {name}({args}):\n"]
                                   + [f"        {line}\n" for line in lines]
                                   + [f"    return {name}\n"]))


class StraightLine(NamedTuple):
    """Source lines of a straight-line program: `setup` unpacks the
    coefficients c0, c1, ... from the name `coefficients`, whose value must
    be `consts`, and computes what reads no argument; `lines` read the
    arguments too.  Its text holds only the shape of the program, so every
    program of one shape compiles to the same code."""
    consts: tuple
    setup: tuple
    lines: tuple


def straight_lines(horners=(), sums=(), quotients=()):
    """The StraightLine that evaluates each Horner, then each sum, then
    each quotient into its local `target`.

    Each Horner (target, x, coefficients), highest degree first, is the text
    `target = (c0 * x + c1) * x + c2`: the float operations of the loop
    `v = c0; for c in rest: v = v * x + c`, which are `np.polyval`'s at a
    finite x (its first step, 0 * x + c0, gives c0 there).  Each sum
    (target, start, terms), with start a value such as 0j or 0.0 and terms
    (coefficient, factor sources), is the text
    `target = start + c0 * f00 * f01 + c1 * f10 + ...` that Python evaluates
    left to right, so it makes the float operations of the loop
    `s = start; for c, fs in terms: v = c; for f in fs: v = v * f; s = s + v`
    in the same order.  Each quotient (target, negate, numerator,
    denominator) of two targets is `target = numerator / denominator`, with
    the numerator negated first when negate is true.

    A Horner of one coefficient, a sum of terms without factors and a
    quotient of two such values whose denominator is not 0 read no
    argument: they go to the setup lines, which run once per binding of
    the coefficients.  A quotient by a constant 0 stays in `lines`, where
    it raises ZeroDivisionError at the point it is evaluated at.  Every
    source fragment must be built from fixed names and integers, never from
    input text."""
    consts, setup, lines = [], [], []
    values = {}    # target -> its value, for the targets that read no argument

    def name(c):
        consts.append(c)
        return f"c{len(consts) - 1}"

    for target, x, coeffs in horners:
        names = [name(c) for c in coeffs]
        value, rest = names[0], names[1:]
        if not rest:
            setup.append(f"{target} = {value}")
            values[target] = coeffs[0]
        while rest:
            step, rest = rest[:TERMS_PER_LINE], rest[TERMS_PER_LINE:]
            value = "(" * len(step) + value + "".join(f" * {x} + {c})" for c in step)
            lines.append(f"{target} = {value}")
            value = target
    for target, start, terms in sums:
        parts = [" * ".join([name(c), *factors]) for c, factors in terms]
        out = setup if all(not factors for _, factors in terms) else lines
        if out is setup:
            values[target] = reduce(operator.add, (c for c, _ in terms), start)
        out.append(f"{target} = " + " + ".join([repr(start)] + parts[:TERMS_PER_LINE]))
        for i in range(TERMS_PER_LINE, len(parts), TERMS_PER_LINE):
            out.append(f"{target} = " + " + ".join([target] + parts[i:i + TERMS_PER_LINE]))
    for target, negate, num, den in quotients:
        out = setup if num in values and values.get(den) else lines
        out.append(f"{target} = {'-' if negate else ''}{num} / {den}")
    names = "".join(f"c{i}, " for i in range(len(consts)))
    head = [f"{names}= coefficients"] if consts else []
    return StraightLine(tuple(consts), tuple(head + setup), tuple(lines))


def straight_line(args, program, tail, env=None):
    """The function of `args` that runs the lines of the StraightLine
    program, then the source lines `tail`.  Its coefficients and the names
    in `env` reach it as closure variables, and its setup lines run once,
    when it is made."""
    env = dict(env or {})
    make = _generate(("coefficients", *env), program.setup, "kernel", ", ".join(args),
                     program.lines + tuple(tail))
    return make(program.consts, **env)


def matrix_source(cells):
    """The source of the tuple of the row tuples of cells."""
    return "(" + "".join("(" + "".join(f"{c}, " for c in row) + "), " for row in cells) + ")"


def evaluation_error(exc, t, zero):
    """The NumericOverflow for the OverflowError or the ZeroDivisionError
    exc of a float kernel at t; `zero` names the divisor that rounds to 0."""
    if isinstance(exc, ZeroDivisionError):
        return NumericOverflow(f"{zero} rounds to 0 at t = {t}")
    return float_overflow(exc)
