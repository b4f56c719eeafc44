"""Scalar differential operators: reduction, slopes, pullbacks, symmetrization.

Operators are written D = p0(t) d^k + p1(t) d^{k-1} + ... + pk(t) with
polynomial coefficients over Q or Q(i).  Standard form: cleared denominators,
jointly coprime integer coefficients, graded-lex-positive leading coefficient
of p0.  The affine slope is max_j ||p_j|| / ||p0|| in l1 coefficient norms;
the invariant slope is approached by sampling Moebius pullbacks combined with
symmetrization across circles and lines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import NoSolution, UnsupportedInput
from .linalg import FieldMatrix, solve_linear
from .polynomials import MultiPoly, poly_lcm
from .qi import GaussianRational
from .ratfunc import RatFunc

TVARS = ("t",)


class DiffOperator:
    """p0 d^k + ... + pk with MultiPoly coefficients in t (descending order)."""

    def __init__(self, coeffs):
        coeffs = [c if isinstance(c, MultiPoly) else MultiPoly.const(c, TVARS)
                  for c in coeffs]
        coeffs = [c.extend(TVARS) for c in coeffs]
        while coeffs and coeffs[0].is_zero():
            coeffs = coeffs[1:]
        if not coeffs:
            raise ValueError("zero operator")
        self.coeffs = coeffs

    @property
    def order(self):
        return len(self.coeffs) - 1

    def is_gaussian(self):
        return any(c.has_gaussian() for c in self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, DiffOperator):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __repr__(self):
        k = self.order
        bits = []
        for i, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            p = k - i
            dpart = f"D^{p}" if p > 1 else ("D" if p == 1 else "")
            cpart = repr(c)
            bits.append(f"({cpart}){dpart}" if dpart else f"({cpart})")
        return " + ".join(bits)

    def apply_numeric(self, t, derivs):
        """Evaluate sum p_j(t) * derivs[k-j] given derivs[m] ~ y^(m)(t)."""
        k = self.order
        total = 0j
        for i, c in enumerate(self.coeffs):
            total += c.eval_complex({"t": t}) * derivs[k - i]
        return total

    def companion_rhs(self, t):
        """y-vector (y, y', ..., y^(k-1)) derivative at t; top row from D=0."""
        import numpy as np

        k = self.order
        p0 = self.coeffs[0].eval_complex({"t": t})
        M = np.zeros((k, k), dtype=complex)
        for i in range(k - 1):
            M[i, i + 1] = 1.0
        for j in range(1, k + 1):
            M[k - 1, k - j] = -self.coeffs[j].eval_complex({"t": t}) / p0
        return M

    def leading_roots(self):
        import numpy as np

        cs = [complex(c) if isinstance(c, GaussianRational) else complex(float(c), 0)
              for c in self.coeffs[0].univar_coeffs("t")]
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        if len(cs) <= 1:
            return np.array([], dtype=complex)
        return np.roots(cs[::-1])


def standard_form(coeffs) -> DiffOperator:
    """Normalize a rational-coefficient operator to its standard form."""
    rs = [RatFunc.coerce(c) for c in coeffs]
    den = MultiPoly.const(1, TVARS)
    for r in rs:
        den = poly_lcm(den.extend(TVARS), r.den.extend(TVARS))
    polys = [r.cleared(den).extend(TVARS) for r in rs]
    g = MultiPoly.zero(TVARS)
    for p in polys:
        if not p.is_zero():
            g = MultiPoly.gcd(g, p) if not g.is_zero() else p
    if not g.is_constant():
        polys = [p.divexact(g) if not p.is_zero() else p for p in polys]
    # joint rational content -> coprime integer coefficients
    contents = [p.rational_content() for p in polys if not p.is_zero()]
    num_g = 0
    den_l = 1
    for c in contents:
        num_g = math.gcd(num_g, c.numerator)
        den_l = den_l * c.denominator // math.gcd(den_l, c.denominator)
    scale = Fraction(den_l, num_g) if num_g else Fraction(1)
    polys = [p * scale for p in polys]
    lead = None
    for p in polys:
        if not p.is_zero():
            lead = p.leading()[1]
            break
    if lead is not None:
        if isinstance(lead, GaussianRational):
            if lead.re < 0 or (lead.re == 0 and lead.im < 0):
                polys = [-p for p in polys]
        elif lead < 0:
            polys = [-p for p in polys]
    return DiffOperator(polys)


def reduce_to_scalar(ode) -> DiffOperator:
    """Minimal-order monic relation among iterated derivative matrices.

    With A0 = E and A_{j+1} = A_j' + A_j A, find the first k with
    A_k = sum_{j<k} c_j A_j over Q(t); then D = d^k - sum c_j d^j in standard
    form.  Every component of every solution of X' = A X is annihilated.
    """
    A = ode.A
    ell = A.rows
    A_list = [FieldMatrix.identity(ell)]
    for k in range(1, ell * ell + 1):
        nxt = A_list[-1].diff("t") + A_list[-1] * A
        cols = [M.flatten() for M in A_list]
        rhs = nxt.flatten()
        mat = FieldMatrix([[cols[j][i] for j in range(len(cols))]
                           for i in range(len(rhs))])
        try:
            c = solve_linear(mat, rhs, verify=True)
        except NoSolution:
            A_list.append(nxt)
            continue
        coeffs = [RatFunc.const(1)] + [-c[k - 1 - m] for m in range(k)]
        return standard_form(coeffs)
    raise NoSolution("no scalar relation up to order ell^2; system is not finite?")


def _norm(poly: MultiPoly):
    return poly.l1_norm()


def affine_slope(D: DiffOperator):
    """max_j ||p_j|| / ||p0||; exact Fraction for rational operators."""
    n0 = _norm(D.coeffs[0])
    best = Fraction(0)
    for c in D.coeffs[1:]:
        v = _norm(c) / n0
        if v > best:
            best = v
    return best


# ---------------------------------------------------------------------------
# Moebius maps and geometric carriers


class MobiusMap:
    """t -> (a t + b) / (c t + d), entries exact Gaussian rationals."""

    def __init__(self, a, b, c, d):
        self.a = GaussianRational.coerce(a)
        self.b = GaussianRational.coerce(b)
        self.c = GaussianRational.coerce(c)
        self.d = GaussianRational.coerce(d)
        if not (self.a * self.d - self.b * self.c):
            raise ValueError("degenerate Moebius map")

    def inverse(self):
        return MobiusMap(self.d, -self.b, -self.c, self.a)

    def compose(self, other):
        """self o other."""
        return MobiusMap(self.a * other.a + self.b * other.c,
                         self.a * other.b + self.b * other.d,
                         self.c * other.a + self.d * other.c,
                         self.c * other.b + self.d * other.d)

    def __call__(self, z: complex) -> complex:
        num = complex(self.a) * z + complex(self.b)
        den = complex(self.c) * z + complex(self.d)
        return num / den

    def as_ratfunc(self):
        t = MultiPoly.var("t")
        num = t * self.a + MultiPoly.const(self.b, TVARS)
        den = t * self.c + MultiPoly.const(self.d, TVARS)
        return RatFunc(num, den)

    def derivative_ratfunc(self):
        t = MultiPoly.var("t")
        det = self.a * self.d - self.b * self.c
        den = (t * self.c + MultiPoly.const(self.d, TVARS))
        return RatFunc(MultiPoly.const(det, TVARS), den * den)

    def __repr__(self):
        return f"MobiusMap({self.a}, {self.b}, {self.c}, {self.d})"


@dataclass(frozen=True)
class Line:
    """point + direction * R, exact Gaussian rational data."""

    point: GaussianRational
    direction: GaussianRational

    def to_real_axis_map(self):
        return MobiusMap(self.direction, self.point, 0, 1)


REAL_AXIS = Line(GaussianRational(0), GaussianRational(1))


def circle_to_real_axis_map(center_re, center_im, radius):
    """Moebius phi with phi(R u {inf}) = circle; exact rational data."""
    c = GaussianRational(Fraction(center_re), Fraction(center_im))
    r = GaussianRational(Fraction(radius))
    i = GaussianRational(0, 1)
    return MobiusMap(c + r, i * (c - r), 1, i)


def _compose_r_d(r: RatFunc, L):
    """(r * d/dt) applied to operator L = [c_0, c_1, ...] (ascending)."""
    out = [RatFunc.zero(TVARS) for _ in range(len(L) + 1)]
    for i, ci in enumerate(L):
        out[i] = out[i] + r * ci.diff("t")
        out[i + 1] = out[i + 1] + r * ci
    return out


def _subs_mobius(poly: MultiPoly, phi_rf: RatFunc) -> RatFunc:
    """p(phi(t)) as a rational function via Horner."""
    cs = poly.univar_coeffs("t")
    acc = RatFunc.const(0, TVARS)
    for c in reversed(cs):
        acc = acc * phi_rf + RatFunc.const(c, TVARS)
    return acc


def pullback(D: DiffOperator, phi: MobiusMap) -> DiffOperator:
    """Operator annihilating f o phi for every f annihilated by D."""
    k = D.order
    phi_rf = phi.as_ratfunc()
    r = RatFunc.const(1) / phi.derivative_ratfunc()
    # powers of the conjugated derivative M = (1/phi') d/dt
    Mpow = [[RatFunc.const(1, TVARS)]]
    for _ in range(k):
        Mpow.append(_compose_r_d(r, Mpow[-1]))
    out = [RatFunc.zero(TVARS) for _ in range(k + 1)]
    for i, p in enumerate(D.coeffs):
        aj = _subs_mobius(p, phi_rf)
        Mm = Mpow[k - i]
        for m, cm in enumerate(Mm):
            out[m] = out[m] + aj * cm
    return standard_form(list(reversed(out)))


def reflect(D: DiffOperator) -> DiffOperator:
    """Operator annihilating conj(f(conj(t))) for f in the kernel of D."""
    return standard_form([c.conj_coeffs() for c in D.coeffs])


def _rem_table(D: DiffOperator, upto):
    """rem(d^m mod D) for m = 0..upto, as k-vectors of RatFunc (ascending)."""
    k = D.order
    p0 = RatFunc(D.coeffs[0])
    minus_tail = [-(RatFunc(D.coeffs[k - j]) / p0) for j in range(k)]
    # d^k = sum_j minus_tail[j] d^j
    rows = [[RatFunc.const(1 if i == m else 0, TVARS) for i in range(k)]
            for m in range(min(k, upto + 1))]
    while len(rows) <= upto:
        prev = rows[-1]
        # apply d: derivative of coefficients + shift
        shifted = [RatFunc.zero(TVARS) for _ in range(k + 1)]
        for i, ci in enumerate(prev):
            shifted[i] = shifted[i] + ci.diff("t")
            shifted[i + 1] = shifted[i + 1] + ci
        top = shifted[k]
        new = [shifted[i] + top * minus_tail[i] for i in range(k)]
        rows.append(new)
    return rows


def lclm(D1: DiffOperator, D2: DiffOperator) -> DiffOperator:
    """Least common left multiple: minimal-order operator with both kernels."""
    k1, k2 = D1.order, D2.order
    top = k1 + k2
    r1 = _rem_table(D1, top)
    r2 = _rem_table(D2, top)
    for m in range(max(k1, k2), top + 1):
        # find q_0..q_{m-1} with d^m + sum q_i d^i killing both remainders
        rows = []
        rhs = []
        for j in range(k1):
            rows.append([r1[i][j] for i in range(m)])
            rhs.append(-r1[m][j])
        for j in range(k2):
            rows.append([r2[i][j] for i in range(m)])
            rhs.append(-r2[m][j])
        try:
            q = solve_linear(FieldMatrix(rows), rhs, verify=True)
        except NoSolution:
            continue
        coeffs = [RatFunc.const(1, TVARS)] + list(reversed(q))
        return standard_form(coeffs)
    raise NoSolution("no common left multiple up to order k1 + k2")


def symmetrize(D: DiffOperator, gamma=REAL_AXIS) -> DiffOperator:
    """Smallest operator containing ker D and its reflection across gamma.

    gamma is a Line or an exact circle given as a Moebius image of the real
    axis; the result has order at most 2 * ord(D).
    """
    if isinstance(gamma, MobiusMap):
        phi = gamma
    elif isinstance(gamma, Line):
        phi = gamma.to_real_axis_map()
    else:
        raise UnsupportedInput("gamma must be a Line or a MobiusMap onto the carrier")
    Dp = pullback(D, phi)
    Dr = reflect(Dp)
    if Dp == Dr:
        sym = Dp
    else:
        sym = lclm(Dp, Dr)
    return pullback(sym, phi.inverse())


@dataclass
class SlopeReport:
    affine: object
    samples: list = field(default_factory=list)   # (description, slope)

    @property
    def invariant_estimate(self):
        vals = [float(self.affine)] + [float(s) for _, s in self.samples]
        return max(vals)


def default_slope_samples():
    """Deterministic (phi, gamma) sample set for the invariant slope."""
    i = GaussianRational(0, 1)
    one = GaussianRational(1)
    samples = []
    ident = MobiusMap(1, 0, 0, 1)
    unit_circle = circle_to_real_axis_map(0, 0, 1)
    imag_line = Line(GaussianRational(0), i)
    for name, phi in [("id", ident),
                      ("shift+1", MobiusMap(1, 1, 0, 1)),
                      ("scale2", MobiusMap(2, 0, 0, 1)),
                      ("invert", MobiusMap(0, 1, 1, 0)),
                      ("rot-i", MobiusMap(i, 0, 0, one))]:
        for gname, gamma in [("R", REAL_AXIS), ("unit-circle", unit_circle),
                             ("imag-axis", imag_line)]:
            samples.append((f"{name}/{gname}", phi, gamma))
    return samples


def invariant_slope_sampled(D: DiffOperator, samples=None) -> SlopeReport:
    """Lower estimate of the invariant slope by finite sampling.

    Always at least the plain affine slope (identity pullback across R).
    """
    report = SlopeReport(affine=affine_slope(D))
    for name, phi, gamma in (samples if samples is not None
                             else default_slope_samples()):
        try:
            s = affine_slope(symmetrize(pullback(D, phi), gamma))
        except (NoSolution, ZeroDivisionError):
            continue
        report.samples.append((name, s))
    return report
