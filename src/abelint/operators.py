"""Scalar differential operators: reduction, slopes, pullbacks, symmetrization.

One relation search, a cyclic-vector reduction of a system X' = A X given
as polynomials (N, q) with A = N / q, gives both the operator of its first
component X[0] (`reduce_to_scalar`) and the lclm of an operator and its
reflection (`lclm`, from the realified system over Q, whose N and q are
built from the operator's coefficients directly).  It runs on polynomial
rows S_k = q^k R_k from the first unit row, and its one verified solve per
order is fraction-free, so the search builds no rational function.

Operators are written D = p0(t) d^k + p1(t) d^{k-1} + ... + pk(t) with
polynomial coefficients over Q or Q(i).  Standard form: no common
polynomial factor, the normal form of `primitive_parts` (the
graded-lex leading coefficient of p0 a positive integer, joint content 1)
and each coefficient's terms stored in descending order.  The affine slope
is max_j ||p_j|| / ||p0|| in l1 coefficient norms; the invariant slope is
approached by sampling Moebius pullbacks combined with symmetrization across
circles and lines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce

from .errors import NoSolution, UnsupportedInput
from .linalg import check_solution, solve_linear
from .polynomials import MultiPoly, primitive_parts
from .qi import GaussianRational
from .ratfunc import ratfunc_lcm_den

TVARS = ("t",)


class DiffOperator:
    """p0 d^k + ... + pk with MultiPoly coefficients in t (descending order)."""

    def __init__(self, coeffs):
        coeffs = [c if isinstance(c, MultiPoly) else MultiPoly.const(c, TVARS)
                  for c in coeffs]
        coeffs = [c.shrink().extend(TVARS) for c in coeffs]
        while coeffs and coeffs[0].is_zero():
            coeffs = coeffs[1:]
        if not coeffs:
            raise ValueError("zero operator")
        self.coeffs = coeffs

    @property
    def order(self):
        return len(self.coeffs) - 1

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
        return self.coeffs[0].univar_roots("t")


def standard_form(coeffs) -> DiffOperator:
    """Normalize an operator with polynomial coefficients to its standard
    form, with the terms of each coefficient in descending order, so that
    the form does not depend on how the operator was computed."""
    polys = [c.extend(TVARS) for c in coeffs]
    g = reduce(MultiPoly.gcd, polys)
    if not g.is_constant():
        polys = [p.divexact(g) for p in polys]
    _, polys = primitive_parts(polys)
    return DiffOperator([p.descending() for p in polys])


def reduce_to_scalar(ode) -> DiffOperator:
    """Scalar operator annihilating X[0] for X' = A X."""
    q = ratfunc_lcm_den(ode.A.flatten()).extend(TVARS)
    N = [[e.cleared(q) for e in row] for row in ode.A.data]
    return _first_relation(N, q)


def _first_relation(N, q) -> DiffOperator:
    """With R_0 = e0 and R_{k+1} = R_k' + R_k A for A = N / q, the first
    k <= ell with R_k = sum_{j<k} c_j R_j over Q(t) gives D = d^k - sum c_j
    d^j in standard form.

    The search keeps polynomial rows S_k = q^k R_k,

      S_0 = e0,  S_{k+1} = q S_k' - k q' S_k + S_k N,

    so no rational function arises at all: the fraction-free solve
    e S_k = sum_j y_j S_j, e its last pivot, gives c_j = y_j / (e q^(k-j)),
    and D is proportional to e q^k d^k - sum_j y_j q^j d^j.
    """
    ell = len(N)
    dq = q.diff("t")
    S = [MultiPoly.const(1 if j == 0 else 0, TVARS) for j in range(ell)]
    cols = [S]
    for k in range(1, ell + 1):
        w = dq * (k - 1)
        # zero products are skipped: companion matrices are mostly zero
        S = [q * S[j].diff("t") - w * S[j] +
             sum((S[m] * N[m][j] for m in range(ell)
                  if not (S[m].is_zero() or N[m][j].is_zero())),
                 MultiPoly.zero(TVARS))
             for j in range(ell)]
        rows = [[col[i] for col in cols] + [S[i]] for i in range(ell)]
        try:
            d, (y,) = solve_linear(rows, k, verify=False)
            # d and the y_j share the factors of the minors of the S_j, powers
            # of q among them: dividing those out first keeps the check and
            # the gcd in standard_form small
            g = reduce(MultiPoly.gcd, y, d)
            d, y = d.divexact(g), [e.divexact(g) for e in y]
            check_solution(rows, k, d, [y])
        except NoSolution:
            cols.append(S)
            continue
        return standard_form([d * q ** k] + [-y[j] * q ** j for j in reversed(range(k))])
    raise NoSolution("no scalar relation up to order ell")


def affine_slope(D: DiffOperator):
    """max_j ||p_j|| / ||p0||; exact Fraction for rational operators."""
    n0 = D.coeffs[0].l1_norm()
    best = Fraction(0)
    for c in D.coeffs[1:]:
        v = c.l1_norm() / n0
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

    def __repr__(self):
        return f"MobiusMap({self.a}, {self.b}, {self.c}, {self.d})"


# the line point + direction * R is the image of R under
# MobiusMap(direction, point, 0, 1)
REAL_AXIS = MobiusMap(1, 0, 0, 1)


def circle_to_real_axis_map(center_re, center_im, radius):
    """Moebius phi with phi(R u {inf}) = circle; exact rational data."""
    c = GaussianRational(Fraction(center_re), Fraction(center_im))
    r = GaussianRational(Fraction(radius))
    i = GaussianRational(0, 1)
    return MobiusMap(c + r, i * (c - r), 1, i)


def _compose_r_d(r: MultiPoly, L):
    """(r * d/dt) applied to operator L = [c_0, c_1, ...] (ascending)."""
    out = [MultiPoly.zero(TVARS) for _ in range(len(L) + 1)]
    for i, ci in enumerate(L):
        out[i] = out[i] + r * ci.diff("t")
        out[i + 1] = out[i + 1] + r * ci
    return out


def pullback(D: DiffOperator, phi: MobiusMap) -> DiffOperator:
    """Operator annihilating f o phi for every f annihilated by D.

    For phi = (at + b)/(ct + d), M = (1/phi') d/dt has the polynomial
    coefficient (ct + d)^2 / det, and p(phi) (ct + d)^N is a polynomial for
    N >= deg p, so the pulled-back operator times (ct + d)^N, N the largest
    coefficient degree, is built from polynomials alone.
    """
    k = D.order
    t = MultiPoly.var("t")
    num = t * phi.a + phi.b
    den = t * phi.c + phi.d
    r = den * den * (1 / (phi.a * phi.d - phi.b * phi.c))
    # powers of the conjugated derivative M = (1/phi') d/dt
    Mpow = [[MultiPoly.const(1, TVARS)]]
    for _ in range(k):
        Mpow.append(_compose_r_d(r, Mpow[-1]))
    N = max(p.total_degree() for p in D.coeffs)
    den_pow = [MultiPoly.const(1, TVARS)]
    for _ in range(N):
        den_pow.append(den_pow[-1] * den)
    out = [MultiPoly.zero(TVARS) for _ in range(k + 1)]
    for i, p in enumerate(D.coeffs):
        # homogeneous Horner: sum_j c_j num^j den^(N - j) = p(phi) den^N
        aj = MultiPoly.zero(TVARS)
        cs = p.univar_coeffs("t")
        for j in reversed(range(len(cs))):
            aj = aj * num + den_pow[N - j] * cs[j]
        for m, cm in enumerate(Mpow[k - i]):
            out[m] = out[m] + aj * cm
    return standard_form(list(reversed(out)))


def reflect(D: DiffOperator) -> DiffOperator:
    """Operator annihilating conj(f(conj(t))) for f in the kernel of D."""
    return standard_form([c.conj_coeffs() for c in D.coeffs])


def lclm(D: DiffOperator) -> DiffOperator:
    """lclm(D, reflect(D)), the minimal operator annihilating f + g for f in
    ker D and g in ker reflect(D), found over Q(t).

    With f = u + i v, the companion system of D is a real system of order 2k
    for (u, v).  For h = conj(p0) / gcd(p0, conj(p0)) and q = p0 h, the lcm
    of p0 and conj(p0), the system is N / q with q on the superdiagonals of
    the two k-blocks and, for c_j = -p_{k-j} h = a_j + i b_j, last rows
    (a | -b) and (b | a); the relation search from the row that selects
    u = (f + g)/2 gives the lclm.  A real D decouples and comes back as
    itself.
    """
    k, n = D.order, 2 * D.order
    p0, p0c = D.coeffs[0], D.coeffs[0].conj_coeffs()
    h = p0c.divexact(MultiPoly.gcd(p0, p0c))
    q = p0 * h
    N = [[MultiPoly.zero(TVARS) for _ in range(n)] for _ in range(n)]
    for i in range(k - 1):
        N[i][i + 1] = N[k + i][k + i + 1] = q
    for j in range(k):
        c = -D.coeffs[k - j] * h
        cc = c.conj_coeffs()
        a, b = (c + cc) * Fraction(1, 2), (cc - c) * GaussianRational(0, Fraction(1, 2))
        N[k - 1][j], N[k - 1][k + j] = a, -b
        N[n - 1][j], N[n - 1][k + j] = b, a
    return _first_relation(N, q)


def symmetrize(D: DiffOperator, gamma=REAL_AXIS) -> DiffOperator:
    """Smallest operator containing ker D and its reflection across gamma.

    gamma is a line or an exact circle, given as the MobiusMap that sends
    the real axis onto it; the result has order at most 2 * ord(D).
    """
    if not isinstance(gamma, MobiusMap):
        raise UnsupportedInput("gamma must be a MobiusMap onto the carrier")
    return pullback(lclm(pullback(D, gamma)), gamma.inverse())


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
    imag_line = MobiusMap(i, 0, 0, 1)
    for name, phi in [("id", ident),
                      ("shift+1", MobiusMap(1, 1, 0, 1)),
                      ("scale2", MobiusMap(2, 0, 0, 1)),
                      ("invert", MobiusMap(0, 1, 1, 0)),
                      ("rot-i", MobiusMap(i, 0, 0, one))]:
        for gname, gamma in [("R", REAL_AXIS), ("unit-circle", unit_circle),
                             ("imag-axis", imag_line)]:
            samples.append((f"{name}/{gname}", phi, gamma))
    return samples


def invariant_slope_sampled(D: DiffOperator) -> SlopeReport:
    """Lower estimate of the invariant slope by finite sampling over
    `default_slope_samples`.

    Always at least the plain affine slope (identity pullback across R).
    """
    report = SlopeReport(affine=affine_slope(D))
    for name, phi, gamma in default_slope_samples():
        try:
            s = affine_slope(symmetrize(pullback(D, phi), gamma))
        except (NoSolution, ZeroDivisionError):
            continue
        report.samples.append((name, s))
    return report
