"""Scalar differential operators: reduction, slopes, pullbacks, symmetrization.

One relation search, a cyclic-vector reduction of a system X' = A X given
as polynomials (N, q) with A = N / q, gives both the operator of its first
component X[0] (`reduce_to_scalar`) and the lclm of an operator and its
reflection (`lclm`, from the realified system over Q, whose N and q are
built from the operator's coefficients directly).  It runs on polynomial
rows S_k = q^k R_k from the first unit row, and its one verified solve per
order is fraction-free, so the search builds no rational function.  It
scales q and N jointly to integer coefficients first, and the pullback
scales the Moebius entries and the operator's coefficients, so both run
over Z[t] or Z[i][t]; `standard_form` hands their results back over Q or
Q(i).

Operators are written D = p0(t) d^k + p1(t) d^{k-1} + ... + pk(t) with
polynomial coefficients over Q or Q(i).  Standard form: no common
polynomial factor, the normal form of `primitive_parts` (the
graded-lex leading coefficient of p0 a positive integer, joint content 1)
and each coefficient's terms stored in descending order; it is fixed by
the kernel, so results reached along different paths are equal.  The affine
slope is max_j ||p_j|| / ||p0|| in l1 coefficient norms; the invariant
slope is approached by sampling Moebius pullbacks combined with
symmetrization across circles and lines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce

from .errors import NoSolution, NumericOverflow, UnsupportedInput
from .linalg import check_solution, solve_linear
from .polynomials import (MultiPoly, float_overflow, integer_parts, primitive_parts,
                          straight_line)
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
        self.standard = False   # set by standard_form
        self._companion = None

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
        """y-vector (y, y', ..., y^(k-1)) derivative at t; top row from D=0.
        The rows of the companion matrix as a tuple of tuples of Python
        complex, with the floats of `-eval_complex(p_j) / eval_complex(p0)`
        in the last row, from a kernel compiled on the first call."""
        if self._companion is None:
            self._companion = _companion_kernel(self.coeffs)
        try:
            return self._companion(t)
        except OverflowError as exc:
            raise float_overflow(exc) from None
        except ZeroDivisionError:
            raise NumericOverflow(f"the leading coefficient rounds to 0 at t = {t}") from None

    def leading_roots(self):
        return self.coeffs[0].univar_roots("t")


def _companion_kernel(coeffs):
    """t -> the rows of the companion matrix of p0 d^k + ... + pk (k >= 1):
    a unit in the next column in each row above the last, which holds
    -p_j(t) / p0(t) at column k - j, each p_j(t) summed in the order and
    with the floats of `eval_complex`."""
    k = len(coeffs) - 1
    if k < 1:
        raise UnsupportedInput("an operator of order 0 has no companion system")
    if any(set(p.effective_vars()) - {"t"} for p in coeffs):
        raise UnsupportedInput("operator coefficients must be polynomials in t")
    sums = [(f"p{j}", "0j", [(c, [f"t ** {e}" for _, e in mono])
                             for c, mono in p.numeric_terms()])
            for j, p in enumerate(coeffs)]
    rows = ["(" + "".join("(1+0j), " if j == i + 1 else "0j, " for j in range(k)) + ")"
            for i in range(k - 1)]
    rows.append("(" + "".join(f"-p{j} / p0, " for j in range(k, 0, -1)) + ")")
    return straight_line(("t",), sums, [f"return ({''.join(r + ', ' for r in rows)})"])


def standard_form(coeffs, g=None) -> DiffOperator:
    """Normalize an operator with polynomial coefficients to its standard
    form, with the terms of each coefficient in descending order, so that
    the form does not depend on how the operator was computed; g is the
    coefficients' gcd up to a scalar, when known."""
    polys = [c.extend(TVARS) for c in coeffs]
    g = reduce(MultiPoly.gcd, polys) if g is None else g
    if not g.is_constant():
        polys = [p.divexact(g) for p in polys]
    _, polys = primitive_parts(polys)
    D = DiffOperator([p.over_field().descending() for p in polys])
    D.standard = True
    return D


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
    # one positive rational factor on q and every entry of N leaves A as it
    # is and brings the whole search to Z[t], where it stays; entries that
    # still carry variables of a derivation in degree 0 lose them
    _, (q, *entries) = integer_parts(p.shrink().extend(TVARS)
                                     for p in [q, *(e for row in N for e in row)])
    N = [entries[i * ell:(i + 1) * ell] for i in range(ell)]
    dq = q.diff("t")
    # by Gauss's lemma a quotient by the primitive u that exists over Q is
    # already over Z, so dividing out powers of u stays in Z[t]
    u = q.primitive()[1]
    zero = q.const_like(0)
    S = [q.const_like(1)] + [zero] * (ell - 1)
    cols = [S]
    for k in range(1, ell + 1):
        w = dq * (k - 1)
        # zero products are skipped: companion matrices are mostly zero
        S = [q * S[j].diff("t") - w * S[j] +
             sum((S[m] * N[m][j] for m in range(ell)
                  if not (S[m].is_zero() or N[m][j].is_zero())), zero)
             for j in range(ell)]
        rows = [[col[i] for col in cols] + [S[i]] for i in range(ell)]
        try:
            d, (y,) = solve_linear(rows, k, verify=False)
            # d and the y_j share the factors of the minors of the S_j:
            # dividing those out first keeps the check and the gcd in
            # standard_form small.  Most are powers of q, which exact
            # divisions remove faster than a gcd of the full polynomials
            if not u.is_constant():
                d, *y = _divide_out(u, [d, *y])
            g = reduce(MultiPoly.gcd, y, d)
            d, y = d.divexact(g), [e.divexact(g) for e in y]
            check_solution(rows, k, d, [y])
        except NoSolution:
            cols.append(S)
            continue
        # with gcd(d, y) = 1 the common factor divides q^k: for pi^a || q, a
        # common pi^(e > k a) would divide d and every y_j
        qk = q ** k
        polys = [d * qk] + [-y[j] * q ** j for j in reversed(range(k))]
        return standard_form(polys, reduce(MultiPoly.gcd, reversed(polys[1:]), qk))
    raise NoSolution("no scalar relation up to order ell")


def _divide_out(u, polys, limit=math.inf):
    """polys divided by the highest power u^v, v <= limit, dividing all."""
    while limit > 0:
        try:
            polys, limit = [p.divexact(u) for p in polys], limit - 1
        except ValueError:
            break
    return polys


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
IDENTITY = REAL_AXIS = MobiusMap(1, 0, 0, 1)


def circle_to_real_axis_map(center_re, center_im, radius):
    """Moebius phi with phi(R u {inf}) = circle; exact rational data."""
    c = GaussianRational(Fraction(center_re), Fraction(center_im))
    r = GaussianRational(Fraction(radius))
    i = GaussianRational(0, 1)
    return MobiusMap(c + r, i * (c - r), 1, i)


def _next_power(den: MultiPoly, j, E):
    """E_{j+1} from E_j, ascending in d, for (den^2 d)^j = den^j E_j: den^2 d
    (den^j e d^m) = den^(j+1) ((j den' e + den e') d^m + den e d^(m+1))."""
    dd = den.diff("t") * j
    out = [den.const_like(0)] * (len(E) + 1)
    for m, e in enumerate(E):
        out[m] = out[m] + dd * e + den * e.diff("t")
        out[m + 1] = out[m + 1] + den * e
    return out


def pullback(D: DiffOperator, phi: MobiusMap) -> DiffOperator:
    """Operator annihilating f o phi for every f annihilated by D.

    For phi = (at + b)/(ct + d), M = (1/phi') d/dt = (ct + d)^2 / det d/dt,
    (det M)^j = (ct + d)^j E_j and H_i = p_i(phi) (ct + d)^(n_i), n_i = deg p_i,
    with E_j and H_i polynomial over Z[t] or Z[i][t] (phi's entries and D's
    coefficients are each scaled to integers jointly).  With s_i = k - i - n_i
    and s = min s_i, det^k (ct + d)^-s times the operator is the polynomial
    sum of det^i (ct + d)^(s_i - s) H_i E_(k-i).  For coprime p_i (D in
    standard form) only a power (ct + d)^v can divide all its coefficients:
    elsewhere the change of variables is invertible, so a common root u would
    make every p_i vanish at phi(u).  v is at most the exact valuations s_k - s
    of the d^0 coefficient (p_k != 0) and s_0 + k - s of the d^k one (N - n_k
    and N - n_0 + 2k times (ct + d)^N, N = max n_i): exact divisions, no gcd.
    """
    if not D.standard:
        D = standard_form(D.coeffs)
    k = D.order
    t = MultiPoly.var("t")
    s, (num, den) = integer_parts([t * phi.a + phi.b, t * phi.c + phi.d])
    det = (phi.a * phi.d - phi.b * phi.c) / (s * s)
    _, coeffs = integer_parts(D.coeffs)
    one, zero = den.const_like(1), den.const_like(0)
    E = [[one]]
    for j in range(k):
        E.append(_next_power(den, j, E[-1]))
    shift = [k - i - p.total_degree() for i, p in enumerate(coeffs)]   # inf for p_i = 0
    low = min(shift)
    den_pow = [den ** e for e in range(k + 1 + max(p.total_degree() for p in coeffs))]
    out = [zero] * (k + 1)
    det_i = GaussianRational(1)
    for i, p in enumerate(coeffs):
        if not p.is_zero():
            # homogeneous Horner: sum_j c_j num^j den^(n_i - j) = H_i
            aj = zero
            cs = p.univar_coeffs("t")
            for j in reversed(range(len(cs))):
                aj = aj * num + den_pow[len(cs) - 1 - j] * cs[j]
            aj = aj * det_i * den_pow[shift[i] - low]
            for m, cm in enumerate(E[k - i]):
                out[m] = out[m] + aj * cm
        det_i = det_i * det
    if not den.is_constant():
        out = _divide_out(den.primitive()[1], out, min(shift[k], shift[0] + k) - low)
    return standard_form(list(reversed(out)), one)


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
    u = (f + g)/2 gives the lclm.  A real D is its own reflection, so its
    own lclm, with no search.  gcd(p0, conj p0) = gcd(Re p0, Im p0), taken over
    Q: a common factor of either pair divides both polynomials of the other.
    """
    if not any(c.has_gaussian() for c in D.coeffs):
        return D if D.standard else standard_form(D.coeffs)
    k, n = D.order, 2 * D.order
    p0, p0c = D.coeffs[0], D.coeffs[0].conj_coeffs()
    h = p0c.divexact(MultiPoly.gcd(p0 + p0c, (p0 - p0c) * GaussianRational(0, 1)))
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


def symmetrize(D: DiffOperator, gamma=REAL_AXIS, phi=IDENTITY) -> DiffOperator:
    """Smallest operator containing ker(D o phi) and its reflection across
    gamma, pullback(lclm(pullback(D, phi o gamma)), gamma^-1): the standard
    form is fixed by the kernel, so one pullback by phi o gamma is the two.

    gamma is a line or an exact circle, given as the MobiusMap that sends
    the real axis onto it; the result has order at most 2 * ord(D).
    """
    if not isinstance(gamma, MobiusMap):
        raise UnsupportedInput("gamma must be a MobiusMap onto the carrier")
    L = lclm(pullback(D, phi.compose(gamma)))
    identity = not (gamma.b or gamma.c) and gamma.a == gamma.d
    return L if identity else pullback(L, gamma.inverse())


@dataclass
class SlopeReport:
    affine: object
    samples: list = field(default_factory=list)   # (description, slope)

    @property
    def invariant_estimate(self):
        """The largest slope as a float; NumericOverflow when a slope is
        beyond the float range."""
        try:
            vals = [float(self.affine)] + [float(s) for _, s in self.samples]
        except OverflowError as exc:
            raise NumericOverflow(f"slope exceeds the float range: {exc}") from None
        return max(vals)


def default_slope_samples():
    """Deterministic (phi, gamma) sample set for the invariant slope."""
    i = GaussianRational(0, 1)
    samples = []
    unit_circle = circle_to_real_axis_map(0, 0, 1)
    imag_line = MobiusMap(i, 0, 0, 1)
    for name, phi in [("id", IDENTITY),
                      ("shift+1", MobiusMap(1, 1, 0, 1)),
                      ("scale2", MobiusMap(2, 0, 0, 1)),
                      ("invert", MobiusMap(0, 1, 1, 0)),
                      ("rot-i", MobiusMap(i, 0, 0, 1))]:
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
    D = D if D.standard else standard_form(D.coeffs)   # once, not in each pullback
    for name, phi, gamma in default_slope_samples():
        try:
            s = affine_slope(symmetrize(D, gamma, phi))
        except (NoSolution, ZeroDivisionError):
            continue
        report.samples.append((name, s))
    return report
