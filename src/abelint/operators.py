"""Scalar differential operators: reduction, slopes, pullbacks, symmetrization.

One relation search, a cyclic-vector reduction of a system X' = A X given
as polynomials (N, q) with A = N / q from a constant start row, gives the
operator of the first component X[0] (`reduce_to_scalar`), the lclm of an
operator and its reflection (`lclm`, from the realified system over Q,
whose N and q are built from the operator's coefficients directly) and
the lclm of two operators (`lclm(D, E)`, from the direct sum of their
companion systems and the row that selects y1 + y2).  It runs on
polynomial rows S_k = q^k R_k, and its one verified solve per order is
fraction-free, so the search builds no rational function.  It scales q
and N jointly to integer coefficients first, and the pullback scales the
Moebius entries and the operator's coefficients, so both run over Z[t] or
Z[i][t], on dense coefficient lists (sympy's `dup` routines, through
`polynomials`): an operator's MultiPoly coefficients become lists where it
enters, and `standard_form` hands the results back as MultiPoly over Q or
Q(i).  A refuted order costs one rank modulo a prime (`linalg`).

Symmetrization across a circle or line gamma in the chart phi is, for a
real D, the chart identity symmetrize(D, gamma, phi) = pullback(lclm(D,
pullback(D, rho)), phi) with rho = conj(phi) o conj(gamma) o gamma^-1 o
phi^-1: when rho is real the lclm runs over Z[t] in D's own chart, and
the samples of one invariant slope that share rho share it.  A Gaussian D
or a complex rho takes the definition through the chart phi o gamma, whose
realified search also runs over Z[t], where the direct sum would run over
Z[i][t].

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
from .linalg import check_dense, solve_dense
from .polynomials import (ExactQuotientFailed, MultiPoly, dense_exquo, dense_gcd, dense_mul,
                          dup_add, dup_diff, dup_mul_ground, dup_neg, dup_pow, dup_primitive,
                          dup_sub, evaluation_error, from_dense, integer_parts, matrix_source,
                          primitive_parts, straight_line, straight_lines, to_dense, unit_scale)
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
        self._stage = None

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
            program, cells = _companion_lines(self.coeffs)
            self._companion = straight_line(("z",), program, [f"return {matrix_source(cells)}"])
        try:
            return self._companion(t)
        except (OverflowError, ZeroDivisionError) as exc:
            raise self.failure(exc, t) from None

    def stage_lines(self):
        """(program, cells, failure) of `companion_rhs` at z, for a step to
        write in: the cells of the structural zeros and of the entries of
        zero coefficients are None, and their lines are left out; built on
        the first call."""
        if self._stage is None:
            self._stage = (*_companion_lines(self.coeffs, skip_zeros=True), self.failure)
        return self._stage

    @staticmethod
    def failure(exc, t):
        return evaluation_error(exc, t, "the leading coefficient")

    def leading_roots(self):
        return self.coeffs[0].univar_roots("t")


def _companion_lines(coeffs, skip_zeros=False):
    """(StraightLine, cells) of the companion matrix at z of p0 d^k + ...
    + pk (k >= 1): a unit (1+0j) in the next column in each row above the
    last, which holds a{k-1}_{k-j} = -p_j(z) / p0(z) at column k - j, each
    p_j(z) summed in the order and with the floats of `eval_complex`.  cells
    holds the source of each entry; skip_zeros makes it None for the zeros
    above the last row and the entries of zero coefficients, and leaves
    out their lines."""
    k = len(coeffs) - 1
    if k < 1:
        raise UnsupportedInput("an operator of order 0 has no companion system")
    if any(set(p.effective_vars()) - {"t"} for p in coeffs):
        raise UnsupportedInput("operator coefficients must be polynomials in t")
    live = [j for j in range(k, 0, -1) if not (skip_zeros and coeffs[j].is_zero())]
    sums = [(f"p{j}", 0j, [(c, [f"z ** {e}" for _, e in mono])
                           for c, mono in coeffs[j].numeric_terms()])
            for j in [0, *sorted(live)]]
    zero = None if skip_zeros else "0j"
    cells = [tuple("(1+0j)" if j == i + 1 else zero for j in range(k)) for i in range(k - 1)]
    cells.append(tuple(f"a{k - 1}_{k - j}" if j in live else None for j in range(k, 0, -1)))
    quotients = [(f"a{k - 1}_{k - j}", True, f"p{j}", "p0") for j in live]
    return straight_lines((), sums, quotients), tuple(cells)


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
    """Scalar operator annihilating X[0] for X' = A X, for A(t) with entries
    in t alone; an entry in another variable raises UnsupportedInput."""
    entries = ode.A.flatten()
    for e in entries:
        extra = set(e.num.effective_vars()) | set(e.den.effective_vars())
        if extra - set(TVARS):
            raise UnsupportedInput(f"A(t) has an entry in {sorted(extra - set(TVARS))}: "
                                   "the entries of a system must be univariate in t")
    q = ratfunc_lcm_den(entries).extend(TVARS)
    N = [[e.cleared(q) for e in row] for row in ode.A.data]
    return _first_relation(N, q)


def _first_relation(N, q, start=None) -> DiffOperator:
    """With R_0 = start, a constant row of integers (e0 by default), and
    R_{k+1} = R_k' + R_k A for A = N / q, the first k <= ell with R_k =
    sum_{j<k} c_j R_j over Q(t) gives D = d^k - sum c_j d^j in standard
    form: R_k X = (R_0 X)^(k) for X' = A X, so D is the minimal operator
    annihilating R_0 X for every solution X.  e0 gives the operator of X[0]
    (`reduce_to_scalar`, and the realified `lclm`, whose X[0] is
    (f + g)/2); the row that selects y1 + y2 in a direct sum gives the lclm
    of the summands' operators.

    The search keeps polynomial rows S_k = q^k R_k,

      S_0 = R_0,  S_{k+1} = q S_k' - k q' S_k + S_k N,

    so no rational function arises at all: the fraction-free solve
    e S_k = sum_j y_j S_j, e its last pivot, gives c_j = y_j / (e q^(k-j)),
    and D is proportional to e q^k d^k - sum_j y_j q^j d^j.  From
    `integer_parts` to `standard_form` every polynomial is a dense
    coefficient list over Z or Z[i] (`linalg.solve_dense`).
    """
    ell = len(N)
    # one positive rational factor on q and every entry of N leaves A as it
    # is and brings the whole search to Z[t], where it stays; entries that
    # still carry variables of a derivation in degree 0 lose them
    _, parts = integer_parts(p.shrink().extend(TVARS)
                             for p in [q, *(e for row in N for e in row)])
    (q, *entries), K = to_dense(parts)
    N = [entries[i * ell:(i + 1) * ell] for i in range(ell)]
    dq = dup_diff(q, 1, K)
    # by Gauss's lemma a quotient by the primitive u that exists over Q (or
    # Q(i)) is already over Z (or Z[i]), so dividing out powers of u stays
    # in Z[t] (or Z[i][t])
    u = dup_primitive(q, K)[1]
    S = ([[K.one]] + [[]] * (ell - 1) if start is None
         else [[K(c)] if c else [] for c in start])
    cols = [S]
    for k in range(1, ell + 1):
        w = dup_mul_ground(dq, K(k - 1), K)
        # zero products are skipped: companion matrices are mostly zero
        S_next = []
        for j in range(ell):
            e = dup_sub(dense_mul(q, dup_diff(S[j], 1, K), K), dense_mul(w, S[j], K), K)
            for m in range(ell):
                if S[m] and N[m][j]:
                    e = dup_add(e, dense_mul(S[m], N[m][j], K), K)
            S_next.append(e)
        S = S_next
        rows = [[col[i] for col in cols] + [S[i]] for i in range(ell)]
        try:
            d, (y,) = solve_dense(rows, k, K)
            # d and the y_j share the factors of the minors of the S_j:
            # dividing those out first keeps the check and the gcd in
            # standard_form small.  Most are powers of q, which exact
            # divisions remove faster than a gcd of the full polynomials
            if len(u) > 1:
                d, *y = _strip(u, [d, *y], K)
            g = reduce(lambda a, b: dense_gcd(a, b, K), y, d)
            d, y = dense_exquo(d, g, K), [dense_exquo(e, g, K) for e in y]
            check_dense(rows, k, d, [y], K)
        except NoSolution:
            cols.append(S)
            continue
        # with gcd(d, y) = 1 the common factor divides q^k: for pi^a || q, a
        # common pi^(e > k a) would divide d and every y_j
        qpow = [[K.one]]
        for _ in range(k):
            qpow.append(dense_mul(qpow[-1], q, K))
        polys = [dense_mul(d, qpow[k], K)] + [dup_neg(dense_mul(y[j], qpow[j], K), K)
                                             for j in reversed(range(k))]
        g = reduce(lambda a, b: dense_gcd(a, b, K), reversed(polys[1:]), qpow[k])
        return standard_form([from_dense(dense_exquo(p, g, K), K) for p in polys],
                             MultiPoly.const(1, TVARS))
    raise NoSolution("no scalar relation up to order ell")


def _strip(u, polys, K, limit=math.inf):
    """The dense lists polys over K divided by the highest power u^v, v <=
    limit, dividing all, for u primitive over Z or Z[i].  v is found on
    the nonzero polynomial of least degree, which bounds it; each other one
    is then divided once, by u^v, and a failure there starts over below v.
    Z[t] and Z[i][t] are unique factorization domains, so by Gauss's lemma
    a quotient by the primitive u that exists over Q or Q(i) is already
    over Z or Z[i]: no division needs the field."""
    live = [i for i, p in enumerate(polys) if p]
    if not live:
        return polys
    first = min(live, key=lambda i: len(polys[i]))
    v, q = 0, polys[first]
    while v < limit:
        try:
            q = dense_exquo(q, u, K)
        except ExactQuotientFailed:
            break
        v += 1
    if v == 0:
        return polys
    uv = dup_pow(u, v, K)
    try:
        return [q if i == first else dense_exquo(p, uv, K) for i, p in enumerate(polys)]
    except ExactQuotientFailed:
        return _strip(u, polys, K, v - 1)


def affine_slope(D: DiffOperator):
    """max_j ||p_j|| / ||p0||; exact Fraction for rational operators.  When
    a norm leaves the float range, which the float sums of Q(i) norms can,
    the norms are taken again of the coefficients all scaled by one power
    of two, `unit_scale` of their coefficients, which leaves every ratio as
    it is."""
    try:
        return _slope(D.coeffs)
    except NumericOverflow:
        scale = unit_scale([c for p in D.coeffs for c in p.terms.values()])
        return _slope([p * scale for p in D.coeffs])


def _slope(coeffs):
    """max_j ||p_j|| / ||p0|| for coeffs [p0, p1, ...]; NumericOverflow when
    a norm or the slope leaves the float range, or the slope rounds to 0
    while some p_j is not 0."""
    n0 = coeffs[0].l1_norm()
    best = Fraction(0)
    try:
        for c in coeffs[1:]:
            v = c.l1_norm() / n0
            if v > best:
                best = v
    except (ZeroDivisionError, OverflowError):
        best = math.inf
    if best == math.inf or not best and any(not c.is_zero() for c in coeffs[1:]):
        raise NumericOverflow("the affine slope is beyond the float range")
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


def _gaussian_integers(m: MobiusMap):
    """m's entries (a, b, c, d) times the lcm of their denominators, as
    Gaussian integers (re, im)."""
    parts = [q for e in (m.a, m.b, m.c, m.d) for q in (e.re, e.im)]
    den = math.lcm(*(q.denominator for q in parts))
    ints = [q.numerator * (den // q.denominator) for q in parts]
    return list(zip(ints[::2], ints[1::2]))


def _matmul(m, n):
    """The product of two 2x2 matrices (a, b, c, d) of Gaussian integers."""
    def dot(x, y, z, w):
        return (x[0] * y[0] - x[1] * y[1] + z[0] * w[0] - z[1] * w[1],
                x[0] * y[1] + x[1] * y[0] + z[0] * w[1] + z[1] * w[0])
    a, b, c, d = m
    e, f, g, h = n
    return [dot(a, e, b, g), dot(a, f, b, h), dot(c, e, d, g), dot(c, f, d, h)]


def _reflection_map(gamma: MobiusMap, phi: MobiusMap):
    """rho = conj(phi) o conj(gamma) o gamma^-1 o phi^-1, conj conjugating a
    map's entries, as real integer entries (a, b, c, d) with gcd 1 and the
    first nonzero one positive, so equal maps give equal tuples; None when
    rho is not real up to a scalar.  The entries are scaled to Gaussian
    integers and the adjugate (d, -b, -c, a) inverts a map up to a scalar,
    so rho is three integer 2x2 products and one gcd."""
    def conj(m):
        return [(x, -y) for x, y in m]

    def adjugate(m):
        a, (b0, b1), (c0, c1), d = m
        return [d, (-b0, -b1), (-c0, -c1), a]

    g, p = _gaussian_integers(gamma), _gaussian_integers(phi)
    rho = _matmul(_matmul(conj(p), conj(g)), _matmul(adjugate(g), adjugate(p)))
    # times the conjugate of the first nonzero entry, which becomes positive
    x, y = next(e for e in rho if e != (0, 0))
    scaled = [(u * x + v * y, v * x - u * y) for u, v in rho]
    if any(im for _, im in scaled):
        return None
    g = math.gcd(*(re for re, _ in scaled))
    return tuple(re // g for re, _ in scaled)


def circle_to_real_axis_map(center_re, center_im, radius):
    """Moebius phi with phi(R u {inf}) = circle; exact rational data."""
    c = GaussianRational(Fraction(center_re), Fraction(center_im))
    r = GaussianRational(Fraction(radius))
    i = GaussianRational(0, 1)
    return MobiusMap(c + r, i * (c - r), 1, i)


def _next_power(den, j, E, K):
    """E_{j+1} from E_j, ascending in d, for (den^2 d)^j = den^j E_j: den^2 d
    (den^j e d^m) = den^(j+1) ((j den' e + den e') d^m + den e d^(m+1)),
    on dense lists over K."""
    dd = dup_mul_ground(dup_diff(den, 1, K), K(j), K)
    out = [[] for _ in range(len(E) + 1)]
    for m, e in enumerate(E):
        step = dup_add(dense_mul(dd, e, K), dense_mul(den, dup_diff(e, 1, K), K), K)
        out[m] = dup_add(out[m], step, K)
        out[m + 1] = dup_add(out[m + 1], dense_mul(den, e, K), K)
    return out


def _degree(f):
    return len(f) - 1 if f else -math.inf


def pullback(D: DiffOperator, phi: MobiusMap) -> DiffOperator:
    """Operator annihilating f o phi for every f annihilated by D.

    For phi = (at + b)/(ct + d), M = (1/phi') d/dt = (ct + d)^2 / det d/dt,
    (det M)^j = (ct + d)^j E_j and H_i = p_i(phi) (ct + d)^(n_i), n_i = deg p_i,
    with E_j and H_i polynomial over Z[t] or Z[i][t] (phi's entries and D's
    coefficients are each scaled to integers jointly), kept as dense
    coefficient lists.  With s_i = k - i - n_i and s = min s_i, det^k
    (ct + d)^-s times the operator is the polynomial sum of det^i
    (ct + d)^(s_i - s) H_i E_(k-i).  For coprime p_i (D in standard form)
    only a power (ct + d)^v can divide all its coefficients: elsewhere the
    change of variables is invertible, so a common root u would make every
    p_i vanish at phi(u).  v is at most the exact valuations s_k - s of the
    d^0 coefficient (p_k != 0) and s_0 + k - s of the d^k one (N - n_k and
    N - n_0 + 2k times (ct + d)^N, N = max n_i): exact divisions, no gcd.
    Zero coefficients of the p_i are skipped in the Horner sums, and a
    factor that is a monomial, such as a power of den = t, is a shift.
    """
    if not D.standard:
        D = standard_form(D.coeffs)
    k = D.order
    t = MultiPoly.var("t")
    _, (num, den) = integer_parts([t * phi.a + phi.b, t * phi.c + phi.d])
    _, coeffs = integer_parts(D.coeffs)
    (num, den, *coeffs), K = to_dense([num, den, *coeffs])
    # num = a t + b and den = c t + d hold phi's entries scaled jointly to
    # integers of K, and det is theirs
    (a, b), (c, d) = ([K.zero] * (2 - len(f)) + f for f in (num, den))
    det = a * d - b * c
    E = [[[K.one]]]
    for j in range(k):
        E.append(_next_power(den, j, E[-1], K))
    shift = [k - i - _degree(p) for i, p in enumerate(coeffs)]   # inf for p_i = 0
    low = min(shift)
    den_pow = [[K.one]]
    for _ in range(k + max(_degree(p) for p in coeffs)):
        den_pow.append(dense_mul(den_pow[-1], den, K))
    out = [[] for _ in range(k + 1)]
    det_i = K.one
    for i, p in enumerate(coeffs):
        if p:
            # homogeneous Horner: sum_j c_j num^j den^(n_i - j) = H_i, the
            # c_j from the highest degree down
            aj = []
            for e, c in enumerate(p):
                aj = dense_mul(aj, num, K)
                if c:
                    aj = dup_add(aj, dup_mul_ground(den_pow[e], c, K), K)
            aj = dense_mul(dup_mul_ground(aj, det_i, K), den_pow[shift[i] - low], K)
            for m, cm in enumerate(E[k - i]):
                out[m] = dup_add(out[m], dense_mul(aj, cm, K), K)
        det_i = det_i * det
    if len(den) > 1:
        out = _strip(dup_primitive(den, K)[1], out, K, min(shift[k], shift[0] + k) - low)
    return standard_form([from_dense(p, K) for p in reversed(out)], MultiPoly.const(1, TVARS))


def reflect(D: DiffOperator) -> DiffOperator:
    """Operator annihilating conj(f(conj(t))) for f in the kernel of D."""
    return standard_form([c.conj_coeffs() for c in D.coeffs])


def lclm(D: DiffOperator, E: DiffOperator = None) -> DiffOperator:
    """lclm(D, E), the minimal operator annihilating f + g for f in ker D and
    g in ker E, with E = reflect(D) by default; one relation search, over
    Z[t] for real D and E.

    For a given E (`symmetrize` passes E = D o rho, real D and rho), the
    search runs on the direct sum of the companion systems of D and E,
    N / q with q = lcm(p0, r0) for the leading coefficients p0 of D and r0
    of E, from the row e0 + e_k that selects y1 + y2.  An E equal to D is
    its own lclm, with no search.

    For E = reflect(D) it runs on the realified system, whose coefficients
    are rational even for a Gaussian D: with f = u + i v, the companion
    system of D is a real system of order 2k for (u, v).  For h = conj(p0) /
    gcd(p0, conj(p0)) and q = p0 h, the lcm of p0 and conj(p0), the system
    is N / q with q on the superdiagonals of the two k-blocks and, for c_j =
    -p_{k-j} h = a_j + i b_j, last rows (a | -b) and (b | a); the search
    from e0, which selects u = (f + g)/2, gives the lclm.  A real D is its
    own reflection, so its own lclm, with no search.  gcd(p0, conj p0) =
    gcd(Re p0, Im p0), taken over Q: a common factor of either pair divides
    both polynomials of the other.
    """
    if E is not None:
        D, E = (X if X.standard else standard_form(X.coeffs) for X in (D, E))
        return D if E == D else _direct_sum_lclm(D, E)
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


def _direct_sum_lclm(D, E):
    """The relation search for lclm(D, E) on the direct sum of the two
    companion systems: block i has q on its superdiagonal and -p_{k-j} h_i
    in its last row, for h_i = q / p0 of its operator, and the search
    starts from the row with a 1 on each block's first component."""
    p0, r0 = D.coeffs[0], E.coeffs[0]
    g = MultiPoly.gcd(p0, r0)
    hs = (r0.divexact(g), p0.divexact(g))
    q = p0 * hs[0]
    n = D.order + E.order
    N = [[MultiPoly.zero(TVARS) for _ in range(n)] for _ in range(n)]
    start = [0] * n
    off = 0
    for op, h in zip((D, E), hs):
        k = op.order
        for i in range(k - 1):
            N[off + i][off + i + 1] = q
        for j in range(k):
            N[off + k - 1][off + j] = -op.coeffs[k - j] * h
        start[off] = 1
        off += k
    return _first_relation(N, q, start)


def _is_identity(m: MobiusMap):
    return not (m.b or m.c) and m.a == m.d


def symmetrize(D: DiffOperator, gamma=REAL_AXIS, phi=IDENTITY, lclms=None) -> DiffOperator:
    """Smallest operator containing ker(D o phi) and its reflection across
    gamma.  gamma is a line or an exact circle, given as the MobiusMap that
    sends the real axis onto it; the result has order at most 2 * ord(D).

    By definition it is pullback(lclm(pullback(D, psi)), gamma^-1) for psi
    = phi o gamma: the reflection across gamma is t -> gamma(conj(gamma^-1
    (t))).  For a real D, conj(f(conj z)) is in ker D with f, so the
    reflection of ker(D o psi) across R is ker(D o conj(psi)), conj
    conjugating a map's entries, and the reflection of ker(D o phi) across
    gamma is ker(D o sigma), sigma = conj(phi) o conj(gamma) o gamma^-1.
    With rho = sigma o phi^-1 that is the chart identity

      symmetrize(D, gamma, phi) = pullback(lclm(D, pullback(D, rho)), phi),

    and the standard form is fixed by the kernel, so both give the same
    operator.  When rho is real up to a scalar the lclm runs over Z[t] in
    D's own chart, on the direct sum of D and D o rho; rho = identity gives
    D with no search.  A Gaussian D, for which the identity does not hold,
    and a complex rho (a circle off the real axis), for which the direct
    sum would run over Z[i][t] and is much slower, take the definition,
    whose realified search runs over Z[t]: one pullback by psi and one back
    by gamma^-1 unless gamma is the identity.

    lclms, a dict kept across calls on one D, holds the lclm per rho, so
    samples that share a reflection map search once.
    """
    if not isinstance(gamma, MobiusMap):
        raise UnsupportedInput("gamma must be a MobiusMap onto the carrier")
    D = D if D.standard else standard_form(D.coeffs)
    rho = None if any(c.has_gaussian() for c in D.coeffs) else _reflection_map(gamma, phi)
    if rho is None:
        L = lclm(pullback(D, phi.compose(gamma)))
        return L if _is_identity(gamma) else pullback(L, gamma.inverse())
    lclms = {} if lclms is None else lclms
    if rho not in lclms:
        lclms[rho] = D if rho == (1, 0, 0, 1) else lclm(D, pullback(D, MobiusMap(*rho)))
    return lclms[rho] if _is_identity(phi) else pullback(lclms[rho], phi)


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
    lclms = {}   # one lclm per reflection map, shared by the samples
    for name, phi, gamma in default_slope_samples():
        try:
            s = affine_slope(symmetrize(D, gamma, phi, lclms))
        except (NoSolution, ZeroDivisionError):
            continue
        report.samples.append((name, s))
    return report
