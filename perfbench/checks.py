"""Output checks that do not rely on abelint's own algebra.

Exact results are compared from their JSON encoding with Python fractions.
Periods of the elliptic Hamiltonian H = x2^2/2 + x1^3 - x1 come from scipy
quadrature of a one-dimensional integral, independent of abelint's oval
tracer.  Every check is a property that any correct implementation keeps,
however fast or simple it is.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy.integrate import quad

# singular values of the elliptic pencil: 27 t^2 = 4
ELLIPTIC_SINGULAR = 2 / math.sqrt(27)


# ---------------------------------------------------------------------------
# exact univariate polynomials and rational functions from their JSON form


def univariate(poly, var="t"):
    """{exponent: (re, im)} for an encoded poly in `var` alone."""
    out = {}
    for exp, c in poly["terms"]:
        k = 0
        for name, e in zip(poly["vars"], exp):
            if name == var:
                k = e
            elif e:
                raise ValueError(f"variable {name} left in a result in {var}")
        if isinstance(c, dict):
            re, im = Fraction(c["re"]), Fraction(c["im"])
        else:
            re, im = Fraction(c), Fraction(0)
        pr, pi = out.get(k, (Fraction(0), Fraction(0)))
        out[k] = (pr + re, pi + im)
    return {k: c for k, c in out.items() if c != (0, 0)}


def degree(p):
    return max(p, default=-1)


def peval(p, t):
    """Exact value at a rational point, as an (re, im) pair."""
    re = sum((c[0] * t ** k for k, c in p.items()), Fraction(0))
    im = sum((c[1] * t ** k for k, c in p.items()), Fraction(0))
    return re, im


def _cmul(a, b):
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def ratfunc_equal(a, b):
    """Exact equality of two encoded rational functions in t."""
    an, ad = univariate(a["num"]), univariate(a["den"])
    bn, bd = univariate(b["num"]), univariate(b["den"])
    if not ad or not bd:
        return False
    # an*bd - bn*ad has degree <= dmax, so dmax + 1 zeros make it vanish
    dmax = max(degree(an) + degree(bd), degree(bn) + degree(ad), 0)
    for k in range(dmax + 1):
        t = Fraction(2 * k + 1, 7)
        lhs = _cmul(peval(an, t), peval(bd, t))
        rhs = _cmul(peval(bn, t), peval(ad, t))
        if lhs != rhs:
            return False
    return True


def matrix_equal(a, b):
    if (a["rows"], a["cols"]) != (b["rows"], b["cols"]):
        return False
    return all(ratfunc_equal(x, y) for ra, rb in zip(a["data"], b["data"])
               for x, y in zip(ra, rb))


def matrix_t_degree(m):
    return max(max(degree(univariate(e["num"])), degree(univariate(e["den"])))
               for row in m["data"] for e in row)


def operator_t_degree(op):
    return max(degree(univariate(c)) for c in op["coeffs"])


# ---------------------------------------------------------------------------
# elliptic periods by one-dimensional quadrature


@lru_cache(maxsize=None)
def elliptic_periods(t):
    """(I00, I01, I10, I11) over the oval of x2^2/2 + x1^3 - x1 = t, |t| < 2/sqrt(27).

    With x1^3 - x1 - t = (x - r1)(x - r2)(x - r3) the oval spans r2 <= x <= r3,
    where x2 = +-sqrt(2 (x - r1)(x - r2)(r3 - x)).  By Green's formula
    I00 = area, I10 = integral of x over the enclosed region, and the two
    forms odd in x2 integrate to zero.
    """
    t = float(t)
    if not abs(t) < ELLIPTIC_SINGULAR:
        raise ValueError("level outside the oval range")
    roots = []
    for r in sorted(np.roots([1.0, 0.0, -1.0, -t]).real):
        for _ in range(4):  # Newton polish
            r -= (r ** 3 - r - t) / (3 * r * r - 1)
        roots.append(r)
    r1, r2, r3 = roots

    def g(x):
        return 2 * math.sqrt(2.0) * math.sqrt(x - r1)

    opts = dict(weight="alg", wvar=(0.5, 0.5), epsabs=0.0, epsrel=1e-13, limit=200)
    area = quad(g, r2, r3, **opts)[0]
    moment = quad(lambda x: x * g(x), r2, r3, **opts)[0]
    return np.array([area, 0.0, moment, 0.0])


# ---------------------------------------------------------------------------
# scalar operator residual on the period vector


def _taylor_shift(coeffs, t0):
    """Coefficients of p(t0 + h) from those of p(t), ascending, exact."""
    a = list(coeffs)
    n = len(a) - 1
    for i in range(n):
        for j in range(n - 1, i - 1, -1):
            a[j] += t0 * a[j + 1]
    return a


def _real_coeffs(p):
    if any(c[1] for c in p.values()):
        raise ValueError("expected real coefficients")
    out = [Fraction(0)] * (degree(p) + 1)
    for k, c in p.items():
        out[k] = c[0]
    return out


def _series(rf, t0, order):
    """Taylor coefficients of an encoded rational function at t0, exact."""
    num = _taylor_shift(_real_coeffs(univariate(rf["num"])), t0)
    den = _taylor_shift(_real_coeffs(univariate(rf["den"])), t0)
    num += [Fraction(0)] * (order + 1 - len(num))
    den += [Fraction(0)] * (order + 1 - len(den))
    if den[0] == 0:
        raise ValueError("series point is a pole")
    q = []
    for m in range(order + 1):
        acc = num[m] - sum(den[i] * q[m - i] for i in range(1, m + 1))
        q.append(acc / den[0])
    return q


def period_derivatives(A, t0, order, X0):
    """d^j/dt^j of X(t) at t0 for j <= order, with X' = A X and X(t0) = X0."""
    n = A["rows"]
    series = [[_series(A["data"][i][j], t0, order) for j in range(n)]
              for i in range(n)]
    Ak = [np.array([[float(series[i][j][k]) for j in range(n)] for i in range(n)])
          for k in range(order + 1)]
    X = [np.asarray(X0, dtype=float)]
    for m in range(order):
        X.append(sum(Ak[i] @ X[m - i] for i in range(m + 1)) / (m + 1))
    return [math.factorial(j) * X[j] for j in range(order + 1)]


def scalar_residual(op, A, points=(0.0, 0.2, -0.2)):
    """Worst relative residual of the operator on the first period.

    Acceptance criterion 03's measure: |sum p_j(t0) y^(k-j)| divided by
    sum |p_j(t0)| |y^(k-j)|, with y = I00 from quadrature and its
    derivatives from the exact system X' = A X.
    """
    coeffs = [univariate(c) for c in op["coeffs"]]
    k = len(coeffs) - 1
    worst = 0.0
    for t0 in points:
        t0 = Fraction(t0).limit_denominator(1000)
        derivs = period_derivatives(A, t0, k, elliptic_periods(float(t0)))
        vals = [float(peval(c, t0)[0]) for c in coeffs]
        total = sum(v * derivs[k - j][0] for j, v in enumerate(vals))
        scale = sum(abs(v * derivs[k - j][0]) for j, v in enumerate(vals))
        worst = max(worst, abs(total) / scale if scale else math.inf)
    return worst


def load_json(path):
    with open(path) as fh:
        return json.load(fh)
