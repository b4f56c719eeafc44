"""Numeric quadrature of period integrals over real ovals of level curves.

Ovals {H = t} are traced with a fixed-step RK4 walk along the unit tangent
(-H_x2, H_x1)/|grad H| with Newton re-projection onto the curve after each
step.  Line integrals of monomial one-forms are accumulated alongside by the
midpoint rule; accuracy is validated by step-halving self-convergence.  The
walk runs on Python float pairs, which cost less than 2-element arrays.
H, its gradient, the unit tangent and the integrands are straight-line
functions generated once per level curve (`polynomials.straight_line`): each
sums c * x1 ** e1 * x2 ** e2 over the terms in stored order, with the floats
of a loop over the terms.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import NotClosed, SeedOffCurve, ToleranceNotMet, UnsupportedInput
from .polynomials import MultiPoly, straight_line


# ---------------------------------------------------------------------------
# compiled evaluation


def _terms(poly: MultiPoly):
    """(coefficient, factor sources) per stored term of a polynomial in
    (x1, x2): a float coefficient, or a complex one when it is not real.
    With a float coefficient the factors x ** 0 (1.0) and x ** 1 (x) are
    left out, which keeps every float; a complex one keeps both, as
    complex * 1.0 can move a signed zero."""
    out = []
    for (e1, e2), c in poly.terms.items():
        c = complex(c)
        if c.imag == 0:
            c = c.real
        if isinstance(c, complex):
            factors = [f"x1 ** {e1}", f"x2 ** {e2}"]
        else:
            factors = [f"{v} ** {e}" if e > 1 else v
                       for v, e in (("x1", e1), ("x2", e2)) if e]
        out.append((c, factors))
    return out


def _compile(polys, tail=None, env=None):
    """One function of (x1, x2) that returns the values of polys, each
    summed from 0.0 in stored term order as c * x1 ** e1 * x2 ** e2; `tail`
    replaces the return, reading the values as v0, v1, ..."""
    names = [f"v{i}" for i in range(len(polys))]
    sums = [(v, "0.0", _terms(p)) for v, p in zip(names, polys)]
    tail = tail or [f"return ({''.join(v + ', ' for v in names)})"]
    return straight_line(("x1", "x2"), sums, tail, env)


class LevelCurve:
    """Real level curves of a polynomial in (x1, x2) with float evaluation:
    H, its gradient and the unit tangent (-H_x2, H_x1) / |grad H| are each
    one compiled kernel."""

    def __init__(self, H: MultiPoly):
        if tuple(H.vars) != ("x1", "x2"):
            H = H.shrink()
            extra = set(H.vars) - {"x1", "x2"}
            if extra:
                raise UnsupportedInput(
                    f"level curves need a polynomial in x1, x2; got {sorted(extra)}")
            H = H.extend(("x1", "x2"))
        self.H = H
        grad = [H.diff("x1"), H.diff("x2")]
        self.f = _compile([H], ["return v0"])
        self.grad = _compile(grad)
        self.tangent = _compile(grad, [
            "n = hypot(v0, v1)",
            "if n < 1e-14:",
            "    raise NotClosed('level curve passes through a critical point')",
            "return -v1 / n, v0 / n"], {"hypot": math.hypot, "NotClosed": NotClosed})

    def project(self, p, t):
        """Newton projection of the float pair p to {H = t} along the
        gradient, to a residual below 1e-14 * max(|t|, 1) in 60 steps."""
        x, y = float(p[0]), float(p[1])
        try:
            for _ in range(60):
                r = self.f(x, y) - t
                if abs(r) < 1e-14 * max(abs(t), 1.0):
                    return x, y
                g0, g1 = self.grad(x, y)
                g2 = g0 * g0 + g1 * g1
                if g2 < 1e-24:
                    raise SeedOffCurve("gradient vanishes during projection")
                x, y = x - r * g0 / g2, y - r * g1 / g2
        except OverflowError:   # float ** int past the float range
            pass
        raise SeedOffCurve(f"Newton projection did not converge near {(x, y)}")


def critical_values(H: MultiPoly):
    """Real critical values of H: H at real solutions of grad H = 0.

    Newton from a 24 x 24 grid of starting points in [-4, 4]^2; duplicates
    merged.  Returns a sorted list of floats.
    """
    curve = LevelCurve(H)
    Hx, Hy = curve.H.diff("x1"), curve.H.diff("x2")
    hessian = _compile([Hx.diff("x1"), Hx.diff("x2"), Hy.diff("x2")])
    pts = []
    xs = np.linspace(-4.0, 4.0, 24)
    for x0 in xs:
        for y0 in xs:
            p = np.array([x0, y0])
            ok = False
            for _ in range(60):
                g = np.array(curve.grad(p[0], p[1]))
                if g @ g < 1e-28:
                    ok = True
                    break
                fxx, fxy, fyy = hessian(p[0], p[1])
                J = np.array([[fxx, fxy], [fxy, fyy]])
                try:
                    step = np.linalg.solve(J, g)
                except np.linalg.LinAlgError:
                    break
                p = p - step
                if not np.all(np.isfinite(p)) or np.max(np.abs(p)) > 1e8:
                    break
            if ok and not any(np.hypot(*(p - q)) < 1e-8 for q in pts):
                pts.append(p)
    vals = sorted(curve.f(p[0], p[1]) for p in pts)
    merged = []
    for v in vals:
        if not merged or abs(v - merged[-1]) > 1e-10 * max(abs(v), 1.0):
            merged.append(v)
    return merged


def _trace(curve: LevelCurve, t, seed, h, forms, max_len=1e4):
    """One RK4 pass around the oval, integrating g dx2 for each polynomial g
    in forms; returns (integrals, perimeter, area2)."""
    x0, y0 = curve.project(seed, t)
    tangent = curve.tangent
    integrands = _compile(forms)
    acc = [0.0] * len(forms)
    area2 = 0.0
    length = 0.0

    def segment(x, y, xn, yn, mx, my):
        """Add the chord (x, y) -> (xn, yn), integrands taken at (mx, my)."""
        nonlocal area2, length
        dx, dy = xn - x, yn - y
        for i, g in enumerate(integrands(mx, my)):
            acc[i] += g * dy
        area2 += x * yn - xn * y
        length += math.hypot(dx, dy)

    x, y = x0, y0
    hh, h6 = 0.5 * h, h / 6.0
    steps = 0
    started = False
    while True:
        a1, b1 = tangent(x, y)
        a2, b2 = tangent(x + hh * a1, y + hh * b1)
        a3, b3 = tangent(x + hh * a2, y + hh * b2)
        a4, b4 = tangent(x + h * a3, y + h * b3)
        dx = h6 * (a1 + 2 * a2 + 2 * a3 + a4)
        dy = h6 * (b1 + 2 * b2 + 2 * b3 + b4)
        xn, yn = curve.project((x + dx, y + dy), t)
        # midpoint rule for the line integrals
        segment(x, y, xn, yn, x + 0.5 * dx, y + 0.5 * dy)
        x, y = xn, yn
        steps += 1
        d0 = math.hypot(x - x0, y - y0)
        if started and d0 < 0.75 * h:
            # close up exactly
            segment(x, y, x0, y0, x + 0.5 * (x0 - x), y + 0.5 * (y0 - y))
            break
        if d0 > 2.0 * h:
            started = True
        if length > max_len or steps > max_len / h:
            raise NotClosed(f"curve did not close within length {max_len}")
    return acc, length, area2


def trace_oval(H: MultiPoly, t: float, seed, h=1e-2):
    """Perimeter and orientation data of the closed oval through `seed`."""
    curve = LevelCurve(H)
    acc, length, area2 = _trace(curve, t, seed, h, [])
    return {"perimeter": length, "area": abs(area2) / 2,
            "ccw": area2 > 0, "start": tuple(curve.project(seed, t))}


def _monomial_form(alpha):
    """g with the integrand g dx2 for basis index alpha."""
    a1, a2 = alpha
    return MultiPoly(("x1", "x2"), {(a1 + 1, a2): Fraction(1, a1 + 1)})


def abelian_integral(H: MultiPoly, t: float, seed, alphas, h=1e-2,
                     rel_tol=1e-8):
    """Integrals of x1^(a1+1) x2^a2 / (a1+1) dx2 over the oval through seed.

    Positive (counter-clockwise) orientation.  Step-halved until two passes
    agree to rel_tol; raises ToleranceNotMet otherwise.
    """
    curve = LevelCurve(H)
    forms = [_monomial_form(a) for a in alphas]
    prev = None       # raw O(h^2) values
    prev_ex = None    # Richardson-extrapolated values
    for _ in range(10):
        acc, length, area2 = _trace(curve, t, seed, h, forms)
        sgn = 1.0 if area2 > 0 else -1.0
        vals = [sgn * v for v in acc]
        if prev is not None:
            ex = [(4 * a - b) / 3 for a, b in zip(vals, prev)]
            if prev_ex is not None:
                scale = max(max(abs(v) for v in ex), 1e-12)
                if max(abs(a - b) for a, b in zip(ex, prev_ex)) < rel_tol * scale:
                    return ex
            prev_ex = ex
        prev = vals
        h /= 2
    raise ToleranceNotMet("oval quadrature did not self-converge")


def count_real_zeros(fn, a, b, samples=400, tol=1e-12):
    """Sign changes of a real function on (a, b), refined by bisection.

    Zeros of even multiplicity are invisible to sign changes; the result is a
    lower bound in general and exact for simple zeros.
    """
    if b <= a:
        raise UnsupportedInput("empty interval")
    ts = np.linspace(a, b, samples)
    vs = [fn(t) for t in ts]
    zeros = []
    for (t0, v0), (t1, v1) in zip(zip(ts, vs), zip(ts[1:], vs[1:])):
        if v0 == 0:
            zeros.append(t0)
            continue
        if v0 * v1 < 0:
            lo, hi, flo = t0, t1, v0
            while hi - lo > tol * max(abs(hi), 1.0):
                mid = (lo + hi) / 2
                fm = fn(mid)
                if fm == 0:
                    break
                if flo * fm < 0:
                    hi = mid
                else:
                    lo, flo = mid, fm
            zeros.append((lo + hi) / 2)
    return len(zeros), zeros
