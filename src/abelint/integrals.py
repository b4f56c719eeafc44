"""Numeric quadrature of period integrals over real ovals of level curves.

Ovals {H = t} are traced with a fixed-step RK4 walk along the unit tangent
(-H_x2, H_x1)/|grad H| with Newton re-projection onto the curve after each
step.  Line integrals of monomial one-forms are accumulated alongside by the
midpoint rule; accuracy is validated by step-halving self-convergence.  The
walk runs on Python float pairs, which cost less than 2-element arrays.
"""

from __future__ import annotations

import math

import numpy as np

from .config import RunConfig
from .errors import NotClosed, SeedOffCurve, ToleranceNotMet, UnsupportedInput
from .polynomials import MultiPoly


# ---------------------------------------------------------------------------
# compiled evaluation


def _compile(poly: MultiPoly):
    terms = [(e, complex(c) if not isinstance(c, (int, float)) else float(c))
             for e, c in poly.terms.items()]
    terms = [(e, c.real if isinstance(c, complex) and c.imag == 0 else c)
             for e, c in terms]

    def fn(x1, x2):
        s = 0.0
        for (e1, e2), c in terms:
            s += c * x1 ** e1 * x2 ** e2
        return s
    return fn


class LevelCurve:
    """Real level curves of a polynomial in (x1, x2) with float evaluation."""

    def __init__(self, H: MultiPoly):
        if tuple(H.vars) != ("x1", "x2"):
            H = H.shrink()
            extra = set(H.vars) - {"x1", "x2"}
            if extra:
                raise UnsupportedInput(
                    f"level curves need a polynomial in x1, x2; got {sorted(extra)}")
            H = H.extend(("x1", "x2"))
        self.H = H
        self.f = _compile(H)
        self.fx = _compile(H.diff("x1"))
        self.fy = _compile(H.diff("x2"))

    def grad(self, x, y):
        return self.fx(x, y), self.fy(x, y)

    def project(self, p, t, tol=1e-14, max_iter=60):
        """Newton projection of the float pair p to {H = t} along the gradient."""
        x, y = float(p[0]), float(p[1])
        try:
            for _ in range(max_iter):
                r = self.f(x, y) - t
                if abs(r) < tol * max(abs(t), 1.0):
                    return x, y
                g0, g1 = self.grad(x, y)
                g2 = g0 * g0 + g1 * g1
                if g2 < 1e-24:
                    raise SeedOffCurve("gradient vanishes during projection")
                x, y = x - r * g0 / g2, y - r * g1 / g2
        except OverflowError:   # float ** int past the float range
            pass
        raise SeedOffCurve(f"Newton projection did not converge near {(x, y)}")


def critical_values(H: MultiPoly, search_box=4.0, grid=24):
    """Real critical values of H: H at real solutions of grad H = 0.

    Newton from a grid of starting points inside [-box, box]^2; duplicates
    merged.  Returns a sorted list of floats.
    """
    curve = LevelCurve(H)
    fxx = _compile(curve.H.diff("x1").diff("x1"))
    fxy = _compile(curve.H.diff("x1").diff("x2"))
    fyy = _compile(curve.H.diff("x2").diff("x2"))
    pts = []
    xs = np.linspace(-search_box, search_box, grid)
    for x0 in xs:
        for y0 in xs:
            p = np.array([x0, y0])
            ok = False
            for _ in range(60):
                g = np.array(curve.grad(p[0], p[1]))
                if g @ g < 1e-28:
                    ok = True
                    break
                J = np.array([[fxx(p[0], p[1]), fxy(p[0], p[1])],
                              [fxy(p[0], p[1]), fyy(p[0], p[1])]])
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
    """One RK4 pass around the oval; returns (integrals, perimeter, area2)."""
    x0, y0 = curve.project(seed, t)

    def tangent(x, y):
        g0, g1 = curve.grad(x, y)
        n = math.hypot(g0, g1)
        if n < 1e-14:
            raise NotClosed("level curve passes through a critical point")
        return -g1 / n, g0 / n

    acc = [0.0] * len(forms)
    area2 = 0.0
    length = 0.0

    def segment(x, y, xn, yn, mx, my):
        """Add the chord (x, y) -> (xn, yn), integrands taken at (mx, my)."""
        nonlocal area2, length
        dx, dy = xn - x, yn - y
        for i, (g1, g2) in enumerate(forms):
            acc[i] += g1(mx, my) * dx + g2(mx, my) * dy
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


def trace_oval(H: MultiPoly, t: float, seed, h=None, config: RunConfig = None):
    """Perimeter and orientation data of the closed oval through `seed`."""
    curve = LevelCurve(H)
    if h is None:
        h = 1e-2
    acc, length, area2 = _trace(curve, t, seed, h, [])
    return {"perimeter": length, "area": abs(area2) / 2,
            "ccw": area2 > 0, "start": tuple(curve.project(seed, t))}


def _monomial_form(alpha):
    """Compiled (g1, g2) with the integrand g1 dx1 + g2 dx2 for basis index alpha."""
    a1, a2 = alpha
    x1 = MultiPoly.var("x1", ("x1", "x2"))
    x2 = MultiPoly.var("x2", ("x1", "x2"))
    from fractions import Fraction
    g2 = (x1 ** (a1 + 1)) * (x2 ** a2) * MultiPoly.const(Fraction(1, a1 + 1),
                                                         ("x1", "x2"))
    return (lambda a, b: 0.0), _compile(g2)


def abelian_integral(H: MultiPoly, t: float, seed, alphas, h=1e-2,
                     rel_tol=1e-8, config: RunConfig = None):
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
