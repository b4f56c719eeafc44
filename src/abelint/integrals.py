"""Numeric quadrature of period integrals over real ovals of level curves.

A pass traces the oval {H = t} in arc length along the unit tangent
(-H_x2, H_x1)/|grad H| on the `dop853` integrator; the state holds the
integral of g dx2 for each form g and the area 1/2 (x1 dx2 - x2 dx1), whose
sign is the orientation.  The pass closes at the step that crosses the
normal line at the start within one step of it, once more than two steps
away, and a secant on that step's length puts the end on the line.  H and
its gradient are straight-line kernels generated once per level curve
(`polynomials.straight_line`), with the floats of a loop over the terms in
stored order.  The integrand sums, the gradient and the unit tangent are
one program, `_oval_lines`, which gives the `tangent` kernel and is
written into the generated `dop853` step, so a stage calls only hypot; its
stage sums are built for x1 and x2 only, the components the lines read,
and the integrals and the area get none.  Products by exact zeros are
left out as in every generated step: those of the tableau (the rates have
none of their own).
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

from . import dop853
from .errors import NotClosed, SeedOffCurve, ToleranceNotMet, UnsupportedInput
from .polynomials import MultiPoly, straight_line, straight_lines

REL_TOL = 1e-8                          # default agreement of two passes
RTOL_FLOOR = 100 * sys.float_info.epsilon   # the smallest pass tolerance
SECANT_STEPS = 8                        # at most, to put the end on the start
MAX_LENGTH = 1e4                        # of a pass that has not closed


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
    program = straight_lines(sums=[(v, 0.0, _terms(p)) for v, p in zip(names, polys)])
    tail = tail or [f"return ({''.join(v + ', ' for v in names)})"]
    return straight_line(("x1", "x2"), program, tail, env)


# the names that the lines of `_oval_lines` read besides x1 and x2
_OVAL_ENV = {"hypot": math.hypot, "NotClosed": NotClosed}


def _oval_lines(grad, forms):
    """The StraightLine of a pass at (x1, x2): the sums w0, w1, ... of the
    integrands forms, then the gradient g0, g1 and the unit tangent
    (ta, tb) = (-g1, g0) / hypot(g0, g1).  A gradient below 1e-14 raises
    NotClosed."""
    sums = [(f"w{i}", 0.0, _terms(p)) for i, p in enumerate(forms)]
    program = straight_lines(sums=sums + [(f"g{i}", 0.0, _terms(p)) for i, p in enumerate(grad)])
    return program._replace(lines=program.lines + (
        "tn = hypot(g0, g1)",
        "if tn < 1e-14:",
        "    raise NotClosed('level curve passes through a critical point')",
        "ta = -g1 / tn",
        "tb = g0 / tn"))


class LevelCurve:
    """Real level curves of a polynomial in (x1, x2) with float evaluation:
    H, its gradient and the unit tangent (-H_x2, H_x1) / |grad H| are each
    one compiled kernel, the tangent from the lines of a pass without
    integrands."""

    def __init__(self, H: MultiPoly):
        if tuple(H.vars) != ("x1", "x2"):
            H = H.shrink()
            extra = set(H.vars) - {"x1", "x2"}
            if extra:
                raise UnsupportedInput(
                    f"level curves need a polynomial in x1, x2; got {sorted(extra)}")
            H = H.extend(("x1", "x2"))
        self.H = H
        self.gradient = [H.diff("x1"), H.diff("x2")]
        self.f = _compile([H], ["return v0"])
        self.grad = _compile(self.gradient)
        self.tangent = straight_line(("x1", "x2"), _oval_lines(self.gradient, []),
                                     ["return ta, tb"], _OVAL_ENV)

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
    import numpy as np
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


def _field(curve: LevelCurve, forms):
    """(field, step): field(s, y) = dy/ds of a pass for y = [x1, x2,
    integral of g dx2 for g in forms, area], from the lines of
    `_oval_lines`, and the dop853 step with those lines written into its
    stages, which read only x1 and x2."""
    program = _oval_lines(curve.gradient, forms)
    n = len(forms) + 3
    rates = ("{k}0 = ta", "{k}1 = tb", *(f"{{k}}{i + 2} = w{i} * tb" for i in range(len(forms))),
             f"{{k}}{n - 1} = 0.5 * (x1 * tb - x2 * ta)")
    rhs = dop853.Derivative(("coefficients", *_OVAL_ENV), program.setup,
                            (0, 1), ("x1 = u_0", "x2 = u_1", *program.lines, *rates))
    args = (program.consts, *_OVAL_ENV.values())
    return dop853.rhs_function(n, rhs)(*args), dop853.step_function(n, rhs)(*args)


def _oval(H: MultiPoly, t, seed, forms, rel_tol):
    """(integrals of g dx2 for g in forms, counter-clockwise; perimeter;
    signed area; start) of the last pass at rel_tol/10, rel_tol/1000, ...
    (down to RTOL_FLOOR, as in scipy's solve_ivp) once two consecutive ones
    agree to rel_tol (on perimeter and area without forms); the last one must
    keep |H - t| within rel_tol * max(|t|, 1) at its accepted steps."""
    curve = LevelCurve(H)
    x0, y0 = curve.project(seed, t)
    a0, b0 = curve.tangent(x0, y0)
    field, step = _field(curve, forms)

    def past(y):
        """How far the point of y lies past the normal line at the start."""
        return (y[0] - x0) * a0 + (y[1] - y0) * b0

    def close(s, y, f, h, y_new):
        nonlocal started, drift
        drift = max(drift, abs(curve.f(y_new[0], y_new[1]) - t))
        d = math.hypot(y_new[0] - x0, y_new[1] - y0)
        if started and d <= h and past(y) < 0 <= past(y_new):
            # secant on the step length till the end is on the line
            h0, p0, h1, p1 = 0.0, past(y), h, past(y_new)
            tol = 4 * sys.float_info.epsilon * max(abs(x0), abs(y0), h)
            for _ in range(SECANT_STEPS):
                if abs(p1) <= tol or p1 == p0:
                    break
                h0, p0, h1 = h1, p1, h1 - p1 * (h1 - h0) / (p1 - p0)
                y_new = step(field, s, h1, y, f, rtol, rtol)[0]
                p1 = past(y_new)
            return y_new, s + h1
        started = started or d > 2 * h
        if s + h > MAX_LENGTH:
            raise NotClosed(f"curve did not close within length {MAX_LENGTH}")

    prev, rtol = None, rel_tol / 10
    while True:
        rtol = max(rtol, RTOL_FLOOR)
        started, drift = False, 0.0
        state, length = dop853.solve(field, [x0, y0] + [0.0] * (len(forms) + 1), math.inf,
                                     rtol, rtol, math.inf, close, step)
        area = state[-1]
        vals = [v if area > 0 else -v for v in state[2:-1]]
        cur = vals or [length, abs(area)]
        if prev is not None:
            scale = max(max(abs(v) for v in cur), 1e-12)
            if max(abs(a - b) for a, b in zip(cur, prev)) < rel_tol * scale:
                if drift > rel_tol * max(abs(t), 1.0):
                    raise ToleranceNotMet(f"oval quadrature drifted {drift} off the curve")
                return vals, length, area, (x0, y0)
        if rtol == RTOL_FLOOR:
            raise ToleranceNotMet("oval quadrature did not self-converge")
        prev, rtol = cur, rtol / 100


def trace_oval(H: MultiPoly, t: float, seed):
    """Perimeter and orientation data of the closed oval through `seed`."""
    _, length, area, start = _oval(H, t, seed, [], REL_TOL)
    return {"perimeter": length, "area": abs(area), "ccw": area > 0,
            "start": start}


def abelian_integral(H: MultiPoly, t: float, seed, alphas, rel_tol=REL_TOL):
    """Integrals of x1^(a1+1) x2^a2 / (a1+1) dx2 over the oval through seed,
    in positive (counter-clockwise) orientation, by the passes of `_oval`."""
    forms = [MultiPoly(("x1", "x2"), {(a1 + 1, a2): Fraction(1, a1 + 1)})
             for a1, a2 in alphas]
    return _oval(H, t, seed, forms, rel_tol)[0]


def count_real_zeros(fn, a, b, samples=400, tol=1e-12):
    """Sign changes of a real function on (a, b), refined by bisection.

    Zeros of even multiplicity are invisible to sign changes; the result is a
    lower bound in general and exact for simple zeros.
    """
    import numpy as np
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
