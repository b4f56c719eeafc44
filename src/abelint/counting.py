"""Numeric zero counting: continuation, argument variation, annulus bounds.

Solutions of linear ODE systems (or scalar operators via their companion
systems) are continued along piecewise circular/segment paths with an
adaptive high-order integrator whose step never exceeds a fixed fraction of
the distance to the singular locus.  Winding numbers come from integrating
d(arg w) alongside the solution, so the argument stays continuous by
construction.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from scipy.integrate import solve_ivp

from .config import RunConfig
from .errors import (NonIntegerWinding, NotQuasiunipotent,
                     PathTooClose, ToleranceNotMet, UnsupportedInput,
                     ZeroOnPath)
from .operators import DiffOperator, MobiusMap, affine_slope, pullback, symmetrize
from .qi import GaussianRational
from .slits import Arc, Circle, Segment, SlitSystem, regions


# ---------------------------------------------------------------------------
# paths


class ContourPath:
    """Piecewise path of Arc and Segment pieces, parametrized on [0,1] each."""

    def __init__(self, pieces):
        if not pieces:
            raise UnsupportedInput("empty path")
        self.pieces = list(pieces)

    @staticmethod
    def from_circle(circle: Circle, ccw=True, start_angle=0.0):
        sweep = 2 * math.pi if ccw else -2 * math.pi
        return ContourPath([Arc(circle.center, circle.radius,
                                start_angle, start_angle + sweep)])

    @staticmethod
    def from_points(zs, close=False):
        pts = [complex(z) for z in zs]
        if close and pts[0] != pts[-1]:
            pts.append(pts[0])
        return ContourPath([Segment(a, b) for a, b in zip(pts, pts[1:])])

    @property
    def start(self):
        return _piece_point(self.pieces[0], 0.0)

    @property
    def end(self):
        return _piece_point(self.pieces[-1], 1.0)

    def is_closed(self, tol=1e-9):
        scale = max(abs(self.start), abs(self.end), 1.0)
        return abs(self.start - self.end) <= tol * scale

    def length(self):
        return sum(p.length() for p in self.pieces)

    def sample(self, per_piece=64):
        out = []
        for p in self.pieces:
            for k in range(per_piece):
                out.append(_piece_point(p, k / per_piece))
        out.append(self.end)
        return np.array(out)

    def min_dist(self, points):
        if len(points) == 0:
            return float("inf")
        samp = self.sample(128)
        pts = np.asarray(points, dtype=complex)
        return float(np.min(np.abs(samp[:, None] - pts[None, :])))

    def reversed(self):
        rev = []
        for p in reversed(self.pieces):
            if isinstance(p, Arc):
                rev.append(Arc(p.center, p.radius, p.a1, p.a0))
            else:
                rev.append(Segment(p.z1, p.z0))
        return ContourPath(rev)


def _piece_point(piece, s):
    if isinstance(piece, Arc):
        a = piece.a0 + s * (piece.a1 - piece.a0)
        return piece.center + piece.radius * cmath.exp(1j * a)
    return piece.z0 + s * (piece.z1 - piece.z0)


def _piece_velocity(piece, s):
    if isinstance(piece, Arc):
        a = piece.a0 + s * (piece.a1 - piece.a0)
        return piece.radius * (piece.a1 - piece.a0) * 1j * cmath.exp(1j * a)
    return piece.z1 - piece.z0


# ---------------------------------------------------------------------------
# sources: anything that yields dY/dt = A(t) Y


class _SystemSource:
    def __init__(self, ode):
        self.ode = ode
        self.dim = ode.ell

    def eval(self, t):
        return self.ode.eval(t)

    def singular_points(self):
        return self.ode.singular_points


class _OperatorSource:
    def __init__(self, op: DiffOperator):
        self.op = op
        self.dim = op.order

    def eval(self, t):
        return self.op.companion_rhs(t)

    def singular_points(self):
        return self.op.leading_roots()


def _as_source(obj):
    if isinstance(obj, DiffOperator):
        return _OperatorSource(obj)
    if hasattr(obj, "ell") and hasattr(obj, "eval"):
        return _SystemSource(obj)
    raise UnsupportedInput(f"cannot continue solutions of {type(obj).__name__}")


def _integrate_piece(source, piece, Y0, config: RunConfig, combo=None, phi0=0.0):
    """Continue Y (matrix columns) along one piece; optionally track arg(w)."""
    sing = source.singular_points()
    n_samp = 64
    pts = np.array([_piece_point(piece, s) for s in np.linspace(0, 1, n_samp)])
    if len(sing):
        dist = float(np.min(np.abs(pts[:, None] - sing[None, :])))
    else:
        dist = float("inf")
    scale = max(np.max(np.abs(pts)), 1.0)
    if dist < config.min_path_distance * scale:
        raise PathTooClose(f"path at distance {dist} from the singular locus")
    vmax = max(abs(_piece_velocity(piece, s)) for s in np.linspace(0, 1, 16))
    max_step = (config.max_step_factor * dist / vmax) if math.isfinite(dist) \
        else 0.1
    shape = Y0.shape
    track = combo is not None
    state0 = Y0.ravel()
    if track:
        w0 = complex(np.dot(combo, Y0[:, 0] if Y0.ndim == 2 else Y0))
        if w0 == 0:
            raise ZeroOnPath("tracked combination vanishes at path start")
        state0 = np.concatenate([state0, [complex(phi0, 0.0)]])
    min_w = [float("inf")]

    def rhs(s, state):
        z = _piece_point(piece, s)
        dz = _piece_velocity(piece, s)
        if track:
            Y = state[:-1].reshape(shape)
        else:
            Y = state.reshape(shape)
        dY = dz * (source.eval(z) @ Y)
        if not track:
            return dY.ravel()
        y = Y[:, 0] if Y.ndim == 2 else Y
        dy = dY[:, 0] if Y.ndim == 2 else dY
        w = complex(np.dot(combo, y))
        dw = complex(np.dot(combo, dy))
        aw = abs(w)
        if aw < min_w[0]:
            min_w[0] = aw
        dphi = (dw / w).imag if aw > 0 else 0.0
        return np.concatenate([dY.ravel(), [complex(dphi, 0.0)]])

    sol = solve_ivp(rhs, (0.0, 1.0), state0.astype(complex), method="DOP853",
                    rtol=config.rtol, atol=config.atol, max_step=max_step,
                    dense_output=False)
    if not sol.success:
        raise ToleranceNotMet(f"integrator failed: {sol.message}")
    final = sol.y[:, -1]
    if track:
        Yf = final[:-1].reshape(shape)
        phif = float(final[-1].real)
        wscale = float(np.max(np.abs(Yf))) or 1.0
        if min_w[0] < config.zero_on_path_tol * wscale:
            raise ZeroOnPath(f"|w| dropped to {min_w[0]} on the path")
        return Yf, phif
    return final.reshape(shape), None


def continue_solution(obj, path: ContourPath, Y0, config: RunConfig = None):
    """Continue the solution (vector or matrix of columns) along the path."""
    config = config or RunConfig()
    source = _as_source(obj)
    Y = np.array(Y0, dtype=complex)
    for piece in path.pieces:
        Y, _ = _integrate_piece(source, piece, Y, config)
    return Y


def variation_of_argument(obj, path: ContourPath, y0, combo=None,
                          config: RunConfig = None):
    """Total variation of arg(combo . Y) along the path, in radians."""
    config = config or RunConfig()
    if callable(obj) and not isinstance(obj, DiffOperator):
        return _variation_callable(obj, path, config)
    source = _as_source(obj)
    if combo is None:
        combo = np.zeros(source.dim, dtype=complex)
        combo[0] = 1.0
    Y = np.array(y0, dtype=complex)
    if Y.ndim == 1:
        Y = Y.reshape(-1, 1)
    phi = 0.0
    for piece in path.pieces:
        Y, phi = _integrate_piece(source, piece, Y, config, combo=np.asarray(combo, dtype=complex), phi0=phi)
    return phi, Y


def _variation_callable(f, path: ContourPath, config: RunConfig):
    """Adaptive sampled argument variation for an explicit function."""
    params = []
    for i, piece in enumerate(path.pieces):
        for s in np.linspace(0, 1, 33)[:-1]:
            params.append((i, s))
    params.append((len(path.pieces) - 1, 1.0))

    def point(pr):
        return _piece_point(path.pieces[pr[0]], pr[1])

    vals = [complex(f(point(pr))) for pr in params]
    scale = max(abs(v) for v in vals)
    if scale == 0:
        raise ZeroOnPath("function vanishes identically on the path")
    # refine until adjacent argument jumps are < pi/2
    for _ in range(40):
        worst = None
        new_params = [params[0]]
        new_vals = [vals[0]]
        refined = False
        for (pa, va), (pb, vb) in zip(zip(params, vals), zip(params[1:], vals[1:])):
            if abs(va) < config.zero_on_path_tol * scale or \
               abs(vb) < config.zero_on_path_tol * scale:
                raise ZeroOnPath("function (numerically) vanishes on the path")
            dphi = abs(cmath.phase(vb / va))
            if dphi > math.pi / 2:
                # midpoint refinement
                if pa[0] == pb[0]:
                    mid = (pa[0], (pa[1] + pb[1]) / 2)
                else:
                    mid = (pa[0], (pa[1] + 1.0) / 2)
                new_params.append(mid)
                new_vals.append(complex(f(point(mid))))
                refined = True
            new_params.append(pb)
            new_vals.append(vb)
        params, vals = new_params, new_vals
        if not refined:
            break
    else:
        raise ToleranceNotMet("argument refinement did not converge")
    total = 0.0
    for va, vb in zip(vals, vals[1:]):
        total += cmath.phase(vb / va)
    return total, None


def count_zeros(obj, path: ContourPath, y0=None, combo=None,
                config: RunConfig = None) -> int:
    """Zeros (with multiplicity) inside a closed path via the argument principle.

    `obj` is a callable t -> w, or an operator/system with `y0` the initial
    data of the tracked branch at path.start.
    """
    config = config or RunConfig()
    if not path.is_closed():
        raise UnsupportedInput("count_zeros requires a closed path")
    if callable(obj) and not isinstance(obj, DiffOperator):
        phi, _ = _variation_callable(obj, path, config)
    else:
        if y0 is None:
            raise UnsupportedInput("count_zeros needs initial data for ODE sources")
        phi, _ = variation_of_argument(obj, path, y0, combo=combo, config=config)
    turns = phi / (2 * math.pi)
    n = round(turns)
    if abs(turns - n) > config.winding_tol:
        raise NonIntegerWinding(f"winding {turns} is not close to an integer")
    return int(n)


# ---------------------------------------------------------------------------
# monodromy


def monodromy(obj, loop: ContourPath, config: RunConfig = None):
    """Fundamental-solution monodromy matrix along a closed loop."""
    config = config or RunConfig()
    source = _as_source(obj)
    if not loop.is_closed():
        raise UnsupportedInput("monodromy needs a closed loop")
    Y = continue_solution(obj, loop, np.eye(source.dim, dtype=complex), config)
    return Y


def is_quasiunipotent(M, config: RunConfig = None):
    """(ok, orders): eigenvalues on the unit circle with root-of-unity orders.

    In relaxed mode only |eig| = 1 is required and orders may be None.
    """
    config = config or RunConfig()
    eigs = np.linalg.eigvals(np.asarray(M, dtype=complex))
    orders = []
    for lam in eigs:
        if abs(abs(lam) - 1.0) > config.qu_tol:
            return False, []
        order = None
        for q in range(1, config.qu_max_order + 1):
            if abs(lam ** q - 1.0) <= config.qu_tol * q:
                order = q
                break
        if order is None and not config.qu_relaxed:
            return False, []
        orders.append(order)
    return True, orders


# ---------------------------------------------------------------------------
# variation-of-argument bound


def _rationalize(z: complex, digits=10 ** 12) -> GaussianRational:
    return GaussianRational(Fraction(z.real).limit_denominator(digits),
                            Fraction(z.imag).limit_denominator(digits))


@dataclass
class BoundReport:
    kind: str
    value: float
    details: dict = field(default_factory=dict)


def var_arg_bound(D: DiffOperator, piece, singular_points,
                  config: RunConfig = None) -> BoundReport:
    """Upper bound, in full turns, for Var arg of any D-solution along piece.

    Affine-invariant: the piece is moved to a chart where its distance to the
    singular locus is 1, the exact slope of the pulled-back operator is
    computed there, and the bound k * S * L * max(L,1)^(c_var * d) applies.
    """
    config = config or RunConfig()
    sing = np.asarray(singular_points, dtype=complex)
    path = ContourPath([piece])
    dist = path.min_dist(sing)
    if not math.isfinite(dist):
        dist = max(piece.length(), 1.0)
    if dist <= 0:
        raise PathTooClose("piece touches the singular locus")
    z0 = path.start
    chart = MobiusMap(_rationalize(complex(dist)), _rationalize(z0), 0, 1)
    Dc = pullback(D, chart)   # operator in u with z = z0 + dist * u
    S = float(affine_slope(Dc))
    L = piece.length() / dist
    k = D.order
    d = max(c.degree_in("t") for c in D.coeffs if not c.is_zero())
    d = int(d) if d > 0 else 1
    value = k * S * L * max(L, 1.0) ** (config.c_var * d)
    return BoundReport("var-arg", value, {
        "order": k, "slope": S, "normalized_length": L, "degree": d,
        "exponent": config.c_var * d})


# ---------------------------------------------------------------------------
# annulus bound


def _concentric_map(inner: Circle, outer: Circle) -> MobiusMap:
    """Exact-rational Moebius map sending both circles to origin-centered ones."""
    c1, r1 = inner.center, inner.radius
    c2, r2 = outer.center, outer.radius
    d = abs(c1 - c2)
    if d < 1e-14 * r2:
        return MobiusMap(1, _rationalize(-c2), 0, 1)
    u = (c1 - c2) / d
    # inverse-point pair on the common axis: roots of z^2 - s z + R^2
    s = (r2 * r2 + d * d - r1 * r1) / d
    disc = s * s - 4 * r2 * r2
    if disc <= 0:
        raise UnsupportedInput("circles are not strictly nested")
    x = (s - math.sqrt(disc)) / 2
    y = (s + math.sqrt(disc)) / 2
    a = _rationalize(1 / u)
    b = _rationalize(-c2 / u - x)
    c = _rationalize(1 / u)
    dd = _rationalize(-c2 / u - y)
    return MobiusMap(a, b, c, dd)


def _image_circle(phi: MobiusMap, circle: Circle) -> Circle:
    """Image of a circle under a Moebius map (sampled; exact enough)."""
    zs = [phi(circle.point_at(a)) for a in np.linspace(0, 2 * math.pi, 7)[:-1]]
    # circumcenter from three points
    z1, z2, z3 = zs[0], zs[2], zs[4]
    ax, ay = z1.real, z1.imag
    bx, by = z2.real, z2.imag
    cx, cy = z3.real, z3.imag
    dd = 2 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    ux = ((ax * ax + ay * ay) * (by - cy) + (bx * bx + by * by) * (cy - ay) +
          (cx * cx + cy * cy) * (ay - by)) / dd
    uy = ((ax * ax + ay * ay) * (cx - bx) + (bx * bx + by * by) * (ax - cx) +
          (cx * cx + cy * cy) * (bx - ax)) / dd
    center = complex(ux, uy)
    return Circle(center, abs(z1 - center))


@dataclass
class AnnulusBound:
    order: int
    B: int
    value: int
    quasiunipotent: bool
    orders: list
    details: dict = field(default_factory=dict)


def annulus_zero_bound(D: DiffOperator, inner: Circle, outer: Circle,
                       config: RunConfig = None, y0=None) -> AnnulusBound:
    """Certified zero bound (2k'+1)(2B+1) on the open annulus between circles.

    Requires quasiunipotent monodromy along the equatorial circle; k' is the
    order of the symmetrized operator in the concentric chart and B bounds
    the argument variation along both boundary circles.
    """
    config = config or RunConfig()
    phi = _concentric_map(inner, outer)
    im_in = _image_circle(phi, inner)
    im_out = _image_circle(phi, outer)
    rho1, rho2 = im_in.radius, im_out.radius
    if rho1 > rho2:
        rho1, rho2 = rho2, rho1
    req = math.sqrt(rho1 * rho2)
    scale = MobiusMap(_rationalize(complex(1 / req)), 0, 0, 1)
    chart = scale.compose(phi)          # annulus -> {rho1/req < |w| < rho2/req}
    # equatorial loop in the original chart
    inv = chart.inverse()
    eq_pts = [inv(cmath.exp(1j * a)) for a in np.linspace(0, 2 * math.pi, 257)]
    eq_path = ContourPath.from_points(eq_pts, close=True)
    M = monodromy(D, eq_path, config)
    qu, orders = is_quasiunipotent(M, config)
    if not qu:
        raise NotQuasiunipotent("equatorial monodromy is not quasiunipotent")
    Dw = pullback(D, inv)               # operator in the concentric chart
    Dsym = symmetrize(Dw, MobiusMap(1, GaussianRational(0, -1),
                                    1, GaussianRational(0, 1)))
    # carrier above: unit circle as Moebius image of the real axis
    kp = Dsym.order
    sing = Dsym.leading_roots()
    b1 = var_arg_bound(Dsym, _full_arc(Circle(0, rho1 / req)), sing, config)
    b2 = var_arg_bound(Dsym, _full_arc(Circle(0, rho2 / req)), sing, config)
    B = int(math.ceil(max(b1.value, b2.value)))
    return AnnulusBound(kp, B, annulus_bound_formula(kp, B), True, orders,
                        {"rho_ratio": rho2 / rho1, "var_bounds": (b1.value, b2.value)})


def _full_arc(circle: Circle):
    return Arc(circle.center, circle.radius, 0.0, 2 * math.pi)


def annulus_bound_formula(kprime: int, B: int) -> int:
    """(2k'+1)(2B+1)."""
    return (2 * kprime + 1) * (2 * B + 1)


# ---------------------------------------------------------------------------
# region partition counting


def _region_contour(region) -> ContourPath:
    """Single closed boundary contour of a slit simply connected region."""
    outer = region.outer
    holes = list(region.inner)
    segs = list(region.segments)
    circles = ([outer] if outer is not None else []) + holes

    def circ_dir(c):
        return 1.0 if c is outer else -1.0  # ccw for outer, cw for holes

    def angle_on(c, p):
        v = p - c.center
        return math.atan2(v.imag, v.real)

    # attachments[circle index] = sorted list of (angle, segment index, end)
    attach = {i: [] for i in range(len(circles))}

    def find_circle(p):
        best, bi = None, None
        for i, c in enumerate(circles):
            d = abs(abs(p - c.center) - c.radius)
            if best is None or d < best:
                best, bi = d, i
        return bi

    for si, s in enumerate(segs):
        i0 = find_circle(s.z0)
        i1 = find_circle(s.z1)
        attach[i0].append((angle_on(circles[i0], s.z0), si, 0))
        attach[i1].append((angle_on(circles[i1], s.z1), si, 1))
    for i in attach:
        attach[i].sort()
    if not segs:
        if len(circles) == 1:
            c = circles[0]
            ccw = circ_dir(c) > 0
            return ContourPath.from_circle(Circle(c.center, c.radius), ccw=ccw)
        raise UnsupportedInput("multiple boundary circles but no slits")

    pieces = []
    start = (0, 0)  # (circle index, attachment slot): leave along this arc
    state = start
    visited = 0
    max_steps = 4 * len(segs) + 20
    while True:
        ci, slot = state
        c = circles[ci]
        d = circ_dir(c)
        ats = attach[ci]
        a_here = ats[slot][0]
        nxt = (slot + (1 if d > 0 else -1)) % len(ats)
        a_next = ats[nxt][0]
        sweep = (a_next - a_here) * d
        sweep = sweep % (2 * math.pi)
        if sweep == 0 and len(ats) > 1:
            sweep = 2 * math.pi
        if len(ats) == 1:
            sweep = 2 * math.pi
        pieces.append(Arc(c.center, c.radius, a_here, a_here + d * sweep))
        # cross the segment attached at the next slot
        a, si, end = ats[nxt]
        s = segs[si]
        if end == 0:
            pieces.append(Segment(s.z0, s.z1))
            target, tp = find_circle(s.z1), s.z1
        else:
            pieces.append(Segment(s.z1, s.z0))
            target, tp = find_circle(s.z0), s.z0
        tslot = None
        tats = attach[target]
        for k, (ang, sj, e) in enumerate(tats):
            if sj == si and e != end:
                tslot = k
        state = (target, tslot)
        visited += 1
        if state == start or visited > max_steps:
            break
    if state != start:
        raise UnsupportedInput("boundary traversal did not close")
    return ContourPath(pieces)


def count_region_partition(obj, system: SlitSystem, y0, combo=None,
                           config: RunConfig = None):
    """Per-region zero counts for the tracked branch.

    Simply connected regions use the argument principle along their slit
    boundary.  Annuli and punctured disks report an empirical winding count
    (when the branch is single-valued) plus a certified annulus bound for
    operator sources.
    """
    config = config or RunConfig()
    regs = regions(system, config)
    out = []
    y0 = np.asarray(y0, dtype=complex)
    for reg in regs:
        rec = {"kind": reg.kind, "empirical": None, "certified_bound": None,
               "unbounded": reg.outer is None}
        if reg.kind == "simply-connected":
            if reg.outer is None and not reg.inner and not reg.segments:
                # unbounded complement of the outermost circle: walk it cw
                roots = [c for c in system.circles
                         if not any(_strictly_inside(c, o) for o in system.circles)]
                contour = ContourPath.from_circle(roots[0], ccw=False)
            else:
                contour = _region_contour(reg)
            base = contour.start
            y_at = _transport_initial(obj, system, y0, base, config)
            try:
                rec["empirical"] = count_zeros(obj, contour, y0=y_at,
                                               combo=combo, config=config)
            except (ZeroOnPath, NonIntegerWinding) as exc:
                rec["error"] = str(exc)
        else:
            outer_c = reg.outer
            holes = list(reg.inner)
            if not holes:
                p = reg.punctures[0]
                holes = [Circle(p, outer_c.radius * 1e-3)]
            try:
                ws = [_circle_winding(obj, system, c, y0, combo, config)
                      for c in [outer_c] + holes]
                if all(w is not None for w in ws):
                    rec["empirical"] = ws[0] - sum(ws[1:])
            except (ZeroOnPath, NonIntegerWinding) as exc:
                rec["error"] = str(exc)
            # a certified bound needs a genuine annular region: one inner
            # boundary circle and no slits glued to it
            if isinstance(obj, DiffOperator) and len(holes) == 1 \
                    and not reg.segments:
                try:
                    rec["certified_bound"] = annulus_zero_bound(
                        obj, holes[0], outer_c, config).value
                except (NotQuasiunipotent, UnsupportedInput) as exc:
                    rec["bound_error"] = str(exc)
        out.append(rec)
    total = sum(r["empirical"] for r in out
                if r["empirical"] is not None and not r["unbounded"])
    return {"regions": out, "total_bounded_empirical": total}


def _strictly_inside(c, o):
    return c is not o and abs(c.center - o.center) + c.radius < o.radius


def _transport_initial(obj, system, y0, target, config):
    """Continue initial data from the system basepoint to `target`."""
    base = _basepoint(system)
    if abs(base - target) == 0:
        return y0
    path = ContourPath.from_points([base, target])
    # route around singular points: if the straight segment is too close,
    # bow it outward
    source = _as_source(obj)
    sing = source.singular_points()
    if len(sing):
        seg = Segment(base, target)
        if min(seg.dist_to_point(complex(p)) for p in sing) < 1e-6:
            mid = (base + target) / 2 + 0.5j * (target - base)
            path = ContourPath.from_points([base, mid, target])
    return continue_solution(obj, path, y0, config)


def _basepoint(system: SlitSystem):
    roots = [c for c in system.circles
             if not any(_strictly_inside(c, o) for o in system.circles)]
    c = roots[0]
    return c.center + 1.5 * c.radius


def _circle_winding(obj, system, circle, y0, combo, config):
    start = circle.point_at(0.0)
    y_at = _transport_initial(obj, system, y0, start, config)
    loop = ContourPath.from_circle(circle, ccw=True)
    # single-valuedness check for the tracked branch
    y_back = continue_solution(obj, loop, y_at, config)
    scale = max(np.max(np.abs(y_at)), 1e-300)
    if np.max(np.abs(y_back - y_at)) > 1e-6 * scale:
        return None
    phi, _ = variation_of_argument(obj, loop, y_at, combo=combo, config=config)
    turns = phi / (2 * math.pi)
    n = round(turns)
    if abs(turns - n) > config.winding_tol:
        raise NonIntegerWinding(f"winding {turns} not an integer")
    return int(n)


# ---------------------------------------------------------------------------
# headline growth bound


def headline_bound(n: int, size_s=None, config: RunConfig = None) -> BoundReport:
    """Doubly exponential growth budget for zero counts at degree n + 1.

    Uses ell = n^2, m = (n+3)(n+2)/2 - 1, d = O(n^2) and Poly(d, ell, m) =
    c_poly (d ell^4 m)^5; the count is bounded by s^(2^Poly).  With the
    derivation size budget s = 2^(Poly(n)) this collapses to the tower
    2^(2^(c_tower n^60 log n)).  Constants are calibration knobs, not
    certified values.
    """
    config = config or RunConfig()
    ell = n * n
    m = (n + 3) * (n + 2) // 2 - 1
    d = n * n
    poly = config.c_poly * float(d * ell ** 4 * m) ** 5
    if size_s is not None:
        # log2(log2(s^(2^poly))) = poly + log2(log2 s)
        log2log2 = poly + math.log2(max(math.log2(max(size_s, 2.0)), 1e-9))
        formula = f"s^(2^({poly:.6g}))"
    else:
        log2log2 = config.c_tower * n ** 60 * math.log(max(n, 2))
        formula = f"2^(2^({config.c_tower:g} * n^60 * log n))"
    return BoundReport("headline", float("inf"), {
        "n": n, "ell": ell, "m": m, "d": d,
        "poly": poly, "log2log2": log2log2, "formula": formula})
