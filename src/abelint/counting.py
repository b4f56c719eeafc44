"""Numeric zero counting: continuation, argument variation, annulus bounds.

Solutions of linear ODE systems (or scalar operators via their companion
systems) are continued, by one loop over the pieces, along piecewise
circular/segment paths with an adaptive high-order integrator whose step
never exceeds a fixed fraction of the exact distance from the piece to the
singular locus.  Winding numbers come from integrating d(arg w) alongside
the solution, so the argument stays continuous by construction.

The integrator is the Dormand-Prince 8(5,3) of `dop853`, which takes the
steps `solve_ivp(method="DOP853")` takes; oval quadrature runs on it too.
It steps Python complex scalars, because numpy's per-call cost dominates on
states of a few entries; states of more than UNROLL scalars step as numpy
arrays.  The derivative dY = dz A(z) Y, with the tracked Im(dw / w), is
written into the generated step as source lines (`_derivative`), with the
point and velocity of an Arc or a Segment written out, and so are the
entries of A(z): the Horner sums and quotients of a system's entries, the
coefficient sums and quotients of a companion matrix, from the same
`stage_lines` of `LinearODESystem` and `DiffOperator` that their `eval`
and `companion_rhs` kernels run, with the coefficients bound as values.
So a stage calls nothing but exp on an Arc; entries that do not depend on
z (the whole companion row of D^2 + 1) are computed once per piece, and a
divisor that rounds to 0 or a power that overflows raises at its stage
the NumericOverflow the kernel raises.  The step builds stage sums only
for the components that the derivative reads, and leaves out every entry
and product by an entry that is exactly 0 in the exact source (a zero
entry of a system's A, a structural zero of a companion matrix or one
from a zero coefficient, a zero entry of the tracked combination).  Such a
product can change a sum only in the sign of a zero.  The same lines give
the standalone right-hand side for the first evaluation and the initial
step.  A point of numpy scalars, and an A without lines, make the step
call A once per stage.  numpy is imported inside the functions that call
it (the states of continuation, monodromy and eigenvalues), not with the
module: the argument variation of an explicit function samples at
s = k / 32 and never loads it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from . import dop853
from .errors import (NonIntegerWinding, NotQuasiunipotent, NumericOverflow,
                     PathTooClose, ToleranceNotMet, UnsupportedInput,
                     ZeroOnPath)
from .operators import DiffOperator, MobiusMap, affine_slope, pullback, symmetrize
from .polynomials import _sum, matrix_source
from .qi import GaussianRational
from .slits import Arc, Circle, Segment, SlitSystem, _dist_to_set, regions

# continuation
RTOL = 1e-11
ATOL = 1e-13
MAX_STEP_FACTOR = 0.2      # step <= factor * dist(path, singular set)
MIN_PATH_DISTANCE = 1e-9   # relative; closer paths raise PathTooClose
# states of at most this many scalars are continued as Python complex
# scalars, with every component written out; larger ones as numpy arrays
UNROLL = 16
ZERO_ON_PATH_TOL = 1e-9    # |w| below tol * scale aborts winding
# winding: |Delta arg/2pi - round| must stay below
WINDING_TOL = 0.1
# quasiunipotence: eigenvalues within QU_TOL of a root of unity of order
# at most QU_MAX_ORDER
QU_TOL = 1e-6
QU_MAX_ORDER = 64
# variation-of-argument bound: exponent nu(d) = C_VAR * d
C_VAR = 3.0


# ---------------------------------------------------------------------------
# paths


class ContourPath:
    """Piecewise path of Arc and Segment pieces, parametrized on [0,1] each."""

    def __init__(self, pieces):
        if not pieces:
            raise UnsupportedInput("empty path")
        self.pieces = list(pieces)

    @staticmethod
    def from_circle(circle: Circle, ccw=True):
        sweep = 2 * math.pi if ccw else -2 * math.pi
        return ContourPath([Arc(circle.center, circle.radius, 0.0, sweep)])

    @staticmethod
    def from_points(zs):
        pts = [complex(z) for z in zs]
        return ContourPath([Segment(a, b) for a, b in zip(pts, pts[1:])])

    @property
    def start(self):
        return self.pieces[0].at(0.0)

    @property
    def end(self):
        return self.pieces[-1].at(1.0)

    def is_closed(self, tol=1e-9):
        scale = max(abs(self.start), abs(self.end), 1.0)
        return abs(self.start - self.end) <= tol * scale

    def length(self):
        return sum(p.length() for p in self.pieces)

    def min_dist(self, points):
        """Exact distance from the path to the nearest of points."""
        return min((_dist_to_set(piece, points) for piece in self.pieces),
                   default=float("inf"))


# ---------------------------------------------------------------------------
# continuation of dY/dt = A(t) Y


def _as_source(obj):
    """(A, singular points, dimension) of the system dY/dt = A(t) Y of obj:
    the companion system of a scalar operator, or a linear ODE system."""
    if isinstance(obj, DiffOperator):
        return obj.companion_rhs, obj.leading_roots(), obj.order
    if hasattr(obj, "ell") and hasattr(obj, "eval"):
        return obj.eval, obj.singular_points, obj.ell
    raise UnsupportedInput(f"cannot continue solutions of {type(obj).__name__}")


def _integrate_piece(A, sing, piece, Y0, combo=None, phi0=0.0, lines=None):
    """Continue Y (matrix columns) along one piece; with combo, also track
    arg(w) for w = combo . Y[:, 0] (Y is then a matrix).  lines, the
    `stage_lines` method of the source of A, gives the scalar step on an
    Arc or a Segment of Python numbers A's lines to write in; otherwise
    the step calls A once per stage."""
    import numpy as np
    dist = _dist_to_set(piece, sing)
    # every point of the piece lies within its length of its start
    scale = max(abs(piece.at(0.0)) + piece.length(), 1.0)
    if dist < MIN_PATH_DISTANCE * scale:
        raise PathTooClose(f"path at distance {dist} from the singular locus")
    # |d piece.at(s)/ds| is the piece's length for every s
    max_step = (MAX_STEP_FACTOR * dist / piece.length()
                if math.isfinite(dist) else 0.1)
    n = len(Y0)
    tracked = combo is not None
    state = Y0.T.ravel()    # column by column
    scalars = len(state) + tracked <= UNROLL
    kind = type(piece) if scalars and type(piece) in _POINT else None
    point = _point_values(piece) if kind else (piece.at_velocity,)
    written = kind is not None and lines is not None and _python_numbers(point)
    zero_combo = None
    if tracked:
        combo = [complex(c) for c in combo]
        if sum(c * y for c, y in zip(combo, state)) == 0:
            raise ZeroOnPath("tracked combination vanishes at path start")
        state = np.append(state, phi0)
        low = [math.inf]    # the smallest |w| at any evaluation
        point += (combo, low)
        zero_combo = tuple(c == 0 for c in combo)
    args, shape = (A, *point), None
    if written:
        program, cells, failure = lines()
        args = (program.consts, failure, *point)
        shape = (program.setup, program.lines, cells)
    if scalars:
        spec = (n, Y0.size // n, tracked, kind, shape, zero_combo)
        step = dop853.step_function(len(state), _derivative(*spec))(*args)
        final = dop853.solve(_scalar_rhs(*spec)(*args), state.tolist(), max_step,
                             RTOL, ATOL, step=step)
    else:
        final = dop853.solve(_array_rhs(n, tracked)(*args), state, max_step, RTOL, ATOL)
    if not tracked:
        return _from_columns(final, Y0.shape), None
    Yf = _from_columns(final[:-1], Y0.shape)
    wscale = float(np.max(np.abs(Yf))) or 1.0
    if low[0] < ZERO_ON_PATH_TOL * wscale:
        raise ZeroOnPath(f"|w| dropped to {low[0]} on the path")
    return Yf, float(final[-1].real)


def _from_columns(state, shape):
    """The array of the given shape stored column by column in state."""
    import numpy as np
    return np.array(state).reshape(shape[::-1]).T


# the source of the point z and the velocity dz at s on a piece, written
# out with the floats of its `at_velocity`, as (parameters, lines) per
# piece type; None calls at_velocity
_POINT = {
    None: (("at_velocity",), ("z, dz = at_velocity(s)",)),
    Segment: (("z0", "dz"), ("z = z0 + s * dz",)),
    Arc: (("exp", "center", "radius", "phase", "sweep", "v"),
          ("e = exp(1j * (phase + s * sweep))", "z = center + radius * e", "dz = v * e")),
}


def _point_values(piece):
    """The values of the parameters of `_POINT[type(piece)]`."""
    if isinstance(piece, Segment):
        return piece.z0, piece.z1 - piece.z0
    sweep = piece.a1 - piece.a0
    return cmath.exp, piece.center, piece.radius, piece.a0, sweep, piece.radius * sweep * 1j


def _python_numbers(point):
    """Whether the values of `_point_values` are Python numbers, exp aside:
    a point of numpy scalars would take A's lines in numpy arithmetic,
    where `LinearODESystem.eval` takes A at complex(z)."""
    return all(type(v) in (int, float, complex) for v in point if v is not cmath.exp)


@lru_cache(maxsize=256)
def _derivative(n, m, tracked, kind=None, shape=None, zero_combo=None):
    """The dop853.Derivative of dY/dt = A(t) Y along a piece, for the n x m
    matrix Y stored column by column in the state: dY = dz * (A(z) Y) on
    Python complex scalars, with z and dz those of `_POINT[kind]`.  shape
    is (setup, lines, cells) of the `stage_lines` of A's source, its setup
    unpacking c0, c1, ... from `coefficients`: A(z) is then written in,
    from the parameters coefficients and failure, which maps an
    OverflowError or a ZeroDivisionError of A's lines at z to the error
    its kernel raises; without shape, the parameter A is called and its
    rows unpacked.  Then come the parameters of the point and, tracked,
    combo and low: the state then ends with arg w for w = combo . Y[:, 0],
    whose derivative is Im(dw / w) (0 where w = 0), and low[0] keeps the
    smallest |w| seen.  Every product is written out but those with an
    entry of A whose cell is None or an entry of combo that `zero_combo`
    marks, which are exactly 0; a row of A with no entry left gives 0j."""
    point_params, lines = _POINT[kind]
    if shape is None:
        cells = tuple(tuple(f"a{i}_{k}" for k in range(n)) for i in range(n))
        params, setup = ("A", *point_params), []
        lines = [*lines, f"{matrix_source(cells)} = A(z)"]
    else:
        setup, entries, cells = shape
        params, setup = ("coefficients", "failure", *point_params), list(setup)
        lines = [*lines, "try:", *(f"    {line}" for line in entries),
                 "except (OverflowError, ZeroDivisionError) as exc:",
                 "    raise failure(exc, z) from None"] if entries else list(lines)
    for j in range(m):
        for i in range(n):
            terms = [f"{cells[i][k]} * u_{j * n + k}" for k in range(n)
                     if cells[i][k] is not None]
            lines.append(f"{{k}}{j * n + i} = "
                         + (f"dz * ({_sum(terms)})" if terms else "0j"))
    reads = {j * n + k for j in range(m) for k in range(n)
             if any(cells[i][k] is not None for i in range(n))}
    if tracked:
        live = [k for k in range(n) if not (zero_combo and zero_combo[k])]
        reads.update(live)
        params += ("combo", "low")
        setup.append("".join(f"q{k}, " for k in range(n)) + "= combo")
        lines += [f"w = {_sum(f'q{k} * u_{k}' for k in live)}",
                  "aw = abs(w)",
                  "if aw < low[0]:",
                  "    low[0] = aw",
                  f"dw = {_sum(f'q{k} * {{k}}{k}' for k in live)}",
                  f"{{k}}{n * m} = (dw / w).imag if aw > 0 else 0.0"]
    return dop853.Derivative(params, tuple(setup), tuple(sorted(reads)), tuple(lines))


def _scalar_rhs(n, m, tracked, kind=None, shape=None, zero_combo=None):
    """make(*parameters of `_derivative`) -> the right-hand side s, y ->
    dy/ds of `_derivative(n, m, tracked, kind, shape, zero_combo)` on a
    list y, for the evaluations outside the step."""
    return dop853.rhs_function(n * m + tracked,
                               _derivative(n, m, tracked, kind, shape, zero_combo))


def _array_rhs(n, tracked):
    """What _scalar_rhs(n, m, tracked) makes, for any m, on numpy arrays y,
    whose per-call cost a large state pays back: make(A, at_velocity[,
    combo, low])."""
    def make(A, at_velocity, combo=None, low=None):
        import numpy as np
        c = np.array(combo) if tracked else None

        def rhs(s, y):
            z, dz = at_velocity(s)
            y = np.asarray(y)
            dY = dz * (np.array(A(z)) @ y[:len(y) - tracked].reshape(-1, n).T)
            out = dY.T.ravel()
            if not tracked:
                return out
            w, dw = c @ y[:n], c @ out[:n]
            aw = abs(w)
            if aw < low[0]:
                low[0] = aw
            return np.append(out, (dw / w).imag if aw > 0 else 0.0)
        return rhs
    return make


def _continue(obj, path: ContourPath, Y, combo=None):
    """(Y, phi): Y continued along every piece of the path and, when combo is
    given, the variation phi of arg(combo . Y[:, 0]) along it (else None)."""
    A, sing, _ = _as_source(obj)
    phi = 0.0
    for piece in path.pieces:
        Y, phi = _integrate_piece(A, sing, piece, Y, combo=combo, phi0=phi,
                                  lines=getattr(obj, "stage_lines", None))
    return Y, phi


def continue_solution(obj, path: ContourPath, Y0):
    """Continue the solution (vector or matrix of columns) along the path."""
    import numpy as np
    return _continue(obj, path, np.array(Y0, dtype=complex))[0]


def variation_of_argument(obj, path: ContourPath, y0, combo=None):
    """Total variation of arg(combo . Y) along the path, in radians.

    `obj` is a callable t -> w (then the second value is None), or an
    operator or system with `y0` its initial data at path.start.
    """
    if callable(obj):
        return _variation_callable(obj, path)
    import numpy as np
    Y = np.array(y0, dtype=complex)
    if Y.ndim == 1:
        Y = Y.reshape(-1, 1)
    if combo is None:
        combo = np.zeros(len(Y), dtype=complex)
        combo[0] = 1.0
    Y, phi = _continue(obj, path, Y, combo=np.asarray(combo, dtype=complex))
    return phi, Y


def _variation_callable(f, path: ContourPath):
    """Adaptive sampled argument variation for an explicit function."""
    params = []
    for i in range(len(path.pieces)):
        for k in range(32):
            params.append((i, k / 32))
    params.append((len(path.pieces) - 1, 1.0))

    def point(pr):
        return path.pieces[pr[0]].at(pr[1])

    vals = [complex(f(point(pr))) for pr in params]
    scale = max(abs(v) for v in vals)
    if scale == 0:
        raise ZeroOnPath("function vanishes identically on the path")
    # refine until adjacent argument jumps are < pi/2
    for _ in range(40):
        new_params = [params[0]]
        new_vals = [vals[0]]
        refined = False
        for (pa, va), (pb, vb) in zip(zip(params, vals), zip(params[1:], vals[1:])):
            if abs(va) < ZERO_ON_PATH_TOL * scale or \
               abs(vb) < ZERO_ON_PATH_TOL * scale:
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


def count_zeros(obj, path: ContourPath, y0=None, combo=None) -> int:
    """Zeros (with multiplicity) inside a closed path via the argument principle.

    `obj` is a callable t -> w, or an operator/system with `y0` the initial
    data of the tracked branch at path.start.
    """
    if not path.is_closed():
        raise UnsupportedInput("count_zeros requires a closed path")
    if y0 is None and not callable(obj):
        raise UnsupportedInput("count_zeros needs initial data for ODE sources")
    phi, _ = variation_of_argument(obj, path, y0, combo=combo)
    return _winding_number(phi)


def _winding_number(phi) -> int:
    """The integer number of turns in the argument variation phi."""
    turns = phi / (2 * math.pi)
    n = round(turns)
    if abs(turns - n) > WINDING_TOL:
        raise NonIntegerWinding(f"winding {turns} is not close to an integer")
    return int(n)


# ---------------------------------------------------------------------------
# monodromy


def monodromy(obj, loop: ContourPath):
    """Fundamental-solution monodromy matrix along a closed loop."""
    import numpy as np
    dim = _as_source(obj)[2]
    if not loop.is_closed():
        raise UnsupportedInput("monodromy needs a closed loop")
    return _continue(obj, loop, np.eye(dim, dtype=complex))[0]


def is_quasiunipotent(M):
    """(ok, orders): eigenvalues on the unit circle with root-of-unity orders."""
    import numpy as np
    eigs = np.linalg.eigvals(np.asarray(M, dtype=complex))
    orders = []
    for lam in eigs:
        if abs(abs(lam) - 1.0) > QU_TOL:
            return False, []
        order = next((q for q in range(1, QU_MAX_ORDER + 1)
                      if abs(lam ** q - 1.0) <= QU_TOL * q), None)
        if order is None:
            return False, []
        orders.append(order)
    return True, orders


# ---------------------------------------------------------------------------
# variation-of-argument bound


def _rationalize(z: complex, digits=10 ** 12) -> GaussianRational:
    return GaussianRational(Fraction(z.real).limit_denominator(digits),
                            Fraction(z.imag).limit_denominator(digits))


def _chart_scale(x: float) -> GaussianRational:
    """The positive float x as the rational scale of a chart map; it must
    not round to 0, which would make the map degenerate."""
    scale = _rationalize(complex(x))
    if not scale:
        raise NumericOverflow(f"chart scale {x} rounds to 0 at the 1e-12 "
                              "resolution of rational charts")
    return scale


@dataclass
class BoundReport:
    kind: str
    value: float
    details: dict = field(default_factory=dict)


def var_arg_bound(D: DiffOperator, piece, singular_points) -> BoundReport:
    """Upper bound, in full turns, for Var arg of any D-solution along piece.

    Affine-invariant: the piece is moved to a chart where its distance to the
    singular locus is 1, the exact slope of the pulled-back operator is
    computed there, and the bound k * S * L * max(L,1)^(C_VAR * d) applies.
    """
    import numpy as np
    sing = np.asarray(singular_points, dtype=complex)
    dist = _dist_to_set(piece, sing)
    if not math.isfinite(dist):
        dist = max(piece.length(), 1.0)
    if dist <= 0:
        raise PathTooClose("piece touches the singular locus")
    z0 = piece.at(0.0)
    chart = MobiusMap(_chart_scale(dist), _rationalize(z0), 0, 1)
    Dc = pullback(D, chart)   # operator in u with z = z0 + dist * u
    S = float(affine_slope(Dc))
    L = piece.length() / dist
    k = D.order
    d = max(c.degree_in("t") for c in D.coeffs if not c.is_zero())
    d = int(d) if d > 0 else 1
    value = k * S * L * max(L, 1.0) ** (C_VAR * d)
    return BoundReport("var-arg", value, {
        "order": k, "slope": S, "normalized_length": L, "degree": d,
        "exponent": C_VAR * d})


# ---------------------------------------------------------------------------
# annulus bound


def _concentric_map(inner: Circle, outer: Circle) -> MobiusMap:
    """Exact-rational Moebius map sending both circles to origin-centered ones."""
    if not (_strictly_inside(inner, outer) or _strictly_inside(outer, inner)):
        raise UnsupportedInput("circles are not strictly nested")
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
    """Image of a circle under a Moebius map whose pole is off the circle.

    Moebius maps keep points symmetric in a circle symmetric, so the center
    is the image of the reflection of the pole phi^-1(oo) in the circle.
    An affine phi has its pole at oo, which reflects to the center; a pole
    at the center reflects to oo, which phi sends to a/c.
    """
    if not phi.c:
        center = phi(circle.center)
    else:
        v = -complex(phi.d) / complex(phi.c) - circle.center
        center = (complex(phi.a) / complex(phi.c) if v == 0
                  else phi(circle.center + circle.radius ** 2 / v.conjugate()))
    return Circle(center, abs(phi(circle.point_at(0)) - center))


def _annulus_chart(inner: Circle, outer: Circle):
    """(chart, rho1, rho2, req): chart sends the annulus onto
    {rho1/req < |w| < rho2/req}, with req = sqrt(rho1 * rho2)."""
    phi = _concentric_map(inner, outer)
    rho1 = _image_circle(phi, inner).radius
    rho2 = _image_circle(phi, outer).radius
    if rho1 > rho2:
        rho1, rho2 = rho2, rho1
    req = math.sqrt(rho1 * rho2)
    scale = MobiusMap(_chart_scale(1 / req), 0, 0, 1)
    return scale.compose(phi), rho1, rho2, req


def _equatorial_loop(inv: MobiusMap) -> ContourPath:
    """The image under inv of |w| = 1, run as w goes counterclockwise from 1:
    one exact Arc on the image circle.  The orientation flips when the pole
    w_p = inv^-1(oo) lies inside the unit disk."""
    image = _image_circle(inv, Circle(0j, 1.0))
    outside = not inv.c or abs(complex(inv.d) / complex(inv.c)) > 1
    sweep = 2 * math.pi if outside else -2 * math.pi
    a0 = cmath.phase(inv(1) - image.center)
    return ContourPath([Arc(image.center, image.radius, a0, a0 + sweep)])


@dataclass
class AnnulusBound:
    order: int
    B: int
    value: int
    quasiunipotent: bool
    orders: list
    details: dict = field(default_factory=dict)


def annulus_zero_bound(D: DiffOperator, inner: Circle, outer: Circle) -> AnnulusBound:
    """Certified zero bound (2k'+1)(2B+1) on the open annulus between circles.

    Requires quasiunipotent monodromy along the equatorial circle, the
    image of |w| = 1 in the concentric chart, traced as one exact Arc; k' is
    the order of the symmetrized operator in that chart and B bounds the
    argument variation along both boundary circles.
    """
    if _strictly_inside(outer, inner):  # one chart, so one B, for both orders
        inner, outer = outer, inner
    chart, rho1, rho2, req = _annulus_chart(inner, outer)
    inv = chart.inverse()
    M = monodromy(D, _equatorial_loop(inv))
    qu, orders = is_quasiunipotent(M)
    if not qu:
        raise NotQuasiunipotent("equatorial monodromy is not quasiunipotent")
    # D in the concentric chart, symmetrized across its unit circle
    Dsym = symmetrize(D, MobiusMap(1, GaussianRational(0, -1), 1, GaussianRational(0, 1)), inv)
    kp = Dsym.order
    sing = Dsym.leading_roots()
    b1, b2 = (var_arg_bound(Dsym, ContourPath.from_circle(Circle(0, rho / req)).pieces[0],
                            sing) for rho in (rho1, rho2))
    B = int(math.ceil(max(b1.value, b2.value)))
    return AnnulusBound(kp, B, annulus_bound_formula(kp, B), True, orders,
                        {"rho_ratio": rho2 / rho1, "var_bounds": (b1.value, b2.value)})


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


def count_region_partition(obj, system: SlitSystem, y0, combo=None):
    """Per-region zero counts for the tracked branch.

    Simply connected regions use the argument principle along their slit
    boundary.  Annuli and punctured disks report an empirical winding count
    (when the branch is single-valued) plus a certified annulus bound for
    operator sources.
    """
    import numpy as np
    regs = regions(system)
    out = []
    y0 = np.asarray(y0, dtype=complex)
    for reg in regs:
        rec = {"kind": reg.kind, "empirical": None, "certified_bound": None,
               "unbounded": reg.outer is None}
        if reg.kind == "simply-connected":
            if reg.outer is None and not reg.inner and not reg.segments:
                # unbounded complement of the outermost circle: walk it cw
                contour = ContourPath.from_circle(_outermost(system), ccw=False)
            else:
                contour = _region_contour(reg)
            base = contour.start
            y_at = _transport_initial(obj, system, y0, base)
            try:
                rec["empirical"] = count_zeros(obj, contour, y0=y_at,
                                               combo=combo)
            except (ZeroOnPath, NonIntegerWinding) as exc:
                rec["error"] = str(exc)
        else:
            outer_c = reg.outer
            holes = list(reg.inner)
            if not holes:
                p = reg.punctures[0]
                holes = [Circle(p, outer_c.radius * 1e-3)]
            try:
                ws = [_circle_winding(obj, system, c, y0, combo)
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
                        obj, holes[0], outer_c).value
                except (NotQuasiunipotent, UnsupportedInput) as exc:
                    rec["bound_error"] = str(exc)
        out.append(rec)
    total = sum(r["empirical"] for r in out
                if r["empirical"] is not None and not r["unbounded"])
    return {"regions": out, "total_bounded_empirical": total}


def _strictly_inside(c, o):
    return c is not o and abs(c.center - o.center) + c.radius < o.radius


def _transport_initial(obj, system, y0, target):
    """Continue initial data from the system basepoint to `target`."""
    base = _basepoint(system)
    if abs(base - target) == 0:
        return y0
    path = ContourPath.from_points([base, target])
    # route around singular points: if the straight segment is too close,
    # bow it outward
    if path.min_dist(_as_source(obj)[1]) < 1e-6:
        mid = (base + target) / 2 + 0.5j * (target - base)
        path = ContourPath.from_points([base, mid, target])
    return continue_solution(obj, path, y0)


def _outermost(system: SlitSystem):
    """The first circle of the system that no other circle contains."""
    return [c for c in system.circles
            if not any(_strictly_inside(c, o) for o in system.circles)][0]


def _basepoint(system: SlitSystem):
    c = _outermost(system)
    return c.center + 1.5 * c.radius


def _circle_winding(obj, system, circle, y0, combo):
    import numpy as np
    start = circle.point_at(0.0)
    y_at = _transport_initial(obj, system, y0, start)
    loop = ContourPath.from_circle(circle, ccw=True)
    phi, y_back = variation_of_argument(obj, loop, y_at, combo=combo)
    # single-valuedness check for the tracked branch
    scale = max(np.max(np.abs(y_at)), 1e-300)
    if np.max(np.abs(y_back.reshape(y_at.shape) - y_at)) > 1e-6 * scale:
        return None
    return _winding_number(phi)


# ---------------------------------------------------------------------------
# headline growth bound


def headline_bound(n: int, size_s=None) -> BoundReport:
    """Doubly exponential growth budget for zero counts at degree n + 1.

    Uses ell = n^2, m = (n+3)(n+2)/2 - 1, d = O(n^2) and Poly(d, ell, m) =
    (d ell^4 m)^5; the count is bounded by s^(2^Poly).  With the derivation
    size budget s = 2^(Poly(n)) this collapses to the tower
    2^(2^(n^60 log n)).  A growth budget, not a certified value.
    """
    ell = n * n
    m = (n + 3) * (n + 2) // 2 - 1
    d = n * n
    try:
        poly = float(d * ell ** 4 * m) ** 5
        if size_s is not None:
            # log2(log2(s^(2^poly))) = poly + log2(log2 s)
            log2log2 = poly + math.log2(max(math.log2(max(size_s, 2.0)), 1e-9))
            formula = f"s^(2^({poly:.6g}))"
        else:
            log2log2 = n ** 60 * math.log(max(n, 2))
            formula = "2^(2^(1 * n^60 * log n))"
    except OverflowError:
        raise NumericOverflow(f"headline bound for n = {n} is beyond the float range") from None
    return BoundReport("headline", float("inf"), {
        "n": n, "ell": ell, "m": m, "d": d,
        "poly": poly, "log2log2": log2log2, "formula": formula})
