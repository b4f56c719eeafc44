"""Continuation, winding numbers, monodromy, and certified annulus bounds."""

import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from abelint import counting
from abelint.counting import (QU_MAX_ORDER, AnnulusBound, ContourPath,
                              annulus_bound_formula, annulus_zero_bound,
                              continue_solution, count_region_partition,
                              count_zeros, is_quasiunipotent, monodromy,
                              var_arg_bound, variation_of_argument)
from abelint.errors import (NonIntegerWinding, NotQuasiunipotent, NumericOverflow,
                            PathTooClose, UnsupportedInput, ZeroOnPath)
from abelint.operators import MobiusMap
from abelint.parsing import parse_operator
from abelint.qi import GaussianRational
from abelint.slits import Arc, Circle, build_slits


def test_continuation_exponential():
    D = parse_operator("D - 1")
    path = ContourPath.from_points([0, 1 + 1j])
    y = continue_solution(D, path, np.array([1.0 + 0j]))
    assert abs(y[0] - cmath.exp(1 + 1j)) < 1e-10


def test_count_zeros_polynomials():
    rng = random.Random(40)
    for _ in range(20):
        deg = rng.randint(1, 6)
        roots = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                 for _ in range(deg)]
        center = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        radius = rng.uniform(0.5, 3.0)
        if min(abs(abs(r - center) - radius) for r in roots) < 0.05:
            continue

        def f(z):
            out = 1.0 + 0j
            for r in roots:
                out *= (z - r)
            return out

        expected = sum(1 for r in roots if abs(r - center) < radius)
        loop = ContourPath.from_circle(Circle(center, radius))
        assert count_zeros(f, loop) == expected


def test_count_zeros_via_ode():
    # y'' + y = 0 with y = sin: two zeros (0 and pi) in |t - 1| < 2.5
    D = parse_operator("D^2 + 1")
    c = Circle(1 + 0j, 2.5)
    start = c.point_at(0.0)
    y0 = np.array([cmath.sin(start), cmath.cos(start)])
    loop = ContourPath.from_circle(c)
    assert count_zeros(D, loop, y0=y0) == 2


def test_continue_rejects_unknown_sources():
    path = ContourPath.from_points([0, 1])
    with pytest.raises(UnsupportedInput, match="cannot continue"):
        continue_solution(object(), path, [1.0])
    with pytest.raises(UnsupportedInput, match="cannot continue"):
        variation_of_argument(object(), path, [1.0])


def test_path_through_a_singular_point_is_rejected():
    """The exact distance to the singular locus sees a pole that lies
    between any samples of the path."""
    D = parse_operator("t*D - 1")
    with pytest.raises(PathTooClose):
        continue_solution(D, ContourPath.from_points([-1, 1]), [1])
    with pytest.raises(PathTooClose):
        monodromy(D, ContourPath.from_circle(Circle(1 + 0j, 1.0)))
    # poles of a leading coefficient below the float range are seen too
    tiny = parse_operator("(t - 1)*(t - 2)/10^400*D - 1")
    with pytest.raises(PathTooClose):
        continue_solution(tiny, ContourPath.from_points([0, 3]), [1])


def test_open_path_rejected():
    with pytest.raises(UnsupportedInput):
        count_zeros(lambda z: z, ContourPath.from_points([0, 1]))


def test_zero_on_path_detected():
    loop = ContourPath.from_circle(Circle(0j, 1.0))
    with pytest.raises(ZeroOnPath):
        count_zeros(lambda z: z - 1, loop)


def test_monodromy_powers():
    for c in (Fraction(1, 2), Fraction(1, 3), Fraction(2, 5)):
        D = parse_operator(f"t*D - {c.numerator}/{c.denominator}")
        loop = ContourPath.from_circle(Circle(0j, 1.0))
        M = monodromy(D, loop)
        target = cmath.exp(2j * math.pi * float(c))
        assert abs(M[0, 0] - target) < 1e-10
        ok, orders = is_quasiunipotent(M)
        assert ok and orders == [c.denominator]


def test_non_quasiunipotent_detected():
    # t y' = y/67: the multiplier is a root of unity of order 67, above
    # QU_MAX_ORDER = 64, so the test rejects it
    D = parse_operator("67*t*D - 1")
    M = monodromy(D, ContourPath.from_circle(Circle(0j, 1.0)))
    assert abs(M[0, 0] - cmath.exp(2j * math.pi / 67)) < 1e-10
    assert QU_MAX_ORDER < 67
    assert is_quasiunipotent(M) == (False, [])
    # an eigenvalue on the unit circle that is no root of unity
    M = np.array([[cmath.exp(2j * math.pi * 0.123456789)]])
    assert is_quasiunipotent(M) == (False, [])


def test_annulus_bound_formula_case():
    assert annulus_bound_formula(2, 3) == 35


def test_annulus_bound_sound():
    # y'' + y = 0: sin has 2 zeros in the annulus 0.5 < |t| < 4 (pi and -pi)
    D = parse_operator("D^2 + 1")
    ab = annulus_zero_bound(D, Circle(0j, 0.5), Circle(0j, 4.0))
    assert isinstance(ab, AnnulusBound)
    assert ab.value >= 2
    assert ab.value == annulus_bound_formula(ab.order, ab.B)
    # polynomial case: t has no zeros in 0.5 < |t| < 2
    D2 = parse_operator("t*D - 1")
    ab2 = annulus_zero_bound(D2, Circle(0j, 0.5), Circle(0j, 2.0))
    assert ab2.value >= 0 and ab2.quasiunipotent


def test_var_arg_bound_dominates_true_variation():
    D = parse_operator("(t^2+1)*D^2 + t*D + 1")
    sing = D.leading_roots()
    from abelint.slits import Arc
    piece = Arc(0j, 3.0, 0.0, 2 * math.pi)
    rep = var_arg_bound(D, piece, sing)
    # actual variation of a solution along the circle
    c = Circle(0j, 3.0)
    start = c.point_at(0.0)
    y0 = np.array([1.0 + 0j, 0.0 + 0j])
    phi, _ = variation_of_argument(D, ContourPath.from_circle(c), y0)
    assert abs(phi) / (2 * math.pi) <= rep.value


def test_min_dist_is_exact_between_samples():
    """A point 0.001 outside the unit circle, halfway between two of 128
    equally spaced points on it, is at distance 0.001 from the path."""
    p = 1.001 * cmath.exp(1j * math.pi / 128)
    loop = ContourPath.from_circle(Circle(0j, 1.0))
    assert loop.min_dist([p]) == pytest.approx(0.001, rel=1e-9)
    polygon = ContourPath.from_points([0, 2, 2 + 2j])
    assert polygon.min_dist([1 + 1e-3j, 3 + 1j]) == pytest.approx(1e-3, rel=1e-9)
    assert polygon.min_dist([]) == math.inf


def test_region_partition_sin():
    D = parse_operator("D^2 + 1")
    system = build_slits([0.3 + 0j, 0.3 + math.pi])
    from abelint.counting import _basepoint
    bp = _basepoint(system)
    y0 = np.array([cmath.sin(bp), cmath.cos(bp)])
    res = count_region_partition(D, system, y0)
    by_kind = {}
    for r in res["regions"]:
        by_kind.setdefault(r["kind"], []).append(r)
    # zeros 0 and pi in the two leaf disks, 2pi in the annular region
    assert [r["empirical"] for r in by_kind["punctured-disk"]] == [1, 1]
    assert by_kind["annulus"][0]["empirical"] == 1
    assert res["total_bounded_empirical"] == 3


def test_circle_winding_single_pass(monkeypatch):
    """Each circle is integrated once, tracking arg(w); the end value of that
    pass decides single-valuedness."""
    from abelint import counting
    calls = []
    real = counting._integrate_piece

    def spy(*args, **kw):
        calls.append(kw.get("combo") is not None)
        return real(*args, **kw)

    monkeypatch.setattr(counting, "_integrate_piece", spy)
    system = build_slits([0j, 3 + 0j])
    bp = counting._basepoint(system)
    circle = Circle(0j, 1.0)
    loop_pieces = len(ContourPath.from_circle(circle).pieces)
    # one untracked piece carries the data from the basepoint to the circle
    once = [False] + [True] * loop_pieces
    # y = t: single-valued, one zero inside
    assert counting._circle_winding(parse_operator("t*D - 1"), system, circle,
                                    np.array([bp]), None) == 1
    assert calls == once
    # y = sqrt(t) changes sign around 0: no winding count
    calls.clear()
    assert counting._circle_winding(parse_operator("2*t*D - 1"), system, circle,
                                    np.array([cmath.sqrt(bp)]), None) is None
    assert calls == once


def _polygon(inv, n=256):
    """The equatorial loop as it was traced before: n chords of inv(|w| = 1)."""
    pts = [inv(cmath.exp(1j * a)) for a in np.linspace(0, 2 * math.pi, n + 1)]
    return ContourPath.from_points(pts + pts[:1])


@pytest.mark.parametrize("inner, outer, sign", [
    (Circle(0j, 0.5), Circle(0j, 2.0), 1),                     # concentric
    (Circle(0.3 + 0.1j, 0.4), Circle(0j, 2.0), 1),             # chart has c != 0
    (Circle(0.2j, 0.5), Circle(0.1 + 0j, 3.0), 1),
    (Circle(0.1 + 0j, 3.0), Circle(-0.3j, 0.6), -1),           # swapped order
])
def test_equatorial_arc_matches_polygon(inner, outer, sign):
    """One exact Arc gives the monodromy of the 256-chord polygon, including
    its orientation, so M is never replaced by its inverse."""
    from abelint import counting
    chart, _, _, _ = counting._annulus_chart(inner, outer)
    inv = chart.inverse()
    loop = counting._equatorial_loop(inv)
    assert len(loop.pieces) == 1 and isinstance(loop.pieces[0], Arc)
    assert abs(loop.start - inv(1)) < 1e-12
    D = parse_operator("3*t*D - 1")            # y = t^(1/3)
    M = monodromy(D, loop)
    assert abs(M - monodromy(D, _polygon(inv))).max() < 1e-8
    assert abs(M[0, 0] - cmath.exp(sign * 2j * math.pi / 3)) < 1e-8


@pytest.mark.parametrize("inv", [
    MobiusMap(GaussianRational(2, 1), GaussianRational(-1, 3), 0, 1),  # affine
    MobiusMap(1, 1, 1, 0),                      # pole of inv^-1 at w = 0
    MobiusMap(1, 0, 1, 3),                      # |w_p| > 1
    MobiusMap(GaussianRational(0, 1), 2, 1, Fraction(-1, 2)),  # |w_p| < 1
])
def test_equatorial_loop_is_the_image_circle(inv):
    """Every inv(e^ia) lies on the Arc, and the Arc winds like the polygon."""
    from abelint import counting
    arc = counting._equatorial_loop(inv).pieces[0]
    pts = np.array([inv(cmath.exp(1j * a)) for a in np.linspace(0, 2 * math.pi, 65)])
    assert np.abs(np.abs(pts - arc.center) - arc.radius).max() < 1e-12 * arc.radius
    # signed area of the polygon: positive when it runs counterclockwise
    area = sum((a.conjugate() * b).imag for a, b in zip(pts, pts[1:]))
    assert math.copysign(2 * math.pi, area) == arc.a1 - arc.a0


@pytest.mark.parametrize("phi, circle", [
    (MobiusMap(GaussianRational(2, 1), GaussianRational(-1, 3), 0, 1),
     Circle(0.5 - 1j, 2.0)),                                   # affine
    (MobiusMap(1, 1, 1, Fraction(-1, 2)), Circle(0.5 + 0j, 0.3)),  # pole at the center
    (MobiusMap(2, GaussianRational(0, 1), 1, -1), Circle(0.8 + 0.2j, 0.5)),  # pole inside
    (MobiusMap(1, 3, GaussianRational(1, 1), -4), Circle(-1 + 0.5j, 0.7)),   # pole outside
])
def test_image_circle_closed_form(phi, circle):
    """Every phi(circle.point_at(a)) lies on the closed-form image circle."""
    from abelint import counting
    image = counting._image_circle(phi, circle)
    pts = np.array([phi(circle.point_at(a)) for a in np.linspace(0, 2 * math.pi, 65)])
    assert np.abs(np.abs(pts - image.center) - image.radius).max() < 1e-12 * image.radius


@pytest.mark.parametrize("inner, outer", [
    (Circle(5 + 0j, 1.0), Circle(0j, 2.0)),     # disjoint
    (Circle(1.5 + 0j, 1.0), Circle(0j, 2.0)),   # intersecting
    (Circle(1 + 0j, 1.0), Circle(0j, 2.0)),     # tangent from inside
    (Circle(0j, 2.0), Circle(0j, 2.0)),         # equal
])
def test_annulus_bound_needs_nested_circles(inner, outer):
    D = parse_operator("D - 1")
    with pytest.raises(UnsupportedInput, match="not strictly nested"):
        annulus_zero_bound(D, inner, outer)
    with pytest.raises(UnsupportedInput, match="not strictly nested"):
        annulus_zero_bound(D, outer, inner)


class _PolySystem:
    """dY/dt = A(t) Y with a 3 x 3 polynomial A: no singular points."""
    ell = 3
    singular_points = ()

    def eval(self, t):
        return np.array([[0, 1, t], [t * t, 0, 1], [1, -t, 0.5j]], dtype=complex)


def _solve_ivp_piece(A, piece, Y0, combo, max_step):
    """(final Y, phi, nfev) of one piece by scipy's solve_ivp, the oracle the
    in-house stepper must follow: the right-hand side in numpy, as
    continuation computed it before."""
    from scipy.integrate import solve_ivp
    shape = Y0.shape

    def rhs(s, state):
        z, dz = piece.at_velocity(s)
        if combo is None:
            return (dz * (A(z) @ state.reshape(shape))).ravel()
        Y = state[:-1].reshape(shape)
        dY = dz * (A(z) @ Y)
        w, dw = np.dot(combo, Y[:, 0]), np.dot(combo, dY[:, 0])
        return np.append(dY.ravel(), (dw / w).imag)

    state0 = Y0.ravel() if combo is None else np.append(Y0.ravel(), 0.0)
    sol = solve_ivp(rhs, (0.0, 1.0), state0.astype(complex), method="DOP853",
                    rtol=counting.RTOL, atol=counting.ATOL, max_step=max_step)
    assert sol.success
    final = sol.y[:, -1]
    if combo is None:
        return final.reshape(shape), None, sol.nfev
    return final[:-1].reshape(shape), final[-1].real, sol.nfev


def _sin_circle():
    c = Circle(1 + 0j, 2.5)
    z0 = c.point_at(0.0)
    return (parse_operator("D^2 + 1"), c, np.array([[cmath.sin(z0)], [cmath.cos(z0)]]),
            np.array([1, 0], dtype=complex))


@pytest.mark.parametrize("source, circle, Y0, combo", [
    _sin_circle(),
    # the step cap 0.2 / (2 pi) decides the step around the pole at 0
    (parse_operator("t*D - 1/2"), Circle(0j, 1.0), np.eye(1, dtype=complex), None),
    (_PolySystem(), Circle(0.5j, 1.5), np.array([[1], [0.5j], [-1]], dtype=complex),
     np.array([1, 2, 0.5j])),
])
def test_stepper_follows_solve_ivp(source, circle, Y0, combo):
    """The in-house DOP853 loop makes the evaluations of scipy's solve_ivp
    with the same tableau, tolerances and max_step, and ends at its state."""
    A, sing, _ = counting._as_source(source)
    piece = ContourPath.from_circle(circle).pieces[0]
    dist = counting._dist_to_set(piece, sing)
    max_step = (counting.MAX_STEP_FACTOR * dist / piece.length()
                if math.isfinite(dist) else 0.1)
    calls = []

    def counted(z):
        calls.append(z)
        return A(z)

    Y, phi = counting._integrate_piece(counted, sing, piece, Y0, combo=combo)
    Yref, phiref, nfev = _solve_ivp_piece(A, piece, Y0, combo, max_step)
    assert len(calls) == nfev
    assert np.max(np.abs(Y - Yref)) <= 1e-10 * np.max(np.abs(Yref))
    if combo is not None:
        assert abs(phi - phiref) <= 1e-10 * abs(phiref)


def test_array_state_follows_scalar_state():
    """Above UNROLL components the state is a numpy array; both forms take
    the same steps to the same state."""
    D, circle, Y0, combo = _sin_circle()
    piece = ContourPath.from_circle(circle).pieces[0]
    ends = []
    for scalars in (True, False):
        calls, low = [], [math.inf]

        def A(z):
            calls.append(z)
            return D.companion_rhs(z)

        state = np.append(Y0.ravel(), 0j)
        if scalars:
            state = state.tolist()
            make = counting._scalar_rhs(2, 1, True)
        else:
            make = counting._array_rhs(2, True)
        rhs = make(A, piece.at_velocity, combo.tolist(), low)
        ends.append((np.array(counting._dop853(rhs, state, 0.1)), len(calls), low[0]))
    (y1, n1, low1), (y2, n2, low2) = ends
    assert n1 == n2
    assert np.max(np.abs(y1 - y2)) <= 1e-12 * np.max(np.abs(y1))
    assert low1 == pytest.approx(low2, rel=1e-12)
    # an order-5 operator's monodromy has 25 > UNROLL components; the
    # operator is entire, so the monodromy is the identity
    assert 25 > counting.UNROLL
    M = monodromy(parse_operator("D^5 + t*D + 1"), ContourPath.from_circle(Circle(0j, 1.0)))
    assert np.max(np.abs(M - np.eye(5))) < 1e-10


@pytest.mark.parametrize("state", [
    [1 + 0j, 0j],                               # the derivative is not finite
    [complex(1e308, 1e308), 0j],                # |y| is beyond the float range
])
def test_stepper_raises_numeric_overflow(state):
    calls = []

    def rhs(s, y):
        calls.append(s)
        assert len(calls) < 1000, "kept stepping on non-finite values"
        return [complex(math.inf, 0.0) * y[0], y[0]]
    with pytest.raises(NumericOverflow):
        counting._dop853(rhs, state, 0.1)
    with pytest.raises(NumericOverflow):
        counting._dop853(lambda s, y: np.array(rhs(s, y)), np.array(state), 0.1)
