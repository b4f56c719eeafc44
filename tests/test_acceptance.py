"""Acceptance criteria.  Each test emits exactly one PASS/FAIL line.

The lines are collected in RESULTS and printed in the terminal summary by
the hook in conftest.py, so they appear even when pytest captures stdout.
Run with `pytest -v -s tests/test_acceptance.py` to also see them inline.
"""

import cmath
import math
import random
from fractions import Fraction

import numpy as np

from abelint.counting import (ContourPath, annulus_bound_formula,
                              annulus_zero_bound, continue_solution,
                              count_zeros, is_quasiunipotent, monodromy)
from abelint.division import (Hamiltonian, divide_one_form, divide_two_form)
from abelint.operators import reduce_to_scalar
from abelint.parsing import parse_operator
from abelint.picard_fuchs import derive_pfaffian, restrict_to_pencil
from abelint.polynomials import MultiPoly
from abelint.ratfunc import RatFunc, raw_prod_size, raw_sum_size, size_of
from abelint.linalg import FieldMatrix
from abelint.slits import (Circle, brute_force_cluster_diameter, build_slits,
                           cluster_diameter_upper, is_admissible)

X = ("x1", "x2")


RESULTS = []


def report(num, desc, ok):
    line = f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} - {desc}"
    RESULTS.append(line)
    print("\n" + line)
    assert ok, f"acceptance criterion {num} failed: {desc}"


def _rand_hamiltonian(rng, n):
    x1 = MultiPoly.var("x1", X)
    x2 = MultiPoly.var("x2", X)
    H = x1 ** (n + 1) + x2 ** (n + 1)
    for a1 in range(n + 1):
        for a2 in range(n + 1 - a1):
            if rng.random() < 0.5:
                c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                H = H + MultiPoly.const(c, X) * x1 ** a1 * x2 ** a2
    return Hamiltonian(H)


def _rand_monomial(rng, maxtot):
    tot = rng.randint(0, maxtot)
    a1 = rng.randint(0, tot)
    return MultiPoly.var("x1", X) ** a1 * MultiPoly.var("x2", X) ** (tot - a1)


def test_criterion_01_petrov_exactness():
    rng = random.Random(101)
    counts = {1: 70, 2: 70, 3: 60}
    ok = True
    for n, count in counts.items():
        H = _rand_hamiltonian(rng, n)
        for _ in range(count):
            m = _rand_monomial(rng, n + 2)
            if rng.random() < 0.5:
                dec = divide_two_form(H, m)
            else:
                zero = MultiPoly.zero(X)
                p, q = (m, zero) if rng.random() < 0.5 else (zero, m)
                dec = divide_one_form(H, p, q)
            if not (dec.verify() and dec.degree_bounds_ok()):
                ok = False
    report(1, "module division exact on 200 random forms, n in {1,2,3}, "
              "with degree bounds", ok)


def test_criterion_02_circle_end_to_end():
    x1 = MultiPoly.var("x1", X)
    x2 = MultiPoly.var("x2", X)
    H = Hamiltonian.from_x_poly((x1 * x1 + x2 * x2) *
                                MultiPoly.const(Fraction(1, 2), X))
    ode = restrict_to_pencil(derive_pfaffian(H), free_term_value=0)
    t = RatFunc(MultiPoly.var("t"))
    exact = ode.A.rows == 1 and (ode.A.data[0][0] - 1 / t).is_zero()
    # oracle X(t) = 2 pi t: check t X' - X = 0 against A
    oracle = all(abs(ode.eval(tv)[0, 0] * (2 * math.pi * tv) - 2 * math.pi)
                 < 1e-13 for tv in (0.25, 1.0, 3.0))
    report(2, "circle Hamiltonian yields A(t) = [1/t] exactly; 2 pi t oracle",
           exact and oracle)


def test_criterion_03_elliptic_picard_fuchs(elliptic):
    q = elliptic.periods
    sys_ok = True
    worst = 0.0
    for t0 in (0.0, 0.2, -0.2):
        d = 1e-4
        dX = (8 * (q(t0 + d) - q(t0 - d)) -
              (q(t0 + 2 * d) - q(t0 - 2 * d))) / (12 * d)
        rhs = elliptic.ode.eval(t0) @ q(t0)
        res = np.max(np.abs(dX - rhs)) / np.max(np.abs(rhs))
        worst = max(worst, res)
        sys_ok = sys_ok and res <= 1e-4
    # scalar operator annihilates the first period; derivatives from the system
    D = elliptic.scalar
    k = D.order
    scal_ok = True
    for t0 in (0.0, 0.2, -0.2):
        Xv = q(t0)
        row = FieldMatrix([[RatFunc.coerce(Fraction(1 if j == 0 else 0))
                            for j in range(4)]])
        derivs = []
        for _ in range(k + 1):
            num = np.array([[e.eval_complex({"t": t0}) for e in row.data[0]]])
            derivs.append((num @ Xv)[0])
            row = FieldMatrix([[row.data[0][j].diff("t") +
                                sum((row.data[0][i] * elliptic.ode.A.data[i][j]
                                     for i in range(4)), RatFunc.zero())
                                for j in range(4)]])
        total = sum(c.eval_complex({"t": t0}) * derivs[k - j]
                    for j, c in enumerate(D.coeffs))
        scale = sum(abs(c.eval_complex({"t": t0})) * abs(derivs[k - j])
                    for j, c in enumerate(D.coeffs))
        scal_ok = scal_ok and abs(total) / scale <= 1e-6
    report(3, f"elliptic system residual {worst:.1e} <= 1e-4 at t in "
              f"{{0,±0.2}}; scalar operator residual <= 1e-6",
           sys_ok and scal_ok)


def test_criterion_04_elliptic_zero_bound(elliptic):
    rng = random.Random(104)
    grid = np.linspace(-0.3795, 0.3795, 77)
    I00 = np.array([elliptic.periods(float(t), 1e-7)[0] for t in grid]).real
    I10 = np.array([elliptic.periods(float(t), 1e-7)[2] for t in grid]).real
    ok = True
    worst = 0
    for _ in range(200):
        c0 = rng.uniform(-1, 1)
        c1 = rng.uniform(-1, 1)
        vals = c0 * I00 + c1 * I10
        signs = np.sign(vals)
        changes = int(np.sum(signs[:-1] * signs[1:] < 0))
        worst = max(worst, changes)
        ok = ok and changes <= 1
    report(4, f"200 random c0*I00 + c1*I10 on (-0.38, 0.38): at most "
              f"{worst} sign change(s)", ok)


def test_criterion_05_argument_principle_exact():
    rng = random.Random(105)
    done = 0
    ok = True
    while done < 50:
        deg = rng.randint(1, 6)
        roots = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                 for _ in range(deg)]
        center = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        radius = rng.uniform(0.5, 3.0)
        if min(abs(abs(r - center) - radius) for r in roots) < 0.05:
            continue

        def f(z, roots=roots):
            out = 1.0 + 0j
            for r in roots:
                out *= (z - r)
            return out

        expected = sum(1 for r in roots if abs(r - center) < radius)
        loop = ContourPath.from_circle(Circle(center, radius))
        if count_zeros(f, loop) != expected:
            ok = False
        done += 1
    report(5, "count_zeros exact for 50 random polynomials of degree <= 6",
           ok)


def test_criterion_06_annulus_bound_soundness():
    cases = []
    # sin: zeros -pi, pi inside 0.5 < |t| < 4
    D = parse_operator("D^2 + 1")
    inner, outer = Circle(0j, 0.5), Circle(0j, 4.0)
    start_in, start_out = inner.point_at(0.0), outer.point_at(0.0)

    def winding(Dop, circle, y0):
        loop = ContourPath.from_circle(circle)
        return count_zeros(Dop, loop, y0=y0)

    y_in = np.array([cmath.sin(start_in), cmath.cos(start_in)])
    y_out = np.array([cmath.sin(start_out), cmath.cos(start_out)])
    emp = winding(D, outer, y_out) - winding(D, inner, y_in)
    cases.append((emp, annulus_zero_bound(D, inner, outer).value))
    # c t: no zeros in 0.5 < |t| < 2
    D2 = parse_operator("t*D - 1")
    i2, o2 = Circle(0j, 0.5), Circle(0j, 2.0)
    emp2 = winding(D2, o2, np.array([o2.point_at(0.0)])) - \
        winding(D2, i2, np.array([i2.point_at(0.0)]))
    cases.append((emp2, annulus_zero_bound(D2, i2, o2).value))
    ok = all(e <= b for e, b in cases)
    arith = annulus_bound_formula(2, 3) == 35
    report(6, f"empirical annulus counts {[e for e, _ in cases]} within "
              f"certified bounds; (2*2+1)(2*3+1) = 35", ok and arith)


def test_criterion_07_geometry_invariance():
    rng = random.Random(107)
    base_pts = [[0j, 1 + 0j, 5 + 2j, -3 + 4j],
                [0j, 0.01 + 0j, 100 + 0j],
                [complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
                 for _ in range(7)]]
    inv_ok = True
    trials = 0
    while trials < 100:
        pts = base_pts[trials % len(base_pts)]
        base, _ = cluster_diameter_upper(pts)
        a = rng.uniform(0.1, 10.0) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        b = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
        moved, _ = cluster_diameter_upper([a * p + b for p in pts])
        if abs(moved - base) > 1e-12 * max(abs(base), 1.0):
            inv_ok = False
        trials += 1
    adm_ok = True
    for _ in range(100):
        k = rng.randint(1, 10)
        pts = []
        while len(pts) < k:
            p = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
            if all(abs(p - q) > 1e-3 for q in pts):
                pts.append(p)
        system = build_slits(pts)
        if not (is_admissible(system) and
                len(system.circles) <= 3 * k):
            adm_ok = False
    report(7, "normalized length similarity-invariant (1e-12) over 100 maps; "
              "admissible with <= 3|T| circles on 100 random sets",
           inv_ok and adm_ok)


def test_criterion_08_oracle_sandwich():
    rng = random.Random(108)
    ok = True
    ratios = []
    for _ in range(20):
        k = rng.randint(2, 3)
        pts = []
        while len(pts) < k:
            p = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
            if all(abs(p - q) > 1e-2 for q in pts):
                pts.append(p)
        bf, _ = brute_force_cluster_diameter(pts)
        ub, _ = cluster_diameter_upper(pts)
        ratios.append(ub / bf)
        if not (bf <= ub + 1e-12 and ub <= 4 * bf + 1e-12):
            ok = False
    report(8, f"brute force <= upper <= 4x brute force on 20 sets "
              f"(max ratio {max(ratios):.2f})", ok)


def test_criterion_09_monodromy():
    ok = True
    for c in (Fraction(1, 2), Fraction(1, 3), Fraction(2, 5)):
        D = parse_operator(f"{c.denominator}*t*D - {c.numerator}")
        loop = ContourPath.from_circle(Circle(0j, 1.0))
        M = monodromy(D, loop)
        target = cmath.exp(2j * math.pi * float(c))
        qu, orders = is_quasiunipotent(M)
        if abs(M[0, 0] - target) > 1e-8 or not qu or \
                orders != [c.denominator]:
            ok = False
    report(9, "monodromy matches e^{2 pi i c} within 1e-8 for "
              "c in {1/2, 1/3, 2/5} with correct root orders", ok)


def test_criterion_10_norm_size_algebra():
    rng = random.Random(110)
    T = ("t", "u")

    def rand_poly():
        d = {}
        for _ in range(rng.randint(1, 6)):
            e = (rng.randint(0, 4), rng.randint(0, 4))
            d[e] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        return MultiPoly(T, d)

    ok = True
    done = 0
    while done < 1000:
        if done % 2 == 0:
            p, q_ = rand_poly(), rand_poly()
            if not (p * q_).l1_norm() <= p.l1_norm() * q_.l1_norm():
                ok = False
        else:
            num1, den1 = rand_poly(), rand_poly()
            num2, den2 = rand_poly(), rand_poly()
            if den1.is_zero() or den2.is_zero():
                continue
            r1, r2 = RatFunc(num1, den1), RatFunc(num2, den2)
            if r1.is_zero() or r2.is_zero():
                continue
            s1, s2 = size_of(r1), size_of(r2)
            if not (raw_sum_size(r1, r2) <= 3 * s1 * s2 and
                    raw_prod_size(r1, r2) <= 2 * s1 * s2):
                ok = False
        done += 1
    report(10, "norm multiplicativity and size arithmetic exact on 1000 "
               "random instances", ok)
