"""Scalar operators: reduction, slope, pullback, lclm, symmetrization."""

from fractions import Fraction

import numpy as np
import sympy

from abelint import counting, operators
from abelint.errors import NoSolution
from abelint.linalg import FieldMatrix, clear_rows, solve_linear
from abelint.operators import (DiffOperator, MobiusMap, REAL_AXIS,
                               affine_slope, circle_to_real_axis_map, lclm,
                               pullback, reduce_to_scalar, reflect,
                               standard_form, symmetrize)
from abelint.parsing import parse_operator, parse_poly
from abelint.qi import GaussianRational
from abelint.picard_fuchs import LinearODESystem
from abelint.polynomials import MultiPoly
from abelint.ratfunc import RatFunc, ratfunc_lcm_den
from abelint.slits import Circle

T = ("t",)


def mk(text):
    return parse_operator(text)


def sym_op(D):
    """Apply D to a sympy expression builder: returns f(expr, var) -> expr."""
    t = sympy.Symbol("t")
    coeffs = []
    for c in D.coeffs:
        expr = 0
        for e, q in c.terms.items():
            if hasattr(q, "re"):
                qq = sympy.Rational(q.re.numerator, q.re.denominator) + \
                    sympy.I * sympy.Rational(q.im.numerator, q.im.denominator)
            else:
                qq = sympy.Rational(q.numerator, q.denominator)
            expr += qq * t ** e[0]
        coeffs.append(expr)
    k = D.order

    def apply(f):
        return sympy.simplify(sum(c * sympy.diff(f, t, k - j)
                                  for j, c in enumerate(coeffs)))
    return apply, t


def test_reduce_diagonal_system():
    # X' = diag(1, 2) X: joint annihilator of e^t and e^2t is (D-1)(D-2)
    one = RatFunc.const(Fraction(1), T)
    A = FieldMatrix([[one, one * 0], [one * 0, one + one]])
    ode = LinearODESystem(A, MultiPoly.const(Fraction(1), T))
    # X[0] = c e^t alone
    assert reduce_to_scalar(ode) == mk("D - 1")


def test_reduce_airy_like():
    # X' = [[0, 1], [t, 0]] X: y'' = t y
    t = RatFunc(MultiPoly.var("t"))
    zero = RatFunc.zero(T)
    one = RatFunc.const(Fraction(1), T)
    A = FieldMatrix([[zero, one], [t, zero]])
    ode = LinearODESystem(A, MultiPoly.const(Fraction(1), T))
    # X[0] = y alone: Airy's equation
    assert reduce_to_scalar(ode) == mk("D^2 - t")


def test_elliptic_reduction_golden(elliptic):
    # the operator of I00 on the pencil of x2^2/2 + x1^3 - x1
    assert elliptic.scalar == mk("(108*t^2 - 16)*D^2 + 15")


def test_elliptic_reduction_annihilates(elliptic):
    # numerically: apply the scalar operator to the first period using
    # derivatives obtained from the first-order system
    D = elliptic.scalar
    k = D.order
    t0 = 0.15
    X = elliptic.periods(t0)
    A = elliptic.ode.A
    # rows of d^m/dt^m as matrices acting on X
    row = FieldMatrix([[RatFunc.coerce(Fraction(1 if j == 0 else 0))
                        for j in range(4)]])
    derivs = []
    for m in range(k + 1):
        num = np.array([[e.eval_complex({"t": t0}) for e in row.data[0]]])
        derivs.append((num @ X)[0])
        nxt = [[row.data[0][j].diff("t") +
                sum((row.data[0][i] * A.data[i][j] for i in range(4)),
                    RatFunc.zero()) for j in range(4)]]
        row = FieldMatrix(nxt)
    total = 0.0
    scale = 0.0
    for j, c in enumerate(D.coeffs):
        cv = c.eval_complex({"t": t0})
        total += cv * derivs[k - j]
        scale += abs(cv) * abs(derivs[k - j])
    assert abs(total) / scale < 1e-8


def test_affine_slope_exact():
    D = mk("(t^2-1)*D^2 + t*D - 1")
    # ||t||/||t^2-1|| = 1/2, ||-1||/||t^2-1|| = 1/2
    assert affine_slope(D) == Fraction(1, 2)
    D2 = mk("D^2 + 7*t^3*D - 2")
    assert affine_slope(D2) == 7


def test_pullback_maps_solutions():
    D = mk("D^2 + 1")                      # sin, cos
    phi = MobiusMap(1, 2, 1, 3)            # t = (u+2)/(u+3)
    Dp = pullback(D, phi)
    app, u = sym_op(Dp)
    y = sympy.sin((u + 2) / (u + 3))
    assert sympy.simplify(app(y)) == 0


def test_pullback_affine():
    D = mk("D - 1")                        # e^t
    phi = MobiusMap(2, 1, 0, 1)            # t = 2u + 1
    Dp = pullback(D, phi)
    app, u = sym_op(Dp)
    assert sympy.simplify(app(sympy.exp(2 * u + 1))) == 0


def test_lclm_annihilates_both():
    # ker(D - i) = e^{it}, and its reflection D + i has kernel e^{-it}
    L = lclm(mk("D - i"))
    assert L.order == 2
    app, t = sym_op(L)
    assert sympy.simplify(app(sympy.exp(sympy.I * t))) == 0
    assert sympy.simplify(app(sympy.exp(-sympy.I * t))) == 0


def test_lclm_of_real_operator_is_itself():
    """A real operator in standard form is its own reflection: the realified
    system decouples and the lclm is the operator, stored terms included."""
    for text in ("(t^2-1)*D^2 + t*D - 1", "(108*t^2-16)*D^2 + 15", "t*D - 1",
                 "D^3 + t^2*D + 7"):
        D = standard_form(mk(text).coeffs)
        _assert_same_operator(lclm(D), D)


def test_symmetrize_searches_over_q(monkeypatch):
    """The relation search of a symmetrization across the unit circle or the
    imaginary axis, where the pulled-back operator is over Q(i), sees no
    Gaussian coefficient."""
    seen = []
    relation = operators._first_relation

    def spy(N, q):
        seen.extend([e for row in N for e in row] + [q])
        return relation(N, q)

    monkeypatch.setattr(operators, "_first_relation", spy)
    for D, gamma in ((mk("(t^2-1)*D^2 + t*D - 1"), circle_to_real_axis_map(0, 0, 1)),
                     (mk("t*D^2 + D - 1"), MobiusMap(GaussianRational(0, 1), 0, 0, 1))):
        assert any(c.has_gaussian() for c in pullback(D, gamma).coeffs)
        symmetrize(D, gamma)
    assert seen
    assert not any(e.has_gaussian() for e in seen)


def test_reflect_conjugates():
    D = mk("D - i")
    R = reflect(D)
    app, t = sym_op(R)
    # e^{it} solves D; conj solutions solve the reflected operator
    assert sympy.simplify(app(sympy.exp(-sympy.I * t))) == 0


def test_symmetrize_imaginary_axis():
    # solutions of D - 1 restricted to the imaginary axis: symmetrization
    # must annihilate e^t and e^-t, i.e. equal D^2 - 1 up to normalization
    D = mk("D - 1")
    S = symmetrize(D, MobiusMap(GaussianRational(0, 1), 0, 0, 1))
    app, t = sym_op(S)
    assert sympy.simplify(app(sympy.exp(t))) == 0
    assert sympy.simplify(app(sympy.exp(-t))) == 0


def test_symmetrize_real_axis_idempotent_order():
    D = mk("(t^2+1)*D^2 + t*D + 3")
    S = symmetrize(D, REAL_AXIS)
    assert S.order <= 2 * D.order


def test_circle_map_sends_circle_to_real_axis():
    phi = circle_to_real_axis_map(Fraction(1, 2), Fraction(0), Fraction(2))
    import cmath
    for u in (-3.0, -1.0, 0.0, 0.5, 2.0, 10.0):
        z = phi(complex(u))
        assert abs(abs(z - 0.5) - 2) < 1e-12


def test_standard_form_ignores_gaussian_scalars():
    """An operator and i times it have one standard form."""
    i = GaussianRational(0, 1)
    coeffs = [MultiPoly(T, {(1,): GaussianRational(1, 2), (0,): 1}), MultiPoly.const(3, T)]
    assert standard_form(coeffs) == standard_form([c * i for c in coeffs])


def test_standard_form_normalization():
    c0 = MultiPoly(T, {(1,): Fraction(-2, 3)})
    c1 = MultiPoly(T, {(0,): Fraction(4, 3)})
    D = standard_form([c0, c1])
    # cleared to integers, coprime, positive leading coefficient
    assert str(D) == "(3*t)D + (-6)" or str(D) == "(t)D + (-2)"
    assert D.coeffs[0].poly.LC > 0


def _assert_same_operator(ours, ref):
    assert ours.coeffs == ref.coeffs
    assert ([list(p.poly.items()) for p in ours.coeffs]
            == [list(p.poly.items()) for p in ref.coeffs])


def _ratfunc_pullback(D, phi):
    """Reference: the pullback computed over Q(i)(t) with RatFunc arithmetic,
    p(phi) by Horner and the powers of (1/phi') d/dt as RatFunc lists."""
    t = MultiPoly.var("t")
    phi_rf = RatFunc(t * phi.a + phi.b, t * phi.c + phi.d)
    den = t * phi.c + phi.d
    r = RatFunc(den * den, MultiPoly.const(phi.a * phi.d - phi.b * phi.c, T))

    def compose_r_d(L):
        out = [RatFunc.zero(T) for _ in range(len(L) + 1)]
        for i, ci in enumerate(L):
            out[i] = out[i] + r * ci.diff("t")
            out[i + 1] = out[i + 1] + r * ci
        return out

    k = D.order
    Mpow = [[RatFunc.const(1, T)]]
    for _ in range(k):
        Mpow.append(compose_r_d(Mpow[-1]))
    out = [RatFunc.zero(T) for _ in range(k + 1)]
    for i, p in enumerate(D.coeffs):
        aj = RatFunc.const(0, T)
        for c in reversed(p.univar_coeffs("t")):
            aj = aj * phi_rf + RatFunc.const(c, T)
        for m, cm in enumerate(Mpow[k - i]):
            out[m] = out[m] + aj * cm
    return _cleared_standard_form(list(reversed(out)))


def _cleared_standard_form(rs):
    """standard_form of rational coefficients, cleared by the lcm of their
    denominators."""
    den = ratfunc_lcm_den(rs)
    return standard_form([r.cleared(den) for r in rs])


def _rand_gauss(rng, gaussian):
    re = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return GaussianRational(re, Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                            if gaussian else 0)


def test_pullback_matches_ratfunc_reference():
    """The polynomial pullback equals the RatFunc one exactly, term order
    included, on real and Q(i) operators and on affine and general maps."""
    import random

    rng = random.Random(11)
    for case in range(80):
        gaussian = case % 2 == 1
        k = rng.randint(1, 3)
        coeffs = []
        for j in range(k + 1):
            terms = {(e,): _rand_gauss(rng, gaussian) for e in range(rng.randint(0, 3) + 1)}
            coeffs.append(MultiPoly(T, terms))
        if coeffs[0].is_zero():
            coeffs[0] = MultiPoly.const(1, T)
        D = DiffOperator(coeffs)
        while True:
            a, b, d = (_rand_gauss(rng, gaussian) for _ in range(3))
            c = 0 if case % 4 < 2 else _rand_gauss(rng, gaussian)
            if a * d - b * c:
                break
        phi = MobiusMap(a, b, c, d)
        _assert_same_operator(pullback(D, phi), _ratfunc_pullback(D, phi))
    # a map with a denominator in every entry and Gaussian parts, and the
    # rationalized chart of the annulus 0.5 < |t| < 4 and its inverse, with
    # 12-digit numerators and denominators: all scale to integers first
    i = GaussianRational(0, 1)
    chart = counting._annulus_chart(Circle(0j, 0.5), Circle(0j, 4.0))[0]
    maps = [MobiusMap(Fraction(2, 3) + i * Fraction(1, 5), Fraction(-1, 7), Fraction(1, 2),
                      i * Fraction(3, 4)), chart, chart.inverse()]
    for text in ("D^2 + 1", "(t^2-1)*D^2 + t*D - 1", "(t^2/3 + i/2)*D^2 + t/5*D - 1/7"):
        D = mk(text)
        for phi in maps:
            _assert_same_operator(pullback(D, phi), _ratfunc_pullback(D, phi))


def _ratfunc_first_relation(A, start):
    """Reference: the relation search over Q(t) with RatFunc rows,
    R_0 = start and R_{k+1} = R_k' + R_k A, every step cancelled."""
    ell = A.rows
    R_list = [start.data]
    for k in range(1, start.rows * ell + 1):
        R = R_list[-1]
        nxt = [[row[j].diff("t") + sum((row[m] * A.data[m][j] for m in range(ell)),
                                       RatFunc.zero(T))
                for j in range(ell)] for row in R]
        cols = [[e for row in Rj for e in row] for Rj in R_list]
        rhs = [e for row in nxt for e in row]
        rows = clear_rows([[col[i] for col in cols] + [rhs[i]] for i in range(len(rhs))])
        try:
            d, (y,) = solve_linear(rows, len(cols), verify=True)
            c = [RatFunc(yj, d) for yj in y]
        except NoSolution:
            R_list.append(nxt)
            continue
        return _cleared_standard_form([RatFunc.const(1)] + [-c[k - 1 - m] for m in range(k)])
    raise NoSolution("no relation")


def _rand_poly(rng, gaussian, deg):
    return MultiPoly(T, {(e,): _rand_gauss(rng, gaussian) for e in range(deg + 1)})


def _direct_sum_lclm(D1, D2):
    """Reference: lclm(D1, D2) as the relation search over RatFunc rows on
    the direct sum of the companion systems, from the row (e0 | e0)."""
    n = D1.order + D2.order
    A = [[RatFunc.zero(T) for _ in range(n)] for _ in range(n)]
    for off, D in ((0, D1), (D1.order, D2)):
        k = D.order
        for i in range(k - 1):
            A[off + i][off + i + 1] = RatFunc.const(1, T)
        for j in range(k):
            A[off + k - 1][off + j] = -(RatFunc(D.coeffs[k - j]) / RatFunc(D.coeffs[0]))
    start = [RatFunc.const(1 if j in (0, D1.order) else 0, T) for j in range(n)]
    return _ratfunc_first_relation(FieldMatrix(A), FieldMatrix([start]))


def test_lclm_polynomial_rows_match_ratfunc_reference():
    """lclm of random non-monic operators of orders 1 and 2 over Q and Q(i)
    is the same operator, stored term order included, as the direct-sum
    search of D and reflect(D) over RatFunc rows gives."""
    import random

    rng = random.Random(17)
    for case in range(8):
        gaussian = case % 2 == 1
        order = 1 + case // 4
        coeffs = [_rand_poly(rng, gaussian, rng.randint(0, 1)) for _ in range(order + 1)]
        if coeffs[0].is_zero():
            coeffs[0] = MultiPoly.var("t") + 1
        D = DiffOperator(coeffs)
        _assert_same_operator(lclm(D), _direct_sum_lclm(D, reflect(D)))


def _rf(num, den="1"):
    return RatFunc(parse_poly(num, T), parse_poly(den, T))


def _e0(n):
    return FieldMatrix([[RatFunc.const(1 if j == 0 else 0, T) for j in range(n)]])


def test_reduce_polynomial_rows_match_ratfunc_reference():
    """reduce_to_scalar on systems whose entries have different
    denominators, over Q and Q(i), of sizes 2 and 3, and on one that meets a
    relation before ell, is the operator of the RatFunc search from e0."""
    I = GaussianRational(0, 1)
    A = FieldMatrix([[_rf("t", "t^2 + 1"), _rf("1/3")],
                     [_rf("2", "t - 1"), _rf("t^2 - 5", "t^2 + 1")]])
    Ai = FieldMatrix([[RatFunc(MultiPoly(T, {(1,): I})), _rf("1", "t + 2")],
                      [_rf("t"), _rf("0")]])
    A3 = FieldMatrix([[_rf("0"), _rf("1", "t + 1"), _rf("t")],
                      [_rf("2", "t - 3"), _rf("1/2"), _rf("0")],
                      [_rf("t", "t^2 + 1"), _rf("3"), _rf("1", "t")]])
    # diag(1, 2): X[0] = c e^t, a relation at k = 1 < ell = 2
    one, zero = RatFunc.const(1, T), RatFunc.zero(T)
    D = FieldMatrix([[one, zero], [zero, one + one]])
    for M, order in ((A, 2), (Ai, 2), (A3, 3), (D, 1)):
        ours = reduce_to_scalar(LinearODESystem(M, MultiPoly.const(1, T)))
        assert ours.order == order
        _assert_same_operator(ours, _ratfunc_first_relation(M, _e0(M.rows)))


def _realified_ratfunc_system(D):
    """Reference: the RatFunc companion matrix of lclm's real system, each
    entry a_j / (p0 conj(p0)) or b_j / (p0 conj(p0)) cancelled, for
    c_j = -p_{k-j} conj(p0) = a_j + i b_j."""
    k, n = D.order, 2 * D.order
    p0c = D.coeffs[0].conj_coeffs()
    q = D.coeffs[0] * p0c
    A = [[RatFunc.zero(T) for _ in range(n)] for _ in range(n)]
    for i in range(k - 1):
        A[i][i + 1] = A[k + i][k + i + 1] = RatFunc.const(1, T)
    for j in range(k):
        c = -D.coeffs[k - j] * p0c
        cc = c.conj_coeffs()
        a, b = (c + cc) * Fraction(1, 2), (cc - c) * GaussianRational(0, Fraction(1, 2))
        A[k - 1][j], A[k - 1][k + j] = RatFunc(a, q), RatFunc(-b, q)
        A[n - 1][j], A[n - 1][k + j] = RatFunc(b, q), RatFunc(a, q)
    return A


def test_lclm_system_is_realified_companion(monkeypatch):
    """For random standard-form operators of orders 1-3 over Q(i), some with
    p0 and conj(p0) sharing a factor, lclm searches on N / q equal to the
    realified companion matrix, and q is the lcm of its denominators up to a
    rational scalar.  A real operator is its own lclm: it comes back with
    no search."""
    import random

    seen = []
    relation = operators._first_relation

    def spy(N, q):
        seen.append((N, q))
        return relation(N, q)

    monkeypatch.setattr(operators, "_first_relation", spy)
    rng = random.Random(23)
    for case in range(12):
        gaussian = case % 2 == 1
        order = 1 + case % 3
        coeffs = [_rand_poly(rng, gaussian, rng.randint(0, 2)) for _ in range(order + 1)]
        if case % 4 >= 2:  # a real factor common to p0 and conj(p0)
            coeffs[0] = coeffs[0] * _rand_poly(rng, False, 1)
        if coeffs[0].is_zero():
            coeffs[0] = MultiPoly.var("t") + 1
        D = standard_form(coeffs)
        seen.clear()
        L = lclm(D)
        if not gaussian:
            assert L == D and not seen
            continue
        (N, q), = seen
        A = _realified_ratfunc_system(D)
        assert all(RatFunc(N[i][j], q) == A[i][j] for i in range(len(A)) for j in range(len(A)))
        lcm = ratfunc_lcm_den([e for row in A for e in row])
        assert not q.has_gaussian()
        assert q.primitive()[1] == lcm


def _over_integers(p):
    return not p.poly.ring.domain.is_Field


def test_relation_search_and_pullback_stay_over_integers(monkeypatch):
    """The rows the relation search hands to its solve, and the pulled-back
    and searched coefficients that standard_form receives, are over Z or
    Z[i]: a stray rational factor would silently lift them to Q or Q(i).
    The operators that come out are over Q or Q(i), as before.  The inputs
    are in standard form, so pullback does not normalize them.  Each case
    symmetrizes a Gaussian operator, so the search runs; a real one across
    the real axis is its own lclm and runs no search."""
    solved, normalized = [], []

    def spy_solve(rows, n, verify=True):
        solved.extend(e for row in rows for e in row)
        return solve_linear(rows, n, verify)

    def spy_standard_form(coeffs, g=None):
        normalized.extend(coeffs)
        return standard_form(coeffs, g)

    monkeypatch.setattr(operators, "solve_linear", spy_solve)
    monkeypatch.setattr(operators, "standard_form", spy_standard_form)
    I = GaussianRational(0, 1)
    outs = []
    for text, gamma in (("(t^2/3 - 1)*D^2 + t/2*D - 1", circle_to_real_axis_map(0, 0, 1)),
                        ("(t - i/2)*D^2 + 1/3", MobiusMap(I, 0, 0, 1))):
        D = pullback(standard_form(mk(text).coeffs), MobiusMap(Fraction(1, 2), I / 3, 0, 1))
        outs += [D, symmetrize(D, gamma)]
    searched = len(solved)
    S = symmetrize(standard_form(mk("(t^2/3 - 1)*D^2 + t/2*D - 1").coeffs), REAL_AXIS)
    assert not any(c.has_gaussian() for c in S.coeffs)
    assert len(solved) == searched
    Ai = FieldMatrix([[RatFunc(MultiPoly(T, {(1,): I})), _rf("1", "3*t + 2")],
                      [_rf("t/5"), _rf("0")]])
    outs.append(reduce_to_scalar(LinearODESystem(Ai, MultiPoly.const(1, T))))
    assert solved and normalized
    assert all(_over_integers(e) for e in solved)
    assert all(_over_integers(c) for c in normalized)
    assert not any(_over_integers(c) for D in outs for c in D.coeffs)


def _oracle_operators():
    """Seeded random standard-form operators of orders 1-3 over Q and Q(i)."""
    import random

    rng = random.Random(29)
    ops = []
    for case in range(6):
        gaussian = case % 2 == 1
        coeffs = [_rand_poly(rng, gaussian, rng.randint(0, 3 - case // 2))
                  for _ in range(case // 2 + 2)]
        if coeffs[0].is_zero():
            coeffs[0] = MultiPoly.var("t") + 1
        ops.append(standard_form(coeffs))
    return ops


def _oracle_charts():
    """(phi, gamma): the 15 slope samples and the annulus chart of
    0.5 < |t| < 4, whose inverse annulus_zero_bound symmetrizes across the
    unit circle."""
    I = GaussianRational(0, 1)
    inv = counting._annulus_chart(Circle(0j, 0.5), Circle(0j, 4.0))[0].inverse()
    return ([(phi, gamma) for _, phi, gamma in operators.default_slope_samples()]
            + [(inv, MobiusMap(1, -I, 1, I))])


_LCLM = {}


def _memo_lclm(D):
    key = tuple(D.coeffs)
    if key not in _LCLM:
        _LCLM[key] = lclm(D)
    return _LCLM[key]


def _searched(D):
    """Whether the oracles symmetrize D: all but the order-3 operator over
    Q(i), whose 16 order-6 searches take about 6 s."""
    return D.order < 3 or not any(c.has_gaussian() for c in D.coeffs)


def test_composed_pullback_and_symmetrize_are_exact(monkeypatch):
    """One pullback by phi o gamma is the two by phi and gamma, and the
    composed symmetrize is the three-call composition it replaces,
    pullback(lclm(pullback(pullback(D, phi), gamma)), gamma^-1), both
    stored term order included.  lclm is memoized: the composition asks
    for the lclm of the operator that symmetrize searched on."""
    monkeypatch.setattr(operators, "lclm", _memo_lclm)
    for D in _oracle_operators():
        for phi, gamma in _oracle_charts():
            _assert_same_operator(pullback(D, phi.compose(gamma)),
                                  pullback(pullback(D, phi), gamma))
            if _searched(D):
                old = pullback(_memo_lclm(pullback(pullback(D, phi), gamma)), gamma.inverse())
                _assert_same_operator(symmetrize(D, gamma, phi), old)


def test_stripped_pullback_matches_gcd_oracle(monkeypatch):
    """The pullback removes the common power of ct + d by exact divisions,
    up to its two valuation bounds, instead of a gcd chain, with the result
    of the gcd path: standard_form of the unstripped coefficients.  The
    cases are the two pullbacks of each symmetrization, into the chart and
    back, and D pulled back by gamma^-1.  The oracle catches a strip of one
    power too few and a skipped strip."""
    cases = []
    for D in _oracle_operators():
        for phi, gamma in _oracle_charts():
            cases += [(D, phi.compose(gamma)), (D, gamma.inverse())]
            if _searched(D) and gamma.c:   # an affine map strips nothing
                cases.append((_memo_lclm(pullback(D, phi.compose(gamma))), gamma.inverse()))
    divide_out = operators._divide_out

    def run(cases, mutate):
        """(pullback, (unstripped coefficients, strip limit) or None for an
        affine map) per case, with the strip limited to mutate(limit)."""
        seen = []

        def spy(u, polys, limit):
            seen.append((polys, limit))
            return divide_out(u, polys, mutate(limit))

        monkeypatch.setattr(operators, "_divide_out", spy)
        out = []
        for E, m in cases:
            seen.clear()
            out.append((pullback(E, m), seen[0] if seen else None))
        monkeypatch.undo()
        return out

    exact = [(case, P, raw) for case, (P, raw) in zip(cases, run(cases, lambda limit: limit))
             if raw]
    oracles = [standard_form(list(reversed(raw[0]))) for _, _, raw in exact]
    assert len(oracles) > 100
    for (_, P, _), oracle in zip(exact, oracles):
        _assert_same_operator(P, oracle)
    # a mutant can differ only where there is a power to strip
    stripping = [(case, oracle) for (case, _, raw), oracle in zip(exact, oracles) if raw[1]]
    assert len(stripping) > 10
    for mutate in (lambda limit: limit - 1, lambda limit: 0):
        results = run([case for case, _ in stripping], mutate)
        assert sum(P.coeffs != o.coeffs for (P, _), (_, o) in zip(results, stripping)) > 0


def test_symmetrization_call_counts(monkeypatch):
    """On the README operator the sampled invariant slope makes 25
    pullbacks and 6 relation searches (45 and 15 with one lclm and two
    pullbacks per sample): one pullback by phi o gamma per sample, one back
    only off the real axis, and a search only when the pullback is not
    real.  The annulus bound makes 2 pullbacks to symmetrize (3 with a
    separate pullback into its chart), plus one per boundary circle in
    var_arg_bound."""
    calls = {"pullback": 0, "_first_relation": 0, "chart": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(operators, "pullback", counted("pullback", pullback))
    monkeypatch.setattr(operators, "_first_relation",
                        counted("_first_relation", operators._first_relation))
    monkeypatch.setattr(counting, "pullback", counted("chart", pullback))
    D = mk("(t^2-1)*D^2 + t*D - 1")
    operators.invariant_slope_sampled(D)
    assert (calls["pullback"], calls["_first_relation"]) == (25, 6)
    calls.update(pullback=0, _first_relation=0)
    counting.annulus_zero_bound(mk("D^2 + 1"), Circle(0j, 0.5), Circle(0j, 4.0))
    assert (calls["pullback"], calls["chart"]) == (2, 2)
