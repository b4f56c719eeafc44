"""Pfaffian derivation: exact circle case and the elliptic quadrature oracle."""

from fractions import Fraction

import numpy as np
import pytest

from golden_corpus import DERIVE_ONLY, HAMILTONIANS

from abelint import division, linalg, picard_fuchs
from abelint.division import (XVARS, Decomposition, Hamiltonian, basis_exponents,
                              basis_two_form, divide_one_form, divide_two_form)
from abelint.errors import LineInLocus, UnsupportedInput
from abelint.linalg import FieldMatrix, solve_columns
from abelint.parsing import parse_poly
from abelint.picard_fuchs import (LinearODESystem, PfaffianSystem, derive_pfaffian,
                                  restrict_to_pencil, size_report)
from abelint.polynomials import MultiPoly
from abelint.ratfunc import RatFunc

X = ("x1", "x2")


def test_circle_system_exact():
    x1 = MultiPoly.var("x1", X)
    x2 = MultiPoly.var("x2", X)
    H = Hamiltonian((x1 * x1 + x2 * x2) *
                                MultiPoly.const(Fraction(1, 2), X))
    system = derive_pfaffian(H)
    ode = restrict_to_pencil(system, free_term_value=0)
    t = RatFunc(MultiPoly.var("t"))
    assert ode.A.rows == 1
    assert (ode.A.data[0][0] - 1 / t).is_zero()
    # oracle: X(t) = 2 pi t solves t X' = X
    for tv in (0.5, 1.0, 2.0):
        assert abs(np.array(ode.eval(tv))[0, 0] * (2 * np.pi * tv) - 2 * np.pi) < 1e-14


def test_circle_singular_pencil_detected():
    x1 = MultiPoly.var("x1", X)
    x2 = MultiPoly.var("x2", X)
    # H with no free-term dependence left after substitution cannot happen;
    # instead check the genuinely singular direction: a Hamiltonian whose
    # constant term never enters P*0 invertibly is rejected
    H = Hamiltonian((x1 * x1 + x2 * x2) *
                                MultiPoly.const(Fraction(1, 2), X))
    system = derive_pfaffian(H)
    ode = restrict_to_pencil(system, free_term_value=0)
    assert [complex(z) for z in ode.singular_points] == [0j]


def test_restriction_evaluates_q_at_zero(elliptic):
    """Q^(0,0) enters A at t = 0, before lambda_00 = c0 - t: a term t M of
    Q with M constant leaves A as it is."""
    sys = elliptic.system
    t = RatFunc(MultiPoly.var("t"))
    Q = sys.Q[(0, 0)]
    M = [[Fraction(1 + 2 * i - j, 3) for j in range(Q.cols)] for i in range(Q.rows)]
    shifted = PfaffianSystem(sys.H, sys.Pstar, sys.etas,
                             {(0, 0): FieldMatrix([[e + t * m for e, m in zip(row, mrow)]
                                                   for row, mrow in zip(Q.data, M)])})
    A = restrict_to_pencil(shifted, free_term_value=0).A
    assert A.flatten() == elliptic.ode.A.flatten()


def test_derive_only_free_term_q(elliptic):
    # the pencil restriction reads Q^(0,0) alone, so no other Q^s is derived
    assert set(elliptic.system.Q) == {(0, 0)}


def test_elliptic_singular_locus(elliptic):
    pts = sorted(z.real for z in elliptic.ode.singular_points)
    crit = 2 / (3 * np.sqrt(3))
    assert np.allclose(pts, [-crit, crit], atol=1e-10)
    assert all(abs(z.imag) < 1e-10 for z in elliptic.ode.singular_points)


def test_elliptic_system_matches_quadrature(elliptic):
    t0 = 0.1
    d = 1e-4
    q = elliptic.periods
    dX = (8 * (q(t0 + d) - q(t0 - d)) - (q(t0 + 2 * d) - q(t0 - 2 * d))) / (12 * d)
    rhs = np.array(elliptic.ode.eval(t0)) @ q(t0)
    res = np.max(np.abs(dX - rhs)) / np.max(np.abs(rhs))
    assert res < 1e-5


def test_elliptic_parity_block_structure(elliptic):
    # basis order (0,0),(0,1),(1,0),(1,1): odd-x2 entries decouple
    A = elliptic.ode.A
    even = [0, 2]
    odd = [1, 3]
    for i in even:
        for j in odd:
            assert A.data[i][j].is_zero()
            assert A.data[j][i].is_zero()


def test_size_report(elliptic):
    """The measured sizes of the elliptic system, pinned: the l1 sizes of
    its 32 entries sum to 99, the largest being 13."""
    assert size_report(elliptic.system) == {
        "n": 2, "ell": 4, "num_coeffs": 9, "total_size": "99", "max_entry_size": "13",
        "max_t_degree": 0, "max_lambda_degree": 1}


def _polyval_entries(ode, t):
    """A(t) entry by entry with `np.polyval`, which divides as numpy does."""
    def coeffs(p):
        return np.array([complex(float(c), 0.0) for c in p.univar_coeffs("t")][::-1])
    return [[np.polyval(coeffs(e.num), t) / np.polyval(coeffs(e.den), t)
             for e in row] for row in ode.A.data]


def _loop_entries(ode, t):
    """A(t) entry by entry, the reference for `eval`: a Horner loop on
    Python complex scalars for the numerator and for the denominator, then
    their quotient."""
    def horner(p):
        cs = [complex(c) for c in reversed(p.univar_coeffs("t"))]
        y = cs[0]
        for c in cs[1:]:
            y = y * t + c
        return y
    t = complex(t)
    return [[horner(e.num) / horner(e.den) for e in row] for row in ode.A.data]


EVAL_POINTS = [0.3, -1.7, np.float64(2.5), 0.25 + 0.5j, -3.0 + 1e-3j,
               np.complex128(1e-6 - 2j), 1e4 + 1e4j, 2j]
# numpy's array loops may round a Horner step differently from CPython's
# complex operations, and numpy divides by multiplying with the reciprocal
# of Smith's denominator, so `eval` parts from `np.polyval` in the last
# bits: by at most 1.05 ulps of an entry at these points, which keep away
# from the roots of the denominators, where a rounding of the denominator
# is amplified
EVAL_ULPS = 4


def _assert_eval_matches_polyval(ode):
    for t in EVAL_POINTS:
        M = ode.eval(t)
        assert type(M) is tuple and all(type(row) is tuple for row in M)
        assert all(type(x) is complex for row in M for x in row)
        # bit for bit, signed zeros included
        assert np.array(M).tobytes() == np.array(_loop_entries(ode, t)).tobytes(), t
        ref = _polyval_entries(ode, t)
        for i in range(ode.ell):
            for j in range(ode.ell):
                err = abs(M[i][j] - ref[i][j])
                assert err <= EVAL_ULPS * np.finfo(float).eps * abs(ref[i][j]), (t, i, j)


def test_eval_matches_polyval_elliptic(elliptic):
    _assert_eval_matches_polyval(elliptic.ode)


def test_eval_matches_polyval_mixed_degrees():
    # numerator/denominator degrees differ per entry, and two entries share
    # the denominator t^2 + 1
    def rf(num, den="1"):
        return RatFunc(parse_poly(num, ("t",)), parse_poly(den, ("t",)))
    A = FieldMatrix([[rf("t^3 - 2*t + 1/3", "t^2 + 1"), rf("5/7"), rf("0")],
                     [rf("1", "t - 3/2"), rf("2*t", "t^4 + t + 1"), rf("-t", "t^2 + 1")],
                     [rf("0"), rf("1/3"), rf("t^5 - 1")]])
    _assert_eval_matches_polyval(LinearODESystem(A, MultiPoly.const(1, ("t",))))


def test_eval_of_high_degree_entries():
    # more coefficients than one line of a generated Horner holds
    num = " + ".join(f"{k % 5 - 2}/{k + 1}*t^{k}" for k in range(150))
    A = FieldMatrix([[RatFunc(parse_poly(num, ("t",)), parse_poly("t^70 + 3", ("t",)))]])
    ode = LinearODESystem(A, MultiPoly.const(1, ("t",)))
    for t in (0.3 - 0.9j, -1.01 + 0.2j):
        assert np.array(ode.eval(t)).tobytes() == np.array(_loop_entries(ode, t)).tobytes()


# perfbench's random_hamiltonian(random.Random(1)), the seed-1 `derive` input
RANDOM1 = ("x1^3 + x2^3 + (3)*x1^0*x2^0 + (0)*x1^0*x2^1 + (0)*x1^0*x2^2"
           " + (-3/2)*x1^1*x2^0 + (3)*x1^1*x2^1")
# Q^(0,0) and P* of these H do not depend on t, but Q^(2,0), Q^(1,1) and
# Q^(0,2) do, so only they tell t - l00 from t + l00
S_LIST = ((0, 0), (2, 0), (1, 1), (0, 2))


def _shifted(p, sign):
    """p(t + sign l00) for an entry p over t, x1, x2."""
    t = MultiPoly.var("t", ("l00",))
    return p.subs({"t": t + sign * MultiPoly.var("l00")})


def _one_form_identity_holds(H, target, row, dec0):
    """x^s eta_a = sum_b (row_b o (H0 + l00)) w_b + u dH0 + dv with the u and
    v of the division on H0, checked as the identity of H0 for row(t + l00):
    the u and v serve H0 + l00 as well, since d(H0 + l00) = dH0."""
    back = [_shifted(e.as_poly(), +1) for e in row]
    return Decomposition(H, "one", target, back, u=dec0.u, v=dec0.v).verify()


@pytest.mark.parametrize("text", ["x2^2/2 + x1^3 - x1", RANDOM1, "x1^4+x2^4+x1*x2-x1"])
def test_system_is_the_translated_system_of_h0(text):
    """P* = P0(t - l00) + l00 I and Q^s = Q0^s(t - l00), for P0, eta and Q0^s
    recomputed here by dividing with H0; the translation t + l00 breaks the
    division identities of H0 + l00."""
    H0 = parse_poly(text, X)
    H = Hamiltonian(H0)
    system = derive_pfaffian(H, s_list=S_LIST)
    assert system.check_identities()
    decs = divide_two_form(H, [H0 * basis_two_form(a) for a in basis_exponents(H.n)])
    l00 = RatFunc(MultiPoly.var("l00"))
    for a, dec in enumerate(decs):
        assert [RatFunc(e) for e in dec.eta] == list(system.etas[a])
        for b, p in enumerate(dec.p):
            assert system.Pstar.data[a][b] == _shifted(p, -1) + (l00 if a == b else 0)
    mutant_breaks = False
    for s in S_LIST:
        xs = MultiPoly(XVARS, {s: Fraction(1)})
        targets = [[e * xs for e in dec.eta] for dec in decs]
        decs0 = divide_one_form(H, [p for p, _ in targets], [q for _, q in targets])
        for a, dec0 in enumerate(decs0):
            row = system.Q[s].data[a]
            assert row == [_shifted(p, -1) for p in dec0.p]
            assert _one_form_identity_holds(H, targets[a], row, dec0)
            mutant = [RatFunc(_shifted(p, +1)) for p in dec0.p]
            mutant_breaks |= not _one_form_identity_holds(H, targets[a], mutant, dec0)
    assert mutant_breaks


def test_a_broken_identity_is_caught(elliptic):
    """`check_identities` reads the stored P*: one entry moved by l00 (a
    factor that the translation back does not remove), or one eta
    component changed, fails it."""
    sys = elliptic.system
    l00 = RatFunc(MultiPoly.var("l00"))
    Pstar = FieldMatrix([[e + l00 if (a, b) == (0, 1) else e for b, e in enumerate(row)]
                         for a, row in enumerate(sys.Pstar.data)])
    assert not PfaffianSystem(sys.H, Pstar, sys.etas, sys.Q).check_identities()
    etas = [(e1, e2 + 1) if a == 1 else (e1, e2) for a, (e1, e2) in enumerate(sys.etas)]
    assert not PfaffianSystem(sys.H, sys.Pstar, etas, sys.Q).check_identities()


@pytest.mark.parametrize("text", ["x1^2/2 + x2^2/2", "x2^2/2 + x1^3 - x1", RANDOM1,
                                  "x1^4+x2^4+x1*x2-x1", "x1^3+x2^3+i*x1"])
def test_derivation_takes_no_bareiss_step(text, monkeypatch):
    """Every division of the derivation runs on the concrete H0, so its
    matrices are constant and take the reduced row echelon form."""
    H = Hamiltonian(parse_poly(text, X))
    steps = []
    step = linalg._bareiss_step
    monkeypatch.setattr(linalg, "_bareiss_step", lambda *a: steps.append(1) or step(*a))
    system = derive_pfaffian(H)
    assert not steps
    assert system.check_identities()


@pytest.mark.parametrize("text, lvars", [
    ("x1^3 + x2^2 + a*x1 + l00", ("a", "l00")),   # a second symbolic coefficient
    ("x1^3 + x2^2 + 2*l00", ("l00",)),
    ("x1^3 + x2^2 + l00*x1 + l00", ("l00",)),
    ("x1^3 + x2^2", ()),
])
def test_only_a_symbolic_free_term_is_accepted(text, lvars):
    """A Hamiltonian is concrete: one that uses a variable other than x1,
    x2 exits 2.  The free term l00 is the derivation's own, the one
    symbolic coefficient of the system it derives from a concrete H0."""
    poly = parse_poly(text, X + lvars)
    if lvars:
        with pytest.raises(UnsupportedInput, match="other than x1, x2") as exc:
            Hamiltonian(poly)
        assert exc.value.exit_code == 2
        return
    system = derive_pfaffian(Hamiltonian(poly))
    assert {v for e in system.Pstar.flatten() for v in e.num.effective_vars()} <= \
        {"l00", "t"}


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_homogeneous_system_is_diagonal(n):
    """For a homogeneous H0 of degree n + 1 with a regular basis, the
    integral of x^a over {H0 <= t} is c t^((|a| + 2)/(n + 1)), so
    A(t) = diag((|a| + 2)/(n + 1)) / t exactly."""
    H = Hamiltonian(parse_poly(f"x1^{n + 1} + x2^{n + 1}", X))
    A = restrict_to_pencil(derive_pfaffian(H), free_term_value=0).A
    t = RatFunc(MultiPoly.var("t"))
    assert A.data == [[Fraction(sum(a) + 2, n + 1) / t if i == j else 0 for j in range(H.ell)]
                      for i, a in enumerate(basis_exponents(n))]


def _fingerprints(M):
    """Value, variables and stored terms of every entry of a FieldMatrix."""
    return [[[(p.vars, list(p.terms.items())) for p in (e.num, e.den)] for e in row]
            for row in M.data]


def _recorded_solves(monkeypatch):
    """The rows of every solve that `restrict_to_pencil` makes."""
    seen = []
    solve = picard_fuchs.solve_linear

    def recording(rows, n):
        seen.append(rows)
        return solve(rows, n)

    monkeypatch.setattr(picard_fuchs, "solve_linear", recording)
    return seen


@pytest.mark.parametrize("text, gaussian", [("x2^2/2 + x1^3 - x1", False), (RANDOM1, False),
                                            ("x1^3+x2^3+i*x1", True)])
def test_restriction_solves_over_integer_polynomials(text, gaussian, monkeypatch):
    """Each row of [P*(0) | Q^(0,0)(0)] reaches the solve over Z[t], or over
    Z[i][t] for a Gaussian H, as polynomials in t alone; A's entries still
    carry (t, x1, x2)."""
    H = Hamiltonian(parse_poly(text, X))
    system = derive_pfaffian(H)
    seen = _recorded_solves(monkeypatch)
    ode = restrict_to_pencil(system, free_term_value=Fraction(1, 2))
    (rows,) = seen
    entries = [p for row in rows for p in row]
    assert all(p.vars == ("t",) for p in entries)
    assert all(not p.poly.ring.domain.is_Field for p in entries)
    assert any(p.has_gaussian() for p in entries) == gaussian
    assert {e.vars for e in ode.A.flatten()} == {("t", "x1", "x2")}


def test_elliptic_derivation_splits_each_form_once(monkeypatch):
    """One derivation of the elliptic H splits 19 polynomials by x-monomial:
    in the two-form division its 4 targets, h1, h2, H^0 and H^1, and in the
    one-form division its 8 target components, h1, h2 and H^0.  Every
    column is one of these splits shifted, so no product per unknown is
    split."""
    H = Hamiltonian(parse_poly("x2^2/2 + x1^3 - x1", X))
    calls = []
    split = division._split_x
    monkeypatch.setattr(division, "_split_x", lambda poly: calls.append(1) or split(poly))
    system = derive_pfaffian(H)
    assert len(calls) == 19
    assert system.check_identities()


def test_rational_entries_are_refused(elliptic, monkeypatch):
    """Every entry that `derive_pfaffian` makes is a polynomial.  A
    hand-built system whose first row of [P* | Q^(0,0)] is divided by
    l00 + 7 is refused before any solve (exit 2), as is one whose Q^(0,0)
    keeps a symbolic coefficient other than l00; the elliptic system
    itself restricts to its A, stored terms included."""
    sys = elliptic.system
    r = RatFunc(MultiPoly.const(1), MultiPoly.var("l00") + 7)

    def first_row_times(M, f):
        return FieldMatrix([[e * f for e in row] if a == 0 else row
                            for a, row in enumerate(M.data)])

    seen = _recorded_solves(monkeypatch)
    for f in (r, RatFunc(MultiPoly.var("a"))):
        hand = PfaffianSystem(sys.H, sys.Pstar, sys.etas,
                              {(0, 0): first_row_times(sys.Q[(0, 0)], f)})
        with pytest.raises(UnsupportedInput) as exc:
            restrict_to_pencil(hand, free_term_value=0)
        assert exc.value.exit_code == 2
    hand = PfaffianSystem(sys.H, first_row_times(sys.Pstar, r), sys.etas, sys.Q)
    with pytest.raises(UnsupportedInput, match="polynomials"):
        restrict_to_pencil(hand, free_term_value=0)
    assert not seen
    ode = restrict_to_pencil(sys, free_term_value=0)
    assert _fingerprints(ode.A) == _fingerprints(elliptic.ode.A)
    assert ode.singular_poly == elliptic.ode.singular_poly


def test_restriction_needs_the_free_term_q():
    """A system derived without Q^(0,0) cannot be restricted: exit 2, with
    Q^(0,0) named."""
    H = Hamiltonian(parse_poly("x2^2/2 + x1^3 - x1", X))
    system = derive_pfaffian(H, s_list=[(1, 0)])
    with pytest.raises(UnsupportedInput, match=r"Q\^\(0,0\)") as exc:
        restrict_to_pencil(system, free_term_value=0)
    assert exc.value.exit_code == 2


# the golden corpus's Hamiltonians with n <= 3, the Gaussian one included
ORACLE_H = [text for text in HAMILTONIANS + DERIVE_ONLY
            if Hamiltonian(parse_poly(text, X)).n <= 3]
# a point off every singular point of these systems
T_ORACLE = Fraction(7, 3)


def _exact_value(p, t):
    """p(t) exactly, for a polynomial p in t alone."""
    value = 0
    for c in reversed(p.univar_coeffs("t")):
        value = value * t + c
    return value


def _constant_solve(system, l00):
    """-(P*(0)^(-1) Q^(0,0)(0)) at the free term l00, by one reduced row
    echelon form of the constant rows [P*(0) | Q^(0,0)(0) | I]: no Bareiss
    step and no gcd.  None when P*(0) is singular there, which leaves some
    column of I outside its range."""
    ell = system.ell
    point = {"t": 0, "l00": l00}
    rows = {}
    for a, row in enumerate(p + q for p, q in zip(system.Pstar.data, system.Q[(0, 0)].data)):
        values = [e.as_poly().subs(point).constant_value() for e in row]
        rows[a] = {j: v for j, v in enumerate(values + [int(a == b) for b in range(ell)]) if v}
    xs = solve_columns(rows, (ell, 3 * ell), ell)
    if None in xs:
        return None
    return [[-xs[c].get(i, 0) for c in range(ell)] for i in range(ell)]


def _matches_constant_solve(A, system, c0):
    expected = _constant_solve(system, c0 - T_ORACLE)
    return expected is not None and all(
        _exact_value(e.num, T_ORACLE) / _exact_value(e.den, T_ORACLE) == want
        for row, wants in zip(A.data, expected) for e, want in zip(row, wants))


@pytest.mark.parametrize("c0", [Fraction(0), Fraction(1, 2), Fraction(-3)])
@pytest.mark.parametrize("text", ORACLE_H)
def test_pencil_matrix_matches_a_constant_solve(text, c0):
    """A(7/3) of the restriction equals the solve at the one point l00 =
    c0 - 7/3 of the constant system P*(0) X = -Q^(0,0)(0), exactly; a copy
    of A with one nonzero entry negated does not."""
    system = derive_pfaffian(Hamiltonian(parse_poly(text, X)))
    A = restrict_to_pencil(system, free_term_value=c0).A
    assert _matches_constant_solve(A, system, c0)
    i, j = next((i, j) for i, row in enumerate(A.data) for j, e in enumerate(row)
                if not e.is_zero())
    mutant = FieldMatrix([[-e if (a, b) == (i, j) else e for b, e in enumerate(row)]
                          for a, row in enumerate(A.data)])
    assert not _matches_constant_solve(mutant, system, c0)
