"""Pfaffian derivation: exact circle case and the elliptic quadrature oracle."""

from fractions import Fraction

import numpy as np
import pytest

from abelint.division import Hamiltonian
from abelint.errors import LineInLocus
from abelint.linalg import FieldMatrix
from abelint.parsing import parse_poly
from abelint.picard_fuchs import (LinearODESystem, PfaffianSystem, derive_pfaffian,
                                  restrict_to_pencil, size_report)
from abelint.polynomials import MultiPoly
from abelint.ratfunc import RatFunc

X = ("x1", "x2")


def test_circle_system_exact():
    x1 = MultiPoly.var("x1", X)
    x2 = MultiPoly.var("x2", X)
    H = Hamiltonian.from_x_poly((x1 * x1 + x2 * x2) *
                                MultiPoly.const(Fraction(1, 2), X))
    system = derive_pfaffian(H)
    ode = restrict_to_pencil(system, free_term_value=0)
    t = RatFunc(MultiPoly.var("t"))
    assert ode.A.rows == 1
    assert (ode.A.data[0][0] - 1 / t).is_zero()
    # oracle: X(t) = 2 pi t solves t X' = X
    for tv in (0.5, 1.0, 2.0):
        assert abs(ode.eval(tv)[0, 0] * (2 * np.pi * tv) - 2 * np.pi) < 1e-14


def test_circle_singular_pencil_detected():
    x1 = MultiPoly.var("x1", X)
    x2 = MultiPoly.var("x2", X)
    # H with no free-term dependence left after substitution cannot happen;
    # instead check the genuinely singular direction: a Hamiltonian whose
    # constant term never enters P*0 invertibly is rejected
    H = Hamiltonian.from_x_poly((x1 * x1 + x2 * x2) *
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
                                                   for row, mrow in zip(Q.data, M)])},
                             sys.free_var)
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
    rhs = elliptic.ode.eval(t0) @ q(t0)
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
    rep = size_report(elliptic.system)
    assert rep["n"] == 2 and rep["ell"] == 4
    assert rep["num_coeffs"] == 9
    assert Fraction(rep["total_size"]) > 0


def _polyval_entries(ode, t):
    """A(t) entry by entry with `np.polyval`, the reference for `eval`."""
    def coeffs(p):
        return np.array([complex(float(c), 0.0) for c in p.univar_coeffs("t")][::-1])
    return [[np.polyval(coeffs(e.num), t) / np.polyval(coeffs(e.den), t)
             for e in row] for row in ode.A.data]


EVAL_POINTS = [0.3, -1.7, np.float64(2.5), 0.25 + 0.5j, -3.0 + 1e-3j,
               np.complex128(1e-6 - 2j), 1e4 + 1e4j, 2j]


def _assert_eval_matches_polyval(ode):
    for t in EVAL_POINTS:
        M = ode.eval(t)
        ref = _polyval_entries(ode, t)
        for i in range(ode.ell):
            for j in range(ode.ell):
                assert M[i, j] == ref[i][j], (t, i, j)


def test_eval_matches_polyval_elliptic(elliptic):
    _assert_eval_matches_polyval(elliptic.ode)


def test_eval_matches_polyval_mixed_degrees():
    # numerator/denominator degrees differ per entry, so the stack is padded
    def rf(num, den="1"):
        return RatFunc(parse_poly(num, ("t",)), parse_poly(den, ("t",)))
    A = FieldMatrix([[rf("t^3 - 2*t + 1/3", "t^2 + 1"), rf("5/7")],
                     [rf("1", "t - 3/2"), rf("2*t", "t^4 + t + 1")]])
    _assert_eval_matches_polyval(LinearODESystem(A, MultiPoly.const(1, ("t",))))
