"""Fraction-free linear algebra against Cramer-rule and numpy oracles."""

import random
from fractions import Fraction

import numpy as np

from abelint.errors import NoSolution
from abelint.linalg import FieldMatrix, _clear_rows, _satisfies, invert, solve_linear
from abelint.polynomials import MultiPoly, rank_at_point
from abelint.qi import GaussianRational
from abelint.ratfunc import RatFunc, ratfunc_lcm_den

import pytest


def rand_frac_matrix(rng, n, span=6):
    return FieldMatrix([[RatFunc.coerce(Fraction(rng.randint(-span, span),
                                                 rng.randint(1, span)))
                         for _ in range(n)] for _ in range(n)])


def test_solve_against_numpy():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(1, 5)
        A = rand_frac_matrix(rng, n)
        x_true = [RatFunc.coerce(Fraction(rng.randint(-4, 4))) for _ in range(n)]
        b = [sum((A.data[i][j] * x_true[j] for j in range(n)), RatFunc.zero())
             for i in range(n)]
        try:
            x = solve_linear(A, b)
        except NoSolution:
            # genuinely singular: numpy should agree the matrix is singular
            M = np.array([[float(e.eval_complex({}).real) for e in row]
                          for row in A.data])
            assert abs(np.linalg.det(M)) < 1e-6
            continue
        Ax = [sum((A.data[i][j] * x[j] for j in range(n)), RatFunc.zero())
              for i in range(n)]
        assert all((u - v).is_zero() for u, v in zip(Ax, b))


def test_solve_rational_entries():
    t = RatFunc(MultiPoly.var("t"))
    one = RatFunc.const(Fraction(1), ("t",))
    A = FieldMatrix([[t, one], [one, t]])
    b = [t * t + one, t + t]
    x = solve_linear(A, b)
    # solution of [[t,1],[1,t]] x = [t^2+1, 2t] is (t, 1)
    assert (x[0] - t).is_zero()
    assert (x[1] - one).is_zero()


def test_inconsistent_raises():
    one = RatFunc.const(Fraction(1), ("t",))
    A = FieldMatrix([[one, one], [one, one]])
    with pytest.raises(NoSolution):
        solve_linear(A, [one, one + one])


def test_invert_roundtrip():
    rng = random.Random(12)
    for _ in range(10):
        n = rng.randint(1, 4)
        A = rand_frac_matrix(rng, n)
        try:
            Ainv = invert(A)
        except NoSolution:
            continue
        for i in range(n):
            for j in range(n):
                prod = sum((A.data[i][k] * Ainv.data[k][j] for k in range(n)),
                           RatFunc.zero())
                expect = RatFunc.coerce(Fraction(1 if i == j else 0))
                assert (prod - expect).is_zero()


T = ("t",)
I = GaussianRational(0, 1)


def rand_ratfunc(rng, gaussian=False):
    def c():
        q = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        return q + I * rng.randint(-2, 2) if gaussian else q

    num = MultiPoly(T, {(k,): c() for k in range(3)})
    den = MultiPoly(T, {(1,): 1, (0,): rng.randint(1, 5)})
    return RatFunc(num, den)


def unimodular(rng, m, gaussian):
    """L U with unit diagonals and random off-diagonal entries: det = 1."""
    one, zero = RatFunc.const(1, T), RatFunc.zero(T)
    L = FieldMatrix([[rand_ratfunc(rng, gaussian) if j < i else (one if i == j else zero)
                      for j in range(m)] for i in range(m)])
    U = FieldMatrix([[rand_ratfunc(rng, gaussian) if j > i else (one if i == j else zero)
                      for j in range(m)] for i in range(m)])
    return L * U


@pytest.mark.parametrize("gaussian", [False, True])
def test_overdetermined_systems(gaussian):
    """A = the first n columns of an invertible P.  b = A x0 has the unique
    solution x0; adding column n of P to b makes the system inconsistent."""
    rng = random.Random(21 + gaussian)
    for m, n in [(3, 1), (3, 2), (4, 2)]:
        P = unimodular(rng, m, gaussian)
        A = FieldMatrix([row[:n] for row in P.data])
        x0 = [rand_ratfunc(rng, gaussian) for _ in range(n)]
        b = A.matvec(x0)
        assert solve_linear(A, b) == x0
        with pytest.raises(NoSolution, match="inconsistent"):
            solve_linear(A, [bi + row[n] for bi, row in zip(b, P.data)])


def test_rank_drop_at_the_point_falls_through():
    """5t - 7 vanishes at t = 7/5, so neither system below has full rank
    there, although the first has full rank generically; Bareiss decides
    both."""
    one, zero = RatFunc.const(1, T), RatFunc.zero(T)
    s = RatFunc(MultiPoly(T, {(1,): 5, (0,): -7}))
    A = FieldMatrix([[one], [one]])
    assert rank_at_point(_clear_rows(A, [zero, s])) == 1
    with pytest.raises(NoSolution, match="inconsistent"):
        solve_linear(A, [zero, s])
    A = FieldMatrix([[one], [s]])
    assert rank_at_point(_clear_rows(A, [s, s * s])) == 1
    assert solve_linear(A, [s, s * s]) == [s]


def test_satisfies_rejects_perturbed_solution():
    rng = random.Random(5)
    for gaussian in (False, True):
        P = unimodular(rng, 3, gaussian)
        A = FieldMatrix([row[:2] for row in P.data])
        x0 = [rand_ratfunc(rng, gaussian) for _ in range(2)]
        rows = _clear_rows(A, A.matvec(x0))
        assert _satisfies(rows, x0)
        assert not _satisfies(rows, [x0[0], x0[1] + rand_ratfunc(rng, gaussian)])
        assert not _satisfies(rows, [x0[0] * 2, x0[1]])


def test_cleared_rows_match_cancelled_product():
    rng = random.Random(9)
    lam = RatFunc(MultiPoly.var("l"))
    for gaussian in (False, True):
        A = FieldMatrix([[rand_ratfunc(rng, gaussian) * lam, rand_ratfunc(rng, gaussian)],
                         [rand_ratfunc(rng, gaussian), RatFunc.zero()]])
        b = [rand_ratfunc(rng, gaussian) / lam, RatFunc.const(3)]
        for i, row in enumerate(_clear_rows(A, b)):
            entries = A.data[i] + [b[i]]
            den = RatFunc(ratfunc_lcm_den(entries))
            expect = [(e * den).as_poly() for e in entries]
            assert row == expect
            assert [p.vars for p in row] == [p.vars for p in expect]
