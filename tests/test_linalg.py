"""Fraction-free linear algebra against Cramer-rule and numpy oracles."""

import random
from fractions import Fraction

import numpy as np

from abelint.errors import NoSolution
from abelint.linalg import FieldMatrix, _clear_rows, _satisfies, solve_linear
from abelint.polynomials import MultiPoly, poly_lcm, rank_at_point
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


def test_lcm_den_skips_unit_denominators_but_keeps_their_vars():
    LT = ("l00", "t")
    p = RatFunc(MultiPoly(LT, {(1, 0): 2, (0, 1): 1}))
    q = RatFunc(MultiPoly(T, {(0,): 3}), MultiPoly(T, {(1,): 1, (0,): -1}))
    L = ratfunc_lcm_den([p, q])
    assert L.vars == LT
    assert list(L.terms.items()) == [((0, 1), 1), ((0, 0), -1)]


def _fingerprint(x):
    """Values, variables and term order of a list of RatFunc."""
    return [(e.vars, list(e.num.terms.items()), list(e.den.terms.items())) for e in x]


def _dense_solve(A, b):
    """solve_linear without its skips, for consistent systems: one lcm per
    row entry and every Bareiss product formed, zero or not."""
    def lcm_den(rs):
        acc = MultiPoly.const(1)
        for r in rs:
            _, acc = poly_lcm(acc, r.den).primitive()
        return acc

    M = []
    for row, bi in zip(A.data, b):
        den = lcm_den(row + [bi])
        M.append([e.cleared(den) for e in row + [bi]])
    m, n = len(M), A.cols
    pivots, prev, row = [], MultiPoly.const(1), 0
    for col in range(n):
        live = [r for r in range(row, m) if not M[r][col].is_zero()]
        if not live:
            continue
        piv = min(live, key=lambda r: M[r][col].nterms())
        M[row], M[piv] = M[piv], M[row]
        p = M[row][col]
        for r in range(row + 1, m):
            f = M[r][col]
            M[r] = [(p * e - f * g).divexact(prev) for e, g in zip(M[r], M[row])]
        prev = p
        pivots.append((row, col))
        row += 1
        if row == m:
            break
    x = [RatFunc.zero() for _ in range(n)]
    for r, c in reversed(pivots):
        acc = RatFunc(M[r][n])
        for j in range(c + 1, n):
            if not M[r][j].is_zero() and not x[j].is_zero():
                acc = acc - RatFunc(M[r][j]) * x[j]
        x[c] = acc / RatFunc(M[r][c])
    return x


def _sparse_system(rng, m, n, gaussian):
    """A sparse m x n system over Q(l, t), or over Q(i)(t), whose rows use
    different variables, with b = A x0 for an x0 with zero entries."""
    t = RatFunc(MultiPoly.var("t"))
    s = t if gaussian else RatFunc(MultiPoly.var("l"))

    def entry(i):
        if rng.random() < 0.45:
            return RatFunc.zero()
        c = Fraction(rng.randint(-3, 3) or 1, rng.randint(1, 2))
        if gaussian:
            c = c + I * rng.randint(-2, 2)
        e = RatFunc.const(c) + (t if i % 2 else s) * rng.randint(-2, 2)
        return e / (t - (I if gaussian else 1)) if rng.random() < 0.3 else e

    A = FieldMatrix([[entry(i) for _ in range(n)] for i in range(m)])
    x0 = [RatFunc.zero() if j % 2 else entry(j) + t * s for j in range(n)]
    return A, A.matvec(x0)


@pytest.mark.parametrize("gaussian", [False, True])
def test_sparse_solve_matches_dense_elimination(gaussian):
    """Skipping zero products and unit denominators changes no value,
    variable or term of x; the systems have zero entries both in pivot rows
    and in the rows they eliminate."""
    rng = random.Random(31 + gaussian)
    for m, n in [(4, 4), (5, 5), (5, 3), (3, 4)] * 4:
        A, b = _sparse_system(rng, m, n, gaussian)
        assert _fingerprint(solve_linear(A, b)) == _fingerprint(_dense_solve(A, b))


def _named_terms(x):
    """Values and term order of a list of RatFunc, each monomial named by
    its variables: a column solved with others is stored over the variables
    of all of [A | B], a single column over those of [A | b]."""
    def terms(p):
        return [(tuple((v, e) for v, e in zip(p.vars, m) if e), c)
                for m, c in p.terms.items()]
    return [(terms(e.num), terms(e.den)) for e in x]


@pytest.mark.parametrize("gaussian", [False, True])
def test_many_columns_match_single_column_solves(gaussian):
    """One elimination of [A | B] gives every column of X the value of its
    own solve, on square and consistent overdetermined systems over Q(l, t)
    and Q(i)(t).  Where the columns add no denominator to a row of A, as
    A x does for polynomial x, the row scaling is that of the single solve
    and so is every stored term."""
    rng = random.Random(41 + gaussian)
    t = RatFunc(MultiPoly.var("t"))
    s = t if gaussian else RatFunc(MultiPoly.var("l"))
    for m, n in [(3, 3), (4, 4), (5, 3), (4, 2)] * 2:
        A, _ = _sparse_system(rng, m, n, gaussian)
        polys = [[RatFunc.zero() if j % 2 == k else t * rng.randint(-3, 3) + s * s + k
                  for j in range(n)] for k in range(2)]
        x_rational = [rand_ratfunc(rng, gaussian) for _ in range(n)]
        cols = [A.matvec(x) for x in polys] + [[RatFunc.zero()] * m]
        singles = [solve_linear(A, col) for col in cols]
        X = solve_linear(A, FieldMatrix([[c[i] for c in cols] for i in range(m)]))
        assert (X.rows, X.cols) == (n, len(cols))
        for j, single in enumerate(singles):
            assert _named_terms([row[j] for row in X.data]) == _named_terms(single)
        cols.append(A.matvec(x_rational))
        X = solve_linear(A, FieldMatrix([[c[i] for c in cols] for i in range(m)]))
        for j, col in enumerate(cols):
            assert [row[j] for row in X.data] == solve_linear(A, col)


@pytest.mark.parametrize("gaussian", [False, True])
def test_one_inconsistent_column_raises(gaussian):
    rng = random.Random(51 + gaussian)
    for m, n in [(3, 2), (4, 2), (3, 3)]:
        P = unimodular(rng, m, gaussian)
        A = FieldMatrix([row[:n] for row in P.data]) if n < m else \
            FieldMatrix([row[:n - 1] + [row[0]] for row in P.data])
        good = A.matvec([rand_ratfunc(rng, gaussian) for _ in range(A.cols)])
        bad = [bi + row[-1] for bi, row in zip(good, P.data)]
        B = FieldMatrix([[g, h] for g, h in zip(good, bad)])
        with pytest.raises(NoSolution, match="inconsistent"):
            solve_linear(A, B)
