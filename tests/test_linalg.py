"""Fraction-free linear algebra against Cramer-rule and numpy oracles."""

import random
from fractions import Fraction

import numpy as np

from abelint import linalg
from abelint.errors import NoSolution
from abelint.linalg import check_solution, clear_rows, solve_linear
from abelint.polynomials import MultiPoly, poly_lcm, rank_at_point
from abelint.qi import GaussianRational
from abelint.ratfunc import RatFunc, ratfunc_lcm_den

import pytest


def _matmul(A, B):
    """A B for lists of RatFunc rows; zero products are skipped."""
    return [[sum((a * B[k][j] for k, a in enumerate(row)
                  if not (a.is_zero() or B[k][j].is_zero())), RatFunc.zero())
             for j in range(len(B[0]))] for row in A]


def _matvec(A, x):
    return [sum((a * xk for a, xk in zip(row, x)), RatFunc.zero()) for row in A]


def _solve(A, b):
    """x with A x = b for RatFunc rows A and one right-hand side b: the
    cleared rows solved fraction-free, then x = y / d."""
    d, (y,) = solve_linear(clear_rows([row + [bi] for row, bi in zip(A, b)]), len(A[0]))
    return [RatFunc(yj, d) for yj in y]


def rand_frac_matrix(rng, n, span=6):
    return [[RatFunc.coerce(Fraction(rng.randint(-span, span), rng.randint(1, span)))
             for _ in range(n)] for _ in range(n)]


def test_solve_against_numpy():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(1, 5)
        A = rand_frac_matrix(rng, n)
        x_true = [RatFunc.coerce(Fraction(rng.randint(-4, 4))) for _ in range(n)]
        b = _matvec(A, x_true)
        try:
            x = _solve(A, b)
        except NoSolution:
            # genuinely singular: numpy should agree the matrix is singular
            M = np.array([[float(e.eval_complex({}).real) for e in row] for row in A])
            assert abs(np.linalg.det(M)) < 1e-6
            continue
        assert all((u - v).is_zero() for u, v in zip(_matvec(A, x), b))


def test_solve_rational_entries():
    """[[t, 1], [1, t]] x = [t^2 + 1, 2t] has x = (t, 1); the last pivot
    is the determinant t^2 - 1 and y = d x."""
    t = MultiPoly.var("t")
    one = MultiPoly.const(1, ("t",))
    d, (y,) = solve_linear([[t, one, t * t + one], [one, t, t + t]], 2)
    assert d == t * t - one
    assert y == [d * t, d]


def test_inconsistent_raises():
    one = MultiPoly.const(1, ("t",))
    with pytest.raises(NoSolution):
        solve_linear([[one, one, one], [one, one, one + one]], 2)


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
    L = [[rand_ratfunc(rng, gaussian) if j < i else (one if i == j else zero)
          for j in range(m)] for i in range(m)]
    U = [[rand_ratfunc(rng, gaussian) if j > i else (one if i == j else zero)
          for j in range(m)] for i in range(m)]
    return _matmul(L, U)


@pytest.mark.parametrize("gaussian", [False, True])
def test_overdetermined_systems(gaussian):
    """A = the first n columns of an invertible P.  b = A x0 has the unique
    solution x0; adding column n of P to b makes the system inconsistent."""
    rng = random.Random(21 + gaussian)
    for m, n in [(3, 1), (3, 2), (4, 2)]:
        P = unimodular(rng, m, gaussian)
        A = [row[:n] for row in P]
        x0 = [rand_ratfunc(rng, gaussian) for _ in range(n)]
        b = _matvec(A, x0)
        assert _solve(A, b) == x0
        with pytest.raises(NoSolution, match="inconsistent"):
            _solve(A, [bi + row[n] for bi, row in zip(b, P)])


def test_rank_drop_at_the_point_falls_through():
    """5t - 7 vanishes at t = 7/5, so neither system below has full rank
    there, although the first has full rank generically; Bareiss decides
    both."""
    one, zero = MultiPoly.const(1, T), MultiPoly.zero(T)
    s = MultiPoly(T, {(1,): 5, (0,): -7})
    rows = [[one, zero], [one, s]]
    assert rank_at_point(rows) == 1
    with pytest.raises(NoSolution, match="inconsistent"):
        solve_linear(rows, 1)
    rows = [[one, s], [s, s * s]]
    assert rank_at_point(rows) == 1
    d, (y,) = solve_linear(rows, 1)
    assert y == [d * s]


def test_satisfies_rejects_perturbed_solution():
    rng = random.Random(5)
    for gaussian in (False, True):
        P = unimodular(rng, 3, gaussian)
        A = [row[:2] for row in P]
        x0 = [rand_ratfunc(rng, gaussian) for _ in range(2)]
        rows = clear_rows([row + [bi] for row, bi in zip(A, _matvec(A, x0))])
        d, (y,) = solve_linear(rows, 2)
        check_solution(rows, 2, d, [y])
        bump = MultiPoly.const(1, T)
        for bad_d, bad_y in [(d, [y[0], y[1] + bump]), (d * 2, y), (d, [y[0] * 2, y[1]])]:
            with pytest.raises(NoSolution, match="verification"):
                check_solution(rows, 2, bad_d, [bad_y])


def test_cleared_rows_match_cancelled_product():
    rng = random.Random(9)
    lam = RatFunc(MultiPoly.var("l"))
    for gaussian in (False, True):
        rows = [[rand_ratfunc(rng, gaussian) * lam, rand_ratfunc(rng, gaussian),
                 rand_ratfunc(rng, gaussian) / lam],
                [rand_ratfunc(rng, gaussian), RatFunc.zero(), RatFunc.const(3)]]
        for entries, row in zip(rows, clear_rows(rows)):
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


def _fingerprint(ps):
    """Values, variables and term order of a list of MultiPoly."""
    return [(p.vars, list(p.terms.items())) for p in ps]


def _dense_solve(A, b):
    """solve_linear without its skips, for consistent systems: one lcm per
    row entry, every Bareiss product formed, and the same fraction-free
    back substitution with every product formed.  Returns (d, y)."""
    def lcm_den(rs):
        acc = MultiPoly.const(1)
        for r in rs:
            _, acc = poly_lcm(acc, r.den).primitive()
        return acc

    M = []
    for row, bi in zip(A, b):
        den = lcm_den(row + [bi])
        M.append([e.cleared(den) for e in row + [bi]])
    m, n = len(M), len(A[0])
    pivots, prev, row = [], None, 0
    for col in range(n):
        live = [r for r in range(row, m) if not M[r][col].is_zero()]
        if not live:
            continue
        piv = min(live, key=lambda r: M[r][col].nterms())
        M[row], M[piv] = M[piv], M[row]
        p = M[row][col]
        for r in range(row + 1, m):
            f = M[r][col]
            M[r] = [p * e - f * g if prev is None else (p * e - f * g).divexact(prev)
                    for e, g in zip(M[r], M[row])]
        prev = p
        pivots.append((row, col))
        row += 1
        if row == m:
            break
    d = prev
    y = [MultiPoly.zero() for _ in range(n)]
    (r, c), rest = pivots[-1], pivots[:-1]
    y[c] = M[r][n]
    for r, c in reversed(rest):
        acc = d * M[r][n]
        for j in range(c + 1, n):
            acc = acc - M[r][j] * y[j]
        y[c] = acc.divexact(M[r][c])
    return d, y


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

    A = [[entry(i) for _ in range(n)] for i in range(m)]
    x0 = [RatFunc.zero() if j % 2 else entry(j) + t * s for j in range(n)]
    return A, _matvec(A, x0)


@pytest.mark.parametrize("gaussian", [False, True])
def test_sparse_solve_matches_dense_elimination(gaussian):
    """Skipping zero products and unit denominators changes no value,
    variable or term of d or y; the systems have zero entries both in pivot
    rows and in the rows they eliminate."""
    rng = random.Random(31 + gaussian)
    for m, n in [(4, 4), (5, 5), (5, 3), (3, 4)] * 4:
        A, b = _sparse_system(rng, m, n, gaussian)
        d, (y,) = solve_linear(clear_rows([row + [bi] for row, bi in zip(A, b)]), n)
        dense_d, dense_y = _dense_solve(A, b)
        assert _fingerprint([d] + y) == _fingerprint([dense_d] + dense_y)


@pytest.mark.parametrize("gaussian", [False, True])
def test_many_columns_match_single_column_solves(gaussian):
    """One elimination of [A | C] gives every column the d and the y,
    variables and stored terms included, of its own solve on the same rows,
    on square and consistent overdetermined systems over Q(l, t) and
    Q(i)(t); and y / d is the solution that each column's own system,
    cleared alone, gives."""
    rng = random.Random(41 + gaussian)
    t = RatFunc(MultiPoly.var("t"))
    s = t if gaussian else RatFunc(MultiPoly.var("l"))
    for m, n in [(3, 3), (4, 4), (5, 3), (4, 2)] * 2:
        A, _ = _sparse_system(rng, m, n, gaussian)
        polys = [[RatFunc.zero() if j % 2 == k else t * rng.randint(-3, 3) + s * s + k
                  for j in range(n)] for k in range(2)]
        xs = polys + [[RatFunc.zero()] * n, [rand_ratfunc(rng, gaussian) for _ in range(n)]]
        cols = [_matvec(A, x) for x in xs]
        rows = clear_rows([row + [c[i] for c in cols] for i, row in enumerate(A)])
        d, Y = solve_linear(rows, n)
        assert len(Y) == len(cols)
        for j, y in enumerate(Y):
            single_d, (single_y,) = solve_linear([row[:n] + [row[n + j]] for row in rows], n)
            assert _fingerprint([d] + y) == _fingerprint([single_d] + single_y)
            assert [RatFunc(yk, d) for yk in y] == _solve(A, cols[j])


def _poly_system(rng, m, n, gaussian, rank=None):
    """Random m x n polynomial rows over Q[l, t] or Q(i)[t] of the given
    rank (default min(m, n)), with c = A x0 / q for polynomial x0 and a
    constant q, so that the system is consistent."""
    t = MultiPoly.var("t")
    s = t if gaussian else MultiPoly.var("l")

    def poly():
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        if gaussian:
            c = c + I * rng.randint(-1, 1)
        return t * rng.randint(-2, 2) + s * rng.randint(-1, 1) + MultiPoly.const(c)

    rank = min(m, n) if rank is None else rank
    L = [[poly() for _ in range(rank)] for _ in range(m)]
    R = [[poly() for _ in range(n)] for _ in range(rank)]
    A = [[sum((L[i][k] * R[k][j] for k in range(rank)), MultiPoly.zero())
          for j in range(n)] for i in range(m)]
    x0 = [poly() for _ in range(n)]
    c = [sum((a * xj for a, xj in zip(row, x0)), MultiPoly.zero()) * Fraction(1, 3)
         for row in A]
    return [row + [ci] for row, ci in zip(A, c)]


@pytest.mark.parametrize("gaussian", [False, True])
@pytest.mark.parametrize("m,n", [(3, 3), (4, 2), (2, 4), (4, 4)])
def test_solution_is_polynomial_with_last_pivot(gaussian, m, n):
    """Square, over- and underdetermined consistent systems over Q(l, t)
    and Q(i)(t): d is nonzero, each y is a polynomial, A y = d c holds as
    polynomial identities, and the free variables are zero."""
    rng = random.Random(61 + 7 * m + n + gaussian)
    for rank in sorted({min(m, n), min(m, n) - 1}):
        rows = _poly_system(rng, m, n, gaussian, rank)
        d, (y,) = solve_linear(rows, n)
        assert not d.is_zero()
        assert all(isinstance(yk, MultiPoly) for yk in y)
        for row in rows:
            lhs = sum((a * yk for a, yk in zip(row, y)), MultiPoly.zero())
            assert lhs == d * row[n]
        assert sum(not yk.is_zero() for yk in y) <= rank


@pytest.mark.parametrize("gaussian", [False, True])
def test_one_inconsistent_column_raises(gaussian):
    rng = random.Random(51 + gaussian)
    for m, n in [(3, 2), (4, 2), (3, 3)]:
        P = unimodular(rng, m, gaussian)
        A = [row[:n] for row in P] if n < m else [row[:n - 1] + [row[0]] for row in P]
        good = _matvec(A, [rand_ratfunc(rng, gaussian) for _ in range(len(A[0]))])
        bad = [bi + row[-1] for bi, row in zip(good, P)]
        rows = clear_rows([row + [g, h] for row, g, h in zip(A, good, bad)])
        with pytest.raises(NoSolution, match="inconsistent"):
            solve_linear(rows, len(A[0]))


@pytest.mark.parametrize("gaussian", [False, True])
def test_inconsistent_column_raises_by_rank_check_and_by_bareiss(gaussian, monkeypatch):
    """An overdetermined column of full rank at the point is refused before
    any elimination step; a square singular system, where the rank check
    does not apply, is refused by the elimination.  The consistent column
    beside it does not hide it in either case."""
    rng = random.Random(71 + gaussian)
    steps = []
    step = linalg._bareiss_step
    monkeypatch.setattr(linalg, "_bareiss_step",
                        lambda *a: steps.append(1) or step(*a))
    over = _poly_system(rng, 4, 2, gaussian)
    bump = MultiPoly.const(1, T)
    rows = [row + [row[2] + (bump if i == 3 else MultiPoly.zero(T))]
            for i, row in enumerate(over)]
    with pytest.raises(NoSolution, match="inconsistent"):
        solve_linear(rows, 2)
    assert not steps
    square = _poly_system(rng, 3, 3, gaussian, rank=2)
    rows = [row + [row[3] + (bump if i == 0 else MultiPoly.zero(T))]
            for i, row in enumerate(square)]
    with pytest.raises(NoSolution, match="inconsistent"):
        solve_linear(rows, 3)
    assert steps
