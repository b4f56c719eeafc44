"""Fraction-free linear algebra against Cramer-rule and numpy oracles."""

import random
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from abelint import linalg
from abelint.errors import NoSolution, UnsupportedInput
from abelint.linalg import check_dense, solve_columns, solve_linear
from abelint.polynomials import (MODULUS, POINT, SQRT_MINUS_ONE, MultiPoly, dup_add,
                                 integer_parts, poly_lcm, to_dense)
from abelint.qi import GaussianRational
from abelint.ratfunc import RatFunc, ratfunc_lcm_den
from linalg_helpers import clear_rows

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


def test_satisfies_rejects_perturbed_solution():
    rng = random.Random(5)
    for gaussian in (False, True):
        P = unimodular(rng, 3, gaussian)
        A = [row[:2] for row in P]
        x0 = [rand_ratfunc(rng, gaussian) for _ in range(2)]
        rows = clear_rows([row + [bi] for row, bi in zip(A, _matvec(A, x0))])
        d, (y,) = solve_linear(rows, 2)
        (dense_d, *dense_rows), K = to_dense([d] + [p for row in rows for p in row] + y)
        R, y = [dense_rows[i:i + 3] for i in range(0, 9, 3)], dense_rows[9:]
        check_dense(R, 2, dense_d, [y], K)
        bump = [K.one]
        double = [2 * c for c in dense_d]
        for bad_d, bad_y in [(dense_d, [y[0], dup_add(y[1], bump, K)]), (double, y),
                             (dense_d, [[2 * c for c in y[0]], y[1]])]:
            with pytest.raises(NoSolution, match="verification"):
                check_dense(R, 2, bad_d, [bad_y], K)


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


def bareiss_reference(rows, n):
    """The fraction-free (Bareiss) solve on MultiPoly rows, as `solve_linear`
    ran it before it moved to dense coefficient lists: every product
    formed, and (d, Y) with A y = d c per column, or NoSolution when a
    column is inconsistent."""
    m = len(rows)
    M = list(rows)
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
    if any(not e.is_zero() for r in range(row, m) for e in M[r][n:]):
        raise NoSolution("inconsistent linear system")
    d = prev if prev is not None else MultiPoly.const(1)
    Y = []
    for j in range(n, len(rows[0])):
        y = [MultiPoly.zero() for _ in range(n)]
        for i, (r, c) in enumerate(reversed(pivots)):
            if i == 0:  # the last pivot is d itself
                y[c] = M[r][j]
                continue
            acc = d * M[r][j]
            for k in range(c + 1, n):
                acc = acc - M[r][k] * y[k]
            y[c] = acc.divexact(M[r][c])
        Y.append(y)
    return d, Y


def _dense_solve(A, b):
    """solve_linear without its skips, for consistent systems: one lcm per
    row entry and the dense Bareiss solve of the cleared rows.  Returns
    (d, y)."""
    def lcm_den(rs):
        acc = MultiPoly.const(1)
        for r in rs:
            _, acc = poly_lcm(acc, r.den).primitive()
        return acc

    M = []
    for row, bi in zip(A, b):
        den = lcm_den(row + [bi])
        M.append([e.cleared(den) for e in row + [bi]])
    d, (y,) = bareiss_reference(M, len(A[0]))
    return d, y


def _sparse_system(rng, m, n, gaussian):
    """A sparse m x n system over Q(t), whose rows alternate between linear
    and quadratic entries, or over Q(i)(t), with b = A x0 for an x0 with
    zero entries."""
    t = RatFunc(MultiPoly.var("t"))
    s = t if gaussian else t * t

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
    rows and in the rows they eliminate.  The dense solve stores every
    entry over (t,) with its terms in descending order: the reference's
    entries, so extended and stored, have the same fingerprint."""
    rng = random.Random(31 + gaussian)
    for m, n in [(4, 4), (5, 5), (5, 3), (3, 4)] * 4:
        A, b = _sparse_system(rng, m, n, gaussian)
        d, (y,) = solve_linear(clear_rows([row + [bi] for row, bi in zip(A, b)]), n)
        dense_d, dense_y = _dense_solve(A, b)
        reference = [p.extend(T).descending() for p in [dense_d] + dense_y]
        assert _fingerprint([d] + y) == _fingerprint(reference)


@pytest.mark.parametrize("gaussian", [False, True])
def test_many_columns_match_single_column_solves(gaussian):
    """One elimination of [A | C] gives every column the d and the y,
    variables and stored terms included, of its own solve on the same rows,
    on square and consistent overdetermined systems over Q(t) and
    Q(i)(t); and y / d is the solution that each column's own system,
    cleared alone, gives."""
    rng = random.Random(41 + gaussian)
    t = RatFunc(MultiPoly.var("t"))
    s = t if gaussian else t * t
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
    """Random m x n polynomial rows over Q[t] or Q(i)[t] of the given rank
    (default min(m, n)), with c = A x0 / q for polynomial x0 and a
    constant q, so that the system is consistent."""
    t = MultiPoly.var("t")
    s = t if gaussian else t * t

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
    """Square, over- and underdetermined consistent systems over Q(t) and
    Q(i)(t): d is nonzero, each y is a polynomial, A y = d c holds as
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
def test_columns_of_rank_deficient_rows_match_their_own_solves(gaussian):
    """Constant rows of rank below n (polynomial rows at t = 2) leave
    several rows under the elimination, and the rank check refutes no
    column; each column of one `solve_columns` is None exactly when its own
    dense `solve_linear` raises, and otherwise has its y / d, also for a
    copy of an inconsistent column."""
    rng = random.Random(81 + gaussian)
    bump = MultiPoly.const(1)
    for m, n, rank in [(5, 3, 1), (4, 3, 2), (5, 2, 1), (3, 3, 1)] * 2:
        base = [[p.subs({"t": 2}) for p in row] for row in _poly_system(rng, m, n, gaussian, rank)]
        cols = [[row[n] for row in base]]
        for i in rng.sample(range(m), 2):
            cols.append([c + (bump if r == i else 0) for r, c in enumerate(cols[0])])
        cols.append(list(cols[-1]))
        rows = [row[:n] + [c[i] for c in cols] for i, row in enumerate(base)]
        Y = solve_columns(*_sparse([[e.constant_value() for e in row] for row in rows]), n)
        for j, y in enumerate(Y):
            try:
                own_d, (own_y,) = solve_linear([row[:n] + [row[n + j]] for row in rows], n)
            except NoSolution:
                assert y is None
                continue
            assert [y.get(k, 0) for k in range(n)] == _quotients(own_d, own_y)
        assert Y[0] is not None and Y[-1] is None


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


def _quotients(d, y):
    return [yk.constant_value() / d.constant_value() for yk in y]


def _sparse(matrix):
    """(rows, shape) of a matrix of scalars: its nonzero entries as sparse
    rows {row: {column: scalar}}, the form that `solve_columns` takes."""
    rows = {i: {j: e for j, e in enumerate(row) if e} for i, row in enumerate(matrix)}
    return rows, (len(matrix), len(matrix[0]))


@st.composite
def constant_systems(draw):
    """[A | C] with constant entries over Q or Q(i): A = L R of a drawn
    rank, sparse, so with zero rows and zero columns, square, wide or
    tall; each column of C is A x for a sparse x, a drawn vector, zero, a
    copy of an earlier column or the sum of two."""
    gaussian = draw(st.booleans())
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))

    def scalar():
        if draw(st.integers(0, 2)) == 0:
            return Fraction(0)
        c = Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3)))
        return c + I * draw(st.integers(-2, 2)) if gaussian else c

    def matmul(P, Q):
        return [[sum((a * Q[k][j] for k, a in enumerate(row)), Fraction(0))
                 for j in range(len(Q[0]))] for row in P]

    r = draw(st.integers(0, min(m, n)))
    A = matmul([[scalar() for _ in range(r)] for _ in range(m)],
               [[scalar() for _ in range(n)] for _ in range(r)]) if r else \
        [[Fraction(0)] * n for _ in range(m)]
    cols = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["image", "drawn", "zero", "copy", "sum"]))
        if kind == "image":
            cols.append([row[0] for row in matmul(A, [[scalar()] for _ in range(n)])])
        elif kind == "drawn":
            cols.append([scalar() for _ in range(m)])
        elif kind == "zero" or not cols:
            cols.append([Fraction(0)] * m)
        elif kind == "copy":
            cols.append(list(draw(st.sampled_from(cols))))
        else:
            a, b = draw(st.sampled_from(cols)), draw(st.sampled_from(cols))
            cols.append([u + v for u, v in zip(a, b)])
    return n, [row + [c[i] for c in cols] for i, row in enumerate(A)]


@settings(max_examples=300, deadline=None)
@given(constant_systems())
def test_constant_systems_match_dense_bareiss(system):
    """The reduced row echelon form on sparse scalar rows refuses exactly
    the columns that the Bareiss loop refuses on the same matrix of
    constant polynomials, and gives every consistent column its x = y / d,
    entry by entry, with no Bareiss step; the dense `solve_linear` on the
    constant rows, degree-0 lists, refuses exactly the systems that the
    loop refuses and gives the same quotients."""
    n, matrix = system
    rows = [[MultiPoly.const(e, T) for e in row] for row in matrix]
    steps = []
    step = linalg._bareiss_step
    linalg._bareiss_step = lambda *a: steps.append(1) or step(*a)
    try:
        Y = solve_columns(*_sparse(matrix), n)
    finally:
        linalg._bareiss_step = step
    assert not steps
    for j, y in enumerate(Y):
        try:
            ref_d, (ref_y,) = bareiss_reference([row[:n] + [row[n + j]] for row in rows], n)
        except NoSolution:
            assert y is None
            continue
        assert y is not None
        assert [y.get(k, 0) for k in range(n)] == _quotients(ref_d, ref_y)
    try:
        ref = bareiss_reference(rows, n)
    except NoSolution:
        ref = None
    try:
        got = solve_linear(rows, n)
    except NoSolution:
        got = None
    assert (got is None) == (ref is None) == (None in Y)
    if ref is not None:
        assert [_quotients(got[0], y) for y in got[1]] == [_quotients(ref[0], y) for y in ref[1]]


def test_copied_inconsistent_column_is_inconsistent():
    """c2 = c1 with c1 inconsistent: the echelon form has its pivot in c1's
    column, and c2 has none, but c2 is not in the span of A either."""
    rows = {0: {0: 1, 3: 1}, 1: {1: 1, 2: 1}}
    assert solve_columns(rows, (2, 4), 1) == [None, None, {0: 1}]


def test_each_solve_refuses_the_other_kind_of_row():
    """`solve_linear` takes rows in t only: rows in another variable, or
    in several, exit 2.  (`solve_columns` takes rows of scalars, which
    cannot hold a polynomial.)"""
    t, l = MultiPoly.var("t"), MultiPoly.var("l")
    for rows in ([[l, l + 1]], [[t, l]], [[t * l, t]]):
        with pytest.raises(UnsupportedInput) as exc:
            solve_linear(rows, 1)
        assert exc.value.exit_code == 2


def test_modulus_is_a_prime_with_a_square_root_of_minus_one():
    import sympy

    assert MODULUS.bit_length() == 61 and MODULUS % 4 == 1 and sympy.isprime(MODULUS)
    assert pow(SQRT_MINUS_ONE, 2, MODULUS) == MODULUS - 1
    assert 1 < POINT < MODULUS


def _integer_rows(rng, m, n, rank, gaussian):
    """Dense rows [A | c0 c1 c2] over Z[t] or Z[i][t]: A = L R of the given
    rank, c0 = A x0 in its span, c1 a random column and c2 = c0 plus one
    in one row, each row scaled to integers by `integer_parts`."""
    t = MultiPoly.var("t")

    def poly():
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        if gaussian:
            c = c + I * rng.randint(-1, 1)
        return t * t * rng.randint(-1, 1) + t * rng.randint(-2, 2) + MultiPoly.const(c, T)

    L = [[poly() for _ in range(rank)] for _ in range(m)]
    R = [[poly() for _ in range(n)] for _ in range(rank)]
    A = [[sum((L[i][k] * R[k][j] for k in range(rank)), MultiPoly.zero(T))
          for j in range(n)] for i in range(m)]
    x0 = [poly() for _ in range(n)]
    c0 = [sum((a * xj for a, xj in zip(row, x0)), MultiPoly.zero(T)) for row in A]
    bump = rng.randrange(m)
    rows = [row + [c0[i], poly(), c0[i] + (1 if i == bump else 0)]
            for i, row in enumerate(A)]
    flat, K = to_dense(p for row in rows for p in integer_parts(row)[1])
    w = n + 3
    return [flat[i:i + w] for i in range(0, len(flat), w)], K


@pytest.mark.parametrize("gaussian", [False, True])
def test_modular_refutation_is_sound(gaussian):
    """On seeded overdetermined rows over Z[t] and Z[i][t], of full and of
    lower rank, every column that the rank mod p refutes is inconsistent
    under the exact elimination of that column alone; the column in the
    span of A is never refuted, and the refuter does reject columns."""
    rng = random.Random(97 + gaussian)
    refuted_total = 0
    for m, n, rank in [(4, 2, 2), (5, 3, 3), (5, 3, 2), (6, 4, 4), (4, 3, 3), (3, 1, 1)] * 3:
        rows, K = _integer_rows(rng, m, n, rank, gaussian)
        assert not K.is_Field
        refuted = linalg._refuted_dense(rows, n, K)
        assert 0 not in refuted
        for j in refuted:
            single = [row[:n] + [row[n + j]] for row in rows]
            _, (y,) = linalg._bareiss(single, n, K)
            assert y is None
        refuted_total += len(refuted)
    assert refuted_total >= 10


def test_a_rank_drop_at_the_point_mod_p_falls_through():
    """t - POINT vanishes at the point, so neither system below has full
    rank there mod p, although the first has full rank generically; the
    elimination decides both, exactly."""
    one, zero = MultiPoly.const(1, T), MultiPoly.zero(T)
    s = MultiPoly(T, {(1,): 1, (0,): -POINT})
    rows = [[one, zero], [one, s]]
    (drows, K) = to_dense(p for row in rows for p in row)
    assert linalg._refuted_dense([drows[:2], drows[2:]], 1, K) == []
    with pytest.raises(NoSolution, match="inconsistent"):
        solve_linear(rows, 1)
    rows = [[one, s], [s, s * s]]
    d, (y,) = solve_linear(rows, 1)
    assert y == [d * s]
