"""Exact linear algebra: one solve on polynomial rows.

`solve_linear(rows, n)` takes the rows [a_1 .. a_n | c_1 .. c_m] of MultiPoly
of a system A y = d c with one right-hand side c or several, and returns
(d, Y): d a nonzero polynomial with A y = d c for each column c and its
polynomial y, 1 for constant rows.  The rows pick the path:

- constant rows take one sparse reduced row echelon form over Q or Q(i)
  (sympy's, through `polynomials`), with d = 1;
- rows whose entries are polynomials in one variable t, as the pencil
  restriction hands in, are converted to dense coefficient lists and take
  `solve_dense`, which the relation search of `operators` calls on its
  own dense rows over Z[t] or Z[i][t];
- rows in several variables (the Q[lambda] rows of a division on a
  symbolic H) take the same elimination on MultiPoly.

The elimination is fraction-free (Bareiss) on [A | C], the pivot of each
column the entry with the fewest terms, and its last pivot is d.  Its
first step divides by nothing; each later step and each step of the back
substitution y_c = (d c_r - sum_j a_rj y_j) / a_rc is an exact division,
because the pivots are minors of A and d y_c is one by Cramer's rule.  So
no rational function arises inside the solve, and a caller that wants
x = y / d cancels each entry once; rows over Z[t] or Z[i][t] stay there
(Bareiss, Math. Comp. 22, 1968: the elimination is integer-preserving),
while the divisions solve over Q.  Both eliminations pick the leftmost
basis of the columns of A and set the free variables to zero, so x is the
same.  A column c is consistent iff its entries in the rows below rank(A)
of the eliminated matrix vanish.

An overdetermined column c is refuted before any elimination when [A | c]
has full column rank at one point, which means full rank generically.  On
dense rows the point is `polynomials.POINT` and the rank is taken modulo
the 61-bit prime `polynomials.MODULUS` (i a square root of -1 there):
reduction mod p is a ring homomorphism, so a nonzero minor mod p is the
image of a nonzero minor over Q(t) or Q(i)(t), and the refutation is
sound.  An unlucky point or prime only lowers the rank, refutes nothing,
and the elimination then finds the inconsistency exactly, so no result
depends on them.  Rows in several variables are refuted by their exact
rank over Q or Q(i) at a rational point (`polynomials.rank_at_point`).
`solve_columns` solves column by column and marks the inconsistent ones;
`solve_linear` raises NoSolution when any column is inconsistent.
Verification (`check_solution`, `check_dense`) checks each row of each
column as one polynomial identity, sum_j a_j y_j = d c.  `clear_rows`
turns rows of rational functions into polynomial rows.
"""

from __future__ import annotations

from itertools import compress, count
from operator import add, attrgetter, mul, neg, not_, sub
from typing import Callable, NamedTuple

from .errors import NoSolution
from .polynomials import (MODULUS, MultiPoly, constant_rref, dense_exquo, dense_mul, dup_add,
                          dup_neg, dup_sub, from_dense, polynomial_variable, rank_at_point,
                          residue, to_dense)
from .ratfunc import RatFunc, ratfunc_lcm_den


class FieldMatrix:
    """Dense matrix with RatFunc entries."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data):
        self.data = [[RatFunc.coerce(e) for e in row] for row in data]
        self.rows = len(self.data)
        self.cols = len(self.data[0]) if self.data else 0
        if any(len(r) != self.cols for r in self.data):
            raise ValueError("ragged matrix")

    def subs(self, mapping):
        return FieldMatrix([[e.subs(mapping) for e in row] for row in self.data])

    def flatten(self):
        return [e for row in self.data for e in row]

    def __repr__(self):
        return "FieldMatrix(" + ",\n            ".join(repr(r) for r in self.data) + ")"


def clear_rows(rows):
    """Scale each row of RatFunc by the lcm of its denominators -> MultiPoly
    rows; the clearing multiplies each numerator by a cofactor and cancels
    no gcd."""
    out = []
    for row in rows:
        den = ratfunc_lcm_den(row)
        out.append([e.cleared(den) for e in row])
    return out


class _Ring(NamedTuple):
    """The operations that the elimination and the check use on one
    representation: MultiPoly, or dense lists over one domain."""
    is_zero: Callable
    nterms: Callable
    add: Callable
    sub: Callable
    neg: Callable
    mul: Callable
    exquo: Callable
    zero: Callable
    one: Callable


_SPARSE = _Ring(MultiPoly.is_zero, MultiPoly.nterms, add, sub, neg, mul, MultiPoly.divexact,
                MultiPoly.zero, lambda: MultiPoly.const(1))


def _dense_ring(K):
    return _Ring(not_, lambda e: sum(map(bool, e)), lambda a, b: dup_add(a, b, K),
                 lambda a, b: dup_sub(a, b, K), lambda a: dup_neg(a, K),
                 lambda a, b: dense_mul(a, b, K), lambda a, b: dense_exquo(a, b, K),
                 list, lambda: [K.one])


def _check(rows, n, d, ys, ring):
    for j, y in enumerate(ys):
        live = [(k, yk) for k, yk in enumerate(y) if not ring.is_zero(yk)]
        for row in rows:
            lhs = ring.zero()
            for k, yk in live:
                if not ring.is_zero(row[k]):
                    lhs = ring.add(lhs, ring.mul(row[k], yk))
            if lhs != ring.mul(d, row[n + j]):
                raise NoSolution("verification failed: A y != d c")


def check_solution(rows, n, d, ys):
    """Raise NoSolution unless A y = d c holds for every row
    [a_1 .. a_n | c_1 ..] and every column y of ys, as polynomial
    identities."""
    _check(rows, n, d, ys, _SPARSE)


def check_dense(rows, n, d, ys, K):
    """`check_solution` on dense rows over K."""
    _check(rows, n, d, ys, _dense_ring(K))


def _bareiss_step(ring, p, e, f, g, prev):
    """(p e - f g) / prev, computing only the nonzero products; prev is None
    at the first step, which divides by nothing.  With f = 0 this is the
    rescale that keeps the Bareiss divisibility invariant."""
    if ring.is_zero(f) or ring.is_zero(g):
        if ring.is_zero(e):
            return e
        r = ring.mul(p, e)
    elif ring.is_zero(e):
        r = ring.neg(ring.mul(f, g))
    else:
        r = ring.sub(ring.mul(p, e), ring.mul(f, g))
    return r if prev is None else ring.exquo(r, prev)


def _rank_mod_p(rows):
    """The rank of a matrix of integers modulo MODULUS."""
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0])):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        top = rows[rank]
        inv = pow(top[col], -1, MODULUS)
        for r in range(rank + 1, len(rows)):
            f = rows[r][col] * inv % MODULUS
            if f:
                rows[r] = [(a - f * b) % MODULUS for a, b in zip(rows[r], top)]
        rank += 1
    return rank


def _refuted_dense(rows, n, K):
    """`_refuted` for dense rows over K, by the rank of [A | c_j] at POINT
    modulo MODULUS (`polynomials.residue`).  That map is a ring
    homomorphism, so a nonzero minor mod p is the image of a nonzero minor
    over Q(t) or Q(i)(t): rank n + 1 mod p means generic rank n + 1.  A
    point or prime where the rank drops refutes nothing, and the
    elimination then decides the column exactly, as it does when p
    divides a denominator of rows over Q or Q(i)."""
    if len(rows) <= n:
        return []
    values = [[residue(e, K) for e in row] for row in rows]
    if any(v is None for row in values for v in row):
        return []
    return [j for j in range(len(rows[0]) - n)
            if _rank_mod_p([row[:n] + [row[n + j]] for row in values]) == n + 1]


def _refuted(rows, n):
    """The columns j of polynomial rows [A | C] in several variables that
    are refuted before any elimination: rank n + 1 of [A | c_j] at one
    rational point means generic rank n + 1, so c_j is not in the span of
    A."""
    if len(rows) <= n:
        return []
    return [j for j in range(len(rows[0]) - n)
            if rank_at_point([row[:n] + [row[n + j]] for row in rows]) == n + 1]


_VARS, _POLY = attrgetter("vars"), attrgetter("poly")


def _constant_entries(rows):
    """(entries, vs, gaussian) for rows whose nonzero entries are all
    constant, from one pass that reads each nonzero entry once: entries
    {(i, j): MultiPoly} holds the nonzero ones, vs is the union of every
    entry's variables and gaussian whether a coefficient is complex.  None
    at the first entry that is not constant."""
    entries, varsets, gaussian = {}, set(), False
    for i, row in enumerate(rows):
        varsets.update(map(_VARS, row))
        # compress skips the zero entries without a Python-level test
        for j in compress(count(), map(_POLY, row)):
            e = row[j]
            if not e.poly.is_ground:
                return None
            entries[i, j] = e
            gaussian = gaussian or e.has_gaussian()
    return entries, tuple(sorted(set().union(*varsets))), gaussian


def _rref(rows, n, constant):
    """(d, Y) for constant rows [A | C], constant their `_constant_entries`:
    d = 1 and, per column c, y = x with A x = c, free variables zero, or
    None when c is inconsistent, from one sparse reduced row echelon form;
    the pivots at or after n lie in the rows below rank(A)."""
    entries, vs, gaussian = constant
    pivots, R = constant_rref(entries, (len(rows), len(rows[0])), vs, gaussian)
    zero = MultiPoly.zero(vs)
    rank = sum(c < n for c in pivots)
    ys = []
    for j in range(n, len(rows[0])):
        if any(j in R[i] for i in range(rank, len(pivots))):
            ys.append(None)
            continue
        y = [zero] * n
        for i in range(rank):
            y[pivots[i]] = R[i].get(j, zero)
        ys.append(y)
    return MultiPoly.const(1, vs), ys


def _bareiss(rows, n, ring):
    """(d, Y) for polynomial rows [A | C] in the representation of ring: d a
    nonzero polynomial and, per column c, a polynomial y with A y = d c,
    free variables zero, or None when c is inconsistent, i.e. when its
    entries in the rows below rank(A) of the eliminated matrix do not all
    vanish.  One fraction-free elimination of [A | C]; the pivot of each
    column is the entry with the fewest terms."""
    m = len(rows)
    M = list(rows)
    pivots = []  # (row, col)
    prev = None
    row = 0
    for col in range(n):
        piv = None
        best = None
        for r in range(row, m):
            e = M[r][col]
            if not ring.is_zero(e):
                k = ring.nterms(e)
                if best is None or k < best:
                    best = k
                    piv = r
        if piv is None:
            continue
        if piv != row:
            M[row], M[piv] = M[piv], M[row]
        p = M[row][col]
        for r in range(row + 1, m):
            f = M[r][col]
            M[r] = [_bareiss_step(ring, p, e, f, g, prev) for e, g in zip(M[r], M[row])]
        prev = p
        pivots.append((row, col))
        row += 1
        if row == m:
            break
    d = prev if prev is not None else ring.one()
    # fraction-free back substitution per consistent column, free variables = 0
    ys = []
    for j in range(n, len(rows[0])):
        if any(not ring.is_zero(M[r][j]) for r in range(row, m)):
            ys.append(None)
            continue
        y = [ring.zero() for _ in range(n)]
        for i, (r, c) in enumerate(reversed(pivots)):
            if i == 0:  # the last pivot is d itself: y_c = d c_r / d
                y[c] = M[r][j]
                continue
            acc = ring.mul(d, M[r][j])
            for k in range(c + 1, n):
                if not ring.is_zero(M[r][k]) and not ring.is_zero(y[k]):
                    acc = ring.sub(acc, ring.mul(M[r][k], y[k]))
            y[c] = ring.exquo(acc, M[r][c])
        ys.append(y)
    return d, ys


def _dense_rows(rows):
    """(dense rows, K, var, vs) for polynomial rows whose nonconstant
    entries are polynomials in one variable var, the entries over the
    variables vs of all of them; None for rows in several variables."""
    entries = [e for row in rows for e in row]
    var = polynomial_variable(entries)
    if var is None:
        return None
    flat, K = to_dense(entries, var)
    vs = tuple(sorted({var}.union(*(e.vars for e in entries))))
    w = len(rows[0])
    return [flat[i:i + w] for i in range(0, len(flat), w)], K, var, vs


def _by_column(R, n, refuted, ring):
    """`_bareiss` on the columns of [A | C] that refuted leaves, in the
    representation of ring: (d, Y) with None in Y for every refuted or
    inconsistent column, and d None when every column is refuted."""
    ncols = len(R[0]) - n
    live = [j for j in range(ncols) if j not in refuted]
    ys = [None] * ncols
    if not live:
        return None, ys
    if refuted:
        R = [row[:n] + [row[n + j] for j in live] for row in R]
    d, found = _bareiss(R, n, ring)
    for j, y in zip(live, found):
        ys[j] = y
    return d, ys


def _from_dense(d, ys, K, vs, var):
    """(d, Y) of the dense solve as MultiPoly over the variables vs."""
    return (None if d is None else from_dense(d, K, vs, var),
            [None if y is None else [from_dense(e, K, vs, var) for e in y] for y in ys])


def solve_columns(rows, n):
    """Solve [A | C] column by column: (d, Y) as in `solve_linear`, with
    Y[j] None where column j is inconsistent.  Refuted columns are left out
    of the elimination, and none runs when every column is refuted (d is
    then None)."""
    constant = _constant_entries(rows)
    if constant is not None:
        return _rref(rows, n, constant)
    dense = _dense_rows(rows)
    if dense is None:
        return _by_column(rows, n, _refuted(rows, n), _SPARSE)
    R, K, var, vs = dense
    return _from_dense(*_by_column(R, n, _refuted_dense(R, n, K), _dense_ring(K)), K, vs, var)


def solve_linear(rows, n):
    """Solve [A | C] on polynomial rows, A the first n entries of each row.

    Returns (d, Y): d a nonzero polynomial, 1 for constant rows, and Y one
    list y per column c of C, each y polynomial with A y = d c; one
    elimination serves every column, and y / d is the solution that each
    column's own solve gives.  Free variables are set to zero, and every
    solution is checked.  Raises NoSolution when some column is
    inconsistent, before any elimination when a column of polynomial rows
    is refuted at a point: rows in one variable by their rank at an
    integer point modulo a prime, rows in several by their exact rank at a
    rational point.
    """
    constant = _constant_entries(rows)
    if constant is not None:
        d, ys = _rref(rows, n, constant)
    else:
        dense = _dense_rows(rows)
        if dense is not None:
            R, K, var, vs = dense
            d, ys = solve_dense(R, n, K)
            check_dense(R, n, d, ys, K)
            return _from_dense(d, ys, K, vs, var)
        if _refuted(rows, n):
            raise NoSolution("inconsistent linear system")
        d, ys = _bareiss(rows, n, _SPARSE)
    if None in ys:
        raise NoSolution("inconsistent linear system")
    check_solution(rows, n, d, ys)
    return d, ys


def solve_dense(rows, n, K):
    """`solve_linear` on dense rows over K, unchecked: (d, Y) as dense
    lists, or NoSolution when a column is refuted mod p or inconsistent.
    The caller checks the solution it keeps (`check_dense`)."""
    if _refuted_dense(rows, n, K):
        raise NoSolution("inconsistent linear system")
    d, ys = _bareiss(rows, n, _dense_ring(K))
    if None in ys:
        raise NoSolution("inconsistent linear system")
    return d, ys
