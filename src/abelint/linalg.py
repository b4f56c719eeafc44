"""Exact linear algebra: one solve on polynomial rows.

`solve_linear(rows, n)` takes the rows [a_1 .. a_n | c_1 .. c_m] of MultiPoly
of a system A y = d c with one right-hand side c or several, and returns
(d, Y): d a nonzero polynomial with A y = d c for each column c and its
polynomial y, 1 for constant rows.  Constant rows take one sparse reduced
row echelon form over Q or Q(i) (sympy's, through `polynomials`); other
rows one fraction-free (Bareiss) elimination of [A | C], whose last pivot
is d.  Its first step divides by nothing; each later step and each step of
the back substitution y_c = (d c_r - sum_j a_rj y_j) / a_rc is an exact
division, because the pivots are minors of A and d y_c is one by Cramer's
rule.  So no rational function arises inside the solve, and a caller that
wants x = y / d cancels each entry once; rows over Z[t] or Z[i][t], which
the pencil restriction and the relation search of `operators` hand in,
stay there (Bareiss, Math. Comp. 22, 1968: the elimination is
integer-preserving), while the divisions solve over Q.  Both eliminations
pick the leftmost basis of the columns of A and set the free variables to
zero, so x is the same.  A column c is consistent iff its entries in the
rows below rank(A) of the eliminated matrix vanish.  For polynomial rows, an
overdetermined column c whose [A | c] has full column rank at one rational
point has full rank generically, so it is refuted before any elimination.
`solve_columns` solves column by column and marks the inconsistent ones;
`solve_linear` raises NoSolution when any column is inconsistent.
Verification (`check_solution`) checks each row of each column as one
polynomial identity, sum_j a_j y_j = d c.  `clear_rows` turns rows of
rational functions into such polynomial rows.
"""

from __future__ import annotations

from itertools import compress, count
from operator import attrgetter

from .errors import NoSolution
from .polynomials import MultiPoly, constant_rref, rank_at_point
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


def check_solution(rows, n, d, ys):
    """Raise NoSolution unless A y = d c holds for every row
    [a_1 .. a_n | c_1 ..] and every column y of ys, as polynomial
    identities."""
    for j, y in enumerate(ys):
        live = [(k, yk) for k, yk in enumerate(y) if not yk.is_zero()]
        for row in rows:
            lhs = MultiPoly.zero()
            for k, yk in live:
                if not row[k].is_zero():
                    lhs = lhs + row[k] * yk
            if lhs != d * row[n + j]:
                raise NoSolution("verification failed: A y != d c")


def _bareiss_step(p, e, f, g, prev):
    """(p e - f g) / prev, computing only the nonzero products; prev is None
    at the first step, which divides by nothing.  With f = 0 this is the
    rescale that keeps the Bareiss divisibility invariant."""
    if f.is_zero() or g.is_zero():
        if e.is_zero():
            return e
        r = p * e
    elif e.is_zero():
        r = -(f * g)
    else:
        r = p * e - f * g
    return r if prev is None else r.divexact(prev)


def _refuted(rows, n):
    """The columns j of polynomial rows [A | C] that are refuted before any
    elimination: rank n + 1 of [A | c_j] at one point means generic rank
    n + 1, so c_j is not in the span of A."""
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


def _eliminate(rows, n, constant):
    """(d, Y) for [A | C]: d a nonzero polynomial and, per column c, a
    polynomial y with A y = d c, free variables zero, or None when c is
    inconsistent, i.e. when its entries in the rows below rank(A) of the
    eliminated matrix do not all vanish.  constant is `_constant_entries`
    of constant rows, None for the others."""
    m = len(rows)
    ncols = len(rows[0]) - n
    if constant is not None:
        # one sparse reduced row echelon form, d = 1; the pivots at or
        # after n lie in the rows below rank(A)
        entries, vs, gaussian = constant
        pivots, R = constant_rref(entries, (m, len(rows[0])), vs, gaussian)
        zero = MultiPoly.zero(vs)
        rank = sum(c < n for c in pivots)
        ys = []
        for j in range(n, n + ncols):
            if any(j in R[i] for i in range(rank, len(pivots))):
                ys.append(None)
                continue
            y = [zero] * n
            for i in range(rank):
                y[pivots[i]] = R[i].get(j, zero)
            ys.append(y)
        return MultiPoly.const(1, vs), ys
    M = list(rows)
    pivots = []  # (row, col)
    prev = None
    row = 0
    for col in range(n):
        piv = None
        best = None
        for r in range(row, m):
            e = M[r][col]
            if not e.is_zero():
                k = e.nterms()
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
            M[r] = [_bareiss_step(p, e, f, g, prev) for e, g in zip(M[r], M[row])]
        prev = p
        pivots.append((row, col))
        row += 1
        if row == m:
            break
    d = prev if prev is not None else MultiPoly.const(1)
    # fraction-free back substitution per consistent column, free variables = 0
    ys = []
    for j in range(n, n + ncols):
        if any(not M[r][j].is_zero() for r in range(row, m)):
            ys.append(None)
            continue
        y = [MultiPoly.zero() for _ in range(n)]
        for i, (r, c) in enumerate(reversed(pivots)):
            if i == 0:  # the last pivot is d itself: y_c = d c_r / d
                y[c] = M[r][j]
                continue
            acc = d * M[r][j]
            for k in range(c + 1, n):
                if not M[r][k].is_zero() and not y[k].is_zero():
                    acc = acc - M[r][k] * y[k]
            y[c] = acc.divexact(M[r][c])
        ys.append(y)
    return d, ys


def solve_columns(rows, n):
    """Solve [A | C] column by column: (d, Y) as in `solve_linear`, with
    Y[j] None where column j is inconsistent.  Refuted columns are left out
    of the elimination, and none runs when every column is refuted (d is
    then None)."""
    ncols = len(rows[0]) - n
    constant = _constant_entries(rows)
    refuted = [] if constant is not None else _refuted(rows, n)
    live = [j for j in range(ncols) if j not in refuted]
    ys = [None] * ncols
    if not live:
        return None, ys
    if refuted:
        rows = [row[:n] + [row[n + j] for j in live] for row in rows]
    d, found = _eliminate(rows, n, constant)
    for j, y in zip(live, found):
        ys[j] = y
    return d, ys


def solve_linear(rows, n, verify=True):
    """Solve [A | C] on polynomial rows, A the first n entries of each row.

    Returns (d, Y): d a nonzero polynomial, 1 for constant rows, and Y one
    list y per column c of C, each y polynomial with A y = d c; one
    elimination serves every column, and y / d is the solution that each
    column's own solve gives.  Free variables are set to zero.  Raises
    NoSolution when some column is inconsistent, before any elimination
    when a column of polynomial rows is refuted at a point.
    """
    constant = _constant_entries(rows)
    if constant is None and _refuted(rows, n):
        raise NoSolution("inconsistent linear system")
    d, ys = _eliminate(rows, n, constant)
    if None in ys:
        raise NoSolution("inconsistent linear system")
    if verify:
        check_solution(rows, n, d, ys)
    return d, ys
