"""Exact linear algebra: one fraction-free solve on polynomial rows.

`solve_linear(rows, n)` takes the rows [a_1 .. a_n | c_1 .. c_m] of MultiPoly
of a system A y = d c with one right-hand side c or several, and returns
(d, Y): d the last pivot of one fraction-free (Bareiss) elimination of
[A | C], and per column c a polynomial y with A y = d c.  The first
elimination step divides by nothing; each later step and each step of the
back substitution y_c = (d c_r - sum_j a_rj y_j) / a_rc is an exact division,
because the pivots are minors of A and d y_c is one by Cramer's rule.  So no
rational function arises inside the solve, and a caller that wants x = y / d
cancels each entry once.  An overdetermined system with a column c whose
[A | c] has full column rank at one rational point has full rank
generically, so it is inconsistent and raises NoSolution at once; all other
inconsistent columns raise after the elimination.  Free variables are set
to zero.  Verification (`check_solution`) checks each row of each column
as one polynomial identity, sum_j a_j y_j = d c.  `clear_rows` turns rows
of rational functions into such polynomial rows.
"""

from __future__ import annotations

from .errors import NoSolution
from .polynomials import MultiPoly, rank_at_point
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


def solve_linear(rows, n, verify=True):
    """Solve [A | C] on polynomial rows, A the first n entries of each row.

    Returns (d, Y): d the last pivot and Y one list y per column c of C,
    each y polynomial with A y = d c; one elimination serves every column,
    and each column is the one its own solve gives.  Free variables are set
    to zero.  Raises NoSolution when some column is inconsistent.
    """
    m = len(rows)
    ncols = len(rows[0]) - n
    # rank n + 1 at one point means generic rank n + 1: c is not in the span
    if m > n and any(rank_at_point([row[:n] + [row[n + j]] for row in rows]) == n + 1
                     for j in range(ncols)):
        raise NoSolution("inconsistent linear system")
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
    # consistency: the rows left below the pivots are zero in A
    if any(not e.is_zero() for r in range(row, m) for e in M[r][n:]):
        raise NoSolution("inconsistent linear system")
    d = prev if prev is not None else MultiPoly.const(1)
    # fraction-free back substitution per column, free variables = 0
    ys = []
    for j in range(ncols):
        y = [MultiPoly.zero() for _ in range(n)]
        for i, (r, c) in enumerate(reversed(pivots)):
            if i == 0:  # the last pivot is d itself: y_c = d c_r / d
                y[c] = M[r][n + j]
                continue
            acc = d * M[r][n + j]
            for k in range(c + 1, n):
                if not M[r][k].is_zero() and not y[k].is_zero():
                    acc = acc - M[r][k] * y[k]
            y[c] = acc.divexact(M[r][c])
        ys.append(y)
    if verify:
        check_solution(rows, n, d, ys)
    return d, ys
