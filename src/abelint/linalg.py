"""Exact linear algebra over rational function fields.

`solve_linear` takes one right-hand side or several, and one elimination
serves them all.  It clears each equation of [A | B] to polynomials by
multiplying every entry's numerator with the cofactor of its denominator in
the row's lcm, so the clearing cancels no gcd.  An overdetermined system
with a column b whose cleared [A | b] has full column rank at one rational
point has full rank generically, so it is inconsistent and raises
NoSolution at once.  All other systems run one fraction-free (Bareiss)
elimination on the polynomial rows of [A | B]; only the back-substitution,
one per column, works with rational functions.  Underdetermined systems set
free variables to zero; inconsistent ones raise NoSolution.  Verification
checks each cleared row of each column as one polynomial identity,
sum_j a_j (x_j L) = c L with L the lcm of the denominators of x.
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

    @staticmethod
    def identity(n):
        return FieldMatrix([[RatFunc.const(1 if i == j else 0) for j in range(n)]
                            for i in range(n)])

    def __mul__(self, other):
        if isinstance(other, FieldMatrix):
            if self.cols != other.rows:
                raise ValueError("shape mismatch")
            # zero products are skipped: companion matrices are mostly zero
            return FieldMatrix([[sum((self.data[i][k] * other.data[k][j]
                                      for k in range(self.cols)
                                      if not (self.data[i][k].is_zero() or
                                              other.data[k][j].is_zero())),
                                     RatFunc.zero())
                                 for j in range(other.cols)] for i in range(self.rows)])
        return FieldMatrix([[e * other for e in row] for row in self.data])

    def matvec(self, vec):
        return [sum((self.data[i][k] * vec[k] for k in range(self.cols)),
                    RatFunc.zero()) for i in range(self.rows)]

    def map(self, fn):
        return FieldMatrix([[fn(e) for e in row] for row in self.data])

    def subs(self, mapping):
        return self.map(lambda e: e.subs(mapping))

    def flatten(self):
        return [e for row in self.data for e in row]

    def __repr__(self):
        return "FieldMatrix(" + ",\n            ".join(repr(r) for r in self.data) + ")"


def _clear_rows(A, b):
    """Scale each equation of [A | b] by its common denominator -> MultiPoly
    rows; b is one right-hand side, a list, or the columns of a FieldMatrix."""
    brows = b.data if isinstance(b, FieldMatrix) else [[RatFunc.coerce(e)] for e in b]
    rows = []
    for arow, brow in zip(A.data, brows):
        entries = list(arow) + list(brow)
        den = ratfunc_lcm_den(entries)
        rows.append([e.cleared(den) for e in entries])
    return rows


def _satisfies(rows, x):
    """Whether x solves every cleared row [a_1 .. a_n | c]: with L the lcm of
    the denominators of x, sum_j a_j (x_j L) = c L as polynomials."""
    L = ratfunc_lcm_den(x)
    xL = [(j, xj.cleared(L)) for j, xj in enumerate(x) if not xj.is_zero()]
    for row in rows:
        lhs = MultiPoly.zero()
        for j, p in xL:
            if not row[j].is_zero():
                lhs = lhs + row[j] * p
        if lhs != row[-1] * L:
            return False
    return True


def _bareiss_step(p, e, f, g, prev):
    """(p e - f g) / prev, computing only the nonzero products.  With f = 0
    this is the rescale that keeps the Bareiss divisibility invariant."""
    if f.is_zero() or g.is_zero():
        return e if e.is_zero() else (p * e).divexact(prev)
    if e.is_zero():
        return (-(f * g)).divexact(prev)
    return (p * e - f * g).divexact(prev)


def solve_linear(A: FieldMatrix, b, verify=True):
    """Solve A x = b exactly over the fraction field.

    b is one right-hand side, a list, or several, the columns of a
    FieldMatrix B; one elimination of [A | B] serves them all, and the
    result is the list x, or the FieldMatrix X with A X = B.  Each column
    of X has the value of its own solve, and its stored terms too where the
    other columns add no denominator to a row.  Free variables are set to
    zero.  Raises NoSolution when some column is inconsistent.
    """
    many = isinstance(b, FieldMatrix)
    if (b.rows if many else len(b)) != A.rows:
        raise ValueError("rhs length mismatch")
    n = A.cols
    ncols = b.cols if many else 1
    cleared = _clear_rows(A, b)
    systems = [[row[:n] + [row[n + j]] for row in cleared] for j in range(ncols)]
    m = len(cleared)
    # rank n + 1 at one point means generic rank n + 1: b is not in the span
    if m > n and any(rank_at_point(rows) == n + 1 for rows in systems):
        raise NoSolution("inconsistent linear system")
    M = list(cleared)
    # Bareiss fraction-free elimination on the augmented matrix
    pivots = []  # (row, col)
    prev = MultiPoly.const(1)
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
    # back substitution per column, free variables = 0
    xs = []
    for j in range(ncols):
        x = [RatFunc.zero() for _ in range(n)]
        for (r, c) in reversed(pivots):
            acc = RatFunc(M[r][n + j])
            for jj in range(c + 1, n):
                if not M[r][jj].is_zero() and not x[jj].is_zero():
                    acc = acc - RatFunc(M[r][jj]) * x[jj]
            x[c] = acc / RatFunc(M[r][c])
        if verify and not _satisfies(systems[j], x):
            raise NoSolution("verification failed: A x != b")
        xs.append(x)
    if not many:
        return xs[0]
    return FieldMatrix([[x[i] for x in xs] for i in range(n)])
