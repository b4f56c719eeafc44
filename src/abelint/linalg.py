"""Exact linear algebra over rational function fields.

`solve_linear` clears each equation to polynomials by multiplying every
entry's numerator with the cofactor of its denominator in the row's lcm, so
the clearing cancels no gcd.  An overdetermined system whose cleared
augmented matrix has full column rank at one rational point has full rank
generically, so it is inconsistent and raises NoSolution at once.  All
other systems run fraction-free (Bareiss) elimination on the polynomial
rows; only the back-substitution works with rational functions.
Underdetermined systems set free variables to zero; inconsistent ones raise
NoSolution.  Verification checks each cleared row as one polynomial
identity, sum_j a_j (x_j L) = c L with L the lcm of the denominators of x.
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

    @staticmethod
    def zeros(r, c):
        return FieldMatrix([[RatFunc.zero() for _ in range(c)] for _ in range(r)])

    def __getitem__(self, ij):
        return self.data[ij[0]][ij[1]]

    def __eq__(self, other):
        if not isinstance(other, FieldMatrix):
            return NotImplemented
        return (self.rows == other.rows and self.cols == other.cols and
                all(self.data[i][j] == other.data[i][j]
                    for i in range(self.rows) for j in range(self.cols)))

    def __add__(self, other):
        return FieldMatrix([[a + b for a, b in zip(r1, r2)]
                            for r1, r2 in zip(self.data, other.data)])

    def __sub__(self, other):
        return FieldMatrix([[a - b for a, b in zip(r1, r2)]
                            for r1, r2 in zip(self.data, other.data)])

    def __neg__(self):
        return FieldMatrix([[-a for a in row] for row in self.data])

    def __mul__(self, other):
        if isinstance(other, FieldMatrix):
            if self.cols != other.rows:
                raise ValueError("shape mismatch")
            return FieldMatrix([[sum((self.data[i][k] * other.data[k][j]
                                      for k in range(self.cols)), RatFunc.zero())
                                 for j in range(other.cols)] for i in range(self.rows)])
        return FieldMatrix([[e * other for e in row] for row in self.data])

    def matvec(self, vec):
        return [sum((self.data[i][k] * vec[k] for k in range(self.cols)),
                    RatFunc.zero()) for i in range(self.rows)]

    def map(self, fn):
        return FieldMatrix([[fn(e) for e in row] for row in self.data])

    def diff(self, name):
        return self.map(lambda e: e.diff(name))

    def subs(self, mapping):
        return self.map(lambda e: e.subs(mapping))

    def eval_complex(self, point):
        import numpy as np

        return np.array([[e.eval_complex(point) for e in row] for row in self.data])

    def flatten(self):
        return [e for row in self.data for e in row]

    def __repr__(self):
        return "FieldMatrix(" + ",\n            ".join(repr(r) for r in self.data) + ")"


def _clear_rows(A, b):
    """Scale each equation by its common denominator -> MultiPoly rows."""
    rows = []
    for i in range(A.rows):
        entries = list(A.data[i]) + [b[i]]
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


def solve_linear(A: FieldMatrix, b, verify=True):
    """Solve A x = b exactly over the fraction field.

    Returns a list of RatFunc.  Free variables are set to zero.  Raises
    NoSolution when inconsistent.
    """
    b = [RatFunc.coerce(e) for e in b]
    if len(b) != A.rows:
        raise ValueError("rhs length mismatch")
    n = A.cols
    cleared = _clear_rows(A, b)
    m = len(cleared)
    # rank n + 1 at one point means generic rank n + 1: b is not in the span
    if m > n and rank_at_point(cleared) == n + 1:
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
            if f.is_zero():
                # rescale to keep the Bareiss divisibility invariant
                M[r] = [(p * e).divexact(prev) for e in M[r]]
            else:
                M[r] = [(p * e - f * M[row][j2]).divexact(prev)
                        for j2, e in enumerate(M[r])]
        prev = p
        pivots.append((row, col))
        row += 1
        if row == m:
            break
    # consistency: zero rows must have zero rhs
    for r in range(row, m):
        if all(M[r][j].is_zero() for j in range(n)) and not M[r][n].is_zero():
            raise NoSolution("inconsistent linear system")
        if not all(M[r][j].is_zero() for j in range(n)):
            # shouldn't happen: all columns were processed
            raise NoSolution("elimination left an unreduced row")
    # back substitution, free variables = 0
    x = [RatFunc.zero() for _ in range(n)]
    for (r, c) in reversed(pivots):
        acc = RatFunc(M[r][n])
        for j in range(c + 1, n):
            if not M[r][j].is_zero() and not x[j].is_zero():
                acc = acc - RatFunc(M[r][j]) * x[j]
        x[c] = acc / RatFunc(M[r][c])
    if verify and not _satisfies(cleared, x):
        raise NoSolution("verification failed: A x != b")
    return x


def invert(A: FieldMatrix) -> FieldMatrix:
    """Exact inverse; raises NoSolution when singular."""
    n = A.rows
    if A.cols != n:
        raise ValueError("inverse of a non-square matrix")
    cols = []
    for j in range(n):
        e = [RatFunc.const(1 if i == j else 0) for i in range(n)]
        try:
            cols.append(solve_linear(A, e, verify=True))
        except NoSolution as exc:
            raise NoSolution(f"matrix is singular: {exc}") from exc
    return FieldMatrix([[cols[j][i] for j in range(n)] for i in range(n)])
