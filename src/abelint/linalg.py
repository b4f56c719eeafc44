"""Exact linear algebra: two solves, one per kind of row.

`solve_columns(rows, shape, n)` takes the sparse rows {label: {column:
scalar}}, in any order, of a matrix [a_1 .. a_n | c_1 .. c_m] of Fraction,
int or GaussianRational scalars, zeros left out, as the form divisions hand
them in, and returns one x per column c, {unknown: scalar} with A x = c and the
free variables zero, or None where c is inconsistent: all from one sparse
reduced row echelon form (`polynomials.rref`, sympy's over Q or Q(i)),
whose pivots at or after n lie in the rows below rank(A) exactly for the
inconsistent columns.

`solve_linear(rows, n)` takes rows of polynomials in t, as the pencil
restriction hands them in over Z[t] or Z[i][t], and returns (d, Y): d a
nonzero polynomial and, per column c, a polynomial y with A y = d c; rows
in another variable raise UnsupportedInput.  It converts the rows to dense
coefficient lists and takes `solve_dense`, which the relation search of
`operators` calls on its own dense rows.

That elimination is fraction-free (Bareiss) on [A | C], the pivot of each
column the entry with the fewest terms, and its last pivot is d.  Its
first step divides by nothing; each later step and each step of the back
substitution y_c = (d c_r - sum_j a_rj y_j) / a_rc is an exact division,
because the pivots are minors of A and d y_c is one by Cramer's rule.  So
no rational function arises inside the solve, and a caller that wants
x = y / d cancels each entry once; rows over Z[t] or Z[i][t] stay there
(Bareiss, Math. Comp. 22, 1968: the elimination is integer-preserving).
It picks the leftmost basis of the columns of A and sets the free
variables to zero, as the echelon form does.  A column c is consistent iff
its entries in the rows below rank(A) of the eliminated matrix vanish.

An overdetermined column c is refuted before any elimination when [A | c]
has full column rank at the point `polynomials.POINT` modulo the 61-bit
prime `polynomials.MODULUS` (i a square root of -1 there): reduction mod p
is a ring homomorphism, so a nonzero minor mod p is the image of a nonzero
minor over Q(t) or Q(i)(t), and the refutation is sound.  An unlucky point
or prime only lowers the rank, refutes nothing, and the elimination then
finds the inconsistency exactly, so no result depends on them.
`solve_linear` raises NoSolution when any column is inconsistent, and
checks each row of each column as one polynomial identity, sum_j a_j y_j =
d c (`check_dense`).
"""

from __future__ import annotations

from .errors import NoSolution
from .polynomials import (MODULUS, dense_exquo, dense_mul, dup_add, dup_neg, dup_sub, from_dense,
                          residue, rref, to_dense)
from .ratfunc import RatFunc


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


def check_dense(rows, n, d, ys, K):
    """Raise NoSolution unless A y = d c holds for every dense row
    [a_1 .. a_n | c_1 ..] over K and every column y of ys, as polynomial
    identities."""
    for j, y in enumerate(ys):
        live = [(k, yk) for k, yk in enumerate(y) if yk]
        for row in rows:
            lhs = []
            for k, yk in live:
                if row[k]:
                    lhs = dup_add(lhs, dense_mul(row[k], yk, K), K)
            if lhs != dense_mul(d, row[n + j], K):
                raise NoSolution("verification failed: A y != d c")


def _bareiss_step(K, p, e, f, g, prev):
    """(p e - f g) / prev for dense lists over K, computing only the nonzero
    products; prev is None at the first step, which divides by nothing.
    With f = 0 this is the rescale that keeps the Bareiss divisibility
    invariant."""
    if not (f and g):
        if not e:
            return e
        r = dense_mul(p, e, K)
    elif not e:
        r = dup_neg(dense_mul(f, g, K), K)
    else:
        r = dup_sub(dense_mul(p, e, K), dense_mul(f, g, K), K)
    return r if prev is None else dense_exquo(r, prev, K)


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
    """The columns j of dense rows [A | C] over K that are refuted before
    any elimination: rank n + 1 of [A | c_j] at POINT modulo MODULUS
    (`polynomials.residue`).  That map is a ring homomorphism, so a nonzero
    minor mod p is the image of a nonzero minor over Q(t) or Q(i)(t): rank
    n + 1 mod p means generic rank n + 1, and c_j is not in the span of A.
    A point or prime where the rank drops refutes nothing, and the
    elimination then decides the column exactly, as it does when p divides
    a denominator of rows over Q or Q(i)."""
    if len(rows) <= n:
        return []
    values = [[residue(e, K) for e in row] for row in rows]
    if any(v is None for row in values for v in row):
        return []
    return [j for j in range(len(rows[0]) - n)
            if _rank_mod_p([row[:n] + [row[n + j]] for row in values]) == n + 1]


def solve_columns(rows, shape, n):
    """Solve the sparse scalar rows {label: {column: scalar}} of [A | C], of
    the given shape, column by column: per column c, {unknown: scalar}
    holding the nonzero entries of x with A x = c, free variables zero, or
    None when c is inconsistent, from one reduced row echelon form."""
    pivots, R = rref(rows, shape)
    rank = sum(c < n for c in pivots)
    return [None if any(j in R[i] for i in range(rank, len(pivots)))
            else {pivots[i]: R[i][j] for i in range(rank) if j in R[i]}
            for j in range(n, shape[1])]


def _bareiss(rows, n, K):
    """(d, Y) for dense rows [A | C] over K: d a nonzero polynomial and, per
    column c, a polynomial y with A y = d c, free variables zero, or None
    when c is inconsistent, i.e. when its entries in the rows below rank(A)
    of the eliminated matrix do not all vanish.  One fraction-free
    elimination of [A | C]; the pivot of each column is the entry with the
    fewest terms."""
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
            if e:
                k = sum(map(bool, e))
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
            M[r] = [_bareiss_step(K, p, e, f, g, prev) for e, g in zip(M[r], M[row])]
        prev = p
        pivots.append((row, col))
        row += 1
        if row == m:
            break
    d = prev if prev is not None else [K.one]
    # fraction-free back substitution per consistent column, free variables = 0
    ys = []
    for j in range(n, len(rows[0])):
        if any(M[r][j] for r in range(row, m)):
            ys.append(None)
            continue
        y = [[] for _ in range(n)]
        for i, (r, c) in enumerate(reversed(pivots)):
            if i == 0:  # the last pivot is d itself: y_c = d c_r / d
                y[c] = M[r][j]
                continue
            acc = dense_mul(d, M[r][j], K)
            for k in range(c + 1, n):
                if M[r][k] and y[k]:
                    acc = dup_sub(acc, dense_mul(M[r][k], y[k], K), K)
            y[c] = dense_exquo(acc, M[r][c], K)
        ys.append(y)
    return d, ys


def solve_linear(rows, n):
    """Solve [A | C] on rows of polynomials in t, A the first n entries of
    each row.

    Returns (d, Y): d a nonzero polynomial and Y one list y per column c
    of C, each y polynomial with A y = d c, over t and the variables of the
    entries; one elimination serves every column, and y / d is the solution
    that each column's own solve gives.  Free variables are set to zero,
    and every solution is checked.  Raises NoSolution when some column is
    inconsistent, before any elimination when a column is refuted by its
    rank at an integer point modulo a prime, and UnsupportedInput when an
    entry uses a variable other than t.
    """
    flat, K = to_dense(e for row in rows for e in row)
    w = len(rows[0])
    R = [flat[i:i + w] for i in range(0, len(flat), w)]
    d, ys = solve_dense(R, n, K)
    check_dense(R, n, d, ys, K)
    vs = tuple(sorted({"t"}.union(*(e.vars for row in rows for e in row))))
    return from_dense(d, K, vs), [[from_dense(e, K, vs) for e in y] for y in ys]


def solve_dense(rows, n, K):
    """`solve_linear` on dense rows over K, unchecked: (d, Y) as dense
    lists, or NoSolution when a column is refuted mod p or inconsistent.
    The caller checks the solution it keeps (`check_dense`)."""
    if _refuted_dense(rows, n, K):
        raise NoSolution("inconsistent linear system")
    d, ys = _bareiss(rows, n, K)
    if None in ys:
        raise NoSolution("inconsistent linear system")
    return d, ys
