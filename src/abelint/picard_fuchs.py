"""Exact Pfaffian systems for period vectors of level-curve families.

For the period vector X(lambda) of the n^2 basis 1-forms over a cycle on
{H = 0} the derivation produces, exactly:

  * Pstar(t):  H m_a = sum_b (Pstar_ab o H) m_b + dH ^ eta_a
  * Q^s:       x^s eta_a = sum_b (Q^s_ab o H) w_b + u dH + dv

whence  Pstar(0) dX/dlambda_s = Q^s(0) X  for every coefficient lambda_s.
For H = H0 + lambda_00 the Gauss-Manin connection of {H = t} depends on
the free term only through a translation of t: the divisions run over Q
(or Q(i)) on the concrete H0, and Pstar(t) = P0(t - lambda_00) +
lambda_00 I, Q^s(t) = Q0^s(t - lambda_00) for their P0 and Q0^s, each
translation a binomial expansion of a dense coefficient list in t.
Restricting to the pencil {H0 = t} (i.e. lambda_00 = c0 - t) yields a linear
ODE system dX/dt = A(t) X with A = -(Pstar(0)^{-1} Q^{(0,0)}(0)) evaluated at
lambda_00 = c0 - t, so `derive_pfaffian` derives only Q^(0,0) unless asked
for more.  Both evaluations are one substitution {t: 0, lambda_00: c0 - t}
per entry, each a polynomial, written out as a dense list in t from a
table of the powers of c0 - t; each row of [Pstar(0) | Q^(0,0)(0)] is then
scaled into Z[t] (Z[i][t] for a Gaussian H), and A comes from one
fraction-free solve Pstar(0) Y = d Q^(0,0)(0) there, whose single
elimination serves all ell columns.  Each entry -y/d of A is cancelled on
dense lists too, so from the division outputs to the stored A(t) no
arithmetic runs in a ring in more variables than t: P* and Q^s are
written out, and read back, term by term.
"""

from __future__ import annotations

from fractions import Fraction

from .division import (XVARS, Decomposition, Hamiltonian, basis_exponents,
                       basis_two_form, divide_one_form, divide_two_form)
from .errors import (DegenerateBasis, LineInLocus, NoSolution,
                     UnsupportedInput)
from .linalg import FieldMatrix, solve_linear
from .polynomials import (MultiPoly, dense_cancel, dense_integer_parts, dense_pencil,
                          dense_translated, dup_neg, evaluation_error, float_overflow,
                          from_dense, matrix_source, straight_line, straight_lines,
                          to_dense)
from .ratfunc import RatFunc, ratfunc_lcm_den, size_of

# the free term lambda_00 of H = H0 + lambda_00, the one symbolic coefficient
# of a derived system
FREE_TERM = "l00"
# the variables of a nonzero entry of P* or Q^s
SYSTEM_VARS = (FREE_TERM, "t", *XVARS)


class PfaffianSystem:
    """Exact output of the derivation for one Hamiltonian H0 + l00."""

    def __init__(self, H, Pstar, etas, Q):
        self.H = H                  # the concrete Hamiltonian H0
        self.n = H.n
        self.ell = H.ell
        self.Pstar = Pstar          # FieldMatrix over l00, t
        self.etas = etas            # per-row (E1, E2) RatFunc pairs
        self.Q = Q                  # dict s-exponent -> FieldMatrix over l00, t

    @property
    def Pstar0(self):
        return self.Pstar.subs({"t": MultiPoly.const(0)})

    def check_identities(self) -> bool:
        """Re-verify every two-form division identity exactly: since P*(t) =
        P0(t - l00) + l00 I, the rows of P*(t + l00) - l00 I are the p of
        the divisions of H0 m_a, with the same eta."""
        H = self.H
        l00 = MultiPoly.var(FREE_TERM)
        back = {"t": MultiPoly.var("t", (FREE_TERM,)) + l00}
        for a, (alpha, row, eta) in enumerate(zip(basis_exponents(self.n), self.Pstar.data,
                                                  self.etas)):
            p = [e.as_poly().subs(back) - (l00 if a == b else 0) for b, e in enumerate(row)]
            dec = Decomposition(H, "two", H.poly * basis_two_form(alpha), p,
                                eta=tuple(e.as_poly() for e in eta))
            if not dec.verify():
                return False
        return True


def derive_pfaffian(H: Hamiltonian, s_list=((0, 0),)) -> PfaffianSystem:
    """Derive the exact Pfaffian structure for H0 + l00, H0 the concrete
    Hamiltonian H.

    Both divisions run on H0, so every division matrix is constant, and the
    results are translated: since d(H0 + l00) = dH0,

      (H0 + l00) m_a = sum_b (P0_ab o H0 + l00 delta_ab) m_b + dH0 ^ eta_a
      x^s eta_a      = sum_b (Q0^s_ab o H0) w_b + u dH0 + dv

    for the P0, eta and Q0^s of H0, so P*(t) = P0(t - l00) + l00 I, with
    the same eta, and Q^s(t) = Q0^s(t - l00), within the same x-degree
    bounds.  Q^s is derived for each s in `s_list`; the default, Q^(0,0)
    only, is all that the pencil restriction reads.  A regular monomial
    basis guarantees success; regularity is not checked, and a division
    that is impossible raises SingularDivision.
    """
    n = H.n
    if n < 1:
        raise DegenerateBasis("Hamiltonian of degree 1: the form basis is empty")
    decs = divide_two_form(H, [H.poly * basis_two_form(alpha) for alpha in basis_exponents(n)])
    # every zero entry, and every denominator, is one shared object
    ends = RatFunc.zero((FREE_TERM, "t")), MultiPoly.const(1, SYSTEM_VARS)
    Pstar = FieldMatrix([[_translated(p, ends, 1 if a == b else 0) for b, p in enumerate(dec.p)]
                         for a, dec in enumerate(decs)])
    etas0 = [dec.eta for dec in decs]
    etas = [tuple(RatFunc(e if e.is_zero() else e.extend((FREE_TERM,))) for e in eta)
            for eta in etas0]
    Q = {}
    for s in s_list:
        xs = MultiPoly(XVARS, {tuple(s): Fraction(1)})
        decs = divide_one_form(H, [e1 * xs for e1, _ in etas0], [e2 * xs for _, e2 in etas0])
        Q[tuple(s)] = FieldMatrix([[_translated(p, ends) for p in dec.p] for dec in decs])
    return PfaffianSystem(H, Pstar, etas, Q)


def _translated(p, ends, extra=0):
    """p(t - l00) + extra l00 for a polynomial p in t of the divisions on
    H0, by the binomial expansion of p's dense list (`dense_translated`):
    over (l00, t, x1, x2) when nonzero, and the zero over (l00, t) of ends
    otherwise, the variables that the system's JSON records; its
    denominator is the 1 of ends.  The divisions store p's terms from the
    constant term up, so its terms are stored as the substitution t -> t -
    l00 of sympy's `compose` stored them."""
    (f,), K = to_dense((p,))
    zero, one = ends
    if not (f or extra):
        return zero
    return RatFunc(dense_translated(f, K, SYSTEM_VARS, "t", FREE_TERM, extra), one,
                   canonical=True)


class LinearODESystem:
    """dX/dt = A(t) X with exact rational entries; `eval` gives A(t) in
    floats from a kernel generated on its first call, and `stage_lines`
    the same program as source lines for the continuation step."""

    def __init__(self, A: FieldMatrix, singular_poly: MultiPoly):
        self.A = A
        self.ell = A.rows
        self.singular_poly = singular_poly
        self._roots = None
        self._kernel = None
        self._stage = None

    @property
    def singular_points(self):
        if self._roots is None:
            self._roots = self.singular_poly.univar_roots("t")
        return self._roots

    def eval(self, t: complex):
        """A(complex(t)) as a tuple of row tuples of Python complex, so that
        the floats do not depend on the type of t."""
        if self._kernel is None:
            program, cells = _system_lines(self.A)
            self._kernel = straight_line(("z",), program, [f"return {matrix_source(cells)}"])
        try:
            return self._kernel(complex(t))
        except (OverflowError, ZeroDivisionError) as exc:
            raise self.failure(exc, t) from None

    def stage_lines(self):
        """(program, cells, failure) of `eval` at z, for a step to write in:
        the cells of the entries that are exactly 0 are None, and their
        lines are left out; built on the first call."""
        if self._stage is None:
            self._stage = (*_system_lines(self.A, skip_zeros=True), self.failure)
        return self._stage

    @staticmethod
    def failure(exc, t):
        return evaluation_error(exc, t, "a denominator of A(t)")


def _system_lines(A, skip_zeros=False):
    """(StraightLine, cells) of A(z): each entry's numerator by Horner in
    `np.polyval`'s order, divided by its denominator, which is evaluated
    once for all entries whose denominators have the same floats.  cells
    holds the source of each entry: a zero entry over the denominator 1 is
    0j, the quotient, or None with skip_zeros, which leaves out every zero
    entry and the lines that only it reads."""
    dens = {}
    horners, quotients, cells = [], [], []
    for i, row in enumerate(A.data):
        cells.append([])
        for k, e in enumerate(row):
            den = tuple(_coefficients(e.den))
            if e.num.is_zero() and (skip_zeros or den == (1,)):
                cells[-1].append(None if skip_zeros else "0j")
                continue
            if den not in dens:
                dens[den] = f"d{len(dens)}"
                horners.append((dens[den], "z", den))
            horners.append((f"n{i}_{k}", "z", _coefficients(e.num)))
            quotients.append((f"a{i}_{k}", False, f"n{i}_{k}", dens[den]))
            cells[-1].append(f"a{i}_{k}")
    return straight_lines(horners, (), quotients), tuple(map(tuple, cells))


def _coefficients(p):
    """The complex coefficients of p(t), highest degree first."""
    try:
        return [complex(c) for c in reversed(p.univar_coeffs("t"))]
    except OverflowError as exc:
        raise float_overflow(exc) from None


def restrict_to_pencil(sys: PfaffianSystem, free_term_value=0) -> LinearODESystem:
    """Restrict to the free-term pencil l00 = c0 - t, with c0 the
    free_term_value.

    Each entry of P* and Q^(0,0) is a polynomial, as `derive_pfaffian`
    makes it, and takes the substitution {t: 0, l00: c0 - t} on its dense
    list in t (`dense_pencil`): terms with a power of t drop out, and l00^a
    becomes (c0 - t)^a.  A system without Q^(0,0), an entry with a
    nonconstant denominator, or one that keeps another symbolic
    coefficient, raises UnsupportedInput.  Each row of [P0 | Qs] is scaled
    into Z[t], or Z[i][t], and one solve there gives P0 Y = d Qs.  A =
    -Y/d, each entry cancelled once on dense lists (`dense_cancel`: a gcd,
    then the normal form of `primitive_parts` for its denominator), built
    over the variables of the entries of P* and Q^(0,0) but l00, its terms
    in descending order, so that A's storage is a function of its value."""
    Q = sys.Q.get((0, 0))
    if Q is None:
        raise UnsupportedInput("the system has no Q^(0,0), which the pencil restriction reads")
    entries = []
    avars = {"t"}
    for row in (a + q for a, q in zip(sys.Pstar.data, Q.data)):
        if not all(e.is_poly() for e in row):
            raise UnsupportedInput("the entries of P* and Q^(0,0) must be polynomials")
        for e in row:
            avars.update(e.vars)
            entries.append(e.as_poly())
    avars = tuple(sorted(avars - {FREE_TERM}))
    flat, K, leftover = dense_pencil(entries, "t", FREE_TERM, Fraction(free_term_value))
    if leftover:
        raise UnsupportedInput(f"unresolved symbolic coefficients: {sorted(leftover)}")
    w = sys.Pstar.cols + Q.cols
    rows = []
    for i in range(0, len(flat), w):
        parts, R = dense_integer_parts(flat[i:i + w], K)
        rows.append([from_dense(f, R) for f in parts])
    try:
        d, Y = solve_linear(rows, sys.Pstar.cols)
    except NoSolution as exc:
        raise LineInLocus(f"constant term is singular along the pencil: {exc}") from exc
    (d, *ys), K = to_dense([d, *(e for y in Y for e in y)])
    ell = sys.Pstar.rows
    zero = RatFunc(from_dense([], K, avars), MultiPoly.const(1, avars), canonical=True)
    A = FieldMatrix([[_entry(y, d, K, avars) if y else zero for y in ys[i::ell]]
                     for i in range(ell)])
    sing = ratfunc_lcm_den(A.flatten()).extend(("t",))
    return LinearODESystem(A, sing)


def _entry(y, d, K, avars):
    """-y/d in canonical form over avars, for dense lists y (nonzero) and d
    over Z or Z[i]."""
    num, den = dense_cancel(dup_neg(y, K), d, K)
    return RatFunc(from_dense(*num, avars), from_dense(*den, avars), canonical=True)


def size_report(sys: PfaffianSystem) -> dict:
    """Measured sizes/degrees of the derived matrices."""
    n = sys.n
    entries = sys.Pstar.flatten()
    for M in sys.Q.values():
        entries += M.flatten()
    sizes = [size_of(e) for e in entries]
    degs_t = [e.num.degree_in("t") for e in sys.Pstar.flatten() if not e.is_zero()]
    degs_l = [max(e.num.degree_in(FREE_TERM), e.den.degree_in(FREE_TERM))
              for e in entries if not e.is_zero()]
    return {
        "n": n,
        "ell": sys.ell,
        "num_coeffs": sys.H.num_coeffs,
        "total_size": str(sum(sizes)),
        "max_entry_size": str(max(sizes)) if sizes else "0",
        "max_t_degree": int(max(degs_t)) if degs_t else 0,
        "max_lambda_degree": int(max(d for d in degs_l)) if degs_l else 0,
    }
