"""Exact Pfaffian systems for period vectors of level-curve families.

For the period vector X(lambda) of the n^2 basis 1-forms over a cycle on
{H = 0} the derivation produces, entirely over Q(lambda):

  * Pstar(t):  H m_a = sum_b (Pstar_ab o H) m_b + dH ^ eta_a
  * Q^s:       x^s eta_a = sum_b (Q^s_ab o H) w_b + u dH + dv

whence  Pstar(0) dX/dlambda_s = Q^s(0) X  for every coefficient lambda_s.
Restricting to the pencil {H0 = t} (i.e. lambda_00 = c0 - t) yields a linear
ODE system dX/dt = A(t) X with A = -(Pstar(0)^{-1} Q^{(0,0)}(0)) evaluated at
lambda_00 = c0 - t, so `derive_pfaffian` derives only Q^(0,0) unless asked
for more.  Both evaluations are one simultaneous substitution
{t: 0, lambda_00: c0 - t}, and A comes from one fraction-free solve
Pstar(0) Y = d Q^(0,0)(0), whose single elimination serves all ell columns.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .division import (XVARS, Decomposition, Hamiltonian, basis_exponents,
                       basis_two_form, divide_one_form, divide_two_form)
from .errors import DegenerateBasis, LineInLocus, NoSolution, UnsupportedInput
from .linalg import FieldMatrix, clear_rows, solve_linear
from .polynomials import MultiPoly
from .ratfunc import RatFunc, ratfunc_lcm_den, size_of


class PfaffianSystem:
    """Exact output of the derivation for one Hamiltonian."""

    def __init__(self, H, Pstar, etas, Q, free_var):
        self.H = H
        self.n = H.n
        self.ell = H.ell
        self.Pstar = Pstar          # FieldMatrix over lambda + t
        self.etas = etas            # per-row (E1, E2) RatFunc pairs
        self.Q = Q                  # dict s-exponent -> FieldMatrix over lambda
        self.free_var = free_var    # name of the free-term coefficient

    @property
    def Pstar0(self):
        return self.Pstar.subs({"t": MultiPoly.const(0)})

    def check_identities(self) -> bool:
        """Re-verify every division identity exactly."""
        H = self.H
        ok = True
        for ai, alpha in enumerate(basis_exponents(self.n)):
            target = RatFunc(H.poly * basis_two_form(alpha))
            dec = Decomposition(H, "two", target, list(self.Pstar.data[ai]),
                                eta=self.etas[ai])
            ok = ok and dec.verify()
        return ok


def derive_pfaffian(H: Hamiltonian, s_list=((0, 0),)) -> PfaffianSystem:
    """Derive the exact Pfaffian structure for H.

    H must carry at least the free-term coefficient as a symbolic variable so
    that level shifts stay inside the family.  Q^s is derived for each s in
    `s_list`; the default, Q^(0,0) only, is all that the pencil restriction
    reads.  A regular monomial basis guarantees success; regularity is not
    checked, and a division that is impossible raises SingularDivision.
    """
    n = H.n
    if n < 1:
        raise DegenerateBasis("Hamiltonian of degree 1: the form basis is empty")
    if not H.lvars:
        raise UnsupportedInput("Hamiltonian needs at least one symbolic coefficient")
    free_var = "l00" if "l00" in H.lvars else H.lvars[0]
    alphas = basis_exponents(n)
    rows = []
    etas = []
    for alpha in alphas:
        dec = divide_two_form(H, H.poly * basis_two_form(alpha))
        rows.append(dec.p)
        etas.append(dec.eta)
    Pstar = FieldMatrix(rows)
    Q = {}
    for s in s_list:
        xs = MultiPoly(XVARS, {tuple(s): Fraction(1)})
        qrows = []
        for e1, e2 in etas:
            # canonical as it stands: the denominators are free of x
            dec = divide_one_form(H, RatFunc(e1.num * xs, e1.den, canonical=True),
                                  RatFunc(e2.num * xs, e2.den, canonical=True))
            qrows.append(dec.p)
        Q[tuple(s)] = FieldMatrix(qrows)
    return PfaffianSystem(H, Pstar, etas, Q, free_var)


class LinearODESystem:
    """dX/dt = A(t) X with exact rational entries; `eval` gives A(t) in floats
    by one Horner pass over the stacked coefficients of all entries."""

    def __init__(self, A: FieldMatrix, singular_poly: MultiPoly):
        self.A = A
        self.ell = A.rows
        self.singular_poly = singular_poly
        self._roots = None
        self._stack = None

    @property
    def singular_points(self):
        if self._roots is None:
            self._roots = self.singular_poly.univar_roots("t")
        return self._roots

    def _compiled(self):
        """C[k, 0, i, j] and C[k, 1, i, j]: the coefficients of degree
        deg - k of the numerator and denominator of entry (i, j)."""
        if self._stack is None:
            coeffs = [[[p.univar_coeffs("t") for p in (e.num, e.den)] for e in row]
                      for row in self.A.data]
            deg = max(len(c) for row in coeffs for pair in row for c in pair)
            C = np.zeros((deg, 2, self.ell, self.ell), dtype=complex)
            for i, row in enumerate(coeffs):
                for j, pair in enumerate(row):
                    for k, c in enumerate(pair):
                        C[deg - len(c):, k, i, j] = [complex(float(x), 0.0) for x in c[::-1]]
            self._stack = C
        return self._stack

    def eval(self, t: complex):
        # `np.polyval`'s loop on every entry at once: the zero padding at the
        # top keeps y at +0 until an entry's leading coefficient, so each
        # entry gets the floats of its own `np.polyval`
        C = self._compiled()
        y = C[0]
        for c in C[1:]:
            y = y * t + c
        return y[0] / y[1]


def restrict_to_pencil(sys: PfaffianSystem, free_term_value=0) -> LinearODESystem:
    """Restrict to the free-term pencil lambda_00 = c0 - t, with c0 the
    free_term_value; every other coefficient must already be concrete.
    One simultaneous substitution {t: 0, lambda_00: c0 - t} into P* and
    Q^(0,0) gives P0 and Qs, one cancellation per entry, and A = -Y/d for
    the solution P0 Y = d Qs of one solve on the cleared rows of [P0 | Qs],
    each entry cancelled once and stored in descending term order, so that
    A's storage is a function of its value."""
    pencil = {"t": MultiPoly.const(0),
              sys.free_var: MultiPoly.const(Fraction(free_term_value), ("t",))
              - MultiPoly.var("t")}
    P0 = sys.Pstar.subs(pencil)
    Qs = sys.Q[(0, 0)].subs(pencil)
    leftover = set()
    for e in P0.flatten() + Qs.flatten():
        leftover |= set(e.num.effective_vars()) | set(e.den.effective_vars())
    leftover -= {"t"}
    if leftover:
        raise UnsupportedInput(f"unresolved symbolic coefficients: {sorted(leftover)}")
    rows = clear_rows([a + q for a, q in zip(P0.data, Qs.data)])
    try:
        d, Y = solve_linear(rows, P0.cols, verify=True)
    except NoSolution as exc:
        raise LineInLocus(f"constant term is singular along the pencil: {exc}") from exc
    A = FieldMatrix([[_descending(RatFunc(-y[i], d)) for y in Y] for i in range(P0.rows)])
    sing = ratfunc_lcm_den(A.flatten()).extend(("t",))
    return LinearODESystem(A, sing)


def _descending(r):
    return RatFunc(r.num.descending(), r.den.descending(), canonical=True)


def size_report(sys: PfaffianSystem) -> dict:
    """Measured sizes/degrees of the derived matrices."""
    n = sys.n
    entries = sys.Pstar.flatten()
    for M in sys.Q.values():
        entries += M.flatten()
    sizes = [size_of(e) for e in entries]
    degs_t = [e.num.degree_in("t") for e in sys.Pstar.flatten() if not e.is_zero()]
    lvars = sys.H.lvars
    degs_l = [max(e.num.degree_in(lvars), e.den.degree_in(lvars))
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
