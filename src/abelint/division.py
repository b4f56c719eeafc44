"""Division of polynomial differential forms along a level-curve family.

For a bivariate Hamiltonian H of degree n+1 over Q or Q(i) every 1-form
omega splits as

    omega = sum_a (p_a o H) w_a  +  u dH  +  dv

and every 2-form mu as

    mu = sum_a (p_a o H) m_a  +  dH ^ eta

where w_a = x1^(a1+1)/(a1+1) * x2^a2 dx2 and m_a = x^a dx1^dx2 run over the
n^2 exponents 0 <= a1, a2 <= n-1, and the degrees obey

    (n+1) deg p_a + deg(w_a or m_a) <= deg target,
    deg u <= deg target - n,   deg v <= deg target,
    deg eta <= deg target - n.

The split is not unique; we solve by indeterminate coefficients with the
smallest t-degree cap on the p_a that admits a solution (free unknowns set
to zero), which keeps the constant term of the resulting matrices as
non-degenerate as the family allows.

Several targets of one kind can be divided together: the matrix of the
unknowns depends only on the degree d and the cap, so the targets still
open at (d, cap) are the right-hand sides of one solve, and each target
stops at its own first (d, cap) that admits a solution, with the p and the
cofactors that dividing it alone gives.

A column of that matrix holds one unknown's form split by x-monomial into
its coefficients.  h1, h2 and each power H^j are split once, and every
column is one of these splits with its exponents shifted by a monomial
(x^beta h_i, or H^j times the monomial of a basis form) and its values
scaled by that monomial's coefficient when it is not 1; the column of
d(x^beta) has one integer term per component.  So building the columns
multiplies no polynomials.  A split maps x-monomials to exact scalars
(Fraction, int or GaussianRational), so each (d, cap) is one reduced row
echelon form over Q or Q(i) of sparse scalar rows (`linalg.solve_columns`),
and the p_a (in t), eta, u and v are built from its scalars.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction

from .errors import SingularDivision, UnsupportedInput
from .linalg import solve_columns
from .polynomials import MultiPoly, NEG_INF, rref

XVARS = ("x1", "x2")


class Hamiltonian:
    """Polynomial H(x1, x2) of degree n+1 over Q or Q(i)."""

    def __init__(self, poly: MultiPoly):
        if not set(poly.effective_vars()) <= set(XVARS):
            raise UnsupportedInput(
                f"Hamiltonian uses variables other than x1, x2: {poly.effective_vars()}")
        self.poly = poly.shrink().extend(XVARS)
        d = self.poly.total_degree()
        if d is NEG_INF or d < 1:
            raise UnsupportedInput("Hamiltonian must be nonconstant in x1, x2")
        self.n = int(d) - 1

    @staticmethod
    def from_x_poly(poly: MultiPoly):
        """Hamiltonian(poly): the name that the benchmark's derive jobs
        (perfbench/workloads.py) still call."""
        return Hamiltonian(poly)

    @property
    def ell(self):
        return self.n * self.n

    @property
    def num_coeffs(self):
        n = self.n
        return (n + 3) * (n + 2) // 2 - 1

    def principal_part(self):
        """Top-degree homogeneous part."""
        d = self.n + 1
        return MultiPoly(XVARS, {e: c for e, c in self.poly.terms.items() if sum(e) == d})

    def grad(self):
        return self.poly.diff("x1"), self.poly.diff("x2")


def basis_exponents(n):
    return [(a1, a2) for a1 in range(n) for a2 in range(n)]


def basis_one_form(alpha):
    """w_a = x1^(a1+1) x2^a2 / (a1+1) dx2, returned as (P, Q) polynomials."""
    a1, a2 = alpha
    vs = XVARS
    q = MultiPoly(vs, {(a1 + 1, a2): Fraction(1, a1 + 1)})
    return MultiPoly.zero(vs), q


def basis_two_form(alpha):
    """m_a = x^a dx1^dx2, returned as the coefficient polynomial."""
    a1, a2 = alpha
    return MultiPoly(XVARS, {(a1, a2): Fraction(1)})


def is_basis_regular(H: Hamiltonian) -> bool:
    """Regularity of the monomial basis for H.

    Needs (i) square-free principal part and (ii) the n^2 monomials x^a,
    0 <= a_i <= n-1, independent modulo the Jacobian ideal of the principal
    part.  Both checks are exact.
    """
    hp = H.principal_part()
    g1 = hp.diff("x1")
    g2 = hp.diff("x2")
    g = MultiPoly.gcd(MultiPoly.gcd(hp, g1), g2)
    if not g.is_constant():
        return False
    n = H.n
    # degree-by-degree rank test: candidates x^a independent mod span{x^b g_i}
    for d in range(0, 2 * n - 1):
        cands = [(a1, a2) for (a1, a2) in basis_exponents(n) if a1 + a2 == d]
        if not cands:
            continue
        rel_polys = []
        for b1 in range(d - n + 1):
            b2 = d - n - b1
            if b2 < 0:
                continue
            mono = MultiPoly(XVARS, {(b1, b2): Fraction(1)})
            rel_polys.append(mono * g1)
            rel_polys.append(mono * g2)
        rel = [p.terms for p in rel_polys]
        if _rank(rel + [{c: 1} for c in cands], d) != _rank(rel, d) + len(cands):
            return False
    return True


def _rank(rows, d):
    """The exact rank over Q or Q(i) of the degree-d coefficients of rows,
    each given by its terms {x-exponent: coefficient}."""
    top = {i: {e[0]: c for e, c in row.items() if sum(e) == d} for i, row in enumerate(rows)}
    return len(rref(top, (len(rows), d + 1))[0])


class Decomposition:
    """Result of dividing a form; p is indexed like basis_exponents(n)."""

    def __init__(self, H, kind, target, p, eta=None, u=None, v=None):
        self.H = H
        self.kind = kind  # "one" | "two"
        self.target = target
        self.p = p        # list of MultiPoly in t
        self.eta = eta    # (E1, E2) MultiPoly over x1, x2, or None
        self.u = u
        self.v = v

    def verify(self) -> bool:
        """Recheck the defining identity exactly."""
        H = self.H
        h1, h2 = H.grad()
        pH = [p.subs({"t": H.poly}) for p in self.p]
        alphas = basis_exponents(H.n)
        if self.kind == "two":
            e1, e2 = self.eta
            acc = sum((q * basis_two_form(a) for q, a in zip(pH, alphas)), h1 * e2 - h2 * e1)
            return acc == self.target
        ws = [basis_one_form(a) for a in alphas]
        acc1 = sum((q * w1 for q, (w1, _) in zip(pH, ws)), self.u * h1 + self.v.diff("x1"))
        acc2 = sum((q * w2 for q, (_, w2) in zip(pH, ws)), self.u * h2 + self.v.diff("x2"))
        return acc1 == self.target[0] and acc2 == self.target[1]

    def degree_bounds_ok(self) -> bool:
        n = self.H.n
        if self.kind == "two":
            d = self.target.degree_in(XVARS)
        else:
            d = max(c.degree_in(XVARS) for c in self.target)
        for alpha, p in zip(basis_exponents(n), self.p):
            if p.is_zero():
                continue
            w = sum(alpha) + (1 if self.kind == "one" else 0)
            if (n + 1) * p.degree_in("t") + w > d:
                return False
        cofactors = self.eta if self.kind == "two" else (self.u,)
        if any(not e.is_zero() and e.degree_in(XVARS) > d + 1 - n for e in cofactors):
            return False
        return self.kind == "two" or self.v.is_zero() or self.v.degree_in(XVARS) <= d + 1


def _monomials_upto(d):
    return [(i, j) for i in range(d + 1) for j in range(d + 1 - i) if i + j <= d]


def _split_x(poly: MultiPoly):
    """x-monomial -> its coefficient in poly, a polynomial in x1, x2: a
    Fraction, int or GaussianRational."""
    poly = poly.shrink().extend(XVARS)
    if poly.vars != XVARS:
        raise UnsupportedInput(f"a form uses variables other than x1, x2: {poly.vars}")
    return poly.terms


def _shifted(split, terms):
    """The split of f p from the split of p, for f given by its terms
    {x-exponent: coefficient}: each term shifts the keys by its exponent and
    scales the values by its coefficient when that is not 1."""
    out = {}
    for (a1, a2), c in terms.items():
        for (e1, e2), v in split.items():
            key = (e1 + a1, e2 + a2)
            v = v if c == 1 else v * c
            out[key] = out[key] + v if key in out else v
    return out


def _divide(H: Hamiltonian, targets, forms, cofactor_unknowns):
    """Shared indeterminate-coefficient solver for both form divisions.

    `targets`: each target's components, polynomials in x1, x2;
    `forms[a]`: the components of basis form a, polynomials in x1, x2;
    `cofactor_unknowns(d, n, s1, s2)`, for the splits s1, s2 of h1, h2:
    (label, column) of the other unknowns at degree d, label (name, beta)
    standing for x^beta and the column holding the split of each
    component.  A target tries the degrees d from its own degree, and the
    caps at each d, until one admits a solution.  Returns, per target, p
    and the dict name -> cofactor.
    """
    if not targets:
        return []
    n = H.n
    slack = 3 * (n + 1)
    rhs = [[_split_x(c) for c in comps] for comps in targets]
    starts = [int(max((c.degree_in(XVARS) for c in comps if not c.is_zero()), default=0))
              for comps in targets]
    s1, s2 = (_split_x(h) for h in H.grad())
    weights = [max(f.degree_in(XVARS) for f in form) for form in forms]
    form_terms = [tuple(f.terms for f in form) for form in forms]
    # H^j and its split, kept across degrees and caps; the column of the
    # unknown (a, j) is the split of H^j shifted by the terms of form a
    Hpow = [MultiPoly.const(1, H.poly.vars)]
    Hsplit = [_split_x(Hpow[0])]
    pcols = {}
    found = [None] * len(targets)

    def open_at(d):
        return [k for k, s in enumerate(starts) if found[k] is None and s <= d <= s + slack]

    for d in range(min(starts), max(starts) + slack + 1):
        if not open_at(d):
            continue
        # largest t-degree of p_a at degree d; -1 leaves p_a out
        bounds = [(d - w) // (n + 1) if w <= d else -1 for w in weights]
        max_cap = max([0] + bounds)
        while len(Hpow) <= max_cap:
            Hpow.append(Hpow[-1] * H.poly)
            Hsplit.append(_split_x(Hpow[-1]))
        cofactors = cofactor_unknowns(d, n, s1, s2)
        for cap in range(0, max_cap + 1):
            open_ = open_at(d)
            if not open_:
                break
            unknowns = []
            for ai, bound in enumerate(bounds):
                for j in range(min(cap, bound) + 1):
                    if (ai, j) not in pcols:
                        pcols[ai, j] = tuple(_shifted(Hsplit[j], ft) for ft in form_terms[ai])
                    unknowns.append((("p", ai, j), pcols[ai, j]))
            unknowns += cofactors
            # one equation per component and x-monomial, over Q or Q(i);
            # the targets' coefficients form the last columns
            columns = [splits for _, splits in unknowns] + [rhs[k] for k in open_]
            rows = defaultdict(dict)
            for j, col in enumerate(columns):
                for ci, split in enumerate(col):
                    for m, c in split.items():
                        rows[ci, m][j] = c
            ys = solve_columns(rows, (len(rows), len(columns)), len(unknowns))
            for k, y in zip(open_, ys):
                if y is not None:
                    found[k] = _assemble(n, unknowns, y)
    for k, s in enumerate(starts):
        if found[k] is None:
            raise SingularDivision(
                f"no decomposition within relaxed degree bounds (deg target {s}): "
                f"no decomposition at degree {s + slack}: inconsistent linear system")
    return found


def _assemble(n, unknowns, y):
    """p_a = sum_j y_(a,j) t^j and each cofactor sum_beta y_beta x^beta,
    for y {unknown: nonzero scalar}, each built from one term dict in the
    order of the unknowns."""
    pterms = [{} for _ in basis_exponents(n)]
    cterms = defaultdict(dict)
    for k in sorted(y):
        label = unknowns[k][0]
        if label[0] == "p":
            pterms[label[1]][(label[2],)] = y[k]
        else:
            cterms[label[0]][label[1]] = y[k]
    p = [MultiPoly(("t",), terms) for terms in pterms]
    return p, defaultdict(MultiPoly.zero, {name: MultiPoly(XVARS, terms)
                                           for name, terms in cterms.items()})


def _eta_unknowns(d, n, s1, s2):
    """Coefficients of eta = (E1, E2): dH ^ eta = (h1 E2 - h2 E1) dx1^dx2,
    for the splits s1, s2 of h1, h2."""
    out = []
    for beta in _monomials_upto(max(d + 1 - n, -1)):
        out.append((("e1", beta), (_shifted(s2, {beta: -1}),)))
        out.append((("e2", beta), (_shifted(s1, {beta: 1}),)))
    return out


def _uv_unknowns(d, n, s1, s2):
    """Coefficients of u (in u dH) and of v (in dv), for the splits s1, s2
    of h1, h2; the column of d(x^beta) has one term per component."""
    out = []
    for beta in _monomials_upto(max(d + 1 - n, -1)):
        out.append((("u", beta), (_shifted(s1, {beta: 1}), _shifted(s2, {beta: 1}))))
    for b1, b2 in _monomials_upto(d + 1):
        if (b1, b2) == (0, 0):
            continue  # constants do not contribute to dv
        out.append((("v", (b1, b2)),
                    ({(b1 - 1, b2): b1} if b1 else {}, {(b1, b2 - 1): b2} if b2 else {})))
    return out


def divide_two_form(H: Hamiltonian, coeff):
    """Split mu = coeff dx1^dx2 as sum (p_a o H) m_a + dH ^ eta, for a
    polynomial coeff in x1, x2.  Given a list of coefficients, divides them
    together and returns the list of their Decompositions."""
    batch = isinstance(coeff, list)
    targets = coeff if batch else [coeff]
    forms = [(basis_two_form(alpha),) for alpha in basis_exponents(H.n)]
    found = _divide(H, [[t] for t in targets], forms, _eta_unknowns)
    decs = [Decomposition(H, "two", t, p, eta=(cof["e1"], cof["e2"]))
            for t, (p, cof) in zip(targets, found)]
    return decs if batch else decs[0]


def divide_one_form(H: Hamiltonian, p_comp, q_comp):
    """Split omega = p dx1 + q dx2 as sum (p_a o H) w_a + u dH + dv, for
    polynomials p, q in x1, x2.  Given lists of p and q components, divides
    the forms together and returns the list of their Decompositions."""
    batch = isinstance(p_comp, list)
    targets = list(zip(p_comp, q_comp)) if batch else [(p_comp, q_comp)]
    forms = [basis_one_form(alpha) for alpha in basis_exponents(H.n)]
    found = _divide(H, [list(t) for t in targets], forms, _uv_unknowns)
    decs = [Decomposition(H, "one", t, p, u=cof["u"], v=cof["v"])
            for t, (p, cof) in zip(targets, found)]
    return decs if batch else decs[0]
