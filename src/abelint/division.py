"""Division of polynomial differential forms along a level-curve family.

For a bivariate Hamiltonian H of degree n+1 (possibly with symbolic
coefficients) every 1-form omega splits as

    omega = sum_a (p_a o H) w_a  +  u dH  +  dv

and every 2-form mu as

    mu = sum_a (p_a o H) m_a  +  dH ^ eta

where w_a = x1^(a1+1)/(a1+1) * x2^a2 dx2 and m_a = x^a dx1^dx2 run over the
n^2 exponents 0 <= a1, a2 <= n-1, and the degrees obey

    (n+1) deg p_a + deg(w_a or m_a) <= deg target,
    deg u <= deg target - n,   deg v <= deg target,
    deg eta <= deg target - n.

Degrees count only the x-variables.  The split is not unique; we solve by
indeterminate coefficients with the smallest t-degree cap on the p_a that
admits a solution (free unknowns set to zero), which keeps the constant term
of the resulting matrices as non-degenerate as the family allows.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction

from .errors import NoSolution, SingularDivision, UnsupportedInput
from .linalg import solve_linear
from .polynomials import MultiPoly, NEG_INF, rank_at_point
from .ratfunc import RatFunc, ratfunc_lcm_den

XVARS = ("x1", "x2")


class Hamiltonian:
    """Polynomial H(x1, x2) of x-degree n+1 with optional symbolic coefficients."""

    def __init__(self, poly: MultiPoly, lvars=()):
        lvars = tuple(sorted(lvars))
        allowed = set(XVARS) | set(lvars)
        if any(v not in allowed for v in poly.effective_vars()):
            raise UnsupportedInput(
                f"Hamiltonian uses variables outside x1,x2,{lvars}: {poly.effective_vars()}")
        self.poly = poly.extend(sorted(allowed))
        self.lvars = lvars
        d = poly.degree_in(XVARS)
        if d is NEG_INF or d < 1:
            raise UnsupportedInput("Hamiltonian must be nonconstant in x1, x2")
        self.n = int(d) - 1

    @staticmethod
    def from_x_poly(poly: MultiPoly, free_term_var="l00"):
        """Concrete x-polynomial plus one symbolic free term l00."""
        p = poly.extend(sorted(set(poly.vars) | {free_term_var} | set(XVARS)))
        return Hamiltonian(p + MultiPoly.var(free_term_var, p.vars), (free_term_var,))

    @property
    def ell(self):
        return self.n * self.n

    @property
    def num_coeffs(self):
        n = self.n
        return (n + 3) * (n + 2) // 2 - 1

    def principal_part(self):
        """Top x-degree homogeneous part (must be lambda-free to inspect)."""
        d = self.n + 1
        split = self.poly.coeff_split(XVARS)
        vs = sorted(set(self.poly.vars))
        terms = {}
        for xexp, coef in split.items():
            if sum(xexp) != d:
                continue
            if not coef.is_constant():
                raise UnsupportedInput("principal part has symbolic coefficients")
            exp = tuple(xexp[0] if v == "x1" else xexp[1] if v == "x2" else 0
                        for v in vs)
            terms[exp] = coef.constant_value()
        return MultiPoly(vs, terms).shrink()

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
        monos = [(i, d - i) for i in range(d + 1)]
        idx = {m: k for k, m in enumerate(monos)}

        def vec(p):
            row = [MultiPoly.zero()] * len(monos)
            for exp, c in p.extend(XVARS).coeff_split(XVARS).items():
                if sum(exp) == d:
                    row[idx[exp]] = c
            return row

        rel = [vec(p) for p in rel_polys]
        base_rank = rank_at_point(rel) if rel else 0
        full = rel + [vec(MultiPoly(XVARS, {c: Fraction(1)})) for c in cands]
        if rank_at_point(full) != base_rank + len(cands):
            return False
    return True


class Decomposition:
    """Result of dividing a form; p is indexed like basis_exponents(n)."""

    def __init__(self, H, kind, target, p, eta=None, u=None, v=None):
        self.H = H
        self.kind = kind  # "one" | "two"
        self.target = target
        self.p = p        # list of RatFunc in lvars + ("t",)
        self.eta = eta    # (E1, E2) RatFunc over x+lambda, or None
        self.u = u
        self.v = v

    def verify(self) -> bool:
        """Recheck the defining identity exactly."""
        H = self.H
        tvar = "t"
        acc = [RatFunc.zero(), RatFunc.zero()] if self.kind == "one" else [RatFunc.zero()]
        for alpha, p in zip(basis_exponents(H.n), self.p):
            pH = p.subs({tvar: H.poly})
            if self.kind == "one":
                w1, w2 = basis_one_form(alpha)
                acc[0] = acc[0] + pH * RatFunc(w1)
                acc[1] = acc[1] + pH * RatFunc(w2)
            else:
                acc[0] = acc[0] + pH * RatFunc(basis_two_form(alpha))
        h1, h2 = H.grad()
        if self.kind == "one":
            if self.u is not None:
                acc[0] = acc[0] + self.u * RatFunc(h1)
                acc[1] = acc[1] + self.u * RatFunc(h2)
            if self.v is not None:
                acc[0] = acc[0] + self.v.diff("x1")
                acc[1] = acc[1] + self.v.diff("x2")
            return (acc[0] - self.target[0]).is_zero() and \
                   (acc[1] - self.target[1]).is_zero()
        e1, e2 = self.eta
        acc[0] = acc[0] + RatFunc(h1) * e2 - RatFunc(h2) * e1
        return (acc[0] - self.target).is_zero()

    def degree_bounds_ok(self) -> bool:
        n = self.H.n
        if self.kind == "two":
            d = _xdeg_ratfunc(self.target)
        else:
            d = max(_xdeg_ratfunc(self.target[0]), _xdeg_ratfunc(self.target[1]))
        for alpha, p in zip(basis_exponents(n), self.p):
            if p.is_zero():
                continue
            w = sum(alpha) + (1 if self.kind == "one" else 0)
            degp = p.num.degree_in("t")
            if (n + 1) * degp + w > d:
                return False
        if self.kind == "two":
            for e in self.eta:
                if not e.is_zero() and _xdeg_ratfunc(e) > d + 1 - n:
                    return False
        else:
            if self.u is not None and not self.u.is_zero() and _xdeg_ratfunc(self.u) > d + 1 - n:
                return False
            if self.v is not None and not self.v.is_zero() and _xdeg_ratfunc(self.v) > d + 1:
                return False
        return True


def _xdeg_ratfunc(r: RatFunc):
    return r.num.degree_in(XVARS)


def _monomials_upto(d):
    return [(i, j) for i in range(d + 1) for j in range(d + 1 - i) if i + j <= d]


def _split_x(poly: MultiPoly):
    """x-monomial -> lambda-coefficient polynomial."""
    return poly.extend(sorted(set(poly.vars) | set(XVARS))).coeff_split(XVARS)


def _divide(H: Hamiltonian, comps, forms, cofactor_unknowns):
    """Shared indeterminate-coefficient solver for both form divisions.

    `comps`: the target's components, with denominators in lambda only;
    `forms[a]`: the components of basis form a; `cofactor_unknowns(d, n,
    h1, h2)`: (label, components) of the other unknowns at degree d, label
    (name, beta) standing for x^beta.  Returns p and the dict name ->
    cofactor.
    """
    n = H.n
    for c in comps:
        if c.den.degree_in(XVARS) not in (0, NEG_INF):
            raise UnsupportedInput("form denominators must be free of x1, x2")
    # clear lambda denominators
    den = ratfunc_lcm_den(comps)
    polys = [c.cleared(den) for c in comps]
    d_strict = max((p.degree_in(XVARS) for p in polys if not p.is_zero()), default=0)
    d_strict = max(int(d_strict) if d_strict is not NEG_INF else 0, 0)
    h1, h2 = H.grad()
    weights = [max(f.degree_in(XVARS) for f in form) for form in forms]
    rhs_splits = [_split_x(p) for p in polys]
    zero = MultiPoly.zero(H.lvars)
    Hpow = [MultiPoly.const(1, H.poly.vars)]
    last_err = None
    for d in range(d_strict, d_strict + 3 * (n + 1) + 1):
        # largest t-degree of p_a at degree d; -1 leaves p_a out
        bounds = [(d - w) // (n + 1) if w <= d else -1 for w in weights]
        max_cap = max([0] + bounds)
        while len(Hpow) <= max_cap:
            Hpow.append(Hpow[-1] * H.poly)
        cofactors = [(label, tuple(_split_x(c) for c in contrib))
                     for label, contrib in cofactor_unknowns(d, n, h1, h2)]
        for cap in range(0, max_cap + 1):
            unknowns = [(("p", ai, j), tuple(_split_x(Hpow[j] * f) for f in form))
                        for ai, (form, bound) in enumerate(zip(forms, bounds))
                        for j in range(min(cap, bound) + 1)] + cofactors
            # one polynomial equation per component and x-monomial, over
            # Q[lambda]; the target's coefficients form the last column
            columns = [splits for _, splits in unknowns] + [rhs_splits]
            xmonos = sorted(set().union(*(s.keys() for col in columns for s in col)))
            rows = [[col[ci].get(m, zero) for col in columns]
                    for ci in range(len(polys)) for m in xmonos]
            try:
                d, (y,) = solve_linear(rows, len(unknowns), verify=False)
            except NoSolution as exc:
                last_err = exc
                continue
            return _assemble(H, d * den, unknowns, y)
    raise SingularDivision(
        f"no decomposition within relaxed degree bounds (deg target {d_strict}): "
        f"no decomposition at degree {d}: {last_err}")


def _assemble(H, den, unknowns, y):
    """p_a = sum_j y_(a,j) t^j / den and each cofactor sum_beta y_beta
    x^beta / den, one cancellation each."""
    tvar = MultiPoly.var("t")
    pvars = tuple(sorted(set(H.lvars) | {"t"}))
    pnums = [MultiPoly.zero(pvars) for _ in basis_exponents(H.n)]
    cnums = defaultdict(MultiPoly.zero)
    for (label, _), val in zip(unknowns, y):
        if val.is_zero():
            continue
        if label[0] == "p":
            _, ai, j = label
            pnums[ai] = pnums[ai] + val * tvar ** j
        else:
            name, beta = label
            cnums[name] = cnums[name] + val * MultiPoly(XVARS, {beta: Fraction(1)})
    p = [RatFunc.zero(pvars) if num.is_zero() else RatFunc(num, den) for num in pnums]
    cofactors = defaultdict(RatFunc.zero,
                            {name: RatFunc(num, den) for name, num in cnums.items()})
    return p, cofactors


def _eta_unknowns(d, n, h1, h2):
    """Coefficients of eta = (E1, E2): dH ^ eta = (h1 E2 - h2 E1) dx1^dx2."""
    out = []
    for beta in _monomials_upto(max(d + 1 - n, -1)):
        mono = MultiPoly(XVARS, {beta: Fraction(1)})
        out.append((("e1", beta), (-(mono * h2),)))
        out.append((("e2", beta), (mono * h1,)))
    return out


def _uv_unknowns(d, n, h1, h2):
    """Coefficients of u (in u dH) and of v (in dv)."""
    out = []
    for beta in _monomials_upto(max(d + 1 - n, -1)):
        mono = MultiPoly(XVARS, {beta: Fraction(1)})
        out.append((("u", beta), (mono * h1, mono * h2)))
    for beta in _monomials_upto(d + 1):
        if beta == (0, 0):
            continue  # constants do not contribute to dv
        mono = MultiPoly(XVARS, {beta: Fraction(1)})
        out.append((("v", beta), (mono.diff("x1"), mono.diff("x2"))))
    return out


def divide_two_form(H: Hamiltonian, coeff) -> Decomposition:
    """Split mu = coeff dx1^dx2 as sum (p_a o H) m_a + dH ^ eta."""
    target = RatFunc.coerce(coeff)
    forms = [(basis_two_form(alpha),) for alpha in basis_exponents(H.n)]
    p, cof = _divide(H, [target], forms, _eta_unknowns)
    return Decomposition(H, "two", target, p, eta=(cof["e1"], cof["e2"]))


def divide_one_form(H: Hamiltonian, p_comp, q_comp) -> Decomposition:
    """Split omega = p dx1 + q dx2 as sum (p_a o H) w_a + u dH + dv."""
    target = (RatFunc.coerce(p_comp), RatFunc.coerce(q_comp))
    forms = [basis_one_form(alpha) for alpha in basis_exponents(H.n)]
    p, cof = _divide(H, list(target), forms, _uv_unknowns)
    return Decomposition(H, "one", target, p, u=cof["u"], v=cof["v"])
