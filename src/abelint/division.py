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

from fractions import Fraction

from .errors import NoSolution, SingularDivision, UnsupportedInput
from .linalg import FieldMatrix, solve_linear
from .polynomials import MultiPoly, NEG_INF
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
            row = [Fraction(0)] * len(monos)
            for exp, c in p.extend(XVARS).coeff_split(XVARS).items():
                if sum(exp) == d:
                    row[idx[exp]] = c.constant_value()
            return row

        rel = [vec(p) for p in rel_polys]
        base_rank = _rank_fractions(rel)
        full = rel + [vec(MultiPoly(XVARS, {c: Fraction(1)})) for c in cands]
        if _rank_fractions(full) != base_rank + len(cands):
            return False
    return True


def _rank_fractions(rows):
    if not rows:
        return 0
    M = [list(r) for r in rows]
    m, n = len(M), len(M[0])
    rank = 0
    for col in range(n):
        piv = None
        for r in range(rank, m):
            if M[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        M[rank], M[piv] = M[piv], M[rank]
        pv = M[rank][col]
        for r in range(rank + 1, m):
            if M[r][col] != 0:
                f = M[r][col] / pv
                M[r] = [a - f * b for a, b in zip(M[r], M[rank])]
        rank += 1
        if rank == m:
            break
    return rank


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


def _divide(H: Hamiltonian, kind, target):
    """Shared indeterminate-coefficient solver for both form divisions.

    `target`: RatFunc (kind "two") or pair of RatFunc (kind "one"); the
    denominators may involve the lambda variables only.
    """
    n = H.n
    lvars = H.lvars
    comps = [target] if kind == "two" else list(target)
    for c in comps:
        if c.den.degree_in(XVARS) not in (0, NEG_INF):
            raise UnsupportedInput("form denominators must be free of x1, x2")
    # clear lambda denominators
    den = ratfunc_lcm_den(comps)
    polys = [c.cleared(den) for c in comps]
    d = max((p.degree_in(XVARS) for p in polys if not p.is_zero()), default=0)
    d = max(int(d) if d is not NEG_INF else 0, 0)

    h1, h2 = H.grad()
    alphas = basis_exponents(n)

    def weight(alpha):
        return sum(alpha) + (1 if kind == "one" else 0)

    last_err = None
    d_strict = d
    for slack in range(0, 3 * (n + 1) + 1):
        d = d_strict + slack
        caps = [(d - weight(a)) // (n + 1) for a in alphas if weight(a) <= d]
        max_cap = max(caps, default=0)
        Hpow = [MultiPoly.const(1, H.poly.vars)]
        for _ in range(max_cap):
            Hpow.append(Hpow[-1] * H.poly)
        try:
            return _divide_at(H, kind, comps, polys, den, d, max_cap, weight,
                              alphas, h1, h2, Hpow, lvars, n)
        except NoSolution as exc:
            last_err = exc
    raise SingularDivision(
        f"no decomposition within relaxed degree bounds (deg target {d_strict}): {last_err}")


def _divide_at(H, kind, comps, polys, den, d, max_cap, weight, alphas, h1, h2,
               Hpow, lvars, n):
    last_err = None
    for cap in range(0, max_cap + 1):
        unknowns = []   # (label, contribution) with contribution per component
        for ai, alpha in enumerate(alphas):
            if weight(alpha) > d:
                continue
            bound = (d - weight(alpha)) // (n + 1)
            for j in range(0, min(cap, bound) + 1):
                if kind == "two":
                    contrib = (Hpow[j] * basis_two_form(alpha),)
                else:
                    w1, w2 = basis_one_form(alpha)
                    contrib = (Hpow[j] * w1, Hpow[j] * w2)
                unknowns.append((("p", ai, j), contrib))
        if kind == "two":
            for beta in _monomials_upto(max(d + 1 - n, -1)):
                mono = MultiPoly(XVARS, {beta: Fraction(1)})
                unknowns.append((("e1", beta), (-(mono * h2),)))
                unknowns.append((("e2", beta), (mono * h1,)))
        else:
            for beta in _monomials_upto(max(d + 1 - n, -1)):
                mono = MultiPoly(XVARS, {beta: Fraction(1)})
                unknowns.append((("u", beta), (mono * h1, mono * h2)))
            for beta in _monomials_upto(d + 1):
                if beta == (0, 0):
                    continue  # constants do not contribute to dv
                mono = MultiPoly(XVARS, {beta: Fraction(1)})
                unknowns.append((("v", beta), (mono.diff("x1"), mono.diff("x2"))))

        # assemble the linear system over Q(lambda)
        column_splits = [tuple(_split_x(c) for c in contrib) for _, contrib in unknowns]
        rhs_splits = [_split_x(p) for p in polys]
        xmonos = set()
        for splits in column_splits:
            for s in splits:
                xmonos |= set(s.keys())
        for s in rhs_splits:
            xmonos |= set(s.keys())
        xmonos = sorted(xmonos)
        ncomp = len(polys)
        rows = []
        rhs = []
        zero = RatFunc.zero(lvars)
        for ci in range(ncomp):
            for mono in xmonos:
                row = []
                for splits in column_splits:
                    c = splits[ci].get(mono)
                    row.append(RatFunc(c) if c is not None else zero)
                rows.append(row)
                c = rhs_splits[ci].get(mono)
                rhs.append(RatFunc(c) if c is not None else zero)
        try:
            sol = solve_linear(FieldMatrix(rows), rhs, verify=False)
        except NoSolution as exc:
            last_err = exc
            continue
        return _assemble(H, kind, comps, den, unknowns, sol)
    raise NoSolution(f"no decomposition at degree {d}: {last_err}")


def _assemble(H, kind, comps, den, unknowns, sol):
    n = H.n
    lvars = H.lvars
    alphas = basis_exponents(n)
    inv_den = RatFunc.const(1) / RatFunc(den)
    tvar = MultiPoly.var("t")
    p = [RatFunc.zero(tuple(sorted(set(lvars) | {"t"}))) for _ in alphas]
    eta = [RatFunc.zero(), RatFunc.zero()]
    u = RatFunc.zero()
    v = RatFunc.zero()
    for (label, _), val in zip(unknowns, sol):
        if val.is_zero():
            continue
        val = val * inv_den
        if label[0] == "p":
            _, ai, j = label
            p[ai] = p[ai] + val * RatFunc(tvar ** j)
        elif label[0] in ("e1", "e2"):
            mono = RatFunc(MultiPoly(XVARS, {label[1]: Fraction(1)}))
            k = 0 if label[0] == "e1" else 1
            eta[k] = eta[k] + val * mono
        elif label[0] == "u":
            u = u + val * RatFunc(MultiPoly(XVARS, {label[1]: Fraction(1)}))
        elif label[0] == "v":
            v = v + val * RatFunc(MultiPoly(XVARS, {label[1]: Fraction(1)}))
    if kind == "two":
        return Decomposition(H, "two", comps[0], p, eta=(eta[0], eta[1]))
    return Decomposition(H, "one", (comps[0], comps[1]), p, u=u, v=v)


def divide_two_form(H: Hamiltonian, coeff) -> Decomposition:
    """Split mu = coeff dx1^dx2 as sum (p_a o H) m_a + dH ^ eta."""
    return _divide(H, "two", RatFunc.coerce(coeff))


def divide_one_form(H: Hamiltonian, p_comp, q_comp) -> Decomposition:
    """Split omega = p dx1 + q dx2 as sum (p_a o H) w_a + u dH + dv."""
    return _divide(H, "one", (RatFunc.coerce(p_comp), RatFunc.coerce(q_comp)))
