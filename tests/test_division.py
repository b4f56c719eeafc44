"""Module division of forms: exactness and degree bounds."""

import random
from fractions import Fraction

import pytest

from abelint import division, linalg
from abelint.division import (Hamiltonian, basis_exponents, basis_one_form,
                              basis_two_form, divide_one_form, divide_two_form,
                              is_basis_regular)
from abelint.errors import SingularDivision, UnsupportedInput
from abelint.parsing import parse_poly
from abelint.polynomials import MultiPoly

X = ("x1", "x2")


def rand_hamiltonian(rng, n):
    """Concrete regular-ish H: Fermat principal part plus random lower terms."""
    x1 = MultiPoly.var("x1", X)
    x2 = MultiPoly.var("x2", X)
    H = x1 ** (n + 1) + x2 ** (n + 1)
    for a1 in range(n + 1):
        for a2 in range(n + 1 - a1):
            if rng.random() < 0.5:
                c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                H = H + MultiPoly.const(c, X) * x1 ** a1 * x2 ** a2
    return Hamiltonian(H)


def rand_monomial(rng, maxdeg):
    a1, a2 = rng.randint(0, maxdeg), rng.randint(0, maxdeg)
    return MultiPoly.var("x1", X) ** a1 * MultiPoly.var("x2", X) ** a2


def test_two_form_division_exact():
    rng = random.Random(20)
    for n in (1, 2, 3):
        H = rand_hamiltonian(rng, n)
        for _ in range(5):
            mu = rand_monomial(rng, 2 * n)
            dec = divide_two_form(H, mu)
            assert dec.verify()
            assert dec.degree_bounds_ok()


def test_one_form_division_exact():
    rng = random.Random(21)
    for n in (1, 2, 3):
        H = rand_hamiltonian(rng, n)
        for _ in range(5):
            which = rng.random() < 0.5
            m = rand_monomial(rng, 2 * n)
            p, q = (m, MultiPoly.zero(X)) if which else (MultiPoly.zero(X), m)
            dec = divide_one_form(H, p, q)
            assert dec.verify()
            assert dec.degree_bounds_ok()


def test_division_linear_in_target():
    rng = random.Random(22)
    H = rand_hamiltonian(rng, 2)
    m1 = rand_monomial(rng, 3)
    m2 = rand_monomial(rng, 3)
    d1 = divide_two_form(H, m1)
    d2 = divide_two_form(H, m2)
    d12 = divide_two_form(H, m1 + m2)
    # p coefficients of a sum may differ from the sums only by elements of
    # the kernel; at least the identity itself must hold
    assert d12.verify()
    assert d1.verify() and d2.verify()


def test_basis_count():
    for n in (1, 2, 3):
        assert len(basis_exponents(n)) == n * n


def test_regularity_detects_degenerate():
    x1 = MultiPoly.var("x1", X)
    x2 = MultiPoly.var("x2", X)
    # principal part x1^2 x2 has a non-isolated singularity at infinity
    H = Hamiltonian(x1 * x1 * x2 + x1)
    assert not is_basis_regular(H)
    # Fermat-type principal part is regular
    G = Hamiltonian(x1 ** 3 + x2 ** 3 + x1)
    assert is_basis_regular(G)
    # irreducible, hence square-free, principal part: only the rank test of
    # the basis monomials modulo the Jacobian ideal rejects it
    K = Hamiltonian(x1 ** 3 + 6 * x1 ** 2 * x2 + 6 * x1 * x2 ** 2 + 4 * x2 ** 3 + x1)
    assert not is_basis_regular(K)


@pytest.mark.parametrize("text, regular", [
    ("x1^3+x2^3+i*x1*x2-x1", True),
    ("x1^4+x2^4+i*x1^2*x2^2-x1", True),
    # the principal part (x1 + i x2)^2 x2 is not square-free
    ("(x1+i*x2)^2*x2+x1", False),
    # square-free, but only the rank test over Q(i) rejects it
    ("i*(x1^3+6*x1^2*x2+6*x1*x2^2+4*x2^3)+x1", False),
])
def test_regularity_over_gaussian_rationals(text, regular):
    assert is_basis_regular(Hamiltonian(parse_poly(text, X))) is regular


def test_empty_batches_divide_to_nothing():
    H = Hamiltonian(parse_poly("x2^2/2 + x1^3 - x1", X))
    assert divide_two_form(H, []) == []
    assert divide_one_form(H, [], []) == []


def test_form_in_another_variable_is_refused():
    H = Hamiltonian(parse_poly("x2^2/2 + x1^3 - x1", X))
    a = MultiPoly.var("a", X)
    with pytest.raises(UnsupportedInput) as exc:
        divide_two_form(H, a * MultiPoly.var("x1", X))
    assert exc.value.exit_code == 2
    with pytest.raises(UnsupportedInput):
        divide_one_form(H, MultiPoly.zero(X), a)
    # a variable that does not occur is no variable of the form
    assert divide_two_form(H, MultiPoly.var("x1", ("a",) + X)).verify()


def test_constant_hamiltonian_rejected():
    with pytest.raises(UnsupportedInput):
        Hamiltonian(MultiPoly.const(Fraction(1), X))


def test_division_without_decomposition_names_degree():
    # H = x1^2 has n = 1 and dH = 2 x1 dx1, so x2 = p(H) + 2 x1 E2
    # would give x2 = p(0) at x1 = 0: no degree admits a decomposition
    H = Hamiltonian(parse_poly("x1^2"))
    with pytest.raises(SingularDivision, match=r"at degree \d+"):
        divide_two_form(H, MultiPoly.var("x2", X))


# the seed-1 random Hamiltonian of perfbench's `derive` workload
RANDOM1 = ("x1^3 + x2^3 + (3)*x1^0*x2^0 + (0)*x1^0*x2^1 + (0)*x1^0*x2^2"
           " + (-3/2)*x1^1*x2^0 + (3)*x1^1*x2^1")


def _fingerprint(p):
    """Value, variables and stored terms of a MultiPoly."""
    return p.vars, list(p.terms.items())


@pytest.mark.parametrize("text", ["x1^2/2 + x2^2/2", "x2^2/2 + x1^3 - x1", RANDOM1,
                                  "x1^4+x2^4+x1*x2-x1", "x1^3+x2^3+i*x1"])
def test_batched_division_matches_one_division_per_target(text, monkeypatch):
    """One `_divide` of all the two-form targets H m_a, and of all the
    one-form targets eta_a, gives every target the (degree, cap), the p and
    the cofactors, stored terms included, of its own `_divide`.  The unknown
    labels at which a target succeeds fix (degree, cap)."""
    H = Hamiltonian(parse_poly(text))
    labels = {}
    assemble = division._assemble

    def recording(n, unknowns, y):
        out = assemble(n, unknowns, y)
        labels[id(out)] = [label for label, _ in unknowns]
        return out

    monkeypatch.setattr(division, "_assemble", recording)
    alphas = basis_exponents(H.n)
    two = ([(basis_two_form(a),) for a in alphas], division._eta_unknowns,
           [[H.poly * basis_two_form(a)] for a in alphas])
    batch = division._divide(H, two[2], *two[:2])
    etas = [(cof["e1"], cof["e2"]) for _, cof in batch]
    one = ([basis_one_form(a) for a in alphas], division._uv_unknowns,
           [list(eta) for eta in etas])
    for forms, unknowns, targets in (two, one):
        batch = division._divide(H, targets, forms, unknowns)
        for target, got in zip(targets, batch):
            (own,) = division._divide(H, [target], forms, unknowns)
            assert labels[id(got)] == labels[id(own)]
            assert [_fingerprint(p) for p in got[0]] == [_fingerprint(p) for p in own[0]]
            assert sorted(got[1]) == sorted(own[1])
            for name in own[1]:
                assert _fingerprint(got[1][name]) == _fingerprint(own[1][name])


def test_elliptic_one_form_divisions_take_no_bareiss_step(monkeypatch):
    """The one-form division matrices of the elliptic H are constant, so
    they take the reduced row echelon form and no Bareiss step."""
    H = Hamiltonian(parse_poly("x2^2/2 + x1^3 - x1"))
    etas = [dec.eta for dec in divide_two_form(
        H, [H.poly * basis_two_form(a) for a in basis_exponents(H.n)])]
    steps = []
    step = linalg._bareiss_step
    monkeypatch.setattr(linalg, "_bareiss_step", lambda *a: steps.append(1) or step(*a))
    decs = divide_one_form(H, [e1 for e1, _ in etas], [e2 for _, e2 in etas])
    assert all(dec.verify() and dec.degree_bounds_ok() for dec in decs)
    assert not steps
