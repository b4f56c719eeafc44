"""Module division of forms: exactness and degree bounds."""

import random
from fractions import Fraction

import pytest

from abelint.division import (Hamiltonian, basis_exponents, divide_one_form,
                              divide_two_form, is_basis_regular)
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


def test_constant_hamiltonian_rejected():
    with pytest.raises(UnsupportedInput):
        Hamiltonian(MultiPoly.const(Fraction(1), X))


def test_division_without_decomposition_names_degree():
    # H = x1^2 + l00 has n = 1 and dH = 2 x1 dx1, so x2 = p(H) + 2 x1 E2
    # would give x2 = p(l00) at x1 = 0: no degree admits a decomposition
    H = Hamiltonian.from_x_poly(parse_poly("x1^2"))
    with pytest.raises(SingularDivision, match=r"at degree \d+"):
        divide_two_form(H, MultiPoly.var("x2", X))
