"""Shared fixtures: the elliptic example is expensive to derive, so the
Pfaffian system, pencil restriction and scalar reduction are computed once
per session."""

from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from abelint.division import Hamiltonian, basis_exponents
from abelint.integrals import abelian_integral
from abelint.operators import reduce_to_scalar
from abelint.picard_fuchs import derive_pfaffian, restrict_to_pencil
from abelint.polynomials import MultiPoly

XVARS = ("x1", "x2")


def elliptic_poly():
    x1 = MultiPoly.var("x1", XVARS)
    x2 = MultiPoly.var("x2", XVARS)
    return x2 * x2 * MultiPoly.const(Fraction(1, 2), XVARS) + x1 ** 3 - x1


class EllipticCase:
    """H = x2^2/2 + x1^3 - x1 with everything derived from it."""

    def __init__(self):
        self.H0 = elliptic_poly()
        self.H = Hamiltonian(self.H0)
        self.system = derive_pfaffian(self.H)
        self.ode = restrict_to_pencil(self.system, free_term_value=0)
        self.scalar = reduce_to_scalar(self.ode)
        self.alphas = basis_exponents(2)
        self.seed = (0.5, 1.0)

    @lru_cache(maxsize=4096)
    def periods(self, t, rel_tol=1e-9):
        """Quadrature period vector X(t) over the oval around (1/sqrt3, 0)."""
        return np.array(abelian_integral(self.H0, t, self.seed, self.alphas,
                                         rel_tol=rel_tol))


@pytest.fixture(scope="session")
def elliptic():
    return EllipticCase()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the one-line acceptance verdicts even when stdout is captured."""
    import sys

    mod = sys.modules.get("test_acceptance")
    if mod is not None and mod.RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in mod.RESULTS:
            terminalreporter.write_line(line)
