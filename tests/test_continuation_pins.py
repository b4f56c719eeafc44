"""float.hex pins of continuation, argument variation, monodromy and oval
quadrature.

Each case runs `continue_solution`, `variation_of_argument`, `monodromy`
or `abelian_integral` on seeded data and hashes the `float.hex` of every
real and imaginary part of its result, so a change that moves any float
in its last bit fails here, where the CLI's 12 printed digits would not
show it.  The sources are real and Gaussian operators of orders 1-3, with
zero coefficients, constant ones (D^2 + 1, D - 1) and one of more than
TERMS_PER_LINE terms, and the pencil-0 systems A(t) of the golden-corpus
Hamiltonians with n = 1-3; the paths are Arcs and Segments, with complex
and with float end points, and the states are tracked and untracked, up to
one above UNROLL (the monodromy of an n = 3 system, 81 scalars).

Record the pins again, after a change that moves a float on purpose, with

    PYTHONPATH=src python tests/test_continuation_pins.py --record

and list every moved case, with the reason, in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from abelint.counting import (UNROLL, ContourPath, continue_solution, monodromy,
                              variation_of_argument)
from abelint.division import Hamiltonian, basis_exponents
from abelint.integrals import abelian_integral
from abelint.parsing import parse_operator, parse_poly
from abelint.picard_fuchs import derive_pfaffian, restrict_to_pencil
from abelint.polynomials import TERMS_PER_LINE
from abelint.slits import Arc, Circle, Segment

PINS = Path(__file__).with_name("continuation_pins.json")

SEED = 20261021

# a coefficient of more than TERMS_PER_LINE terms, small on |t| < 1
MANY = " + ".join(f"{k % 7 - 3}/{k + 2}*t^{k}" for k in range(TERMS_PER_LINE + 6))

OPERATORS = [
    "D - 1",                                    # constant coefficients
    "t*D - 1/2",                                # a regular singular point at 0
    "(1 + i)*D + i*t - 1/2",                    # Gaussian, order 1
    "D^2 + 1",                                  # constant coefficients
    "(t^2+4)*D^2 + t*D + 1",
    "D^2 + t + 1",                              # a zero coefficient of D
    "(t - 2*i)*D^2 + i*t*D + 1/3",              # Gaussian, order 2
    f"D^2 + ({MANY})*D + 1",                    # more than TERMS_PER_LINE terms
    "D^3 + t*D + 1",                            # a zero coefficient of D^2
    "(t^2 + 3)*D^3 + (1/2 - i)*t^2*D^2 + 1",    # Gaussian, a zero coefficient of D
]

# the golden corpus's Hamiltonians with n = 1, 2, 3 (one Gaussian)
HAMILTONIANS = ["x1^2 + x2^2", "x1^2 + 3*x2^2 + x1*x2 - x2",
                "x2^2/2 + x1^3 - x1", "x1^3 + x2^3 - x1*x2 + 2*x1",
                "x1^3 + x2^3 + i*x1*x2 - x1", "x1^4 + x2^4 + x1*x2 - x1"]

# (H, level, seed) of closed real ovals
OVALS = [("x2^2/2 + x1^3 - x1", 0.1, (0.5, 1.0)),
         ("x1^4 + x2^4 + x1*x2 - x1", 1.0, (1.0, 0.5)),
         ("x1^2 + 3*x2^2 + x1*x2 - x2", 0.5, (0.8, 0.2))]


def _hexes(value):
    """float.hex of every real and imaginary part in value, in order."""
    if isinstance(value, (list, tuple, np.ndarray)):
        return [h for v in value for h in _hexes(v)]
    z = complex(value)
    return [z.real.hex(), z.imag.hex()]


def _digest(value):
    return hashlib.sha256(" ".join(_hexes(value)).encode()).hexdigest()


def _cplx(rng):
    return complex(rng.uniform(-1, 1), rng.uniform(-1, 1))


def _operator_cases(i, text):
    """{name: thunk} for one operator: an Arc and a polyline of Segments
    around 0.1 + 0.05i, a Segment with float end points, tracked and not,
    and a circle of numpy scalars."""
    D = parse_operator(text)
    k = D.order
    rng = random.Random(SEED + i)
    y0 = [_cplx(rng) for _ in range(k)]
    combo = [_cplx(rng) if j != 1 else 0j for j in range(k)]
    circle = ContourPath.from_circle(Circle(0.1 + 0.05j, 0.5))
    numpy_circle = ContourPath.from_circle(Circle(np.complex128(0.1 + 0.05j), np.float64(0.5)))
    arc = ContourPath([Arc(0.1 + 0.05j, 0.5, 0.3, 2.0)])
    polyline = ContourPath.from_points([0.6, 0.1 + 0.5j, -0.4 + 0.1j, 0.1 - 0.45j, 0.6])
    floats = ContourPath([Segment(0.6, 0.25)])
    name = f"operator {text if len(text) < 60 else text[:40] + '...'}"
    return {
        f"{name} / continue polyline": lambda: continue_solution(D, polyline, y0),
        f"{name} / continue arc": lambda: continue_solution(D, arc, y0),
        f"{name} / continue floats": lambda: continue_solution(D, floats, np.eye(k)),
        f"{name} / vararg circle": lambda: variation_of_argument(D, circle, y0),
        f"{name} / vararg polyline": lambda: variation_of_argument(D, polyline, y0, combo),
        f"{name} / monodromy circle": lambda: monodromy(D, circle),
        f"{name} / monodromy numpy circle": lambda: monodromy(D, numpy_circle),
    }


@lru_cache(maxsize=None)
def _system(H):
    return restrict_to_pencil(derive_pfaffian(Hamiltonian(parse_poly(H, ("x1", "x2")))), 0)


def _system_cases(i, H):
    """{name: thunk} for the pencil-0 system of H: a circle around its
    singular point of least modulus, at half the distance to the next, in
    Python and in numpy scalars, a triangle inscribed in it and, when that
    point is real, a Segment with float end points inside the circle."""
    def thunks():
        ode = _system(H)
        sing = sorted(ode.singular_points, key=abs)
        s = sing[0]
        r = 0.5 * min((abs(s - q) for q in sing[1:]), default=1.0)
        numpy_circle = ContourPath.from_circle(Circle(s, r))
        circle = ContourPath.from_circle(Circle(complex(s), float(r)))
        triangle = ContourPath.from_points(
            [s + r * np.exp(1j * (0.3 + 2 * np.pi * j / 3)) for j in (0, 1, 2, 0)])
        rng = random.Random(SEED - i)
        ell = ode.ell
        y0 = [_cplx(rng) for _ in range(ell)]
        out = {
            "continue triangle": lambda: continue_solution(ode, triangle, y0),
            "vararg circle": lambda: variation_of_argument(ode, circle, y0),
            "monodromy circle": lambda: monodromy(ode, circle),
            "vararg numpy circle": lambda: variation_of_argument(ode, numpy_circle, y0),
        }
        if ell * ell + 1 <= UNROLL:
            out["vararg triangle matrix"] = lambda: variation_of_argument(
                ode, triangle, np.eye(ell), [_cplx(rng) for _ in range(ell)])
        if s.imag == 0:
            floats = ContourPath([Segment(float(s.real) + r / 2, float(s.real) + r / 4)])
            out["continue floats"] = lambda: continue_solution(ode, floats, np.eye(ell))
        return out
    return thunks


def cases():
    """{name: thunk} of every pinned case; the system cases derive their
    system on first use."""
    out = {}
    for i, text in enumerate(OPERATORS):
        out.update(_operator_cases(i, text))
    for i, H in enumerate(HAMILTONIANS):
        names = ["continue triangle", "vararg circle", "monodromy circle",
                 "vararg numpy circle", "vararg triangle matrix", "continue floats"]
        for name in names:
            out[f"system {H} / {name}"] = (lambda i=i, H=H, name=name:
                                           _system_cases(i, H)()[name]())
    for H, t, seed in OVALS:
        n = max(int(parse_poly(H, ("x1", "x2")).total_degree()) - 1, 1)
        out[f"integral {H} at {t}"] = (lambda H=H, t=t, seed=seed, n=n: abelian_integral(
            parse_poly(H, ("x1", "x2")), t, seed, basis_exponents(n)))
    return out


def _applicable(name):
    """Whether a system case applies to its system (see `_system_cases`)."""
    if not name.startswith("system "):
        return True
    H, case = name[len("system "):].split(" / ")
    return case in _system_cases(HAMILTONIANS.index(H), H)()


PINNED = json.loads(PINS.read_text()) if PINS.exists() else {}


def test_pins_cover_every_case():
    assert set(PINNED) == {name for name in cases() if _applicable(name)}
    # one state above UNROLL: the monodromy of the n = 3 system
    assert _system("x1^4 + x2^4 + x1*x2 - x1").ell ** 2 > UNROLL


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_floats(name):
    assert _digest(cases()[name]()) == PINNED[name]


def record():
    table = {name: _digest(thunk()) for name, thunk in cases().items() if _applicable(name)}
    PINS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_continuation_pins.py --record")
    record()
