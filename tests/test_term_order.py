"""Golden term order of the derived objects.

Numeric evaluation sums a polynomial's terms in stored order, so a change
that keeps every value but reorders terms can still move a float result.
Each fingerprint hashes the variables and the terms, in stored order, of
every polynomial in one derived object: P*, the etas, Q^(0,0), the pencil
A(t) and the scalar operator of the cyclic-vector reduction.  The expected
values were recorded before the exact solve skipped zero products and unit
denominators; a change that alters one must say why.  A(t) stores its terms
in descending order, so its hash moved once when that began; no float reads
A's storage order (`test_eval_ignores_term_storage`).
"""

import cmath
import hashlib
import json
import os

import numpy as np
import pytest

from abelint.cli import main
from abelint.counting import (ContourPath, continue_solution, monodromy,
                              variation_of_argument)
from abelint.division import Hamiltonian, basis_exponents
from abelint.integrals import abelian_integral, critical_values
from abelint.operators import reduce_to_scalar
from abelint.linalg import FieldMatrix
from abelint.parsing import parse_operator, parse_poly
from abelint.picard_fuchs import LinearODESystem, derive_pfaffian, restrict_to_pencil
from abelint.polynomials import MultiPoly
from abelint.ratfunc import RatFunc, ratfunc_lcm_den
from abelint.serialize import loads
from abelint.slits import Circle

# perfbench's random_hamiltonian(random.Random(1)), the seed-1 `derive` input
RANDOM1 = ("x1^3 + x2^3 + (3)*x1^0*x2^0 + (0)*x1^0*x2^1 + (0)*x1^0*x2^2"
           " + (-3/2)*x1^1*x2^0 + (3)*x1^1*x2^1")

GOLDEN = {
    "x1^2/2 + x2^2/2": {
        "Pstar": "45ade8a5a45a2649", "etas": "8e2a1360f0e29d50",
        "Q00": "3c14a7ae8a51e6dc", "A": "22828d0c87d9b55d",
        "scalar": "a3c8e77a1f4a2a28"},
    "x2^2/2 + x1^3 - x1": {
        "Pstar": "26aba7d69455b03d", "etas": "4b5c7d4733146cde",
        "Q00": "17eb4668e0228777", "A": "37a81702e1b13780",
        "scalar": "b79a2dce19ffb16e"},
    RANDOM1: {
        "Pstar": "5f816da476023266", "etas": "828e52a78ee89b96",
        "Q00": "b3a1d29fd058ea37", "A": "782c4dab5849aa9d",
        "scalar": "143c5426a49d3555"},
}


def _poly(p):
    return (p.vars, [(m, str(c)) for m, c in p.terms.items()])


def _ratfunc(r):
    return (_poly(r.num), _poly(r.den))


def _matrix(M):
    return [[_ratfunc(e) for e in row] for row in M.data]


def _hash(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


@pytest.mark.parametrize("text", list(GOLDEN))
def test_derived_term_order_is_unchanged(text):
    H = Hamiltonian.from_x_poly(parse_poly(text, ("x1", "x2")))
    system = derive_pfaffian(H)
    ode = restrict_to_pencil(system, free_term_value=0)
    D = reduce_to_scalar(ode)
    got = {
        "Pstar": _hash(_matrix(system.Pstar)),
        "etas": _hash([[_ratfunc(e) for e in pair] for pair in system.etas]),
        "Q00": _hash(_matrix(system.Q[(0, 0)])),
        "A": _hash(_matrix(ode.A)),
        "scalar": _hash([_poly(c) for c in D.coeffs]),
    }
    assert got == GOLDEN[text]


# sha256 of the stdout of `abelint derive-pf --hamiltonian H --pencil 0`,
# recorded before the solve ran on polynomial rows: the JSON lists every
# entry's variables, so this pins the ring of each entry as well as its value
DERIVE_PF_SHA256 = {
    "x1^2/2 + x2^2/2":
        "b432ddc687459b1356c10a73de31421f5015a1f35f460ed36d50888d50d1f9ba",
    "x2^2/2 + x1^3 - x1":
        "fbe3a70c508c2897c0338f4aa319431d1fbb4d273a5d89f1ebcee91eb31da832",
    RANDOM1:
        "ec747b0e194780a23706bbe67bc2a3b2d3de11b4843fc1e95d8695449adb5ebe",
}


@pytest.mark.parametrize("text", list(DERIVE_PF_SHA256))
def test_derive_pf_json_is_unchanged(text, capsys):
    assert main(["derive-pf", "--hamiltonian", text, "--pencil", "0"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == DERIVE_PF_SHA256[text]


def _reversed_storage(p):
    return MultiPoly(p.vars, dict(reversed(list(p.terms.items()))))


def test_eval_ignores_term_storage():
    """A(t) with every entry's terms stored in reverse gives bit-identical
    `eval` floats and the same scalar operator, stored terms included:
    `eval` reads dense coefficients and the reduction ends in
    `standard_form`."""
    H = Hamiltonian.from_x_poly(parse_poly(RANDOM1, ("x1", "x2")))
    ode = restrict_to_pencil(derive_pfaffian(H), free_term_value=0)
    A = FieldMatrix([[RatFunc(_reversed_storage(e.num), _reversed_storage(e.den),
                              canonical=True) for e in row] for row in ode.A.data])
    assert _matrix(A) != _matrix(ode.A)
    other = LinearODESystem(A, ode.singular_poly)
    for t in (0.3, -1.7 + 0.4j, 2.5j, 11.0):
        assert np.array_equal(other.eval(t), ode.eval(t))
    assert _hash([_poly(c) for c in reduce_to_scalar(other).coeffs]) == \
        _hash([_poly(c) for c in reduce_to_scalar(ode).coeffs])


# sha256 of repr() of numeric outputs of the quadrature, continuation and
# winding code.  The quadrature and critical-value entries were recorded
# before their inner loops became generated straight-line kernels, which
# keep every float operation and its order.  The four continuation entries
# were recorded when continuation moved from scipy's `solve_ivp` to the
# in-house DOP853 stepper on Python complex scalars: it takes the same
# steps, but sums in another order, so their last bits moved (by at most
# 7.7e-14 relative, on "phi periods")
ELLIPTIC_A = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "perfbench", "data", "elliptic_A.json")
NUMERIC_SHA256 = {
    "integral -0.2": "2ffd7591ff7ee9e64261e835e438916bfdf5e929e7aed03fcd8d90bfb9ffeac5",
    "integral 0.0": "9060825700d26512d1c7df6d4bec852e925a6c3b7b0b6ed2b1e52319008ad474",
    "integral 0.2": "565d4250a36f51b8641d9bba1c33be7b167f5e3fb5631313472facd8213dd301",
    "integral quartic": "e66cefbda5dc0e02ac800e40231aac0a3cfc8b7403995a4c968ef10cd7a05a2f",
    "critical values": "4cd9e07f76a949b256f0d4e017b5dffa7cebe16b72d553757f747e171e5cd8e6",
    "continue": "74fa8d77bff7790d88508f1bf008631e81d3df23ee3b8d5c8ada68e9158f7110",
    "monodromy": "5a8dd9bb79f4718eb09212b5468b97025ded455cafec9fec80154b5e1acf4791",
    "phi sin": "fe007296e9372268eb8ea388e4cb94f44d8565874abe2f06a8a15e57119395cb",
    "phi periods": "419172b850531f88d2babd9e970e45b1d7258896d323d807c352d15aab127e5b",
}


def _numeric_outputs():
    elliptic = parse_poly("x2^2/2 + x1^3 - x1", ("x1", "x2"))
    quartic = parse_poly("x1^4+x2^4+x1*x2-x1", ("x1", "x2"))
    with open(ELLIPTIC_A) as fh:
        A = loads(json.dumps({"A": json.load(fh)}))["A"]
    ode = LinearODESystem(A, ratfunc_lcm_den(A.flatten()))
    out = {}
    for t in (-0.2, 0.0, 0.2):
        out[f"integral {t}"] = abelian_integral(elliptic, t, (0.5, 1.0),
                                                basis_exponents(2))
    out["integral quartic"] = abelian_integral(quartic, 1.0, (1.0, 0.5),
                                               basis_exponents(3))
    out["critical values"] = (critical_values(elliptic), critical_values(quartic))
    # arrays as lists: the repr of an array rounds its entries
    out["continue"] = continue_solution(
        ode, ContourPath.from_points([0.1, 0.1j, -0.1]), np.eye(4)).tolist()
    out["monodromy"] = [
        monodromy(parse_operator(text), ContourPath.from_circle(Circle(c, r))).tolist()
        for text, c, r in (("t*D - 1/2", 0j, 1.0),
                           ("(t^2+4)*D^2+t*D+1", 0.5 + 0.5j, 3.0))]
    c = Circle(1 + 0j, 2.5)
    z0 = c.point_at(0.0)
    out["phi sin"] = variation_of_argument(
        parse_operator("D^2 + 1"), ContourPath.from_circle(c),
        [cmath.sin(z0), cmath.cos(z0)])[0]
    y0 = np.array(abelian_integral(elliptic, 0.25, (0.5, 1.0), basis_exponents(2)),
                  dtype=complex)
    Xs = abelian_integral(elliptic, 0.18, (0.5, 1.0), basis_exponents(2))
    out["phi periods"] = variation_of_argument(
        ode, ContourPath.from_circle(Circle(0j, 0.25)), y0,
        combo=[Xs[2], 0.0, -Xs[0], 0.0])[0]
    return out


def test_numeric_outputs_are_unchanged():
    got = {name: hashlib.sha256(repr(v).encode()).hexdigest()
           for name, v in _numeric_outputs().items()}
    assert got == NUMERIC_SHA256
