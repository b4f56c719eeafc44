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
    H = Hamiltonian(parse_poly(text, ("x1", "x2")))
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
    # recorded while the derivation still divided over Q[l00]
    "x1^4+x2^4+x1*x2-x1":
        "f5b2b58e6f68b0a21c19cb8a300babc030035bc8f707bae7e853a145979278f5",
    # n = 6 with Q01 != 0, so its rows of Q^(0,0) depend on t; recorded
    # before translation and restriction ran on dense lists in t
    "x1^7+x2^7+x1^3*x2^2-x1":
        "0026ab578b1d549a0fa99eeddb81b3392f0e90e639d49d680d64a9f60a1bf629",
}

# sha256 of the stdout of `abelint derive-pf --hamiltonian H`, without
# --pencil: size, P*(0) and Q^(0,0) of the Pfaffian system itself.  Recorded
# while the derivation still divided over Q[l00], before it divided on the
# concrete H0 and translated t -> t - l00
DERIVE_PF_NO_PENCIL_SHA256 = {
    "x1^2/2 + x2^2/2":
        "0818d086fcf6db3ff02a17b402e70ce7708e4e35658d6c7248a10aa40e401b90",
    "x2^2/2 + x1^3 - x1":
        "0c3ef9913bdcffe3335fb1322ca7909c362c98ff880268eae0567c84dca86e8a",
    RANDOM1:
        "a13089d11af38cb36c9c178dd00e0ba1903ae5886f3851697e9dc7e91318225f",
    "x1^4+x2^4+x1*x2-x1":
        "38a7963c9ceb9e643ff689e4d1b4adadfe276e05af67c497741f6330a072cdcf",
    "x1^3+x2^3+i*x1":
        "86e17d748aeaa2a4d6655ea31ee588a2b5eff38c8cf3419d7ed54bdb2e184c81",
}


@pytest.mark.parametrize("text", list(DERIVE_PF_SHA256))
def test_derive_pf_json_is_unchanged(text, capsys):
    assert main(["derive-pf", "--hamiltonian", text, "--pencil", "0"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == DERIVE_PF_SHA256[text]


# sha256 of the stdout of `abelint derive-pf --hamiltonian H --pencil c0` at
# free-term values other than 0, recorded before the restriction solved over
# Z[t] and before --pencil was read exactly (1/2 was then given as 0.5)
DERIVE_PF_PENCIL_SHA256 = {
    ("x2^2/2 + x1^3 - x1", "1/2"):
        "fb85ab41347fd0923ba2b4aff816929c88ca1ad2225300635007c91520097a2a",
    ("x2^2/2 + x1^3 - x1", "-3"):
        "6be33b02fe6b7a464a9c5fe763615f66f7bd89be5277c94b42cd392e12d205e6",
    (RANDOM1, "1/2"):
        "3c9d48a59f0c8394af08d3500ad296324448bfbf1487abd237c2f85d0e44f8c9",
    (RANDOM1, "-3"):
        "18d4736e3468875d9c3ece794b127fd4b1878b8b6e74351294b184ed8decd177",
    ("x1^3+x2^3+i*x1", "1/2"):
        "71bb506005b6ca32ff14bf20f33b8090aebce01a924ba531b998833e09f8dd23",
    ("x1^3+x2^3+i*x1", "-3"):
        "5dcbacd004d9819193d1bbef586d38f629603d030223da5253a4750d35b35faf",
}


@pytest.mark.parametrize("text,c0", list(DERIVE_PF_PENCIL_SHA256))
def test_derive_pf_json_off_zero_is_unchanged(text, c0, capsys):
    assert main(["derive-pf", "--hamiltonian", text, "--pencil", c0]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == DERIVE_PF_PENCIL_SHA256[text, c0]


@pytest.mark.parametrize("text", list(DERIVE_PF_NO_PENCIL_SHA256))
def test_derive_pf_system_json_is_unchanged(text, capsys):
    assert main(["derive-pf", "--hamiltonian", text]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == DERIVE_PF_NO_PENCIL_SHA256[text]


def _reversed_storage(p):
    return MultiPoly(p.vars, dict(reversed(list(p.terms.items()))))


def test_eval_ignores_term_storage():
    """A(t) with every entry's terms stored in reverse gives bit-identical
    `eval` floats and the same scalar operator, stored terms included:
    `eval` reads dense coefficients and the reduction ends in
    `standard_form`."""
    H = Hamiltonian(parse_poly(RANDOM1, ("x1", "x2")))
    ode = restrict_to_pencil(derive_pfaffian(H), free_term_value=0)
    A = FieldMatrix([[RatFunc(_reversed_storage(e.num), _reversed_storage(e.den),
                              canonical=True) for e in row] for row in ode.A.data])
    assert _matrix(A) != _matrix(ode.A)
    other = LinearODESystem(A, ode.singular_poly)
    for t in (0.3, -1.7 + 0.4j, 2.5j, 11.0):
        assert np.array(other.eval(t)).tobytes() == np.array(ode.eval(t)).tobytes()
    assert _hash([_poly(c) for c in reduce_to_scalar(other).coeffs]) == \
        _hash([_poly(c) for c in reduce_to_scalar(ode).coeffs])


# sha256 of repr() of numeric outputs of the quadrature, continuation and
# winding code.  The critical-value entry was recorded before its inner
# loops became generated straight-line kernels, which keep every float
# operation and its order.  The continuation entries were recorded when
# continuation moved from scipy's `solve_ivp` to the in-house DOP853 stepper
# on Python complex scalars: it takes the same steps, but sums in another
# order, so their last bits moved.  The four quadrature entries and
# "phi periods", whose initial data are quadrature values, were recorded
# when the quadrature moved from a step-halved RK4 walk to DOP853 passes:
# they moved by at most 1.2e-9 relative (the old walk's error at t = 0.2),
# and "phi periods" by 9.3e-14.  "continue" and "phi periods" were
# recorded again when `LinearODESystem.eval` moved from numpy to a generated
# kernel on Python complex scalars: CPython divides complex numbers
# otherwise than numpy, which multiplies by the reciprocal of Smith's
# denominator, so A(t) moved in its last bits, and the two outputs by
# 5.0e-16 and 2.0e-14 relative to their largest entry
ELLIPTIC_A = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "perfbench", "data", "elliptic_A.json")
NUMERIC_SHA256 = {
    "integral -0.2": "e59a328dc28028b47cb8839387b8d38c72bf4ace089635200323ea4ecbf8c0df",
    "integral 0.0": "1014078132a2af60ecdb454d46f4ba76ee8ac4abcb27d70f8b92cb9ac9a9202f",
    "integral 0.2": "fb149f2a63b40ed7cc6f435c1070fde589f8900d64098e11a3c6ae3ed3bbc6e3",
    "integral quartic": "a063b4194683ac032cfc9fa5e0426e3f82ef4c78646f82be27fd3d27c4fc7b67",
    "critical values": "4cd9e07f76a949b256f0d4e017b5dffa7cebe16b72d553757f747e171e5cd8e6",
    "continue": "47045c74154521e4fa4dcd569f126dbf2988eb6d9f67c82d0347b1f0080db06b",
    "monodromy": "5a8dd9bb79f4718eb09212b5468b97025ded455cafec9fec80154b5e1acf4791",
    "phi sin": "fe007296e9372268eb8ea388e4cb94f44d8565874abe2f06a8a15e57119395cb",
    "phi periods": "e5e5703fb54501a9c747dcbb8947e6c5f5e62983b53475a9a42d8ef0b0f689d1",
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
