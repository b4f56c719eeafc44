"""JSON round-trips preserve exact values."""

import random
from fractions import Fraction

from abelint.linalg import FieldMatrix
from abelint.operators import (circle_to_real_axis_map, pullback, standard_form,
                               symmetrize)
from abelint.parsing import parse_operator, parse_poly
from abelint.ratfunc import RatFunc
from abelint.serialize import dumps, loads
from abelint.slits import build_slits
from abelint.config import RunConfig
from abelint.polynomials import MultiPoly
from abelint.qi import GaussianRational


def test_poly_roundtrip():
    p = parse_poly("x1^3 - 2/3*x2 + i*x1*x2", ("x1", "x2"))
    q = loads(dumps(p))
    assert (p - q).is_zero()


def test_ratfunc_roundtrip():
    t = MultiPoly.var("t")
    one = MultiPoly.const(Fraction(1), ("t",))
    r = RatFunc(t * t + one, t - one)
    assert (loads(dumps(r)) - r).is_zero()


def test_canonical_encoding_golden():
    """The encoding itself, not only the value: canonical forms fix which
    representative is written, including its unit factor over Q(i)."""
    t = ("t",)
    r = RatFunc(parse_poly("t^5 - 1", t), parse_poly("2*t - 2", t))
    assert dumps(r, indent=None) == (
        '{"type": "ratfunc", "num": {"type": "poly", "vars": ["t"], "terms": '
        '[[[0], "1/2"], [[1], "1/2"], [[2], "1/2"], [[3], "1/2"], [[4], "1/2"]]}, '
        '"den": {"type": "poly", "vars": ["t"], "terms": [[[0], "1"]]}}')
    D = pullback(parse_operator("t*D - 1"), circle_to_real_axis_map(0, 0, 2))
    assert dumps(D, indent=None) == (
        '{"type": "operator", "coeffs": [{"type": "poly", "vars": ["t"], "terms": '
        '[[[0], {"re": "0", "im": "1"}], [[2], {"re": "0", "im": "1"}]]}, '
        '{"type": "poly", "vars": ["t"], "terms": [[[0], "2"]]}]}')
    tt = parse_poly("t", t)
    one = RatFunc(parse_poly("1", t))
    D = standard_form([one / RatFunc(tt), one / RatFunc(tt - GaussianRational(0, 1))])
    assert dumps(D, indent=None) == (
        '{"type": "operator", "coeffs": [{"type": "poly", "vars": ["t"], "terms": '
        '[[[0], {"re": "0", "im": "-1"}], [[1], "1"]]}, '
        '{"type": "poly", "vars": ["t"], "terms": [[[1], "1"]]}]}')


def test_symmetrized_operator_golden():
    """Symmetrizing across the unit circle runs lclm's verified solves over
    Q(i)(t); the canonical encoding of the result is pinned."""
    D = symmetrize(parse_operator("(t^2-1)*D^2 + t*D - 1"),
                   circle_to_real_axis_map(0, 0, 1))
    assert dumps(D, indent=None) == (
        '{"type": "operator", "coeffs": [{"type": "poly", "vars": ["t"], "terms": '
        '[[[2], "1"], [[4], "-2"], [[6], "1"]]}, {"type": "poly", "vars": ["t"], '
        '"terms": [[[1], "3"], [[3], "-12"], [[5], "9"]]}, {"type": "poly", '
        '"vars": ["t"], "terms": [[[0], "-3"], [[2], "-9"], [[4], "15"]]}, '
        '{"type": "poly", "vars": ["t"], "terms": [[[1], "3"]]}, '
        '{"type": "poly", "vars": ["t"], "terms": [[[0], "-3"]]}]}')


def test_operator_roundtrip():
    D = parse_operator("(t^2-1)*D^2 + t*D - 1")
    D2 = loads(dumps(D))
    assert D2.order == D.order
    assert all((a - b).is_zero() for a, b in zip(D.coeffs, D2.coeffs))


def test_matrix_roundtrip():
    t = RatFunc(MultiPoly.var("t"))
    M = FieldMatrix([[t, 1 / t], [t * t, t + 1]])
    M2 = loads(dumps(M))
    for r1, r2 in zip(M.data, M2.data):
        for a, b in zip(r1, r2):
            assert (a - b).is_zero()


def test_slit_system_roundtrip():
    system = build_slits([0j, 1 + 0j, 5 + 2j], RunConfig())
    s2 = loads(dumps(system))
    assert len(s2.circles) == len(system.circles)
    assert len(s2.segments) == len(system.segments)
    assert s2.points == system.points
    assert abs(s2.total_normalized_length() -
               system.total_normalized_length()) < 1e-15
