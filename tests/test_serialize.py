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
    representative is written."""
    t = ("t",)
    r = RatFunc(parse_poly("t^5 - 1", t), parse_poly("2*t - 2", t))
    assert dumps(r, indent=None) == (
        '{"type": "ratfunc", "num": {"type": "poly", "vars": ["t"], "terms": '
        '[[[0], "1/2"], [[1], "1/2"], [[2], "1/2"], [[3], "1/2"], [[4], "1/2"]]}, '
        '"den": {"type": "poly", "vars": ["t"], "terms": [[[0], "1"]]}}')
    D = pullback(parse_operator("t*D - 1"), circle_to_real_axis_map(0, 0, 2))
    assert dumps(D, indent=None) == (
        '{"type": "operator", "coeffs": [{"type": "poly", "vars": ["t"], "terms": '
        '[[[0], "1"], [[2], "1"]]}, '
        '{"type": "poly", "vars": ["t"], "terms": [[[0], {"re": "0", "im": "-2"}]]}]}')
    tt = parse_poly("t", t)
    # (1/t) D + 1/(t - i), cleared by t (t - i)
    D = standard_form([tt - GaussianRational(0, 1), tt])
    assert dumps(D, indent=None) == (
        '{"type": "operator", "coeffs": [{"type": "poly", "vars": ["t"], "terms": '
        '[[[0], {"re": "0", "im": "-1"}], [[1], "1"]]}, '
        '{"type": "poly", "vars": ["t"], "terms": [[[1], "1"]]}]}')


def test_symmetrized_operator_golden():
    """Symmetrizing across the unit circle runs lclm's verified solves over
    Q(t); the canonical encoding of the result is pinned, and so is the
    term order of each coefficient, which feeds the float evaluations."""
    D = symmetrize(parse_operator("(t^2-1)*D^2 + t*D - 1"),
                   circle_to_real_axis_map(0, 0, 1))
    assert dumps(D, indent=None) == (
        '{"type": "operator", "coeffs": [{"type": "poly", "vars": ["t"], "terms": '
        '[[[2], "1"], [[4], "-2"], [[6], "1"]]}, {"type": "poly", "vars": ["t"], '
        '"terms": [[[1], "3"], [[3], "-12"], [[5], "9"]]}, {"type": "poly", '
        '"vars": ["t"], "terms": [[[0], "-3"], [[2], "-9"], [[4], "15"]]}, '
        '{"type": "poly", "vars": ["t"], "terms": [[[1], "3"]]}, '
        '{"type": "poly", "vars": ["t"], "terms": [[[0], "-3"]]}]}')
    assert [list(c.poly.keys()) for c in D.coeffs] == [
        [(6,), (4,), (2,)], [(5,), (3,), (1,)], [(4,), (2,), (0,)], [(1,)], [(0,)]]


def test_symmetrized_order_three_golden():
    """Symmetrizing an order-3 operator across the unit circle gives a
    pinned operator of order 6; every coefficient stores its terms in
    descending order."""
    D = symmetrize(parse_operator("D^3 + t^2*D + 7"), circle_to_real_axis_map(0, 0, 1))
    assert dumps(D, indent=None) == (
        '{"type": "operator", "coeffs": [{"type": "poly", "vars": ["t"], "terms": [[[6], "50"]'
        ', [[8], "-71"], [[9], "-1344"], [[10], "138"], [[11], "252"]'
        ', [[12], "1757"], [[13], "252"], [[14], "2014"], [[15], "6384"]'
        ', [[16], "2014"], [[17], "252"], [[18], "1757"], [[19], "252"]'
        ', [[20], "138"], [[21], "-1344"], [[22], "-71"], [[24], "50"]]}'
        ', {"type": "poly", "vars": ["t"], "terms": [[[5], "1200"]'
        ', [[7], "-1562"], [[8], "-28224"], [[9], "2760"], [[10], "4788"]'
        ', [[11], "31626"], [[12], "4284"], [[13], "32224"], [[14], "95760"]'
        ', [[15], "28196"], [[16], "3276"], [[17], "21084"], [[18], "2772"]'
        ', [[19], "1380"], [[20], "-12096"], [[21], "-568"], [[23], "300"]]}'
        ', {"type": "poly", "vars": ["t"], "terms": [[[0], "50"], [[2], "-71"]'
        ', [[3], "-1344"], [[4], "9438"], [[5], "252"], [[6], "-8893"]'
        ', [[7], "-176162"], [[8], "17220"], [[9], "26712"], [[10], "147209"]'
        ', [[11], "7518"], [[12], "121571"], [[13], "262808"], [[14], "81291"]'
        ', [[15], "-2562"], [[16], "41789"], [[17], "6552"], [[18], "3420"]'
        ', [[19], "-14882"], [[20], "1047"], [[21], "252"], [[22], "438"]'
        ', [[23], "-1344"], [[24], "-71"], [[26], "50"]]}'
        ', {"type": "poly", "vars": ["t"], "terms": [[[0], "-350"], [[1], "142"]'
        ', [[2], "4529"], [[3], "36456"], [[4], "-2226"], [[5], "-37866"]'
        ', [[6], "-356601"], [[7], "-1146"], [[8], "-104307"], [[9], "-45664"]'
        ', [[10], "-139132"], [[11], "2706"], [[12], "-338352"], [[13], "6066"]'
        ', [[14], "17668"], [[15], "125452"], [[16], "152691"], [[17], "42186"]'
        ', [[18], "16737"], [[19], "33390"], [[20], "5250"], [[21], "-7200"]'
        ', [[22], "-20657"], [[23], "-994"], [[24], "350"], [[25], "600"]]}'
        ', {"type": "poly", "vars": ["t"], "terms": [[[2], "50"], [[4], "-71"]'
        ', [[5], "7056"], [[6], "14538"], [[7], "-10682"], [[8], "-213135"]'
        ', [[9], "-277802"], [[10], "62554"], [[11], "268758"], [[12], "314314"]'
        ', [[13], "253078"], [[14], "932733"], [[15], "881272"], [[16], "227334"]'
        ', [[17], "159390"], [[18], "154057"], [[19], "22428"], [[20], "-76918"]'
        ', [[21], "-75558"], [[22], "-3408"], [[23], "2100"], [[24], "1800"]]}'
        ', {"type": "poly", "vars": ["t"], "terms": [[[0], "350"], [[1], "100"]'
        ', [[2], "-847"], [[3], "-9408"], [[4], "67907"], [[5], "59496"]'
        ', [[6], "-63973"], [[7], "-1291910"], [[8], "-645533"], [[9], "224198"]'
        ', [[10], "990150"], [[11], "385578"], [[12], "772513"]'
        ', [[13], "2142560"], [[14], "916419"], [[15], "157896"]'
        ', [[16], "277123"], [[17], "159350"], [[18], "20251"], [[19], "-100224"]'
        ', [[20], "-59780"], [[21], "-2556"], [[22], "2100"], [[23], "1200"]]}'
        ', {"type": "poly", "vars": ["t"], "terms": [[[0], "-2450"], [[1], "994"]'
        ', [[2], "31703"], [[3], "255192"], [[4], "-15582"], [[5], "-265062"]'
        ', [[6], "-2498657"], [[7], "-18522"], [[8], "-726670"], [[9], "-239876"]'
        ', [[10], "-726670"], [[11], "-18522"], [[12], "-2498657"]'
        ', [[13], "-265062"], [[14], "-15582"], [[15], "255192"], [[16], "31703"]'
        ', [[17], "994"], [[18], "-2450"]]}]}')
    assert all(list(c.poly.keys()) == sorted(c.poly.keys(), reverse=True)
               for c in D.coeffs)


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
    system = build_slits([0j, 1 + 0j, 5 + 2j])
    s2 = loads(dumps(system))
    assert len(s2.circles) == len(system.circles)
    assert len(s2.segments) == len(system.segments)
    assert s2.points == system.points
    assert abs(s2.total_normalized_length() -
               system.total_normalized_length()) < 1e-15
